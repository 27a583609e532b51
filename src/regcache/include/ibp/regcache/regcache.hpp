#pragma once

// Pin-down cache (lazy deregistration), after Tezuka et al. [9] and the
// MPICH2-CH3-IB registration pool the paper references.
//
// acquire() returns a registration covering the requested range:
//   * cache hit  — an existing MR already covers it; no cost,
//   * cache miss — registers the page-aligned hull of the range (charging
//     full registration time) and caches it.
//
// release() is a no-op while lazy mode is on — memory stays pinned, which
// is exactly the drawback the paper discusses (§1: "memory remains
// allocated to the application during their whole runtime. This can lead
// to less available physical memory").
//
// With lazy mode off, acquire registers and release immediately
// deregisters (the paper's Figure 5 "deactivated" configuration). The
// mode is fixed for the cache's life.
//
// The cache is one address-ordered map of entries, keyed by each MR's
// start address. An entry counts the acquires not yet released.
//
// invalidate() must be called when a cached range is freed/unmapped (the
// classic pin-down-cache correctness hazard).

#include <cstdint>
#include <map>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/types.hpp"
#include "ibp/verbs/verbs.hpp"

namespace ibp::regcache {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t releases = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t pinned_bytes = 0;       // currently cached
  std::uint64_t pinned_bytes_peak = 0;
};

class RegCache {
 public:
  RegCache(verbs::Context& vctx, bool lazy) : vctx_(&vctx), lazy_(lazy) {}

  ~RegCache() {
    // Leave MRs registered; the owning simulation tears the world down
    // wholesale. flush() exists for tests that need clean accounting.
  }

  /// Registration covering [addr, addr+len). While lazy, the returned
  /// registration is reference-held until the matching release().
  verbs::Mr acquire(VirtAddr addr, std::uint64_t len) {
    IBP_CHECK(len > 0, "acquire of empty range");
    const mem::Mapping* m = vctx_->space().find(addr, len);
    IBP_CHECK(m != nullptr, "acquire over unmapped range");
    if (lazy_) {
      auto it = cache_.upper_bound(addr);
      if (it != cache_.begin()) {
        --it;
        Entry& e = it->second;
        if (addr >= e.mr.addr && addr + len <= e.mr.addr + e.mr.length) {
          ++stats_.hits;
          ++e.refs;
          return e.mr;
        }
      }
    }
    ++stats_.misses;
    // Register the page-aligned hull so nearby buffers in the same pages
    // hit the cache later. The hull never leaves its mapping.
    const std::uint64_t psz = m->page_size();
    const VirtAddr lo = std::max(m->va_base, align_down(addr, psz));
    const VirtAddr hi =
        std::min(m->va_base + m->length, align_up(addr + len, psz));

    verbs::Mr mr = vctx_->reg_mr(lo, hi - lo);
    if (lazy_) {
      auto [it, inserted] = cache_.emplace(mr.addr, Entry{mr, 1, {}});
      if (!inserted) {
        // A narrower registration already starts at this page-aligned
        // hull base (the covering check above missed because it does
        // not reach addr+len). Keep the wider MR as the entry's face;
        // the superseded one may still back in-flight transfers, so it
        // is retired — deregistered with the entry, not before.
        Entry& e = it->second;
        ++e.refs;
        if (mr.length >= e.mr.length) {
          e.retired.push_back(e.mr);
          e.mr = mr;
        } else {
          e.retired.push_back(mr);
        }
      }
      stats_.pinned_bytes += mr.length;
      stats_.pinned_bytes_peak =
          std::max(stats_.pinned_bytes_peak, stats_.pinned_bytes);
    }
    return mr;
  }

  /// Done with a registration obtained from acquire(). Lazy mode drops
  /// the in-flight reference (the registration stays cached); otherwise
  /// the region is deregistered now.
  void release(const verbs::Mr& mr) {
    ++stats_.releases;
    if (!lazy_) {
      vctx_->dereg_mr(mr);
      return;
    }
    // An entry already dropped by invalidate() has nothing left to count.
    auto it = cache_.find(mr.addr);
    if (it != cache_.end() && it->second.refs > 0) --it->second.refs;
  }

  /// Drop any cached registrations intersecting [addr, addr+len) — must be
  /// called before the memory is freed or unmapped.
  void invalidate(VirtAddr addr, std::uint64_t len) {
    auto it = cache_.lower_bound(addr);
    if (it != cache_.begin()) --it;
    while (it != cache_.end() && it->second.mr.addr < addr + len) {
      const verbs::Mr& mr = it->second.mr;
      if (mr.addr + mr.length > addr) {
        ++stats_.invalidations;
        it = drop(it);
      } else {
        ++it;
      }
    }
  }

  /// Deregister everything (test teardown / accounting).
  void flush() {
    for (auto it = cache_.begin(); it != cache_.end();) it = drop(it);
  }

  /// True while registrations outlive their transfer (the pin-down cache).
  bool lazy() const { return lazy_; }
  const CacheStats& stats() const { return stats_; }
  std::size_t entries() const { return cache_.size(); }
  /// Acquires of cached registrations not yet released (0 once every
  /// transfer has finished).
  std::uint64_t in_flight() const {
    std::uint64_t n = 0;
    for (const auto& [base, e] : cache_) n += e.refs;
    return n;
  }

 private:
  struct Entry {
    verbs::Mr mr;
    std::uint32_t refs = 0;  // in-flight transfers using this MR
    // Same-hull registrations this entry superseded; they may back
    // transfers still in flight, so they deregister with the entry.
    std::vector<verbs::Mr> retired;
  };
  using Map = std::map<VirtAddr, Entry>;

  /// Deregister an entry and everything it retired; returns the next one.
  Map::iterator drop(Map::iterator it) {
    Entry& e = it->second;
    for (const verbs::Mr& r : e.retired) {
      stats_.pinned_bytes -= r.length;
      vctx_->dereg_mr(r);
    }
    stats_.pinned_bytes -= e.mr.length;
    vctx_->dereg_mr(e.mr);
    return cache_.erase(it);
  }

  verbs::Context* vctx_;
  bool lazy_;
  CacheStats stats_;
  Map cache_;
};

}  // namespace ibp::regcache
