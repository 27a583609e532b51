#pragma once

// Split data-TLB model.
//
// Real CPUs of the paper's era dedicate separate translation entries to
// 4 KB and large pages, with wildly asymmetric capacities — the AMD
// Opteron the paper instruments has 544 four-KB entries (L1+L2 DTLB) but
// only 8 two-MB entries. This asymmetry is the mechanism behind the
// paper's §5.2 observation that hugepages *increase* TLB misses (up to 8×
// on EP) even while overall runtime improves. We model each half as a
// fully associative LRU array, which is optimistic but preserves the
// capacity cliff the paper depends on.

#include <cstdint>

#include "ibp/common/lru.hpp"
#include "ibp/common/types.hpp"

namespace ibp::cpu {

struct TlbConfig {
  std::uint32_t small_entries = 544;  // 4 KB entries (Opteron L1+L2 DTLB)
  std::uint32_t huge_entries = 8;     // 2 MB entries
  TimePs walk_cost = ns(120);         // cold page-table walk on a miss
  /// The hardware walker caches page-table nodes: a TLB miss whose
  /// translation was walked recently costs far less than a cold walk.
  /// This is why a workload can show many times more TLB *misses* with
  /// hugepages (8-entry 2 MB TLB thrashing) while barely paying for them
  /// — the mechanism behind the paper's §5.2 observation.
  std::uint32_t walk_cache_entries = 4096;
  TimePs hot_walk_cost = ns(12);
};

struct TlbStats {
  std::uint64_t hits_small = 0;
  std::uint64_t misses_small = 0;
  std::uint64_t hits_huge = 0;
  std::uint64_t misses_huge = 0;

  std::uint64_t hits() const { return hits_small + hits_huge; }
  std::uint64_t misses() const { return misses_small + misses_huge; }
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& cfg)
      : cfg_(cfg),
        small_(cfg.small_entries),
        huge_(cfg.huge_entries),
        walk_cache_(cfg.walk_cache_entries) {}

  /// Look up the page containing `page_va` (already page-aligned by the
  /// caller) with the given page size; inserts on miss. Returns the time
  /// cost of the lookup: 0 on a hit, the hot-walk cost when the miss is
  /// served from cached page-table nodes, the full walk cost otherwise.
  TimePs access(VirtAddr page_va, std::uint64_t page_size) {
    const bool huge = page_size == kHugePageSize;
    LruSet& lru = huge ? huge_ : small_;
    const bool hit = lru.touch(page_va);
    if (huge) {
      hit ? ++stats_.hits_huge : ++stats_.misses_huge;
    } else {
      hit ? ++stats_.hits_small : ++stats_.misses_small;
    }
    if (hit) return 0;
    const bool walked_recently = walk_cache_.touch(page_va);
    return walked_recently ? cfg_.hot_walk_cost : cfg_.walk_cost;
  }

  void flush() {
    small_.clear();
    huge_.clear();
    walk_cache_.clear();
  }

  const TlbStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  const TlbConfig& config() const { return cfg_; }

 private:
  TlbConfig cfg_;
  LruSet small_;
  LruSet huge_;
  LruSet walk_cache_;
  TlbStats stats_;
};

}  // namespace ibp::cpu
