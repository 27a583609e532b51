#pragma once

// Transparency layer of the paper's hugepage library (§3.1 layer 1).
//
// This is the LD_PRELOAD-equivalent entry point: it intercepts allocation
// requests and routes them per Figure 2 of the paper:
//
//     size < 32 KB ............................ libc allocator
//     size >= 32 KB, hugepages available ...... hugepage heap
//     hugepage pool exhausted ................. fall back to libc
//
// The 32 KB threshold is the paper's empirical cutoff: below it, small
// pages registered faster in their measurements and hugepage-TLB pressure
// (8 entries on Opteron) outweighs the benefit. `enabled=false` models a
// run without the preloaded library (everything goes to libc), which is
// the paper's baseline configuration.

// Placement decisions (backing tier, chunk granularity) are
// delegated to ibp::placement: every allocation asks a policy for a
// BufferPlan and routes accordingly. Without an injected engine the
// library plans with a private PaperDefaultPolicy, which reproduces the
// Figure 2 routing above bit-exactly.

#include <cstdint>

#include "ibp/common/types.hpp"
#include "ibp/hugepage/heap.hpp"
#include "ibp/hugepage/libc_heap.hpp"
#include "ibp/placement/placement.hpp"

namespace ibp::hugepage {

struct LibraryConfig {
  bool enabled = true;
  std::uint64_t threshold = 32 * kKiB;  // §3.2 #1
  HugeHeapConfig huge;
  LibcHeapConfig libc;
};

struct LibraryStats {
  std::uint64_t huge_allocs = 0;
  std::uint64_t libc_allocs = 0;       // below threshold
  std::uint64_t fallback_allocs = 0;   // pool exhausted
};

class Library {
 public:
  /// `engine` (optional) supplies placement plans; the library falls back
  /// to a private PaperDefaultPolicy when none is injected. The hugepage
  /// heap's chunk granularity is taken from the plan at construction.
  Library(mem::AddressSpace& space, mem::HugeTlbFs& fs,
          LibraryConfig cfg = {},
          placement::PlacementEngine* engine = nullptr)
      : cfg_(cfg),
        engine_(engine),
        chunk_(plan_for(cfg.threshold, placement::Role::WorkloadHeap).chunk),
        huge_(space, fs,
              [&cfg, this] {
                HugeHeapConfig h = cfg.huge;
                h.chunk = chunk_;
                return h;
              }()),
        libc_(space, cfg.libc) {}

  /// malloc(): returns the block address and the virtual-time cost of the
  /// allocator work (the caller advances its clock by it). `role` lets
  /// communication layers tell the policy what the buffer is for.
  OpResult malloc(std::uint64_t size,
                  placement::Role role = placement::Role::WorkloadHeap) {
    const placement::BufferPlan plan = plan_for(size, role);
    if (plan.backing == mem::PageKind::Small) {
      ++stats_.libc_allocs;
      return libc_.allocate(size);
    }
    OpResult r = huge_.allocate(size);
    if (r.addr == 0) {
      // Figure 2: not enough hugepages — redirect the request to libc.
      ++stats_.fallback_allocs;
      OpResult f = libc_.allocate(size);
      f.cost += r.cost;
      return f;
    }
    ++stats_.huge_allocs;
    return r;
  }

  /// posix_memalign(): the paper's aligned-data-placement strategy for
  /// small buffers (§4: work-request duration depends on the buffer's
  /// offset; aligned starts hit the DMA fast path). Requests at or above
  /// the hugepage threshold are chunk-aligned (4 KB) by construction.
  OpResult memalign(std::uint64_t alignment, std::uint64_t size) {
    if (plan_for(size, placement::Role::WorkloadHeap).backing ==
        mem::PageKind::Small) {
      ++stats_.libc_allocs;
      return libc_.allocate_aligned(size, alignment);
    }
    // Hugepage blocks are chunk aligned, satisfying any smaller
    // alignment; larger requests fall back to the small-page path.
    if (alignment <= chunk_) return malloc(size);
    ++stats_.libc_allocs;
    return libc_.allocate_aligned(size, alignment);
  }

  /// free(): dispatches on the owning heap.
  OpResult free(VirtAddr addr) {
    if (huge_.owns(addr)) return huge_.deallocate(addr);
    return libc_.deallocate(addr);
  }

  /// calloc(): malloc + zero. The zeroing cost (one sweep of the block)
  /// is folded into the returned cost using the heap's stream rate proxy.
  OpResult calloc(std::uint64_t count, std::uint64_t size,
                  mem::AddressSpace& space) {
    const std::uint64_t bytes = count * size;
    IBP_CHECK(count == 0 || bytes / count == size, "calloc overflow");
    OpResult r = malloc(bytes);
    if (r.addr != 0) {
      auto span = space.host_span(r.addr, bytes);
      std::fill(span.begin(), span.end(), 0);
      r.cost += bytes / 8;  // ~8 B/ns zeroing, in picoseconds
    }
    return r;
  }

  /// realloc(): grow/shrink preserving contents (alloc + copy + free). A
  /// shrink that still fits the block's chunk rounding is free.
  OpResult realloc(VirtAddr addr, std::uint64_t new_size,
                   mem::AddressSpace& space) {
    if (addr == 0) return malloc(new_size);
    const std::uint64_t old_size = block_size(addr);
    // In-place when the rounded footprint wouldn't change.
    const std::uint64_t chunk = chunk_;
    if (in_hugepages(addr) && new_size <= align_up(old_size, chunk) &&
        new_size >= old_size / 2) {
      return {addr, cfg_.huge.costs.op_base};
    }
    OpResult r = malloc(new_size);
    if (r.addr == 0) return r;
    const std::uint64_t copy = std::min(old_size, new_size);
    auto from = space.host_span(addr, copy);
    auto to = space.host_span(r.addr, copy);
    std::copy(from.begin(), from.end(), to.begin());
    r.cost += copy / 4;  // ~4 B/ns copy, in picoseconds
    r.cost += free(addr).cost;
    return r;
  }

  /// Size originally requested for a live block.
  std::uint64_t block_size(VirtAddr addr) const {
    return huge_.owns(addr) ? huge_.block_size(addr)
                            : libc_.block_size(addr);
  }

  bool in_hugepages(VirtAddr addr) const { return huge_.owns(addr); }

  const LibraryStats& stats() const { return stats_; }
  /// The carve granularity, as planned at construction.
  std::uint64_t chunk() const { return chunk_; }
  HugeHeap& huge_heap() { return huge_; }
  LibcHeap& libc_heap() { return libc_; }
  const LibraryConfig& config() const { return cfg_; }

  /// Ask the active policy where `size` bytes in `role` should go. The
  /// context carries this library's tunables so per-instance overrides
  /// (tests construct libraries with custom thresholds) keep working.
  placement::BufferPlan plan_for(std::uint64_t size, placement::Role role) {
    const placement::BufferRequest req{.size = size, .role = role};
    const placement::PolicyContext ctx{.huge_threshold = cfg_.threshold,
                                       .chunk = cfg_.huge.chunk,
                                       .hugepages_enabled = cfg_.enabled};
    if (engine_) return engine_->plan(req, ctx);
    return placement::PaperDefaultPolicy{}.plan(req, ctx);
  }

  void check_invariants() const {
    huge_.check_invariants();
    libc_.check_invariants();
  }

 private:
  LibraryConfig cfg_;
  placement::PlacementEngine* engine_;
  std::uint64_t chunk_;  // effective carve granularity, from the plan
  LibraryStats stats_;
  HugeHeap huge_;
  LibcHeap libc_;
};

}  // namespace ibp::hugepage
