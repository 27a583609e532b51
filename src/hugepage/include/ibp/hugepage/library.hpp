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
//
// This is the one place that decides which tier a buffer's bytes live on:
// every layer above allocates through Library::malloc.

#include <cstdint>

#include "ibp/common/types.hpp"
#include "ibp/hugepage/heap.hpp"
#include "ibp/hugepage/libc_heap.hpp"

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
  Library(mem::AddressSpace& space, mem::HugeTlbFs& fs,
          LibraryConfig cfg = {})
      : cfg_(cfg), huge_(space, fs, cfg.huge), libc_(space, cfg.libc) {}

  /// malloc(): returns the block address and the virtual-time cost of the
  /// allocator work (the caller advances its clock by it).
  OpResult malloc(std::uint64_t size) {
    if (!huge_tier(size)) {
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
    if (!huge_tier(size)) {
      ++stats_.libc_allocs;
      return libc_.allocate_aligned(size, alignment);
    }
    // Hugepage blocks are chunk aligned, satisfying any smaller
    // alignment; larger requests fall back to the small-page path.
    if (alignment <= chunk()) return malloc(size);
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
    if (in_hugepages(addr) && new_size <= align_up(old_size, chunk()) &&
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
  /// The hugepage heap's carve granularity.
  std::uint64_t chunk() const { return cfg_.huge.chunk; }
  HugeHeap& huge_heap() { return huge_; }
  LibcHeap& libc_heap() { return libc_; }
  const LibraryConfig& config() const { return cfg_; }

  void check_invariants() const {
    huge_.check_invariants();
    libc_.check_invariants();
  }

 private:
  /// Figure 2's routing test: the hugepage heap serves a request iff the
  /// library is preloaded and the request reaches the threshold.
  bool huge_tier(std::uint64_t size) const {
    return cfg_.enabled && size >= cfg_.threshold;
  }

  LibraryConfig cfg_;
  LibraryStats stats_;
  HugeHeap huge_;
  LibcHeap libc_;
};

}  // namespace ibp::hugepage
