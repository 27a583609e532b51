#pragma once

// Management layer of the paper's hugepage library (§3.1 layer 3, §3.2).
//
// Design points reproduced from the paper:
//   * hugepage-backed memory is carved into 4 KB chunks; chunked sizes keep
//     the management structures simple and block lookup O(1) (§3.2 #4),
//   * an address-ordered first-fit free list gives the best locality
//     (§3.2 #2, citing Wilson et al.),
//   * management metadata lives in a cache created at initialization time,
//     never in per-buffer headers/footers (§3.2 #3),
//   * free() does not coalesce, avoiding coalesce/split churn when an
//     application frees and re-allocates same-sized buffers (§3.2 #5),
//   * multiple buffers share hugepages (locality), unlike the
//     one-hugepage-per-buffer approach of libhugepagealloc (§2).
//
// The fit policy and coalescing are configurable so the ablation benches
// can quantify each design choice.

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/types.hpp"
#include "ibp/mem/address_space.hpp"

namespace ibp::hugepage {

enum class FitPolicy : std::uint8_t {
  AddressOrderedFirstFit,  // the paper's choice
  BestFit,
  LifoFirstFit,            // unordered free list, most-recently-freed first
};

/// Virtual-time cost parameters for allocator operations (charged by the
/// caller via the cost field of each result).
struct HeapCosts {
  TimePs op_base = ns(60);          // fixed entry/bookkeeping cost
  TimePs per_scan_step = ns(9);     // walking one free-list node
  TimePs split = ns(25);            // splitting a free block
  TimePs coalesce = ns(35);         // merging with a neighbour
  TimePs mmap_syscall = us(2);      // one mmap/munmap system call
  TimePs fault_small = ns(1400);    // first-touch fault, 4 KB page
  TimePs fault_huge = ns(2600);     // first-touch fault, 2 MB page
};

struct HeapStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t scan_steps = 0;
  std::uint64_t splits = 0;
  std::uint64_t coalesces = 0;
  std::uint64_t regions_mapped = 0;
  std::uint64_t bytes_mapped = 0;
  std::uint64_t bytes_live = 0;
  std::uint64_t bytes_live_peak = 0;
  std::uint64_t failed_allocs = 0;  // hugepage pool exhausted
};

/// Result of one allocator operation: the address (0 on failure) and the
/// virtual-time cost to charge.
struct OpResult {
  VirtAddr addr = 0;
  TimePs cost = 0;
};

struct HugeHeapConfig {
  std::uint64_t chunk = 4 * kKiB;       // §3.2 #4
  std::uint64_t min_map_bytes = 8 * kMiB;  // growth granularity
  std::uint64_t lib_reserve_pages = 4;  // hugepages left for fork/COW (§3.1)
  bool coalesce_on_free = false;        // §3.2 #5 (true only for ablation)
  FitPolicy fit = FitPolicy::AddressOrderedFirstFit;
  HeapCosts costs;
};

/// Hugepage-backed chunked heap.
class HugeHeap {
 public:
  HugeHeap(mem::AddressSpace& space, mem::HugeTlbFs& fs,
           HugeHeapConfig cfg = {});

  /// Allocate `size` bytes (rounded up to whole chunks). addr == 0 means
  /// the hugepage pool could not satisfy the request (caller falls back to
  /// the libc path, per Figure 2 of the paper).
  OpResult allocate(std::uint64_t size);

  /// Free a block previously returned by allocate().
  OpResult deallocate(VirtAddr addr);

  /// Whether `addr` belongs to this heap (used by the transparency layer's
  /// free() dispatch).
  bool owns(VirtAddr addr) const;

  /// Bytes requested for the block at `addr` (pre-rounding).
  std::uint64_t block_size(VirtAddr addr) const;

  const HeapStats& stats() const { return stats_; }
  const HugeHeapConfig& config() const { return cfg_; }

  /// Deferred coalescing: merge every pair of adjacent free blocks (the
  /// complement of the no-coalesce-on-free policy — run it at phase
  /// boundaries instead of on every free). Returns the number of merges
  /// and the virtual-time cost in `cost`.
  std::uint64_t coalesce_all(TimePs* cost);

  /// Free-list size (test/ablation observability).
  std::uint64_t free_blocks() const { return free_by_addr_.size(); }

  /// Invariant check used by property tests: free blocks are disjoint,
  /// chunk-aligned, inside mapped regions, and disjoint from live blocks.
  void check_invariants() const;

 private:
  struct Live {
    std::uint64_t chunks = 0;
    std::uint64_t requested = 0;
  };

  /// Map a new hugepage region able to hold `need_bytes`; returns cost or
  /// nullopt when the pool (minus the library reserve) cannot supply it.
  std::optional<TimePs> grow(std::uint64_t need_bytes);

  /// Find a free block with >= chunks per policy; returns iterator into
  /// free_by_addr_ (end = none) and accumulates scan steps.
  std::map<VirtAddr, std::uint64_t>::iterator find_fit(std::uint64_t chunks,
                                                       std::uint64_t* steps);

  mem::AddressSpace& space_;
  mem::HugeTlbFs& fs_;
  HugeHeapConfig cfg_;
  HeapStats stats_;
  // Address-ordered free list: va -> chunk count. LifoFirstFit keeps a
  // separate recency list of addresses over the same map.
  std::map<VirtAddr, std::uint64_t> free_by_addr_;
  std::vector<VirtAddr> lifo_order_;
  // Metadata "cache" (§3.2 #3): external table, no in-band headers.
  std::unordered_map<VirtAddr, Live> live_;
  // Mapped regions: base -> length.
  std::map<VirtAddr, std::uint64_t> regions_;
};

}  // namespace ibp::hugepage
