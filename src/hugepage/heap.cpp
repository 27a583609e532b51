#include "ibp/hugepage/heap.hpp"

#include <algorithm>
#include <optional>

namespace ibp::hugepage {

HugeHeap::HugeHeap(mem::AddressSpace& space, mem::HugeTlbFs& fs,
                   HugeHeapConfig cfg)
    : space_(space), fs_(fs), cfg_(cfg) {
  IBP_CHECK(is_pow2(cfg_.chunk) && cfg_.chunk >= 64 &&
                cfg_.chunk <= kHugePageSize,
            "chunk size must be a power of two within [64, 2M]");
  IBP_CHECK(cfg_.min_map_bytes % kHugePageSize == 0,
            "growth granularity must be whole hugepages");
}

std::optional<TimePs> HugeHeap::grow(std::uint64_t need_bytes) {
  const std::uint64_t bytes =
      std::max(align_up(need_bytes, kHugePageSize), cfg_.min_map_bytes);
  const std::uint64_t pages = bytes / kHugePageSize;
  // §3.1 layer 2: leave a reserve of hugepages for fork/COW headroom.
  if (fs_.available() < pages + cfg_.lib_reserve_pages) return std::nullopt;

  mem::Mapping& m = space_.map(bytes, mem::PageKind::Huge);
  regions_.emplace(m.va_base, m.length);
  free_by_addr_.emplace(m.va_base, m.length / cfg_.chunk);
  lifo_order_.push_back(m.va_base);
  stats_.regions_mapped += 1;
  stats_.bytes_mapped += m.length;
  return cfg_.costs.mmap_syscall + pages * cfg_.costs.fault_huge;
}

std::map<VirtAddr, std::uint64_t>::iterator HugeHeap::find_fit(
    std::uint64_t chunks, std::uint64_t* steps) {
  switch (cfg_.fit) {
    case FitPolicy::AddressOrderedFirstFit: {
      for (auto it = free_by_addr_.begin(); it != free_by_addr_.end(); ++it) {
        ++*steps;
        if (it->second >= chunks) return it;
      }
      return free_by_addr_.end();
    }
    case FitPolicy::BestFit: {
      auto best = free_by_addr_.end();
      for (auto it = free_by_addr_.begin(); it != free_by_addr_.end(); ++it) {
        ++*steps;
        if (it->second >= chunks &&
            (best == free_by_addr_.end() || it->second < best->second))
          best = it;
      }
      return best;
    }
    case FitPolicy::LifoFirstFit: {
      for (auto va_it = lifo_order_.rbegin(); va_it != lifo_order_.rend();
           ++va_it) {
        ++*steps;
        auto it = free_by_addr_.find(*va_it);
        if (it != free_by_addr_.end() && it->second >= chunks) return it;
      }
      return free_by_addr_.end();
    }
  }
  IBP_FAIL("unknown fit policy");
}

OpResult HugeHeap::allocate(std::uint64_t size) {
  IBP_CHECK(size > 0, "zero-byte allocation");
  const std::uint64_t chunks = div_ceil(size, cfg_.chunk);
  TimePs cost = cfg_.costs.op_base;
  std::uint64_t steps = 0;

  auto it = find_fit(chunks, &steps);
  if (it == free_by_addr_.end()) {
    const auto grow_cost = grow(chunks * cfg_.chunk);
    if (!grow_cost) {
      stats_.failed_allocs += 1;
      return {0, cost + steps * cfg_.costs.per_scan_step};
    }
    cost += *grow_cost;
    it = find_fit(chunks, &steps);
    IBP_CHECK(it != free_by_addr_.end(), "fresh region must satisfy fit");
  }
  cost += steps * cfg_.costs.per_scan_step;
  stats_.scan_steps += steps;

  const VirtAddr va = it->first;
  const std::uint64_t have = it->second;
  if (cfg_.fit == FitPolicy::LifoFirstFit) {
    lifo_order_.erase(std::find(lifo_order_.begin(), lifo_order_.end(), va));
  }
  free_by_addr_.erase(it);
  if (have > chunks) {
    const VirtAddr rest = va + chunks * cfg_.chunk;
    free_by_addr_.emplace(rest, have - chunks);
    if (cfg_.fit == FitPolicy::LifoFirstFit) lifo_order_.push_back(rest);
    cost += cfg_.costs.split;
    stats_.splits += 1;
  }

  live_.emplace(va, Live{chunks, size});
  stats_.allocs += 1;
  stats_.bytes_live += chunks * cfg_.chunk;
  stats_.bytes_live_peak = std::max(stats_.bytes_live_peak, stats_.bytes_live);
  return {va, cost};
}

OpResult HugeHeap::deallocate(VirtAddr addr) {
  auto it = live_.find(addr);
  IBP_CHECK(it != live_.end(), "free of unknown hugepage block " << std::hex
                                                                 << addr);
  const std::uint64_t chunks = it->second.chunks;
  live_.erase(it);
  stats_.frees += 1;
  stats_.bytes_live -= chunks * cfg_.chunk;
  TimePs cost = cfg_.costs.op_base;

  VirtAddr va = addr;
  std::uint64_t n = chunks;
  if (cfg_.coalesce_on_free) {
    // Ablation mode: merge with physically adjacent free neighbours inside
    // the same region.
    const auto region = regions_.upper_bound(va);
    IBP_CHECK(region != regions_.begin());
    const auto [rbase, rlen] = *std::prev(region);
    auto next = free_by_addr_.lower_bound(va);
    if (next != free_by_addr_.end() && next->first == va + n * cfg_.chunk &&
        next->first < rbase + rlen) {
      n += next->second;
      if (cfg_.fit == FitPolicy::LifoFirstFit)
        lifo_order_.erase(
            std::find(lifo_order_.begin(), lifo_order_.end(), next->first));
      free_by_addr_.erase(next);
      cost += cfg_.costs.coalesce;
      stats_.coalesces += 1;
    }
    auto prev = free_by_addr_.lower_bound(va);
    if (prev != free_by_addr_.begin()) {
      --prev;
      if (prev->first + prev->second * cfg_.chunk == va &&
          prev->first >= rbase) {
        va = prev->first;
        n += prev->second;
        if (cfg_.fit == FitPolicy::LifoFirstFit)
          lifo_order_.erase(
              std::find(lifo_order_.begin(), lifo_order_.end(), prev->first));
        free_by_addr_.erase(prev);
        cost += cfg_.costs.coalesce;
        stats_.coalesces += 1;
      }
    }
  }

  free_by_addr_.emplace(va, n);
  if (cfg_.fit == FitPolicy::LifoFirstFit) lifo_order_.push_back(va);
  return {addr, cost};
}

std::uint64_t HugeHeap::coalesce_all(TimePs* cost) {
  std::uint64_t merges = 0;
  TimePs t = 0;
  auto it = free_by_addr_.begin();
  while (it != free_by_addr_.end()) {
    auto next = std::next(it);
    t += cfg_.costs.per_scan_step;
    if (next == free_by_addr_.end()) break;
    // Merge only within one mapped region.
    const auto region = regions_.upper_bound(it->first);
    IBP_CHECK(region != regions_.begin());
    const auto [rbase, rlen] = *std::prev(region);
    if (it->first + it->second * cfg_.chunk == next->first &&
        next->first < rbase + rlen) {
      it->second += next->second;
      if (cfg_.fit == FitPolicy::LifoFirstFit)
        lifo_order_.erase(
            std::find(lifo_order_.begin(), lifo_order_.end(), next->first));
      free_by_addr_.erase(next);
      t += cfg_.costs.coalesce;
      stats_.coalesces += 1;
      ++merges;
    } else {
      ++it;
    }
  }
  if (cost != nullptr) *cost = t;
  return merges;
}

bool HugeHeap::owns(VirtAddr addr) const {
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) return false;
  --it;
  return addr < it->first + it->second;
}

std::uint64_t HugeHeap::block_size(VirtAddr addr) const {
  auto it = live_.find(addr);
  IBP_CHECK(it != live_.end(), "block_size of unknown block");
  return it->second.requested;
}

void HugeHeap::check_invariants() const {
  // Every free/live block must be chunk-aligned (relative to its region),
  // lie inside exactly one region, and free+live must tile without overlap.
  std::uint64_t accounted = 0;
  VirtAddr prev_end = 0;
  for (const auto& [va, chunks] : free_by_addr_) {
    IBP_CHECK(chunks > 0, "empty free block");
    IBP_CHECK(owns(va) && owns(va + chunks * cfg_.chunk - 1),
              "free block outside regions");
    IBP_CHECK(va >= prev_end, "overlapping free blocks");
    prev_end = va + chunks * cfg_.chunk;
    accounted += chunks * cfg_.chunk;
  }
  for (const auto& [va, live] : live_) {
    IBP_CHECK(owns(va) && owns(va + live.chunks * cfg_.chunk - 1),
              "live block outside regions");
    // No live block may intersect a free block.
    auto it = free_by_addr_.upper_bound(va + live.chunks * cfg_.chunk - 1);
    if (it != free_by_addr_.begin()) {
      --it;
      IBP_CHECK(it->first + it->second * cfg_.chunk <= va ||
                    it->first >= va + live.chunks * cfg_.chunk,
                "live/free overlap");
    }
    accounted += live.chunks * cfg_.chunk;
  }
  std::uint64_t mapped = 0;
  for (const auto& [base, len] : regions_) mapped += len;
  IBP_CHECK(accounted == mapped,
            "free+live bytes (" << accounted << ") != mapped (" << mapped
                                << ")");
}

}  // namespace ibp::hugepage
