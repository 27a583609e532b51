#include "ibp/mem/physical.hpp"

#include <algorithm>
#include <bit>

namespace ibp::mem {
namespace {

// Fibonacci hashing: the top 64 - `shift` bits of key * 2^64/phi.
std::size_t cell_of(std::uint64_t key, int shift) {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift);
}

}  // namespace

PhysicalMemory::PhysicalMemory(std::uint64_t total_bytes,
                               std::uint64_t huge_pages, std::uint64_t seed)
    : small_total_(total_bytes / kSmallPageSize),
      huge_total_(huge_pages),
      huge_base_(align_up(total_bytes, kHugePageSize)),
      rng_(seed ^ 0x5eedf00dull),
      undrawn_(small_total_) {
  IBP_CHECK(total_bytes % kSmallPageSize == 0,
            "small-page RAM must be 4 KB aligned");
  // Small frames occupy [0, total_bytes); the hugepage region sits above.
  huge_free_.reserve(huge_total_);
  // Push descending so that pop_back() hands out ascending, contiguous PAs.
  for (std::uint64_t i = huge_total_; i > 0; --i)
    huge_free_.push_back(huge_base_ + (i - 1) * kHugePageSize);
}

PhysAddr PhysicalMemory::alloc_small_frame() {
  if (!small_freed_.empty()) {
    const PhysAddr pa = small_freed_.back();
    small_freed_.pop_back();
    return pa;
  }
  IBP_CHECK(undrawn_ > 0, "out of simulated small-page memory");
  // Step i of the backward Fisher–Yates shuffle swaps slot i-1 with a slot
  // j < i and hands out slot i-1. Nothing reads slot i-1 again, so only
  // slot j is written. The last slot is handed out without a draw.
  const std::uint64_t i = undrawn_--;
  if (i == 1) return slot(0);
  const std::uint64_t j = rng_.next_below(i);
  const PhysAddr pa = slot(j);
  if (j != i - 1) set_slot(j, slot(i - 1));
  return pa;
}

void PhysicalMemory::free_small_frame(PhysAddr pa) {
  IBP_CHECK(pa % kSmallPageSize == 0 && pa < small_total_ * kSmallPageSize,
            "bad small frame " << pa);
  small_freed_.push_back(pa);
}

PhysAddr PhysicalMemory::slot(std::uint64_t i) const {
  if (displaced_used_ > 0) {
    const std::size_t mask = displaced_.size() - 1;
    for (std::size_t c = cell_of(i + 1, displaced_shift_);
         displaced_[c].first != 0; c = (c + 1) & mask)
      if (displaced_[c].first == i + 1) return displaced_[c].second;
  }
  return i * kSmallPageSize;
}

void PhysicalMemory::set_slot(std::uint64_t i, PhysAddr pa) {
  if (2 * (displaced_used_ + 1) > displaced_.size()) {
    auto old = std::move(displaced_);
    displaced_.assign(std::max<std::size_t>(64, 2 * old.size()), {0, 0});
    displaced_shift_ = 64 - std::countr_zero(displaced_.size());
    displaced_used_ = 0;
    for (const auto& [key, frame] : old)
      if (key != 0) set_slot(key - 1, frame);
  }
  const std::size_t mask = displaced_.size() - 1;
  std::size_t c = cell_of(i + 1, displaced_shift_);
  while (displaced_[c].first != 0 && displaced_[c].first != i + 1)
    c = (c + 1) & mask;
  if (displaced_[c].first == 0) ++displaced_used_;
  displaced_[c] = {i + 1, pa};
}

PhysAddr PhysicalMemory::alloc_huge_frame() {
  IBP_CHECK(!huge_free_.empty(), "out of simulated hugepage memory");
  const PhysAddr pa = huge_free_.back();
  huge_free_.pop_back();
  return pa;
}

void PhysicalMemory::free_huge_frame(PhysAddr pa) {
  IBP_CHECK(pa >= huge_base_ && (pa - huge_base_) % kHugePageSize == 0 &&
                (pa - huge_base_) / kHugePageSize < huge_total_,
            "bad huge frame " << pa);
  huge_free_.push_back(pa);
}

}  // namespace ibp::mem
