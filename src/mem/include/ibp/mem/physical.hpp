#pragma once

// Simulated physical memory.
//
// The simulator distinguishes *simulated physical addresses* (what page
// tables, the NIC's translation table, and the DMA engine see) from *host
// backing memory* (real bytes the workloads compute on). Simulated PAs
// drive the timing/translation model; host backing carries data and lives
// in each mem::Mapping.
//
// Small (4 KB) frames are handed out in a pseudo-randomly permuted order to
// emulate the frame fragmentation of a long-running OS: virtually
// contiguous small pages are physically scattered. Huge (2 MB) frames come
// from a physically contiguous reserved region, exactly like Linux
// hugeTLBfs boot-time reservation. This difference is what the CPU
// prefetcher and NIC ATT models key on.
//
// The permutation is a backward Fisher–Yates shuffle drawn lazily: each
// fresh allocation runs the next step of the shuffle, so construction is
// O(1) and a node pays only for the frames a run allocates. The sequence
// is the one an eager fill-and-shuffle of every frame would hand out.

#include <cstdint>
#include <utility>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/rng.hpp"
#include "ibp/common/types.hpp"

namespace ibp::mem {

class PhysicalMemory {
 public:
  /// `total_bytes` of small-page RAM plus a dedicated hugepage region of
  /// `huge_pages` 2 MB frames. `seed` drives the fragmentation permutation.
  PhysicalMemory(std::uint64_t total_bytes, std::uint64_t huge_pages,
                 std::uint64_t seed);

  /// Allocate one 4 KB frame; returns its simulated physical address.
  /// Freed frames are handed out again first, most recently freed first.
  PhysAddr alloc_small_frame();
  void free_small_frame(PhysAddr pa);

  /// Allocate one 2 MB frame (physically contiguous, 2 MB aligned).
  PhysAddr alloc_huge_frame();
  void free_huge_frame(PhysAddr pa);

  std::uint64_t small_frames_free() const {
    return undrawn_ + small_freed_.size();
  }
  std::uint64_t huge_frames_total() const { return huge_total_; }
  std::uint64_t huge_frames_free() const { return huge_free_.size(); }

  /// Base of the hugepage region (useful for tests asserting contiguity).
  PhysAddr huge_region_base() const { return huge_base_; }

 private:
  // Shuffle slot `i` holds frame `i` until a step displaces it.
  PhysAddr slot(std::uint64_t i) const;
  void set_slot(std::uint64_t i, PhysAddr pa);

  std::uint64_t small_total_;
  std::uint64_t huge_total_;
  PhysAddr huge_base_;
  Rng rng_;                 // the shuffle's draws, one per fresh frame
  std::uint64_t undrawn_;   // slots [0, undrawn_) are not handed out yet
  // Open-addressing table of displaced slots: {slot + 1, frame}, with key 0
  // marking an empty cell. Doubles at half load; never erased, because a
  // slot at or above `undrawn_` is never read again.
  std::vector<std::pair<std::uint64_t, PhysAddr>> displaced_;
  std::size_t displaced_used_ = 0;
  int displaced_shift_ = 64;
  std::vector<PhysAddr> small_freed_;  // popped from the back first
  std::vector<PhysAddr> huge_free_;    // ascending; popped from the back
};

}  // namespace ibp::mem
