#pragma once

// Per-rank simulated virtual address space.
//
// A mapping is a contiguous virtual range backed by frames of one page
// size. Host backing for each mapping is a single contiguous allocation so
// workloads get real pointers for computation, while the translation model
// (page tables, pinning, NIC translations) operates on the simulated
// frames. The backing is an anonymous host mapping of its own, zeroed on
// demand, so host pages a run never touches cost no host memory and
// unmapping returns the rest. Small and huge mappings live in
// disjoint virtual regions so a bare virtual address identifies its page
// size.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/types.hpp"
#include "ibp/mem/physical.hpp"

namespace ibp::mem {

enum class PageKind : std::uint8_t { Small, Huge };

constexpr std::uint64_t page_size_of(PageKind k) {
  return k == PageKind::Small ? kSmallPageSize : kHugePageSize;
}

/// Virtual region bases. Anything at/above kHugeRegionBase is hugepage
/// backed; the gap makes accidental cross-mapping arithmetic loud.
inline constexpr VirtAddr kSmallRegionBase = 0x0000'1000'0000'0000ull;
inline constexpr VirtAddr kHugeRegionBase = 0x0000'2000'0000'0000ull;

/// Unmaps a mapping's host backing.
struct HostUnmap {
  std::size_t bytes = 0;
  void operator()(std::uint8_t* p) const;
};

struct Mapping {
  VirtAddr va_base = 0;
  std::uint64_t length = 0;  // bytes, multiple of page size
  PageKind kind = PageKind::Small;
  std::vector<PhysAddr> frames;      // one per page
  std::vector<std::uint32_t> pins;   // pin count per page
  // Host data, contiguous, `length` bytes, zeroed on demand.
  std::unique_ptr<std::uint8_t[], HostUnmap> backing;

  std::uint64_t page_size() const { return page_size_of(kind); }
  std::uint64_t npages() const { return frames.size(); }
  bool contains(VirtAddr va, std::uint64_t len) const {
    return va >= va_base && len <= length && va - va_base <= length - len;
  }
};

/// Result of a single-address translation.
struct Translation {
  PhysAddr pa = 0;
  std::uint64_t page_size = 0;
  PhysAddr page_pa = 0;   // base PA of the containing page
  VirtAddr page_va = 0;   // base VA of the containing page
};

class HugeTlbFs;

class AddressSpace {
 public:
  /// `hugetlbfs` may be null for spaces that never map hugepages.
  AddressSpace(PhysicalMemory* phys, HugeTlbFs* hugetlbfs)
      : phys_(phys), hugetlbfs_(hugetlbfs) {
    IBP_CHECK(phys != nullptr);
  }

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;
  ~AddressSpace();

  /// Map `length` bytes (rounded up to the page size). Throws SimError if
  /// physical (or hugeTLBfs) memory is exhausted.
  Mapping& map(std::uint64_t length, PageKind kind);

  /// Unmap the mapping starting exactly at `va_base`. All pages must be
  /// unpinned.
  void unmap(VirtAddr va_base);

  /// Mapping containing [va, va+len), or null.
  Mapping* find(VirtAddr va, std::uint64_t len = 1);
  const Mapping* find(VirtAddr va, std::uint64_t len = 1) const;

  /// Translate one virtual address. Throws on unmapped addresses.
  Translation translate(VirtAddr va) const;

  /// Pin/unpin every page covering [va, va+len) (registration model).
  /// Returns the number of pages affected.
  std::uint64_t pin(VirtAddr va, std::uint64_t len);
  std::uint64_t unpin(VirtAddr va, std::uint64_t len);

  /// Host bytes for [va, va+len); the range must lie in one mapping.
  std::span<std::uint8_t> host_span(VirtAddr va, std::uint64_t len);
  std::span<const std::uint8_t> host_span(VirtAddr va,
                                          std::uint64_t len) const;

  /// Typed host pointer at `va` (convenience for workloads).
  template <typename T>
  T* host_ptr(VirtAddr va, std::uint64_t count = 1) {
    auto s = host_span(va, sizeof(T) * count);
    return reinterpret_cast<T*>(s.data());
  }

  std::uint64_t mapped_bytes(PageKind kind) const;
  std::uint64_t pinned_pages() const { return pinned_pages_; }

 private:
  PhysicalMemory* phys_;
  HugeTlbFs* hugetlbfs_;
  VirtAddr next_small_ = kSmallRegionBase;
  VirtAddr next_huge_ = kHugeRegionBase;
  std::uint64_t pinned_pages_ = 0;
  // Keyed by va_base; mappings never overlap.
  std::map<VirtAddr, std::unique_ptr<Mapping>> mappings_;
};

/// Global (per-node) hugepage pool, mirroring Linux hugeTLBfs accounting:
/// a fixed number of hugepages is reserved at "boot"; mappings draw from
/// the pool and a configurable reserve is kept back for fork/COW headroom.
class HugeTlbFs {
 public:
  HugeTlbFs(PhysicalMemory* phys, std::uint64_t pool_pages,
            std::uint64_t fork_reserve_pages)
      : phys_(phys),
        pool_pages_(pool_pages),
        fork_reserve_(fork_reserve_pages) {
    IBP_CHECK(phys != nullptr);
    IBP_CHECK(pool_pages <= phys->huge_frames_total(),
              "hugeTLBfs pool larger than physical hugepage region");
    IBP_CHECK(fork_reserve_pages <= pool_pages,
              "fork reserve exceeds the pool");
  }

  /// Pages a new mapping may still draw (pool minus used minus reserve).
  std::uint64_t available() const {
    const std::uint64_t committed = used_ + fork_reserve_;
    return committed >= pool_pages_ ? 0 : pool_pages_ - committed;
  }

  std::uint64_t used() const { return used_; }
  std::uint64_t pool_size() const { return pool_pages_; }
  std::uint64_t fork_reserve() const { return fork_reserve_; }

  /// Draw `n` hugepage frames. Throws SimError if it would eat into the
  /// fork reserve.
  std::vector<PhysAddr> acquire(std::uint64_t n);
  void release(const std::vector<PhysAddr>& frames);

 private:
  PhysicalMemory* phys_;
  std::uint64_t pool_pages_;
  std::uint64_t fork_reserve_;
  std::uint64_t used_ = 0;
};

}  // namespace ibp::mem
