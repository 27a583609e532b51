#pragma once

// Fundamental scalar types shared by every ibplace module.
//
// All simulated time is kept in picoseconds as an unsigned 64-bit count
// (2^64 ps is roughly 213 days of simulated time, far beyond any run here).
// Benchmarks convert to the unit the paper reports (TBR ticks, microseconds,
// MB/s) only at the edge, via the platform configuration.

#include <cstddef>
#include <cstdint>

namespace ibp {

/// Simulated time in picoseconds.
using TimePs = std::uint64_t;

/// A simulated virtual address inside one rank's address space.
using VirtAddr = std::uint64_t;

/// A simulated physical address (used by the DMA/translation model only;
/// real data lives in host backing memory owned by each mem::Mapping).
using PhysAddr = std::uint64_t;

/// Rank index inside a simulation (0-based, dense).
using RankId = int;

/// Node index inside a simulated cluster.
using NodeId = int;

inline constexpr std::uint64_t kKiB = 1024ull;
inline constexpr std::uint64_t kMiB = 1024ull * kKiB;
inline constexpr std::uint64_t kGiB = 1024ull * kMiB;

/// Base (small) page size of the simulated OS.
inline constexpr std::uint64_t kSmallPageSize = 4 * kKiB;
/// Huge page size of the simulated OS (x86-64 2 MB hugepages).
inline constexpr std::uint64_t kHugePageSize = 2 * kMiB;

/// Time helpers. Integer math throughout; callers pick rounding explicitly
/// where it matters.
constexpr TimePs ps(std::uint64_t v) { return v; }
constexpr TimePs ns(std::uint64_t v) { return v * 1000ull; }
constexpr TimePs us(std::uint64_t v) { return v * 1000000ull; }
constexpr TimePs ms(std::uint64_t v) { return v * 1000000000ull; }

constexpr double ps_to_us(TimePs t) { return static_cast<double>(t) / 1e6; }
constexpr double ps_to_ns(TimePs t) { return static_cast<double>(t) / 1e3; }

/// Round `v` up to a multiple of `align` (align must be a power of two).
constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) & ~(align - 1);
}

/// Round `v` down to a multiple of `align` (align must be a power of two).
constexpr std::uint64_t align_down(std::uint64_t v, std::uint64_t align) {
  return v & ~(align - 1);
}

constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Number of pages of size `page` covering [addr, addr+len).
constexpr std::uint64_t pages_spanned(std::uint64_t addr, std::uint64_t len,
                                      std::uint64_t page) {
  if (len == 0) return 0;
  const std::uint64_t first = align_down(addr, page);
  const std::uint64_t last = align_down(addr + len - 1, page);
  return (last - first) / page + 1;
}

/// Integer ceiling division.
constexpr std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

}  // namespace ibp
