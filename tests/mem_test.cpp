#include "ibp/mem/address_space.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <vector>

#include "ibp/mem/physical.hpp"

namespace ibp::mem {
namespace {

TEST(PhysicalMemory, SmallFramesAreUniqueAndAligned) {
  PhysicalMemory pm(16 * kMiB, 4, 1);
  std::set<PhysAddr> seen;
  for (int i = 0; i < 4096; ++i) {
    const PhysAddr pa = pm.alloc_small_frame();
    EXPECT_EQ(pa % kSmallPageSize, 0u);
    EXPECT_TRUE(seen.insert(pa).second) << "duplicate frame";
  }
  EXPECT_EQ(pm.small_frames_free(), 0u);
  EXPECT_THROW(pm.alloc_small_frame(), SimError);
}

TEST(PhysicalMemory, SmallFramesAreScattered) {
  // The fragmentation shuffle must make successive frames non-adjacent
  // nearly always (this is what breaks the prefetcher on small pages).
  PhysicalMemory pm(64 * kMiB, 4, 99);
  PhysAddr prev = pm.alloc_small_frame();
  int adjacent = 0;
  for (int i = 0; i < 1000; ++i) {
    const PhysAddr pa = pm.alloc_small_frame();
    if (pa == prev + kSmallPageSize) ++adjacent;
    prev = pa;
  }
  EXPECT_LT(adjacent, 10);
}

TEST(PhysicalMemory, HugeFramesAreContiguousAscending) {
  PhysicalMemory pm(16 * kMiB, 8, 1);
  PhysAddr prev = pm.alloc_huge_frame();
  EXPECT_EQ(prev, pm.huge_region_base());
  for (int i = 1; i < 8; ++i) {
    const PhysAddr pa = pm.alloc_huge_frame();
    EXPECT_EQ(pa, prev + kHugePageSize) << "huge region must be contiguous";
    prev = pa;
  }
  EXPECT_THROW(pm.alloc_huge_frame(), SimError);
}

TEST(PhysicalMemory, FreeReturnsFrames) {
  PhysicalMemory pm(1 * kMiB, 2, 1);
  const PhysAddr a = pm.alloc_small_frame();
  const std::uint64_t before = pm.small_frames_free();
  pm.free_small_frame(a);
  EXPECT_EQ(pm.small_frames_free(), before + 1);
  const PhysAddr h = pm.alloc_huge_frame();
  pm.free_huge_frame(h);
  EXPECT_EQ(pm.huge_frames_free(), 2u);
}

// The eager free list the lazy shuffle must reproduce: every frame in
// order, Fisher–Yates shuffled up front, popped from the back.
std::vector<PhysAddr> eager_free_list(std::uint64_t frames,
                                      std::uint64_t seed) {
  std::vector<PhysAddr> free_list;
  for (std::uint64_t i = 0; i < frames; ++i)
    free_list.push_back(i * kSmallPageSize);
  Rng rng(seed ^ 0x5eedf00dull);
  for (std::uint64_t i = frames; i > 1; --i)
    std::swap(free_list[i - 1], free_list[rng.next_below(i)]);
  return free_list;
}

TEST(PhysicalMemory, LazyShuffleMatchesEagerOracle) {
  for (std::uint64_t frames : {1, 2, 3, 7, 64, 1000, 4096}) {
    for (std::uint64_t seed : {1, 2, 42, 0x5eedf00d, 1234567}) {
      SCOPED_TRACE(testing::Message() << frames << " frames, seed " << seed);
      PhysicalMemory pm(frames * kSmallPageSize, 2, seed);
      std::vector<PhysAddr> oracle = eager_free_list(frames, seed);
      std::vector<PhysAddr> held;
      Rng ops(seed + frames);
      // Allocate until exhausted, freeing a random held frame about one
      // step in three; a freed frame goes back on top of the free list.
      while (!oracle.empty()) {
        if (!held.empty() && ops.next_below(3) == 0) {
          const auto it =
              held.begin() + static_cast<std::ptrdiff_t>(
                                 ops.next_below(held.size()));
          pm.free_small_frame(*it);
          oracle.push_back(*it);
          held.erase(it);
        } else {
          ASSERT_EQ(pm.alloc_small_frame(), oracle.back());
          held.push_back(oracle.back());
          oracle.pop_back();
        }
        ASSERT_EQ(pm.small_frames_free(), oracle.size());
      }
      EXPECT_THROW(pm.alloc_small_frame(), SimError);
      EXPECT_EQ(pm.small_frames_free(), 0u);
    }
  }
}

class AddressSpaceTest : public ::testing::Test {
 protected:
  PhysicalMemory pm{64 * kMiB, 16, 42};
  HugeTlbFs fs{&pm, 16, 2};
  AddressSpace as{&pm, &fs};
};

TEST_F(AddressSpaceTest, MapRoundsToPageSize) {
  Mapping& m = as.map(100, PageKind::Small);
  EXPECT_EQ(m.length, kSmallPageSize);
  EXPECT_EQ(m.npages(), 1u);
  Mapping& h = as.map(kHugePageSize + 1, PageKind::Huge);
  EXPECT_EQ(h.length, 2 * kHugePageSize);
}

TEST_F(AddressSpaceTest, RegionsAreDisjointByKind) {
  Mapping& s = as.map(4096, PageKind::Small);
  Mapping& h = as.map(kHugePageSize, PageKind::Huge);
  EXPECT_LT(s.va_base, kHugeRegionBase);
  EXPECT_GE(h.va_base, kHugeRegionBase);
}

TEST_F(AddressSpaceTest, TranslateWalksToTheRightFrame) {
  Mapping& m = as.map(4 * kSmallPageSize, PageKind::Small);
  for (std::uint64_t p = 0; p < 4; ++p) {
    const VirtAddr va = m.va_base + p * kSmallPageSize + 123;
    const Translation t = as.translate(va);
    EXPECT_EQ(t.page_pa, m.frames[p]);
    EXPECT_EQ(t.pa, m.frames[p] + 123);
    EXPECT_EQ(t.page_size, kSmallPageSize);
    EXPECT_EQ(t.page_va, m.va_base + p * kSmallPageSize);
  }
}

TEST_F(AddressSpaceTest, TranslateUnmappedThrows) {
  EXPECT_THROW(as.translate(0xdead0000), SimError);
  Mapping& m = as.map(4096, PageKind::Small);
  EXPECT_THROW(as.translate(m.va_base + m.length + 4096), SimError);
}

TEST_F(AddressSpaceTest, FindRespectsRangeBounds) {
  Mapping& m = as.map(2 * kSmallPageSize, PageKind::Small);
  EXPECT_EQ(as.find(m.va_base, m.length), &m);
  EXPECT_EQ(as.find(m.va_base + 1, m.length), nullptr);  // crosses the end
  EXPECT_EQ(as.find(m.va_base - 1, 1), nullptr);
}

TEST_F(AddressSpaceTest, PinUnpinCountsPages) {
  Mapping& m = as.map(8 * kSmallPageSize, PageKind::Small);
  // [page1+10, page4+5) spans pages 1..4.
  const std::uint64_t n =
      as.pin(m.va_base + kSmallPageSize + 10, 3 * kSmallPageSize);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(as.pinned_pages(), 4u);
  // Overlapping pin refcounts without double-counting.
  as.pin(m.va_base + kSmallPageSize, kSmallPageSize);
  EXPECT_EQ(as.pinned_pages(), 4u);
  as.unpin(m.va_base + kSmallPageSize, kSmallPageSize);
  EXPECT_EQ(as.pinned_pages(), 4u);
  as.unpin(m.va_base + kSmallPageSize + 10, 3 * kSmallPageSize);
  EXPECT_EQ(as.pinned_pages(), 0u);
}

TEST_F(AddressSpaceTest, UnpinWithoutPinThrows) {
  Mapping& m = as.map(kSmallPageSize, PageKind::Small);
  EXPECT_THROW(as.unpin(m.va_base, 64), SimError);
}

TEST_F(AddressSpaceTest, UnmapPinnedThrows) {
  Mapping& m = as.map(kSmallPageSize, PageKind::Small);
  as.pin(m.va_base, 64);
  EXPECT_THROW(as.unmap(m.va_base), SimError);
  as.unpin(m.va_base, 64);
  as.unmap(m.va_base);  // now fine
}

TEST_F(AddressSpaceTest, HostSpanReadsBackWrites) {
  Mapping& m = as.map(2 * kSmallPageSize, PageKind::Small);
  auto w = as.host_span(m.va_base + 100, 1000);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<std::uint8_t>(i);
  auto r = as.host_span(m.va_base + 100, 1000);
  for (std::size_t i = 0; i < r.size(); ++i)
    ASSERT_EQ(r[i], static_cast<std::uint8_t>(i));
}

TEST_F(AddressSpaceTest, NewMappingsReadZerosEvenOnReusedHostMemory) {
  // Each round's mapping likely lands on the host block the previous
  // round filled with 0xff and unmapped.
  const auto all = [](std::span<std::uint8_t> s, std::uint8_t v) {
    return std::all_of(s.begin(), s.end(),
                       [v](std::uint8_t b) { return b == v; });
  };
  for (PageKind kind : {PageKind::Small, PageKind::Huge}) {
    for (int round = 0; round < 3; ++round) {
      const Mapping& m = as.map(16 * kSmallPageSize, kind);
      auto s = as.host_span(m.va_base, m.length);
      ASSERT_TRUE(all(s, 0)) << "round " << round;
      std::fill(s.begin(), s.end(), 0xff);
      ASSERT_TRUE(all(as.host_span(m.va_base, m.length), 0xff));
      as.unmap(m.va_base);
    }
  }
}

TEST_F(AddressSpaceTest, UnmapReturnsTheHostBacking) {
  // Freeing a large malloc'd block raises glibc's dynamic mmap threshold;
  // from then on malloc serves blocks up to that size from its heap and
  // keeps them resident after free. A mapping's backing must still go
  // back to the host when the mapping is unmapped.
  constexpr std::uint64_t kBytes = 16 * kMiB;
  char* volatile block = static_cast<char*>(std::malloc(kBytes + kMiB));
  ASSERT_NE(block, nullptr);
  block[0] = 1;
  std::free(block);
  const auto resident = [] {
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, pages = 0;
    statm >> size >> pages;
    return pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  };
  const Mapping& m = as.map(kBytes, PageKind::Small);
  auto s = as.host_span(m.va_base, m.length);
  std::fill(s.begin(), s.end(), 1);
  const std::uint64_t touched = resident();
  as.unmap(m.va_base);
  EXPECT_LT(resident() + kBytes / 2, touched);
}

TEST_F(AddressSpaceTest, UnmapReleasesFrames) {
  const std::uint64_t before = pm.small_frames_free();
  Mapping& m = as.map(16 * kSmallPageSize, PageKind::Small);
  EXPECT_EQ(pm.small_frames_free(), before - 16);
  as.unmap(m.va_base);
  EXPECT_EQ(pm.small_frames_free(), before);
}

TEST_F(AddressSpaceTest, MappedBytesByKind) {
  as.map(3 * kSmallPageSize, PageKind::Small);
  as.map(2 * kHugePageSize, PageKind::Huge);
  EXPECT_EQ(as.mapped_bytes(PageKind::Small), 3 * kSmallPageSize);
  EXPECT_EQ(as.mapped_bytes(PageKind::Huge), 2 * kHugePageSize);
}

TEST_F(AddressSpaceTest, HugeMappingFramesAreContiguous) {
  Mapping& m = as.map(4 * kHugePageSize, PageKind::Huge);
  for (std::size_t i = 1; i < m.frames.size(); ++i)
    EXPECT_EQ(m.frames[i], m.frames[i - 1] + kHugePageSize);
}

TEST(HugeTlbFs, ReserveIsUntouchable) {
  PhysicalMemory pm(1 * kMiB, 10, 1);
  HugeTlbFs fs(&pm, 10, 3);
  EXPECT_EQ(fs.available(), 7u);
  auto frames = fs.acquire(7);
  EXPECT_EQ(fs.available(), 0u);
  EXPECT_THROW(fs.acquire(1), SimError);
  fs.release(frames);
  EXPECT_EQ(fs.available(), 7u);
  EXPECT_EQ(fs.used(), 0u);
}

TEST(HugeTlbFs, PoolCannotExceedPhysicalRegion) {
  PhysicalMemory pm(1 * kMiB, 4, 1);
  EXPECT_THROW(HugeTlbFs(&pm, 8, 0), SimError);
}

// Property: across any interleaving of maps/unmaps, every live mapping's
// frames stay disjoint.
TEST(AddressSpaceProperty, FramesNeverAlias) {
  PhysicalMemory pm(32 * kMiB, 8, 7);
  HugeTlbFs fs(&pm, 8, 0);
  AddressSpace as(&pm, &fs);
  Rng rng(2024);
  std::vector<VirtAddr> live;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.next_double() < 0.6) {
      PageKind kind =
          rng.next_double() < 0.8 ? PageKind::Small : PageKind::Huge;
      std::uint64_t len =
          (rng.next_below(8) + 1) *
          (kind == PageKind::Small ? kSmallPageSize : kHugePageSize) / 2 + 1;
      if (kind == PageKind::Huge &&
          fs.available() < div_ceil(len, kHugePageSize)) {
        kind = PageKind::Small;
        len = kSmallPageSize;
      }
      live.push_back(as.map(len, kind).va_base);
    } else {
      const std::size_t i = rng.next_below(live.size());
      as.unmap(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    // Check frame disjointness over all live mappings.
    std::set<PhysAddr> frames;
    for (VirtAddr va : live) {
      const Mapping* m = as.find(va);
      ASSERT_NE(m, nullptr);
      for (PhysAddr pa : m->frames)
        ASSERT_TRUE(frames.insert(pa).second) << "frame aliased";
    }
  }
}

}  // namespace
}  // namespace ibp::mem
