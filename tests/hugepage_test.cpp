#include "ibp/hugepage/library.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "ibp/workloads/alloc_trace.hpp"

namespace ibp::hugepage {
namespace {

struct World {
  World(std::uint64_t huge_pages = 64, std::uint64_t reserve = 2)
      : pm(256 * kMiB, huge_pages, 11),
        fs(&pm, huge_pages, reserve),
        as(&pm, &fs) {}
  mem::PhysicalMemory pm;
  mem::HugeTlbFs fs;
  mem::AddressSpace as;
};

// --------------------------------------------------------------------------
// HugeHeap

TEST(HugeHeap, AllocatesChunkMultiples) {
  World w;
  HugeHeap heap(w.as, w.fs);
  const auto r = heap.allocate(100);
  EXPECT_NE(r.addr, 0u);
  EXPECT_EQ(heap.block_size(r.addr), 100u);
  // 4 KB chunk granularity (§3.2 #4).
  EXPECT_EQ(r.addr % (4 * kKiB), 0u);
  heap.check_invariants();
}

TEST(HugeHeap, BuffersShareHugepages) {
  World w;
  HugeHeap heap(w.as, w.fs);
  const auto a = heap.allocate(40 * kKiB);
  const auto b = heap.allocate(40 * kKiB);
  // Consecutive buffers land 40 KB apart inside one mapping — the
  // locality property libhugepagealloc lacks (§2).
  EXPECT_EQ(b.addr - a.addr, 40 * kKiB);
  EXPECT_EQ(heap.stats().regions_mapped, 1u);
}

TEST(HugeHeap, NoCoalesceOnFreeKeepsBlocksSplit) {
  World w;
  HugeHeap heap(w.as, w.fs);
  const auto a = heap.allocate(64 * kKiB);
  const auto b = heap.allocate(64 * kKiB);
  heap.deallocate(a.addr);
  heap.deallocate(b.addr);
  // Adjacent free blocks stay separate (§3.2 #5)...
  EXPECT_EQ(heap.free_blocks(), 3u);  // a, b, and the tail of the region
  // ...and same-size reuse gets the first (address-ordered) one back.
  const auto c = heap.allocate(64 * kKiB);
  EXPECT_EQ(c.addr, a.addr);
  heap.check_invariants();
}

TEST(HugeHeap, CoalesceModeMerges) {
  World w;
  HugeHeapConfig cfg;
  cfg.coalesce_on_free = true;
  HugeHeap heap(w.as, w.fs, cfg);
  const auto a = heap.allocate(64 * kKiB);
  const auto b = heap.allocate(64 * kKiB);
  heap.deallocate(a.addr);
  heap.deallocate(b.addr);
  EXPECT_EQ(heap.free_blocks(), 1u);
  EXPECT_GE(heap.stats().coalesces, 2u);
  heap.check_invariants();
}

TEST(HugeHeap, SplitsLargeFreeBlocks) {
  World w;
  HugeHeap heap(w.as, w.fs);
  const auto a = heap.allocate(100 * kKiB);
  heap.deallocate(a.addr);
  const auto b = heap.allocate(40 * kKiB);
  EXPECT_EQ(b.addr, a.addr);  // first fit reuses the front
  EXPECT_GE(heap.stats().splits, 1u);
  heap.check_invariants();
}

TEST(HugeHeap, GrowsByWholeHugepages) {
  World w;
  HugeHeap heap(w.as, w.fs);
  heap.allocate(40 * kKiB);
  EXPECT_EQ(heap.stats().bytes_mapped % kHugePageSize, 0u);
  // A request larger than the growth quantum maps what it needs.
  const auto big = heap.allocate(20 * kMiB);
  EXPECT_NE(big.addr, 0u);
  heap.check_invariants();
}

TEST(HugeHeap, RespectsLibraryReserve) {
  World w(/*huge_pages=*/10, /*kernel reserve=*/2);
  HugeHeapConfig cfg;
  cfg.lib_reserve_pages = 3;
  cfg.min_map_bytes = 2 * kMiB;
  HugeHeap heap(w.as, w.fs, cfg);
  // Available to the heap: 10 - 2 (kernel) - 3 (library) = 5 pages.
  const auto ok = heap.allocate(5 * kMiB);  // 3 pages
  EXPECT_NE(ok.addr, 0u);
  const auto too_big = heap.allocate(5 * kMiB);  // needs 3 more, only 2 left
  EXPECT_EQ(too_big.addr, 0u);
  EXPECT_EQ(heap.stats().failed_allocs, 1u);
  // The reserve is still intact for fork/COW.
  EXPECT_GE(w.fs.available(), 2u);
}

TEST(HugeHeap, DoubleFreeThrows) {
  World w;
  HugeHeap heap(w.as, w.fs);
  const auto a = heap.allocate(40 * kKiB);
  heap.deallocate(a.addr);
  EXPECT_THROW(heap.deallocate(a.addr), SimError);
}

TEST(HugeHeap, FitPolicies) {
  for (const FitPolicy fit :
       {FitPolicy::AddressOrderedFirstFit, FitPolicy::BestFit,
        FitPolicy::LifoFirstFit}) {
    World w;
    HugeHeapConfig cfg;
    cfg.fit = fit;
    HugeHeap heap(w.as, w.fs, cfg);
    // Free blocks of 64K, 40K, 64K; then allocate 40K.
    const auto a = heap.allocate(64 * kKiB);
    const auto pad1 = heap.allocate(4 * kKiB);
    const auto b = heap.allocate(40 * kKiB);
    const auto pad2 = heap.allocate(4 * kKiB);
    const auto c = heap.allocate(64 * kKiB);
    heap.deallocate(a.addr);
    heap.deallocate(b.addr);
    heap.deallocate(c.addr);
    const auto got = heap.allocate(40 * kKiB);
    if (fit == FitPolicy::AddressOrderedFirstFit) {
      EXPECT_EQ(got.addr, a.addr) << "first fit takes the lowest address";
    } else if (fit == FitPolicy::BestFit) {
      EXPECT_EQ(got.addr, b.addr) << "best fit takes the exact match";
    } else {
      EXPECT_EQ(got.addr, c.addr) << "LIFO takes the most recently freed";
    }
    heap.deallocate(got.addr);
    heap.deallocate(pad1.addr);
    heap.deallocate(pad2.addr);
    heap.check_invariants();
  }
}

// --------------------------------------------------------------------------
// LibcHeap

TEST(LibcHeap, AlignedPayloads) {
  World w;
  LibcHeap heap(w.as);
  for (std::uint64_t size : {1ull, 7ull, 16ull, 100ull, 4096ull}) {
    const auto r = heap.allocate(size);
    EXPECT_EQ(r.addr % 16, 0u);
    EXPECT_EQ(heap.block_size(r.addr), size);
  }
  heap.check_invariants();
}

TEST(LibcHeap, CoalescesOnFree) {
  World w;
  LibcHeap heap(w.as);
  const auto a = heap.allocate(1000);
  const auto b = heap.allocate(1000);
  const auto c = heap.allocate(1000);
  heap.deallocate(a.addr);
  heap.deallocate(c.addr);
  const auto blocks_before = heap.free_blocks();
  heap.deallocate(b.addr);  // merges with both neighbours
  EXPECT_EQ(heap.free_blocks(), blocks_before - 1);
  EXPECT_GE(heap.stats().coalesces, 2u);
  heap.check_invariants();
}

TEST(LibcHeap, MmapThresholdRoutesLargeBlocks) {
  World w;
  LibcHeap heap(w.as);
  const auto big = heap.allocate(1 * kMiB);
  EXPECT_NE(big.addr, 0u);
  // Dedicated mapping: address far from arena blocks.
  const auto small = heap.allocate(100);
  EXPECT_NE(heap.owns(big.addr), false);
  heap.deallocate(big.addr);
  heap.deallocate(small.addr);
  heap.check_invariants();
}

TEST(LibcHeap, DynamicMmapThresholdAdapts) {
  World w;
  LibcHeap heap(w.as);
  const std::uint64_t initial = heap.mmap_threshold();
  const auto a = heap.allocate(512 * kKiB);
  heap.deallocate(a.addr);
  EXPECT_GT(heap.mmap_threshold(), initial);
  EXPECT_GT(heap.mmap_threshold(), 512 * kKiB);
  // The same size now comes from the arena (no fresh mapping).
  const auto regions = heap.stats().regions_mapped;
  const auto b = heap.allocate(512 * kKiB);
  heap.deallocate(b.addr);
  EXPECT_LE(heap.stats().regions_mapped, regions + 1);  // arena growth only
  heap.check_invariants();
}

TEST(LibcHeap, ChurnCausesCoalesceSplitPattern) {
  // The Abinit pathology (§3.2 #5): same-size alloc/free churn makes the
  // coalescing allocator merge + split continuously.
  World w;
  LibcHeap heap(w.as);
  std::vector<VirtAddr> live;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 8; ++i) live.push_back(heap.allocate(3000).addr);
    for (VirtAddr a : live) heap.deallocate(a);
    live.clear();
  }
  EXPECT_GT(heap.stats().coalesces, 100u);
  EXPECT_GT(heap.stats().splits, 100u);
  heap.check_invariants();
}

// --------------------------------------------------------------------------
// Library (transparency layer)

TEST(Library, ThresholdRouting) {
  World w;
  Library lib(w.as, w.fs);
  const auto small = lib.malloc(31 * kKiB);
  const auto big = lib.malloc(32 * kKiB);
  EXPECT_FALSE(lib.in_hugepages(small.addr));
  EXPECT_TRUE(lib.in_hugepages(big.addr));
  EXPECT_EQ(lib.stats().libc_allocs, 1u);
  EXPECT_EQ(lib.stats().huge_allocs, 1u);
  lib.free(small.addr);
  lib.free(big.addr);
  lib.check_invariants();

  // Figure 2's routing for every size 1 B..16 MiB (each power of two and
  // +-1), library on and off, at the paper's tunables and at a 1 MiB
  // threshold with 8 KiB chunks: hugepages iff preloaded and size >=
  // threshold, carved in the configured chunk.
  struct Tunables {
    std::uint64_t threshold, chunk;
  };
  for (const Tunables t : {Tunables{32 * kKiB, 4 * kKiB},
                           Tunables{1 * kMiB, 8 * kKiB}}) {
    for (const bool enabled : {false, true}) {
      World sweep;
      LibraryConfig cfg;
      cfg.enabled = enabled;
      cfg.threshold = t.threshold;
      cfg.huge.chunk = t.chunk;
      Library swept(sweep.as, sweep.fs, cfg);
      EXPECT_EQ(swept.chunk(), t.chunk);
      std::uint64_t huge = 0, libc = 0;
      for (int lg = 0; lg <= 24; ++lg) {
        const std::uint64_t p = std::uint64_t{1} << lg;
        for (const std::uint64_t size : {p - 1, p, p + 1}) {
          if (size == 0 || size > 16 * kMiB) continue;
          const auto r = swept.malloc(size);
          ASSERT_NE(r.addr, 0u);
          const bool want_huge = enabled && size >= t.threshold;
          EXPECT_EQ(swept.in_hugepages(r.addr), want_huge)
              << "size " << size << " threshold " << t.threshold
              << " enabled " << enabled;
          if (want_huge) {
            EXPECT_EQ(r.addr % t.chunk, 0u) << "size " << size;
            ++huge;
          } else {
            ++libc;
          }
          swept.free(r.addr);
        }
      }
      EXPECT_EQ(swept.stats().huge_allocs, huge);
      EXPECT_EQ(swept.stats().libc_allocs, libc);
      EXPECT_EQ(swept.stats().fallback_allocs, 0u);
      swept.check_invariants();
    }
  }
}

TEST(Library, DisabledSendsEverythingToLibc) {
  World w;
  LibraryConfig cfg;
  cfg.enabled = false;
  Library lib(w.as, w.fs, cfg);
  const auto big = lib.malloc(8 * kMiB);
  EXPECT_FALSE(lib.in_hugepages(big.addr));
  EXPECT_EQ(w.fs.used(), 0u);
}

TEST(Library, FallsBackWhenPoolExhausted) {
  World w(/*huge_pages=*/6, /*reserve=*/0);
  LibraryConfig lcfg;
  lcfg.huge.min_map_bytes = 2 * kMiB;
  Library lib(w.as, w.fs, lcfg);
  // First big alloc eats most of the pool (4 of 6 pages usable after the
  // library's own reserve of 4).
  const auto a = lib.malloc(2 * kMiB);
  EXPECT_TRUE(lib.in_hugepages(a.addr));
  const auto b = lib.malloc(16 * kMiB);  // cannot fit: falls back
  EXPECT_NE(b.addr, 0u);
  EXPECT_FALSE(lib.in_hugepages(b.addr));
  EXPECT_EQ(lib.stats().fallback_allocs, 1u);
}

TEST(Library, FreeDispatchesToOwningHeap) {
  World w;
  Library lib(w.as, w.fs);
  std::vector<VirtAddr> addrs;
  for (int i = 0; i < 10; ++i) {
    addrs.push_back(lib.malloc(8 * kKiB).addr);
    addrs.push_back(lib.malloc(64 * kKiB).addr);
  }
  for (VirtAddr a : addrs) lib.free(a);
  lib.check_invariants();
  EXPECT_EQ(lib.huge_heap().stats().allocs,
            lib.huge_heap().stats().frees);
  EXPECT_EQ(lib.libc_heap().stats().allocs, lib.libc_heap().stats().frees);
}

// Property test: replay the Abinit trace at several configurations; the
// heap invariants must hold throughout, and data written to each live
// block must survive until its free.
class LibraryTraceProperty
    : public ::testing::TestWithParam<std::tuple<bool, FitPolicy, bool>> {};

TEST_P(LibraryTraceProperty, InvariantsAndDataIntegrity) {
  const auto [enabled, fit, coalesce] = GetParam();
  World w(256, 2);
  LibraryConfig cfg;
  cfg.enabled = enabled;
  cfg.huge.fit = fit;
  cfg.huge.coalesce_on_free = coalesce;
  Library lib(w.as, w.fs, cfg);

  workloads::TraceConfig tcfg;
  tcfg.iterations = 20;
  const auto ops = workloads::make_abinit_trace(tcfg);
  std::vector<VirtAddr> slots(workloads::trace_slot_count(tcfg));
  std::map<VirtAddr, std::uint8_t> tags;
  std::uint8_t next_tag = 1;

  for (const auto& op : ops) {
    if (op.kind == workloads::TraceOp::Kind::Malloc) {
      const auto r = lib.malloc(op.size);
      ASSERT_NE(r.addr, 0u);
      slots[op.slot] = r.addr;
      // Tag the first/last bytes; they must survive other ops.
      auto span = w.as.host_span(r.addr, op.size);
      span.front() = next_tag;
      span.back() = next_tag;
      tags[r.addr] = next_tag++;
    } else {
      const VirtAddr a = slots[op.slot];
      const std::uint64_t size = lib.block_size(a);
      auto span = w.as.host_span(a, size);
      ASSERT_EQ(span.front(), tags[a]) << "block header corrupted";
      ASSERT_EQ(span.back(), tags[a]) << "block tail corrupted";
      tags.erase(a);
      lib.free(a);
    }
    if (next_tag % 64 == 0) lib.check_invariants();
  }
  lib.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LibraryTraceProperty,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(FitPolicy::AddressOrderedFirstFit,
                                         FitPolicy::BestFit,
                                         FitPolicy::LifoFirstFit),
                       ::testing::Bool()));

}  // namespace
}  // namespace ibp::hugepage

namespace ibp::hugepage {
namespace {

TEST(LibraryCallocRealloc, CallocZeroes) {
  World w;
  Library lib(w.as, w.fs);
  const auto r = lib.calloc(1000, 64, w.as);  // 64 KB -> hugepages
  ASSERT_NE(r.addr, 0u);
  EXPECT_TRUE(lib.in_hugepages(r.addr));
  auto s = w.as.host_span(r.addr, 64000);
  for (std::size_t i = 0; i < s.size(); i += 97) ASSERT_EQ(s[i], 0);
  // Zeroing is charged.
  EXPECT_GT(r.cost, 64000u / 8);
  lib.free(r.addr);
  lib.check_invariants();
}

TEST(LibraryCallocRealloc, CallocOverflowThrows) {
  World w;
  Library lib(w.as, w.fs);
  EXPECT_THROW(lib.calloc(~0ull, 16, w.as), SimError);
}

TEST(LibraryCallocRealloc, ReallocPreservesPrefix) {
  World w;
  Library lib(w.as, w.fs);
  const auto a = lib.malloc(100 * kKiB);
  auto s = w.as.host_span(a.addr, 100 * kKiB);
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i] = static_cast<std::uint8_t>(i * 31);
  const auto b = lib.realloc(a.addr, 400 * kKiB, w.as);
  ASSERT_NE(b.addr, 0u);
  auto d = w.as.host_span(b.addr, 100 * kKiB);
  for (std::size_t i = 0; i < d.size(); i += 41)
    ASSERT_EQ(d[i], static_cast<std::uint8_t>(i * 31));
  lib.free(b.addr);
  lib.check_invariants();
}

TEST(LibraryCallocRealloc, ReallocInPlaceWithinChunkRounding) {
  World w;
  Library lib(w.as, w.fs);
  const auto a = lib.malloc(62 * kKiB);  // rounds to 64 KB of chunks
  const auto b = lib.realloc(a.addr, 63 * kKiB, w.as);
  EXPECT_EQ(b.addr, a.addr) << "growth inside the rounding is in-place";
  const auto c = lib.realloc(b.addr, 500 * kKiB, w.as);
  EXPECT_NE(c.addr, a.addr);
  lib.free(c.addr);
  lib.check_invariants();
}

TEST(LibraryCallocRealloc, ReallocNullIsMalloc) {
  World w;
  Library lib(w.as, w.fs);
  const auto r = lib.realloc(0, 40 * kKiB, w.as);
  EXPECT_NE(r.addr, 0u);
  lib.free(r.addr);
}

}  // namespace
}  // namespace ibp::hugepage

namespace ibp::hugepage {
namespace {

TEST(HugeHeapCoalesceAll, MergesAdjacentFreeBlocks) {
  World w;
  HugeHeap heap(w.as, w.fs);
  std::vector<VirtAddr> blocks;
  for (int i = 0; i < 6; ++i) blocks.push_back(heap.allocate(64 * kKiB).addr);
  for (VirtAddr a : blocks) heap.deallocate(a);
  EXPECT_EQ(heap.free_blocks(), 7u);  // 6 fragments + region tail
  TimePs cost = 0;
  const std::uint64_t merges = heap.coalesce_all(&cost);
  EXPECT_EQ(merges, 6u);
  EXPECT_EQ(heap.free_blocks(), 1u);
  EXPECT_GT(cost, 0u);
  heap.check_invariants();
  // A big allocation now fits contiguously without growth.
  const auto big = heap.allocate(300 * kKiB);
  EXPECT_EQ(big.addr, blocks[0]);
}

TEST(HugeHeapCoalesceAll, StopsAtLiveBlocksAndRegionEdges) {
  World w;
  HugeHeap heap(w.as, w.fs);
  const auto a = heap.allocate(64 * kKiB);
  const auto live = heap.allocate(64 * kKiB);
  const auto b = heap.allocate(64 * kKiB);
  heap.deallocate(a.addr);
  heap.deallocate(b.addr);
  // Layout: [a free][live][b free][region tail]: only b+tail can merge.
  const std::uint64_t merges = heap.coalesce_all(nullptr);
  EXPECT_EQ(merges, 1u);
  EXPECT_EQ(heap.free_blocks(), 2u) << "a must stay split off by the live "
                                       "block";
  heap.deallocate(live.addr);
  heap.check_invariants();
}

}  // namespace
}  // namespace ibp::hugepage

namespace ibp::hugepage {
namespace {

class MemalignSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(MemalignSweep, PayloadAlignedAndIntact) {
  const auto [alignment, size] = GetParam();
  World w;
  Library lib(w.as, w.fs);
  // Perturb the heap first so aligned requests land mid-arena.
  const auto junk = lib.malloc(100);
  const auto r = lib.memalign(alignment, size);
  ASSERT_NE(r.addr, 0u);
  EXPECT_EQ(r.addr % alignment, 0u);
  auto s = w.as.host_span(r.addr, size);
  s.front() = 0x5A;
  s.back() = 0xA5;
  EXPECT_EQ(lib.block_size(r.addr), size);
  lib.free(r.addr);
  lib.free(junk.addr);
  lib.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MemalignSweep,
    ::testing::Combine(::testing::Values(16ull, 64ull, 256ull, 4096ull),
                       ::testing::Values(8ull, 100ull, 5000ull,
                                         64ull * kKiB)),
    [](const auto& info) {
      return "a" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Memalign, NeighboursSurviveAlignedCarving) {
  World w;
  Library lib(w.as, w.fs);
  const auto a = lib.malloc(100);
  auto sa = w.as.host_span(a.addr, 100);
  std::fill(sa.begin(), sa.end(), static_cast<std::uint8_t>(0x11));
  const auto b = lib.memalign(256, 1000);
  const auto c = lib.malloc(100);
  auto sc = w.as.host_span(c.addr, 100);
  std::fill(sc.begin(), sc.end(), static_cast<std::uint8_t>(0x33));
  EXPECT_EQ(b.addr % 256, 0u);
  EXPECT_EQ(w.as.host_span(a.addr, 1)[0], 0x11);
  EXPECT_EQ(w.as.host_span(c.addr, 1)[0], 0x33);
  lib.free(b.addr);
  lib.free(a.addr);
  lib.free(c.addr);
  lib.check_invariants();
}

}  // namespace
}  // namespace ibp::hugepage
