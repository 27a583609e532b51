#include "ibp/cpu/memory_system.hpp"

#include <gtest/gtest.h>

#include "ibp/core/cluster.hpp"
#include "ibp/cpu/timebase.hpp"
#include "ibp/cpu/tlb.hpp"
#include "ibp/mem/address_space.hpp"

namespace ibp::cpu {
namespace {

TlbConfig small_tlb(std::uint32_t s, std::uint32_t h) {
  TlbConfig cfg;
  cfg.small_entries = s;
  cfg.huge_entries = h;
  cfg.walk_cost = ns(100);
  cfg.hot_walk_cost = ns(10);
  cfg.walk_cache_entries = 64;
  return cfg;
}

TEST(Tlb, HitAfterInsert) {
  Tlb tlb(small_tlb(4, 2));
  EXPECT_GT(tlb.access(0x1000, kSmallPageSize), 0u);  // compulsory miss
  EXPECT_EQ(tlb.access(0x1000, kSmallPageSize), 0u);  // hit
  EXPECT_EQ(tlb.stats().misses_small, 1u);
  EXPECT_EQ(tlb.stats().hits_small, 1u);
}

TEST(Tlb, LruEvictionAtCapacity) {
  Tlb tlb(small_tlb(2, 2));
  tlb.access(0x1000, kSmallPageSize);
  tlb.access(0x2000, kSmallPageSize);
  tlb.access(0x1000, kSmallPageSize);  // refresh 0x1000
  tlb.access(0x3000, kSmallPageSize);  // evicts 0x2000
  EXPECT_EQ(tlb.access(0x1000, kSmallPageSize), 0u);
  EXPECT_GT(tlb.access(0x2000, kSmallPageSize), 0u);
}

TEST(Tlb, SplitCapacitiesAreIndependent) {
  Tlb tlb(small_tlb(1, 1));
  tlb.access(0x1000, kSmallPageSize);
  tlb.access(0x200000, kHugePageSize);
  // Huge access must not have evicted the small entry.
  EXPECT_EQ(tlb.access(0x1000, kSmallPageSize), 0u);
  EXPECT_EQ(tlb.access(0x200000, kHugePageSize), 0u);
  EXPECT_EQ(tlb.stats().misses_huge, 1u);
}

TEST(Tlb, WalkCacheMakesRepeatMissesCheap) {
  // Capacity-1 TLB thrashing between two pages: after the cold walks, the
  // page-walk cache serves the translations at the hot cost.
  Tlb tlb(small_tlb(1, 1));
  const TimePs cold0 = tlb.access(0x1000, kSmallPageSize);
  const TimePs cold1 = tlb.access(0x2000, kSmallPageSize);
  EXPECT_EQ(cold0, ns(100));
  EXPECT_EQ(cold1, ns(100));
  const TimePs hot0 = tlb.access(0x1000, kSmallPageSize);  // miss, hot walk
  EXPECT_EQ(hot0, ns(10));
  EXPECT_EQ(tlb.stats().misses_small, 3u);  // misses still counted (PAPI)
}

TEST(Tlb, FlushClearsEverything) {
  Tlb tlb(small_tlb(8, 8));
  tlb.access(0x1000, kSmallPageSize);
  tlb.flush();
  EXPECT_EQ(tlb.access(0x1000, kSmallPageSize), ns(100));  // cold again
}

class MemSysTest : public ::testing::Test {
 protected:
  MemSysTest() : fs(&pm, 32, 0), as(&pm, &fs), tlb(cfg_tlb()), mem(cfg_mem(), &tlb) {}
  static TlbConfig cfg_tlb() { return small_tlb(544, 8); }
  static MemConfig cfg_mem() {
    MemConfig m;
    m.stream_bw_bytes_per_ns = 4.0;
    m.dram_latency = ns(100);
    m.cached_fraction = 0.0;
    return m;
  }
  mem::PhysicalMemory pm{256 * kMiB, 32, 5};
  mem::HugeTlbFs fs;
  mem::AddressSpace as;
  Tlb tlb;
  MemorySystem mem;
};

TEST_F(MemSysTest, StreamCostScalesWithLength) {
  auto& m = as.map(8 * kMiB, mem::PageKind::Small);
  const TimePs t1 = mem.stream(as, m.va_base, 1 * kMiB);
  tlb.flush();
  const TimePs t8 = mem.stream(as, m.va_base, 8 * kMiB);
  EXPECT_GT(t8, 6 * t1);
  EXPECT_LT(t8, 10 * t1);
}

TEST_F(MemSysTest, HugepageStreamIsFasterThanSmallPageStream) {
  // Same bytes; the small-page version re-ramps the prefetcher at every
  // scattered 4 KB frame.
  auto& s = as.map(8 * kMiB, mem::PageKind::Small);
  auto& h = as.map(8 * kMiB, mem::PageKind::Huge);
  const TimePs ts = mem.stream(as, s.va_base, 8 * kMiB);
  const TimePs th = mem.stream(as, h.va_base, 8 * kMiB);
  EXPECT_LT(th, ts);
  // 2048 small-page ramps vs ~4 hugepage ramps at 100 ns each.
  EXPECT_GT(ts - th, us(150));
}

TEST_F(MemSysTest, PrefetchRampsCounted) {
  auto& s = as.map(1 * kMiB, mem::PageKind::Small);
  mem.reset_stats();
  mem.stream(as, s.va_base, 1 * kMiB);
  EXPECT_EQ(mem.stats().prefetch_ramps, 256u);  // one per scattered frame
  auto& h = as.map(2 * kMiB, mem::PageKind::Huge);
  mem.reset_stats();
  mem.stream(as, h.va_base, 2 * kMiB);
  EXPECT_EQ(mem.stats().prefetch_ramps, 1u);
}

TEST_F(MemSysTest, InterleavedStreamsThrashHugeTlbWhenOverCapacity) {
  // 12 concurrent hugepage streams against 8 huge-TLB entries: far more
  // misses than the same sweep over small pages (544 entries) — the §5.2
  // inversion.
  constexpr int kStreams = 12;
  constexpr std::uint64_t kLen = 2 * kMiB;
  std::vector<MemorySystem::StreamRef> huge_refs, small_refs;
  for (int i = 0; i < kStreams; ++i) {
    huge_refs.push_back({as.map(kLen, mem::PageKind::Huge).va_base, kLen});
    small_refs.push_back({as.map(kLen, mem::PageKind::Small).va_base, kLen});
  }
  tlb.reset_stats();
  mem.interleaved_stream(as, huge_refs);
  const std::uint64_t huge_misses = tlb.stats().misses_huge;
  tlb.reset_stats();
  mem.interleaved_stream(as, small_refs);
  const std::uint64_t small_misses = tlb.stats().misses_small;
  EXPECT_GT(huge_misses, 4 * small_misses)
      << "huge=" << huge_misses << " small=" << small_misses;
}

TEST_F(MemSysTest, InterleavedStreamsFitWhenUnderCapacity) {
  // 4 hugepage streams fit the 8-entry TLB: only compulsory misses.
  std::vector<MemorySystem::StreamRef> refs;
  for (int i = 0; i < 4; ++i)
    refs.push_back({as.map(2 * kMiB, mem::PageKind::Huge).va_base, 2 * kMiB});
  tlb.reset_stats();
  mem.interleaved_stream(as, refs);
  EXPECT_EQ(tlb.stats().misses_huge, 4u);
}

TEST_F(MemSysTest, RandomAccessCostsLatencyPerTouch) {
  auto& m = as.map(16 * kMiB, mem::PageKind::Small);
  Rng rng(1);
  const TimePs t = mem.random_access(as, m.va_base, 16 * kMiB, 1000, rng);
  // >= 1000 DRAM latencies (plus walks).
  EXPECT_GE(t, 1000 * ns(100));
  EXPECT_EQ(mem.stats().random_accesses, 1000u);
}

TEST_F(MemSysTest, RandomOverHugeRangeBeatsSmallOnTlb) {
  // A multi-MB random working set: hugepages cover it with few entries.
  auto& s = as.map(8 * kMiB, mem::PageKind::Small);
  auto& h = as.map(8 * kMiB, mem::PageKind::Huge);
  Rng r1(7), r2(7);
  tlb.reset_stats();
  mem.random_access(as, s.va_base, 8 * kMiB, 5000, r1);
  const auto small_misses = tlb.stats().misses_small;
  tlb.reset_stats();
  mem.random_access(as, h.va_base, 8 * kMiB, 5000, r2);
  const auto huge_misses = tlb.stats().misses_huge;
  EXPECT_LT(huge_misses, small_misses / 10);
}

TEST_F(MemSysTest, ZeroLengthIsFree) {
  auto& m = as.map(4096, mem::PageKind::Small);
  EXPECT_EQ(mem.stream(as, m.va_base, 0), 0u);
  Rng rng(1);
  EXPECT_EQ(mem.random_access(as, m.va_base, 4096, 0, rng), 0u);
}

TEST(TimeBase, RoundTripConversion) {
  TimeBase tb(512e6);
  EXPECT_EQ(tb.to_ticks(us(1)), 512u);
  EXPECT_EQ(tb.to_ticks(0), 0u);
  const TimePs t = tb.to_ps(1000);
  EXPECT_NEAR(static_cast<double>(t), 1.953e6, 1e3);
}

// The paper reads DTLB misses with PAPI: snapshot, run, diff. Here the
// cluster's cpu.* probes are those counters and telemetry::diff the diff.
TEST(PerfCounters, SnapshotDiff) {
  core::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);
  telemetry::MetricsDelta d;
  cluster.run([&](core::RankEnv& env) {
    const VirtAddr buf = env.alloc(1 * kMiB);
    const telemetry::MetricsSnapshot before = cluster.metrics().snapshot();
    env.touch_stream(buf, 1 * kMiB);
    d = telemetry::diff(before, cluster.metrics().snapshot());
  });
  EXPECT_DOUBLE_EQ(d.delta_of("cpu.stream_bytes"),
                   static_cast<double>(1 * kMiB));
  EXPECT_GT(d.delta_of("cpu.dtlb_misses"), 0.0);
}

TEST(MemCompute, ScalesWithOps) {
  EXPECT_EQ(MemorySystem::compute(4000, 4.0), us(1));
  EXPECT_EQ(MemorySystem::compute(0, 4.0), 0u);
}

}  // namespace
}  // namespace ibp::cpu
