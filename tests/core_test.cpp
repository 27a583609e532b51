#include "ibp/core/cluster.hpp"

#include <gtest/gtest.h>

#include "ibp/core/shm.hpp"
#include "wake_probe.hpp"

namespace ibp::core {
namespace {

TEST(ShmChannel, DeliversAfterLatency) {
  ShmChannel ch(ShmConfig{2.0, ns(500)});
  std::vector<std::uint8_t> data{1, 2, 3, 4};
  const TimePs copy = ch.push(data, us(1));
  EXPECT_GT(copy, 0u);
  EXPECT_FALSE(ch.pop(us(1)).has_value()) << "not visible before latency";
  const TimePs ready = *ch.next_ready();
  EXPECT_GE(ready, us(1) + ns(500));
  const auto msg = ch.pop(ready);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->data, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(ch.depth(), 0u);
}

TEST(ShmChannel, FifoOrder) {
  ShmChannel ch(ShmConfig{2.0, ns(10)});
  for (std::uint8_t i = 0; i < 5; ++i) ch.push({i}, 0);
  for (std::uint8_t i = 0; i < 5; ++i) {
    const auto m = ch.pop(ms(1));
    ASSERT_TRUE(m);
    EXPECT_EQ(m->data[0], i);
  }
}

TEST(ShmChannel, PushFiresTheWaker) {
  ShmChannel ch(ShmConfig{2.0, ns(10)});
  WakeProbe probe(ch.waker());
  ch.push({1, 2}, 0);
  EXPECT_TRUE(probe.fired());
  EXPECT_TRUE(ch.pop(ms(1)).has_value());
  EXPECT_TRUE(probe.fired())
      << "a pop fires too: another lane may wait on the same channel";
}

TEST(ShmChannel, EveryMutationFiresAndNoConstCallDoes) {
  ShmChannel ch(ShmConfig{2.0, ns(10)});
  WakeProbe probe(ch.waker());
  ch.push({1, 2}, 0);
  EXPECT_TRUE(probe.fired()) << "push";
  const TimePs ready = *ch.next_ready();
  EXPECT_EQ(ch.depth(), 1u);
  EXPECT_GT(ch.copy_cost(64), 0u);
  EXPECT_FALSE(probe.fired()) << "next_ready, depth and copy_cost read only";
  EXPECT_FALSE(ch.pop(ready - 1).has_value());
  EXPECT_FALSE(probe.fired()) << "a pop that finds nothing visible";
  EXPECT_TRUE(ch.pop(ready).has_value());
  EXPECT_TRUE(probe.fired()) << "pop";
}

TEST(Cluster, WiringMatchesTopology) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 3;
  Cluster cluster(cfg);
  ASSERT_EQ(cluster.nranks(), 6);
  for (int a = 0; a < 6; ++a) {
    const RankState& ra = cluster.rank(a);
    for (int b = 0; b < 6; ++b) {
      if (a == b) continue;
      const bool same_node = (a / 3) == (b / 3);
      if (same_node) {
        EXPECT_EQ(ra.qp_to[b], nullptr);
        EXPECT_NE(ra.shm_out[b], nullptr);
        EXPECT_NE(ra.shm_in[b], nullptr);
      } else {
        EXPECT_NE(ra.qp_to[b], nullptr);
        EXPECT_EQ(ra.shm_out[b], nullptr);
        // QPs are mutually connected.
        EXPECT_EQ(ra.qp_to[b]->peer(), cluster.rank(b).qp_to[a]);
      }
    }
  }
}

TEST(Cluster, RanksShareNodeAdapterAndHugetlbfs) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.ranks_per_node = 2;
  cfg.hugepages_per_node = 8;
  cfg.hugepage_library = true;
  cfg.library.huge.min_map_bytes = 2 * kMiB;
  cfg.library.huge.lib_reserve_pages = 0;
  Cluster cluster(cfg);
  // Rank 0 drains the shared pool; rank 1's big malloc must fall back.
  cluster.run([&](RankEnv& env) {
    if (env.rank() == 0) {
      env.alloc(12 * kMiB);  // 6 of 8 pages (2 kernel-reserved)
    } else {
      env.sim().advance(us(100));  // run after rank 0
      const auto r = env.lib().malloc(8 * kMiB);
      EXPECT_NE(r.addr, 0u);
      EXPECT_FALSE(env.lib().in_hugepages(r.addr))
          << "shared pool must be exhausted by rank 0";
    }
  });
}

TEST(RankEnv, AllocRoutesThroughLibrary) {
  for (const bool huge : {false, true}) {
    ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.ranks_per_node = 1;
    cfg.hugepage_library = huge;
    Cluster cluster(cfg);
    cluster.run([&](RankEnv& env) {
      const VirtAddr big = env.alloc(1 * kMiB);
      EXPECT_EQ(env.lib().in_hugepages(big), huge);
      const VirtAddr small = env.alloc(1024);
      EXPECT_FALSE(env.lib().in_hugepages(small));
      env.dealloc(big);
      env.dealloc(small);
    });
  }
}

TEST(RankEnv, DeallocInvalidatesRegistrations) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.ranks_per_node = 1;
  Cluster cluster(cfg);
  cluster.run([](RankEnv& env) {
    const VirtAddr buf = env.alloc(1 * kMiB);
    env.rcache().acquire(buf, 64 * kKiB);
    EXPECT_GT(env.space().pinned_pages(), 0u);
    env.dealloc(buf);  // must invalidate the cached registration first
    EXPECT_EQ(env.space().pinned_pages(), 0u);
  });
}

TEST(RankEnv, ComputeAdvancesClock) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.ranks_per_node = 1;
  Cluster cluster(cfg);
  cluster.run([](RankEnv& env) {
    const TimePs t0 = env.now();
    env.compute(44000);  // 44k ops at 4.4 ops/ns = 10 us
    EXPECT_EQ(env.now() - t0, us(10));
  });
}

TEST(Cluster, DeterministicMakespan) {
  auto run = [] {
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.ranks_per_node = 2;
    Cluster cluster(cfg);
    cluster.run([](RankEnv& env) {
      const VirtAddr b = env.alloc(256 * kKiB);
      env.touch_stream(b, 256 * kKiB);
      env.touch_random(b, 256 * kKiB, 500);
      env.compute(100000);
    });
    return cluster.makespan();
  };
  EXPECT_EQ(run(), run());
}

TEST(Cluster, RejectsUnknownPolicyName) {
  // hugepage::Library is the only placement strategy; the baseline is a
  // run without the library, not a second policy name.
  for (const char* name : {"definitely-not-a-policy", "small-page-baseline"}) {
    ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.ranks_per_node = 1;
    cfg.placement_policy = name;
    try {
      Cluster cluster(cfg);
      ADD_FAILURE() << "accepted placement policy " << name;
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("hugepage_library"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace ibp::core
