#include "ibp/regcache/regcache.hpp"

#include <gtest/gtest.h>

#include "ibp/core/cluster.hpp"
#include "ibp/mpi/comm.hpp"

namespace ibp::regcache {
namespace {

void with_env(bool lazy, const std::function<void(core::RankEnv&)>& fn) {
  core::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.ranks_per_node = 1;
  cfg.lazy_deregistration = lazy;
  core::Cluster cluster(cfg);
  cluster.run(fn);
}

TEST(RegCache, LazyHitsOnReuse) {
  with_env(true, [](core::RankEnv& env) {
    auto& m = env.space().map(1 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    const verbs::Mr a = rc.acquire(m.va_base, 64 * kKiB);
    rc.release(a);
    const verbs::Mr b = rc.acquire(m.va_base, 64 * kKiB);
    EXPECT_EQ(a.lkey, b.lkey);
    EXPECT_EQ(rc.stats().hits, 1u);
    EXPECT_EQ(rc.stats().misses, 1u);
  });
}

TEST(RegCache, HullCoversNeighbouringBuffers) {
  // Registering the page-aligned hull makes a nearby buffer in the same
  // pages a cache hit.
  with_env(true, [](core::RankEnv& env) {
    auto& m = env.space().map(1 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    rc.acquire(m.va_base + 100, 1000);
    const verbs::Mr b = rc.acquire(m.va_base + 2000, 500);  // same page
    (void)b;
    EXPECT_EQ(rc.stats().hits, 1u);
  });
}

TEST(RegCache, LazyKeepsMemoryPinned) {
  // The §1 drawback the paper discusses: pinned memory accumulates.
  with_env(true, [](core::RankEnv& env) {
    auto& m = env.space().map(4 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    const verbs::Mr a = rc.acquire(m.va_base, 1 * kMiB);
    rc.release(a);
    EXPECT_GT(env.space().pinned_pages(), 0u)
        << "lazy release must keep pages pinned";
    EXPECT_GT(rc.stats().pinned_bytes, 0u);
  });
}

TEST(RegCache, NonLazyDeregistersOnRelease) {
  with_env(false, [](core::RankEnv& env) {
    auto& m = env.space().map(1 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    const verbs::Mr a = rc.acquire(m.va_base, 1 * kMiB);
    rc.release(a);
    EXPECT_EQ(env.space().pinned_pages(), 0u);
    // Every acquire re-registers.
    rc.acquire(m.va_base, 1 * kMiB);
    EXPECT_EQ(rc.stats().misses, 2u);
    EXPECT_EQ(rc.stats().hits, 0u);
  });
}

TEST(RegCache, NonLazyCostsFullRegistrationEachTime) {
  // The fig5 mechanism: without lazy dereg every use pays registration.
  with_env(false, [](core::RankEnv& env) {
    auto& m = env.space().map(4 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    const TimePs t0 = env.now();
    const verbs::Mr a = rc.acquire(m.va_base, 4 * kMiB);
    const TimePs first = env.now() - t0;
    rc.release(a);
    const TimePs t1 = env.now();
    const verbs::Mr b = rc.acquire(m.va_base, 4 * kMiB);
    const TimePs second = env.now() - t1;
    rc.release(b);
    EXPECT_GT(second, first / 2) << "second acquire must not be cached";
  });
}

TEST(RegCache, InvalidateDropsCoveredEntries) {
  with_env(true, [](core::RankEnv& env) {
    auto& m = env.space().map(4 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    rc.acquire(m.va_base, 1 * kMiB);
    rc.acquire(m.va_base + 2 * kMiB, 1 * kMiB);
    EXPECT_EQ(rc.entries(), 2u);
    rc.invalidate(m.va_base, 1 * kMiB);
    EXPECT_EQ(rc.entries(), 1u);
    EXPECT_EQ(rc.stats().invalidations, 1u);
    // Freed region really is unpinned again.
    rc.invalidate(m.va_base + 2 * kMiB, 1 * kMiB);
    EXPECT_EQ(env.space().pinned_pages(), 0u);
  });
}

TEST(RegCache, InvalidateIgnoresNonOverlapping) {
  with_env(true, [](core::RankEnv& env) {
    auto& m = env.space().map(4 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    rc.acquire(m.va_base, 64 * kKiB);
    rc.invalidate(m.va_base + 2 * kMiB, 64 * kKiB);
    EXPECT_EQ(rc.entries(), 1u);
    EXPECT_EQ(rc.stats().invalidations, 0u);
  });
}

TEST(RegCache, FlushUnpinsEverything) {
  with_env(true, [](core::RankEnv& env) {
    auto& m = env.space().map(8 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    for (int i = 0; i < 4; ++i)
      rc.acquire(m.va_base + static_cast<std::uint64_t>(i) * 2 * kMiB,
                 1 * kMiB);
    rc.flush();
    EXPECT_EQ(rc.entries(), 0u);
    EXPECT_EQ(env.space().pinned_pages(), 0u);
  });
}

TEST(RegCache, PinnedBytesPeakTracksGrowth) {
  with_env(true, [](core::RankEnv& env) {
    auto& m = env.space().map(8 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    rc.acquire(m.va_base, 2 * kMiB);
    rc.acquire(m.va_base + 4 * kMiB, 2 * kMiB);
    EXPECT_GE(rc.stats().pinned_bytes_peak, 4 * kMiB);
  });
}

TEST(RegCache, SameBaseWiderHullRetiresNarrowerRegistration) {
  // Two acquires whose page-aligned hulls start at the same base but span
  // a different number of pages collide on the cache key; the wider
  // registration must supersede (not orphan) the narrower one, and both
  // must unwind cleanly on invalidate.
  with_env(true, [](core::RankEnv& env) {
    auto& m = env.space().map(1 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    const verbs::Mr narrow = rc.acquire(m.va_base + 64, 128);   // 1 page
    const verbs::Mr wide = rc.acquire(m.va_base + 64, 8 * kKiB);  // 3 pages
    EXPECT_EQ(rc.entries(), 1u);
    EXPECT_EQ(rc.stats().misses, 2u);
    rc.release(narrow);
    rc.release(wide);
    rc.invalidate(m.va_base, m.npages() * m.page_size());
    EXPECT_EQ(rc.entries(), 0u);
    EXPECT_EQ(rc.stats().pinned_bytes, 0u);
    EXPECT_EQ(env.space().pinned_pages(), 0u)
        << "a retired registration leaked its pin";
  });
}

TEST(RegCache, InFlightCountsUnreleasedAcquires) {
  with_env(true, [](core::RankEnv& env) {
    auto& m = env.space().map(1 * kMiB, mem::PageKind::Small);
    RegCache& rc = env.rcache();
    const verbs::Mr a = rc.acquire(m.va_base, 64 * kKiB);
    const verbs::Mr b = rc.acquire(m.va_base + 4 * kKiB, 4 * kKiB);  // hit
    EXPECT_EQ(rc.in_flight(), 2u);
    rc.release(a);
    rc.release(b);
    EXPECT_EQ(rc.in_flight(), 0u);
    EXPECT_EQ(rc.entries(), 1u) << "lazy release keeps the registration";
  });
}

TEST(RegCache, RendezvousTransfersReleaseEveryAcquire) {
  // Both registration modes on both page tiers. With lazy deregistration
  // off, both ends of every rendezvous unpin their buffers once the
  // transfer completes.
  for (const bool lazy : {true, false}) {
    for (const bool huge : {false, true}) {
      SCOPED_TRACE(testing::Message() << "lazy=" << lazy << " huge=" << huge);
      core::ClusterConfig cfg;
      cfg.nodes = 2;
      cfg.ranks_per_node = 1;
      cfg.lazy_deregistration = lazy;
      cfg.hugepage_library = huge;
      core::Cluster cluster(cfg);
      cluster.run([&](core::RankEnv& env) {
        mpi::Comm comm(env);
        const std::uint64_t pinned = env.space().pinned_pages();
        constexpr std::uint64_t kLen = 1 * kMiB;
        const VirtAddr sbuf = env.alloc(kLen);
        const VirtAddr rbuf = env.alloc(kLen);
        EXPECT_EQ(env.lib().in_hugepages(sbuf), huge);
        const int other = 1 - env.rank();
        for (int i = 0; i < 3; ++i)
          comm.sendrecv(sbuf, kLen, other, i, rbuf, kLen, other, i);
        EXPECT_EQ(env.rcache().in_flight(), 0u);
        if (lazy) {
          EXPECT_GT(env.rcache().stats().hits, 0u);
        } else {
          EXPECT_GT(env.rcache().stats().misses, 0u);
          EXPECT_EQ(env.rcache().entries(), 0u);
          EXPECT_EQ(env.space().pinned_pages(), pinned)
              << "a registration outlived its transfer";
        }
      });
    }
  }
}

}  // namespace
}  // namespace ibp::regcache
