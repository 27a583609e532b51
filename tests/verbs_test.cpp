#include "ibp/verbs/verbs.hpp"

#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "ibp/core/cluster.hpp"

namespace ibp::verbs {
namespace {

core::ClusterConfig two_singles(bool patched) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.driver.hugepage_passthrough = patched;
  return cfg;
}

TEST(Verbs, RegMrChargesTime) {
  core::Cluster cluster(two_singles(true));
  cluster.run([](core::RankEnv& env) {
    auto& m = env.space().map(1 * kMiB, mem::PageKind::Small);
    const TimePs t0 = env.now();
    const Mr mr = env.verbs().reg_mr(m.va_base, 1 * kMiB);
    EXPECT_GT(env.now(), t0);
    EXPECT_EQ(mr.length, 1 * kMiB);
    const TimePs t1 = env.now();
    env.verbs().dereg_mr(mr);
    EXPECT_GT(env.now(), t1);
  });
}

TEST(Verbs, DriverPatchControlsTranslationGranularity) {
  for (const bool patched : {false, true}) {
    core::Cluster cluster(two_singles(patched));
    cluster.run([&](core::RankEnv& env) {
      auto& m = env.space().map(4 * kMiB, mem::PageKind::Huge);
      env.verbs().reg_mr(m.va_base, 4 * kMiB);
      const auto& st = env.state().node->adapter.stats();
      if (patched) {
        EXPECT_EQ(st.translations_shipped, 2u);  // two 2 MB entries
      } else {
        EXPECT_EQ(st.translations_shipped, 1024u);  // pretend 4 KB pages
      }
      EXPECT_EQ(st.pages_pinned, 2u);  // pinning is per OS page either way
    });
  }
}

TEST(Verbs, HugepageRegistrationIsAboutOnePercent) {
  // The headline §5.1 number, asserted as a property.
  core::Cluster cluster(two_singles(true));
  cluster.run([](core::RankEnv& env) {
    auto& s = env.space().map(16 * kMiB, mem::PageKind::Small);
    auto& h = env.space().map(16 * kMiB, mem::PageKind::Huge);
    TimePs t0 = env.now();
    env.verbs().reg_mr(s.va_base, 16 * kMiB);
    const TimePs small_cost = env.now() - t0;
    t0 = env.now();
    env.verbs().reg_mr(h.va_base, 16 * kMiB);
    const TimePs huge_cost = env.now() - t0;
    const double ratio =
        static_cast<double>(huge_cost) / static_cast<double>(small_cost);
    EXPECT_LT(ratio, 0.02) << "expected ~1% (paper §5.1)";
    EXPECT_GT(ratio, 0.0005);
  });
}

TEST(Verbs, BlockingWaitFastForwardsVirtualTime) {
  core::Cluster cluster(two_singles(true));
  cluster.run([](core::RankEnv& env) {
    auto& m = env.space().map(64 * kKiB, mem::PageKind::Small);
    const Mr mr = env.verbs().reg_mr(m.va_base, 64 * kKiB);
    auto qp = env.verbs().wrap_qp(*env.state().qp_to[1 - env.rank()]);
    if (env.rank() == 0) {
      hca::SendWr wr;
      wr.sges = {{m.va_base, 32 * kKiB, mr.lkey}};
      env.verbs().post_send(qp, wr);
      const TimePs before = env.now();
      env.verbs().wait_send();
      // The wait must jump to the completion, not spin in small steps.
      EXPECT_GT(env.now(), before + us(10));
    } else {
      hca::RecvWr wr;
      wr.sges = {{m.va_base, static_cast<std::uint32_t>(64 * kKiB),
                  mr.lkey}};
      env.verbs().post_recv(qp, wr);
      const hca::Cqe cqe = env.verbs().wait_recv();
      EXPECT_EQ(cqe.byte_len, 32 * kKiB);
    }
  });
}

TEST(Verbs, PollCostsAreCharged) {
  core::Cluster cluster(two_singles(true));
  cluster.run([](core::RankEnv& env) {
    const TimePs t0 = env.now();
    EXPECT_FALSE(env.verbs().poll_send().has_value());
    EXPECT_GT(env.now(), t0);  // empty poll still costs a probe
  });
}

TEST(Verbs, RegUnmappedRangeThrows) {
  core::Cluster cluster(two_singles(true));
  EXPECT_THROW(cluster.run([](core::RankEnv& env) {
    env.verbs().reg_mr(0x123456, 4096);
  }),
               SimError);
}

TEST(Verbs, PrivateCqsWakeTheirRank) {
  // Each rank opens a verbs::Context with its own CQs. Rank 1 blocks on
  // its receive CQ before rank 0's send fills it, so the run finishes
  // only if that push wakes rank 1.
  core::Cluster cluster(two_singles(true));
  std::array<std::optional<Qp>, 2> qps;
  Waker made;  // fires when a QP is created
  cluster.run([&qps, &made](core::RankEnv& env) {
    const auto me = static_cast<std::size_t>(env.rank());
    Context ctx(env.sim(), env.space(), env.state().node->adapter);
    auto& m = env.space().map(64 * kKiB, mem::PageKind::Small);
    const Mr mr = ctx.reg_mr(m.va_base, 64 * kKiB);
    qps[me] = ctx.create_qp();
    made.wake();
    const TimePs created = env.now();
    const auto both = [&qps, created]() -> std::optional<TimePs> {
      if (!qps[0] || !qps[1]) return std::nullopt;
      return created;
    };
    env.sim().wait("both qps", {&made}, both);
    if (me == 0) {
      Qp::connect(*qps[0], *qps[1]);
      env.sim().advance(us(5));  // rank 1 is blocked by now
      hca::SendWr wr;
      wr.sges = {{m.va_base, 4 * kKiB, mr.lkey}};
      ctx.post_send(*qps[0], wr);
      ctx.wait_send();
    } else {
      hca::RecvWr wr;
      wr.sges = {{m.va_base, static_cast<std::uint32_t>(64 * kKiB),
                  mr.lkey}};
      ctx.post_recv(*qps[1], wr);
      EXPECT_EQ(ctx.wait_recv().byte_len, 4 * kKiB);
      EXPECT_GT(env.now(), us(5));
    }
  });
}

}  // namespace
}  // namespace ibp::verbs
