#include "ibp/placement/placement.hpp"

#include <gtest/gtest.h>

#include "ibp/core/cluster.hpp"
#include "ibp/hugepage/library.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/workloads/imb.hpp"

namespace ibp::placement {
namespace {

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, ListsAllPolicies) {
  const auto& infos = registered_policies();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos.front().name, "paper-default");
  for (const PolicyInfo& info : infos) {
    EXPECT_FALSE(info.description.empty());
    auto policy = make_policy(info.name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), info.name);
    EXPECT_NE(known_policy_names().find(std::string(info.name)),
              std::string::npos);
  }
}

TEST(Registry, UnknownNameIsNull) {
  EXPECT_EQ(make_policy("no-such-policy"), nullptr);
  EXPECT_EQ(make_policy(""), nullptr);
}

// ---------------------------------------------------------------------------
// Golden equivalence: PaperDefault reproduces the pre-engine hard-coded
// decisions — the hugepage library's 32 KB tier and 4 KB chunks — for
// every size 1 B..16 MB. (mpi::Comm's protocol bands are checked in
// mpi_protocol_test.)

TEST(PaperDefault, GoldenEquivalenceSweep) {
  PaperDefaultPolicy policy;
  for (int lg = 0; lg <= 24; ++lg) {
    for (std::uint64_t size : {std::uint64_t{1} << lg,
                               (std::uint64_t{1} << lg) + 1,
                               (std::uint64_t{1} << lg) - 1}) {
      if (size == 0 || size > 16 * kMiB) continue;
      for (bool huge_on : {false, true}) {
        PolicyContext ctx;
        ctx.hugepages_enabled = huge_on;
        const BufferPlan p = policy.plan({.size = size}, ctx);

        // hugepage::Library::malloc's exact routing condition.
        const bool want_huge = huge_on && size >= 32 * kKiB;
        EXPECT_EQ(p.backing, want_huge ? mem::PageKind::Huge
                                       : mem::PageKind::Small)
            << "size " << size;
        EXPECT_EQ(p.chunk, 4 * kKiB);
      }
    }
  }
}

TEST(PaperDefault, HonoursConsumerOverriddenThresholds) {
  // Tests construct Libraries with custom thresholds; the policy must
  // decide against the context, not baked-in constants.
  PaperDefaultPolicy policy;
  PolicyContext ctx;
  ctx.hugepages_enabled = true;
  ctx.huge_threshold = 1 * kMiB;
  ctx.chunk = 8 * kKiB;
  EXPECT_EQ(policy.plan({.size = 512 * kKiB}, ctx).backing,
            mem::PageKind::Small);
  EXPECT_EQ(policy.plan({.size = 2 * kMiB}, ctx).backing,
            mem::PageKind::Huge);
  EXPECT_EQ(policy.plan({.size = 64}, ctx).chunk, 8 * kKiB);
}

TEST(PaperDefault, LibraryRoutingMatchesPlans) {
  // The library consulted through an engine must land every allocation
  // on the tier the plan promised.
  mem::PhysicalMemory phys(256 * kMiB, 64, 3);
  mem::HugeTlbFs fs(&phys, 64, 2);
  mem::AddressSpace space(&phys, &fs);
  PolicyContext ctx;
  ctx.hugepages_enabled = true;
  PlacementEngine engine(std::make_unique<PaperDefaultPolicy>(), ctx);
  hugepage::Library lib(space, fs, {}, &engine);

  for (std::uint64_t size : {std::uint64_t{64}, 4 * kKiB, 31 * kKiB,
                             32 * kKiB, 256 * kKiB, 4 * kMiB}) {
    const BufferPlan p = lib.plan_for(size, Role::WorkloadHeap);
    const auto r = lib.malloc(size);
    ASSERT_NE(r.addr, 0u);
    EXPECT_EQ(lib.in_hugepages(r.addr), p.backing == mem::PageKind::Huge)
        << "size " << size;
  }
  EXPECT_GT(engine.stats().plans, 0u);
  EXPECT_GT(engine.stats().huge_backed, 0u);
  EXPECT_GT(engine.stats().small_backed, 0u);
}

// ---------------------------------------------------------------------------
// Non-default policies

TEST(SmallPageBaseline, NeverUsesHugepages) {
  SmallPageBaselinePolicy policy;
  PolicyContext ctx;
  ctx.hugepages_enabled = true;
  for (std::uint64_t size : {4 * kKiB, 32 * kKiB, 16 * kMiB}) {
    EXPECT_EQ(policy.plan({.size = size}, ctx).backing,
              mem::PageKind::Small);
  }
}

// ---------------------------------------------------------------------------
// Engine: counters.

TEST(Engine, CountsDecisions) {
  PolicyContext ctx;
  ctx.hugepages_enabled = true;
  PlacementEngine engine(std::make_unique<PaperDefaultPolicy>(), ctx);
  engine.plan({.size = 1 * kKiB, .role = Role::RecvRing});
  engine.plan({.size = 64 * kKiB, .role = Role::RpcResponse});
  engine.plan({.size = 64 * kKiB, .role = Role::WorkloadHeap});

  const EngineStats& s = engine.stats();
  EXPECT_EQ(s.plans, 3u);
  EXPECT_EQ(s.by_role[static_cast<int>(Role::RecvRing)], 1u);
  EXPECT_EQ(s.by_role[static_cast<int>(Role::RpcResponse)], 1u);
  EXPECT_EQ(s.by_role[static_cast<int>(Role::WorkloadHeap)], 1u);
  EXPECT_EQ(s.huge_backed, 2u);
  EXPECT_EQ(s.small_backed, 1u);
}

TEST(Engine, TracerLogsPlanDecisions) {
  sim::Tracer tracer;
  TimePs now = 1234;
  PlacementEngine engine(std::make_unique<PaperDefaultPolicy>(),
                         PolicyContext{});
  engine.set_tracer(&tracer, 0, [&now] { return now; });
  engine.plan({.size = 2 * kKiB, .role = Role::RecvRing});
  ASSERT_EQ(tracer.size(), 1u);
}

// ---------------------------------------------------------------------------
// Cluster integration: policy selection by name, and the acceptance
// ordering — the paper's hugepage placement beats SmallPageBaseline for
// >= 64 KB messages in the registration-sensitive IMB SendRecv
// configuration.

TEST(Cluster, RejectsUnknownPolicyName) {
  core::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.ranks_per_node = 1;
  cfg.placement_policy = "definitely-not-a-policy";
  EXPECT_THROW(core::Cluster cluster(cfg), SimError);
}

std::vector<workloads::ImbPoint> run_fig5_policy(const std::string& policy) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.hugepage_library = true;
  cfg.lazy_deregistration = false;  // registration-sensitive configuration
  cfg.hugepages_per_node = 512;
  cfg.placement_policy = policy;
  core::Cluster cluster(cfg);
  workloads::ImbConfig icfg;
  icfg.sizes = {64 * kKiB, 1 * kMiB, 4 * kMiB};
  icfg.iterations = 3;
  return workloads::run_sendrecv(cluster, icfg);
}

TEST(Cluster, EveryPolicyHonoursLazyDeregistrationOff) {
  // With the pin-down cache off, no policy may keep a registration past
  // its transfer: both ends of a 64 KB rendezvous unpin their buffers.
  for (const PolicyInfo& info : registered_policies()) {
    core::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.ranks_per_node = 1;
    cfg.lazy_deregistration = false;
    cfg.placement_policy = std::string(info.name);
    core::Cluster cluster(cfg);
    cluster.run([&](core::RankEnv& env) {
      EXPECT_FALSE(env.rcache().lazy()) << info.name;
      mpi::Comm comm(env);
      const std::uint64_t pinned = env.space().pinned_pages();
      const VirtAddr sbuf = env.alloc(64 * kKiB);
      const VirtAddr rbuf = env.alloc(64 * kKiB);
      const int other = 1 - env.rank();
      comm.sendrecv(sbuf, 64 * kKiB, other, 0, rbuf, 64 * kKiB, other, 0);
      EXPECT_GT(env.rcache().stats().misses, 0u) << info.name;
      EXPECT_EQ(env.rcache().entries(), 0u) << info.name;
      EXPECT_EQ(env.space().pinned_pages(), pinned)
          << info.name << ": a registration outlived its transfer";
    });
  }
}

TEST(Cluster, PaperDefaultBeatsSmallPageBaselineAt64KAndUp) {
  const auto paper = run_fig5_policy("paper-default");
  const auto baseline = run_fig5_policy("small-page-baseline");
  ASSERT_EQ(paper.size(), baseline.size());
  for (std::size_t i = 0; i < paper.size(); ++i) {
    EXPECT_GT(paper[i].mbytes_per_sec, baseline[i].mbytes_per_sec)
        << "size " << paper[i].bytes;
  }
}

TEST(Cluster, PaperDefaultPolicyMatchesLegacyBehaviourBitExactly) {
  // The whole refactor is behaviour-preserving: a paper-default run must
  // produce the exact same bandwidth figures as the seed code did (the
  // same simulation, decision for decision).
  const auto a = run_fig5_policy("paper-default");
  const auto b = run_fig5_policy("paper-default");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].avg_time, b[i].avg_time) << "determinism violated";
  }
}

// ---------------------------------------------------------------------------
// Roles and per-role overrides

TEST(Roles, NamesRoundTrip) {
  const Role all[] = {Role::RecvRing,  Role::WorkloadHeap,
                      Role::RpcRing,   Role::RpcResponse,
                      Role::RpcShard,  Role::StripeSegment,
                      Role::RingSlab,  Role::RingSlot};
  static_assert(sizeof(all) / sizeof(all[0]) == kRoleCount);
  static_assert(kRoleCount == 8);
  for (Role r : all) {
    const auto back = role_from_name(role_name(r));
    ASSERT_TRUE(back.has_value()) << role_name(r);
    EXPECT_EQ(*back, r);
  }
  EXPECT_EQ(role_from_name("rpc-ring"), Role::RpcRing);
  EXPECT_EQ(role_from_name("rpc-response"), Role::RpcResponse);
  EXPECT_EQ(role_from_name("rpc-shard"), Role::RpcShard);
  EXPECT_EQ(role_from_name("stripe-segment"), Role::StripeSegment);
  EXPECT_EQ(role_from_name("ring-slab"), Role::RingSlab);
  EXPECT_EQ(role_from_name("ring-slot"), Role::RingSlot);
  EXPECT_FALSE(role_from_name("no-such-role").has_value());
  EXPECT_FALSE(role_from_name("").has_value());
}

TEST(Engine, RoleOverrideRoutesPlansAndLeavesOthersAlone) {
  PolicyContext ctx;
  ctx.hugepages_enabled = true;
  PlacementEngine engine(make_policy("paper-default"), ctx);
  engine.set_role_policy(Role::RpcRing, make_policy("small-page-baseline"));
  EXPECT_EQ(engine.policy_for(Role::RpcRing).name(), "small-page-baseline");
  EXPECT_EQ(engine.policy_for(Role::WorkloadHeap).name(), "paper-default");

  BufferRequest req;
  req.size = 1 * kMiB;  // far above the 32 KB huge-tier threshold
  req.role = Role::RpcRing;
  EXPECT_EQ(engine.plan(req).backing, mem::PageKind::Small)
      << "the override must decide the rpc-ring role";
  req.role = Role::WorkloadHeap;
  EXPECT_EQ(engine.plan(req).backing, mem::PageKind::Huge)
      << "other roles must keep the default policy";

  engine.set_role_policy(Role::RpcRing, nullptr);  // clear
  req.role = Role::RpcRing;
  EXPECT_EQ(engine.plan(req).backing, mem::PageKind::Huge);
}

}  // namespace
}  // namespace ibp::placement
