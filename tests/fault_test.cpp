// Fault-injection & transport-reliability subsystem tests: deterministic
// injector schedules, the plan parser, RC retransmission / RNR backoff /
// QP error semantics at the adapter level, and MPI-level recovery on a
// lossy fabric.

#include "ibp/fault/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ibp/core/cluster.hpp"
#include "ibp/hca/adapter.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/rpc/rpc.hpp"

namespace ibp {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::PacketVerdict;

// ---------------------------------------------------------------------------
// Plan parsing

TEST(FaultPlan, ParsesDirectives) {
  const FaultPlan plan = fault::parse_fault_plan(
      "drop=0-1:0.25; corrupt=*-2:0.5:10-20\n"
      "storm=1:100-*  # trailing comment\n"
      "qpkill=0:3:250; seed=99");
  ASSERT_EQ(plan.links.size(), 2u);
  EXPECT_EQ(plan.links[0].src, 0);
  EXPECT_EQ(plan.links[0].dst, 1);
  EXPECT_DOUBLE_EQ(plan.links[0].drop_prob, 0.25);
  EXPECT_EQ(plan.links[0].until, 0u);  // open-ended
  EXPECT_EQ(plan.links[1].src, fault::kAnyNode);
  EXPECT_EQ(plan.links[1].dst, 2);
  EXPECT_DOUBLE_EQ(plan.links[1].corrupt_prob, 0.5);
  EXPECT_EQ(plan.links[1].from, us(10));
  EXPECT_EQ(plan.links[1].until, us(20));
  ASSERT_EQ(plan.storms.size(), 1u);
  EXPECT_EQ(plan.storms[0].node, 1);
  EXPECT_EQ(plan.storms[0].from, us(100));
  EXPECT_EQ(plan.storms[0].until, 0u);
  ASSERT_EQ(plan.qp_errors.size(), 1u);
  EXPECT_EQ(plan.qp_errors[0].node, 0);
  EXPECT_EQ(plan.qp_errors[0].qp_num, 3u);
  EXPECT_EQ(plan.qp_errors[0].at, us(250));
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(fault::parse_fault_plan("  # just a comment ").empty());
}

TEST(FaultPlan, RejectsMalformed) {
  EXPECT_THROW(fault::parse_fault_plan("drop=0-1:1.5"), SimError);
  EXPECT_THROW(fault::parse_fault_plan("drop=0:0.5"), SimError);
  EXPECT_THROW(fault::parse_fault_plan("bogus=1"), SimError);
  EXPECT_THROW(fault::parse_fault_plan("storm=1:30-20"), SimError);
  EXPECT_THROW(fault::parse_fault_plan("no directive here"), SimError);
  EXPECT_THROW(fault::parse_fault_plan("crash=2"), SimError);
  EXPECT_THROW(fault::parse_fault_plan("recover=@100"), SimError);
  // QPs are numbered from 1; '*' (not 0) means any.
  EXPECT_THROW(fault::parse_fault_plan("qpkill=1:0:300"), SimError);
  EXPECT_THROW(fault::parse_fault_plan("qpkill=1:x:300"), SimError);
}

TEST(FaultPlan, ParsesCrashAndRecoverDirectives) {
  const FaultPlan plan =
      fault::parse_fault_plan("crash=2@1500; recover=2@4000; crash=*:250");
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].node, 2);
  EXPECT_EQ(plan.crashes[0].at, us(1500));
  EXPECT_EQ(plan.crashes[1].node, fault::kAnyNode);  // ':' separator too
  EXPECT_EQ(plan.crashes[1].at, us(250));
  ASSERT_EQ(plan.recoveries.size(), 1u);
  EXPECT_EQ(plan.recoveries[0].node, 2);
  EXPECT_EQ(plan.recoveries[0].at, us(4000));
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, CrashRecoverFormatRoundTrips) {
  // The canonical form lists every crash before any recover.
  const char* spec = "crash=2@1500; crash=*@9000; recover=2@4000";
  const FaultPlan parsed = fault::parse_fault_plan(spec);
  const std::string formatted = fault::format_fault_plan(parsed);
  EXPECT_EQ(formatted, spec) << "canonical form must be stable";
  // Parsing tolerates interleaving and ':' separators; formatting folds
  // them onto the same canonical spelling.
  EXPECT_EQ(fault::format_fault_plan(fault::parse_fault_plan(
                "crash=2:1500; recover=2:4000; crash=*:9000")),
            spec);
  // Fixed point: formatting the re-parsed plan changes nothing.
  EXPECT_EQ(fault::format_fault_plan(fault::parse_fault_plan(formatted)),
            formatted);
}

TEST(FaultInjectorTest, ServerCrashedWindows) {
  // crash@1000 .. recover@3000 .. crash@5000 (permanent).
  const FaultPlan plan = fault::parse_fault_plan(
      "crash=2@1000; recover=2@3000; crash=2@5000");
  const FaultInjector inj(plan, 7);
  EXPECT_TRUE(inj.has_crashes());
  EXPECT_FALSE(inj.server_crashed(2, us(999)));
  EXPECT_TRUE(inj.server_crashed(2, us(1000)));
  EXPECT_TRUE(inj.server_crashed(2, us(2999)));
  EXPECT_FALSE(inj.server_crashed(2, us(3000)));  // equal time = recovered
  EXPECT_FALSE(inj.server_crashed(2, us(4999)));
  EXPECT_TRUE(inj.server_crashed(2, us(5000)));
  EXPECT_TRUE(inj.server_crashed(2, us(1) << 32));  // permanent
  EXPECT_FALSE(inj.server_crashed(3, us(2000)));  // other nodes untouched

  const FaultInjector any(fault::parse_fault_plan("crash=*@100"), 7);
  EXPECT_TRUE(any.server_crashed(0, us(100)));
  EXPECT_TRUE(any.server_crashed(9, us(100)));
}

// ---------------------------------------------------------------------------
// Injector determinism

FaultPlan lossy_link_plan(double drop) {
  FaultPlan plan;
  fault::LinkFault lf;
  lf.src = 0;
  lf.dst = 1;
  lf.drop_prob = drop;
  plan.links.push_back(lf);
  return plan;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  const FaultPlan plan = lossy_link_plan(0.3);
  FaultInjector i1(plan, 42), i2(plan, 42), i3(plan, 43);
  std::vector<PacketVerdict> v1, v2, v3;
  for (int k = 0; k < 500; ++k) {
    v1.push_back(i1.judge_packet(0, 1, ns(100 * k)));
    v2.push_back(i2.judge_packet(0, 1, ns(100 * k)));
    v3.push_back(i3.judge_packet(0, 1, ns(100 * k)));
  }
  EXPECT_EQ(v1, v2);
  EXPECT_NE(v1, v3);  // a different seed changes the schedule
  EXPECT_GT(i1.stats().packets_dropped, 50u);
  EXPECT_LT(i1.stats().packets_dropped, 450u);
  EXPECT_EQ(i1.stats().packets_judged, 500u);
}

TEST(FaultInjectorTest, LinkStreamsIndependentOfFirstUse) {
  FaultPlan plan;
  fault::LinkFault lf;  // any link
  lf.drop_prob = 0.5;
  plan.links.push_back(lf);
  FaultInjector i1(plan, 42), i2(plan, 42);
  // i2 exercises the reverse link first; the 0->1 stream must not shift.
  for (int k = 0; k < 17; ++k) (void)i2.judge_packet(1, 0, ns(k));
  for (int k = 0; k < 200; ++k)
    EXPECT_EQ(i1.judge_packet(0, 1, ns(k)), i2.judge_packet(0, 1, ns(k)));
}

TEST(FaultInjectorTest, BrownoutWindowGates) {
  FaultPlan plan = lossy_link_plan(1.0);
  plan.links[0].from = us(10);
  plan.links[0].until = us(20);
  FaultInjector inj(plan, 1);
  EXPECT_EQ(inj.judge_packet(0, 1, us(5)), PacketVerdict::Deliver);
  EXPECT_EQ(inj.judge_packet(0, 1, us(10)), PacketVerdict::Drop);
  EXPECT_EQ(inj.judge_packet(0, 1, us(19)), PacketVerdict::Drop);
  EXPECT_EQ(inj.judge_packet(0, 1, us(20)), PacketVerdict::Deliver);
  EXPECT_EQ(inj.judge_packet(1, 0, us(15)), PacketVerdict::Deliver);  // wrong link
}

// ---------------------------------------------------------------------------
// Adapter-level RC reliability

struct FaultedPair {
  explicit FaultedPair(FaultPlan plan, std::uint64_t seed = 7)
      : inj(std::move(plan), seed) {
    a.set_fault_injector(&inj);
    b.set_fault_injector(&inj);
    qa = &a.create_qp(&a_scq, &a_rcq);
    qb = &b.create_qp(&b_scq, &b_rcq);
    qa->connect(qb);
    qb->connect(qa);
    ma = &as_a.map(64 * kKiB, mem::PageKind::Small);
    mb = &as_b.map(64 * kKiB, mem::PageKind::Small);
    ra = a.reg_mr(as_a, ma->va_base, 64 * kKiB, kSmallPageSize).mr;
    rb = b.reg_mr(as_b, mb->va_base, 64 * kKiB, kSmallPageSize).mr;
  }

  void fill_payload(std::uint32_t len) {
    auto src = as_a.host_span(ma->va_base, len);
    for (std::uint32_t i = 0; i < len; ++i)
      src[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }

  hca::SendWr send_wr(std::uint64_t wr_id, std::uint32_t len) {
    hca::SendWr wr;
    wr.wr_id = wr_id;
    wr.opcode = hca::Opcode::Send;
    wr.sges = {{ma->va_base, len, ra->lkey}};
    return wr;
  }

  hca::RecvWr recv_wr(std::uint64_t wr_id) {
    hca::RecvWr wr;
    wr.wr_id = wr_id;
    wr.sges = {{mb->va_base, 64 * kKiB, rb->lkey}};
    return wr;
  }

  FaultInjector inj;
  mem::PhysicalMemory pm_a{64 * kMiB, 16, 1};
  mem::PhysicalMemory pm_b{64 * kMiB, 16, 2};
  mem::HugeTlbFs fs_a{&pm_a, 16, 0};
  mem::HugeTlbFs fs_b{&pm_b, 16, 0};
  mem::AddressSpace as_a{&pm_a, &fs_a};
  mem::AddressSpace as_b{&pm_b, &fs_b};
  hca::Adapter a{0, hca::AdapterConfig{}};
  hca::Adapter b{1, hca::AdapterConfig{}};
  hca::CompletionQueue a_scq, a_rcq, b_scq, b_rcq;
  hca::QueuePair* qa = nullptr;
  hca::QueuePair* qb = nullptr;
  const mem::Mapping* ma = nullptr;
  const mem::Mapping* mb = nullptr;
  const hca::MemoryRegion* ra = nullptr;
  const hca::MemoryRegion* rb = nullptr;
};

TEST(Reliability, RetryExhaustionYieldsErrorCqe) {
  // Total loss within the brownout window; healthy afterwards.
  FaultPlan plan = lossy_link_plan(1.0);
  plan.links[0].until = ms(1);
  FaultedPair t(std::move(plan));
  hca::QpAttrs attrs;
  attrs.retry_cnt = 2;
  attrs.retransmit_timeout = us(10);
  t.qa->set_attrs(attrs);
  t.fill_payload(4096);

  t.qb->post_recv(t.recv_wr(77), 0);
  t.qa->post_send(t.send_wr(55, 4096), 0);

  auto c = t.a_scq.poll(ms(100));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->wr_id, 55u);
  EXPECT_EQ(c->status, hca::WcStatus::RetryExceeded);
  EXPECT_EQ(t.qa->state(), hca::QpState::Error);
  EXPECT_EQ(t.qa->qp_stats().retransmits, 2u);  // retry_cnt resends
  EXPECT_EQ(t.qa->qp_stats().pkts_dropped, 3u);
  EXPECT_EQ(t.qb->state(), hca::QpState::Ready);  // receiver unaffected

  // Posts on an errored QP flush immediately.
  t.qa->post_send(t.send_wr(56, 4096), ms(2));
  auto c2 = t.a_scq.poll(ms(100));
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->wr_id, 56u);
  EXPECT_EQ(c2->status, hca::WcStatus::WorkRequestFlushed);

  // ERR -> RESET -> RTS recycles the QP; after the brownout the send
  // lands in the still-posted receive.
  t.qa->reset();
  EXPECT_EQ(t.qa->state(), hca::QpState::Ready);
  t.qa->post_send(t.send_wr(57, 4096), ms(2));
  auto c3 = t.a_scq.poll(ms(100));
  ASSERT_TRUE(c3.has_value());
  EXPECT_EQ(c3->wr_id, 57u);
  EXPECT_EQ(c3->status, hca::WcStatus::Success);
  auto rc = t.b_rcq.poll(ms(100));
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->wr_id, 77u);
  EXPECT_EQ(rc->byte_len, 4096u);
}

TEST(Reliability, RnrNakResolvedByLatePostRecv) {
  FaultedPair t(FaultPlan{});  // injector attached, but a healthy plan
  hca::QpAttrs attrs;
  attrs.rnr_retry = 5;
  attrs.rnr_timeout = us(30);
  t.qa->set_attrs(attrs);
  t.fill_payload(4096);

  t.qa->post_send(t.send_wr(55, 4096), 0);
  EXPECT_EQ(t.qb->unmatched_inbound(), 1u);  // parked, RNR NAKed

  // A receive posted within the RNR budget rescues the message.
  t.qb->post_recv(t.recv_wr(77), us(50));
  auto rc = t.b_rcq.poll(ms(100));
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->wr_id, 77u);
  EXPECT_EQ(rc->status, hca::WcStatus::Success);
  EXPECT_EQ(rc->byte_len, 4096u);
  auto dst = t.as_b.host_span(t.mb->va_base, 4096);
  for (std::uint32_t i = 0; i < 4096; ++i)
    ASSERT_EQ(dst[i], static_cast<std::uint8_t>(i * 7 + 3));

  auto sc = t.a_scq.poll(ms(100));
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->wr_id, 55u);
  EXPECT_EQ(sc->status, hca::WcStatus::Success);
  EXPECT_GE(t.qa->qp_stats().rnr_naks, 1u);
  EXPECT_EQ(t.qa->state(), hca::QpState::Ready);
  // The provisional exhaustion CQE was cancelled: nothing else pollable.
  EXPECT_FALSE(t.a_scq.poll(ms(1000)).has_value());
}

TEST(Reliability, RnrExhaustionFailsTheSend) {
  FaultedPair t(FaultPlan{});
  hca::QpAttrs attrs;
  attrs.rnr_retry = 2;
  attrs.rnr_timeout = us(10);
  t.qa->set_attrs(attrs);
  t.fill_payload(512);

  t.qa->post_send(t.send_wr(55, 512), 0);
  auto sc = t.a_scq.poll(ms(100));
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->wr_id, 55u);
  EXPECT_EQ(sc->status, hca::WcStatus::RnrRetryExceeded);

  // A receive posted after the deadline cannot resurrect the message; it
  // stays posted for future traffic and the sender QP is errored.
  t.qb->post_recv(t.recv_wr(77), us(500));
  EXPECT_EQ(t.qa->state(), hca::QpState::Error);
  EXPECT_FALSE(t.b_rcq.poll(ms(100)).has_value());
  EXPECT_EQ(t.qb->recv_queue_depth(), 1u);
}

TEST(Reliability, AttStormChargesMisses) {
  FaultPlan storm_plan;
  fault::AttStorm storm;
  storm.node = 0;
  storm_plan.storms.push_back(storm);

  // Single-packet sends: DMA runs back to back with the wire instead of
  // pipelining under it, so the per-lookup miss cost is visible in the
  // completion time.
  auto run = [](FaultPlan plan) {
    FaultedPair t(std::move(plan));
    t.fill_payload(2048);
    // Warm-up send populates the ATT; in the healthy run the measured
    // send then hits, while the storm forces every lookup to miss.
    t.qb->post_recv(t.recv_wr(76), 0);
    t.qa->post_send(t.send_wr(54, 2048), 0);
    const auto warm = t.b_rcq.poll(ms(100));
    EXPECT_TRUE(warm.has_value());
    t.qb->post_recv(t.recv_wr(77), warm->ready_time);
    t.qa->post_send(t.send_wr(55, 2048), warm->ready_time);
    auto rc = t.b_rcq.poll(ms(100));
    EXPECT_TRUE(rc.has_value());
    return std::make_pair(t.a.stats().storm_att_misses,
                          rc->ready_time - warm->ready_time);
  };
  const auto [healthy_misses, healthy_done] = run(FaultPlan{});
  const auto [storm_misses, storm_done] = run(std::move(storm_plan));
  EXPECT_EQ(healthy_misses, 0u);
  EXPECT_GT(storm_misses, 0u);
  EXPECT_GT(storm_done, healthy_done);  // the thrash costs time
}

TEST(Reliability, InjectedQpErrorFlushesAndCascades) {
  const FaultPlan plan = fault::parse_fault_plan("qpkill=1:*:10");
  FaultedPair t(plan);
  t.fill_payload(4096);
  t.qb->post_recv(t.recv_wr(77), 0);
  t.qa->post_send(t.send_wr(55, 4096), us(20));

  auto rc = t.b_rcq.poll(ms(100));  // preposted receive flushed
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->wr_id, 77u);
  EXPECT_EQ(rc->status, hca::WcStatus::WorkRequestFlushed);
  auto sc = t.a_scq.poll(ms(100));  // sender NAKed into the error state
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->wr_id, 55u);
  EXPECT_EQ(sc->status, hca::WcStatus::RetryExceeded);
  EXPECT_EQ(t.qa->state(), hca::QpState::Error);
  EXPECT_EQ(t.qb->state(), hca::QpState::Error);
  EXPECT_EQ(t.inj.stats().qp_errors_fired, 1u);
}

// ---------------------------------------------------------------------------
// MPI level

TEST(MpiFault, LossySendRecvCompletesWithVerifiedPayload) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.fault = fault::parse_fault_plan("drop=0-1:0.01;drop=1-0:0.01");
  core::Cluster cluster(cfg);

  constexpr std::uint64_t kLen = 64 * kKiB;
  constexpr int kIters = 10;
  std::vector<std::uint64_t> retransmits(2, 0);
  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env);
    const int me = env.rank();
    const int other = 1 - me;
    const VirtAddr sbuf = env.alloc(kLen);
    const VirtAddr rbuf = env.alloc(kLen);
    auto sb = env.space().host_span(sbuf, kLen);
    for (std::uint64_t i = 0; i < kLen; ++i)
      sb[i] = static_cast<std::uint8_t>(i * 13 + me);
    for (int it = 0; it < kIters; ++it) {
      comm.sendrecv(sbuf, kLen, other, it, rbuf, kLen, other, it);
      auto rb = env.space().host_span(rbuf, kLen);
      for (std::uint64_t i = 0; i < kLen; i += 997)
        ASSERT_EQ(rb[i], static_cast<std::uint8_t>(i * 13 + other));
    }
    retransmits[static_cast<std::size_t>(me)] = comm.stats().retransmits;
  });
  // 1 % loss over ~hundreds of packets: some retransmissions must have
  // happened, and every payload byte still arrived intact.
  EXPECT_GT(retransmits[0] + retransmits[1], 0u);
  EXPECT_EQ(cluster.fault()->stats().packets_dropped,
            retransmits[0] + retransmits[1]);
}

TEST(MpiFault, SameSeedSameVirtualTime) {
  auto run_once = [](std::uint64_t seed) {
    core::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.ranks_per_node = 1;
    cfg.seed = seed;
    cfg.fault = fault::parse_fault_plan("drop=*-*:0.02");
    core::Cluster cluster(cfg);
    cluster.run([&](core::RankEnv& env) {
      mpi::Comm comm(env);
      const int other = 1 - env.rank();
      const VirtAddr buf = env.alloc(256 * kKiB);
      env.touch_stream(buf, 256 * kKiB);
      for (int it = 0; it < 4; ++it)
        comm.sendrecv(buf, 128 * kKiB, other, it, buf + 128 * kKiB,
                      128 * kKiB, other, it);
    });
    return std::make_pair(cluster.makespan(),
                          cluster.fault()->stats().packets_dropped);
  };
  const auto r1 = run_once(11);
  const auto r2 = run_once(11);
  const auto r3 = run_once(12);
  EXPECT_EQ(r1, r2);  // bit-identical schedule and timing
  EXPECT_GT(r1.second, 0u);
  EXPECT_NE(r1.second, r3.second);  // reseeding moves the schedule
}

TEST(MpiFault, QpKillRecoveredByRepostPolicy) {
  // On 2x1 each node has one QP, numbered 1: '*' and an explicit 1 name
  // the same QP.
  for (const char* spec : {"qpkill=1:*:300", "qpkill=1:1:300"}) {
    SCOPED_TRACE(spec);
    core::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.ranks_per_node = 1;
    cfg.fault = fault::parse_fault_plan(spec);
    core::Cluster cluster(cfg);

    constexpr std::uint64_t kLen = 64 * kKiB;
    constexpr int kIters = 20;  // spans well past the kill at 300 us
    std::vector<std::uint64_t> recoveries(2, 0);
    cluster.run([&](core::RankEnv& env) {
      mpi::CommConfig ccfg;
      ccfg.recovery = mpi::CommConfig::Recovery::Repost;
      mpi::Comm comm(env, ccfg);
      const int me = env.rank();
      const int other = 1 - me;
      const VirtAddr sbuf = env.alloc(kLen);
      const VirtAddr rbuf = env.alloc(kLen);
      auto sb = env.space().host_span(sbuf, kLen);
      for (std::uint64_t i = 0; i < kLen; ++i)
        sb[i] = static_cast<std::uint8_t>(i * 31 + me);
      for (int it = 0; it < kIters; ++it) {
        comm.sendrecv(sbuf, kLen, other, it, rbuf, kLen, other, it);
        auto rb = env.space().host_span(rbuf, kLen);
        for (std::uint64_t i = 0; i < kLen; i += 499)
          ASSERT_EQ(rb[i], static_cast<std::uint8_t>(i * 31 + other));
      }
      recoveries[static_cast<std::size_t>(me)] = comm.stats().recoveries;
    });
    EXPECT_EQ(cluster.fault()->stats().qp_errors_fired, 1u);
    EXPECT_GT(recoveries[0] + recoveries[1], 0u);  // and the run completed
  }
}

// A qpkill aimed at a node or QP the cluster lacks would never fire: the
// Cluster refuses it at construction, naming the directive and the range.
TEST(MpiFault, QpKillOnMissingTargetFailsAtSetup) {
  const auto setup_error = [](const char* spec) {
    core::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.ranks_per_node = 2;  // 2 ranks x 2 remote peers: QPs 1..4 per node
    cfg.fault = fault::parse_fault_plan(spec);
    try {
      core::Cluster cluster(cfg);
    } catch (const SimError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string node = setup_error("qpkill=2:1:300");
  EXPECT_NE(node.find("qpkill=2:1:300"), std::string::npos) << node;
  EXPECT_NE(node.find("valid nodes are 0..1"), std::string::npos) << node;
  const std::string qp = setup_error("qpkill=*:5:300");
  EXPECT_NE(qp.find("qpkill=*:5:300"), std::string::npos) << qp;
  EXPECT_NE(qp.find("valid QPs per node are 1..4"), std::string::npos) << qp;
  EXPECT_EQ(setup_error("qpkill=1:4:300"), "");
  EXPECT_EQ(setup_error("qpkill=*:*:300"), "");
}

// A fatally lost one-sided write (retry budget exhausted) must place no
// bytes and record no monitor event: the ring replays the same record at
// the same offset after recovery, so a half-applied write would corrupt
// framing.
TEST(Reliability, FatalWriteLeavesMonitorAndMemoryUntouched) {
  FaultPlan plan = lossy_link_plan(1.0);  // total loss: every retry dies
  FaultedPair t(std::move(plan));
  hca::QpAttrs attrs;
  attrs.retry_cnt = 1;
  attrs.retransmit_timeout = us(10);
  t.qa->set_attrs(attrs);
  t.fill_payload(4096);

  hca::WriteMonitor mon;
  t.b.set_write_monitor(t.rb->lkey, &mon);
  auto dst = t.as_b.host_span(t.mb->va_base, 4096);
  std::fill(dst.begin(), dst.end(), static_cast<std::uint8_t>(0xee));

  hca::SendWr wr;
  wr.wr_id = 91;
  wr.opcode = hca::Opcode::RdmaWrite;
  wr.sges = {{t.ma->va_base, 4096, t.ra->lkey}};
  wr.remote_addr = t.mb->va_base;
  wr.rkey = t.rb->lkey;
  t.qa->post_send(wr, 0);

  const auto cqe = t.a_scq.poll(ms(100));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 91u);
  EXPECT_EQ(cqe->status, hca::WcStatus::RetryExceeded);
  EXPECT_FALSE(mon.next_visible().has_value()) << "no event for a dead write";
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(dst[i], 0xee) << "no bytes placed for a dead write";
}

// ---------------------------------------------------------------------------
// rdma-eager (one-sided ring channel) x fault crossings

// Small messages ride the one-sided ring over a lossy link in both
// directions. Dropped RDMA writes must be retransmitted by the RC layer
// and the ring's credit accounting must survive the replays: every
// payload arrives intact, in order, and the run terminates (a lost or
// double-counted credit would wedge the sender at the credit wall).
TEST(MpiFault, RdmaEagerLossyRingRetransmitsAndKeepsCredit) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.fault = fault::parse_fault_plan("drop=0-1:0.03;drop=1-0:0.03");
  core::Cluster cluster(cfg);

  constexpr int kIters = 120;
  constexpr std::uint64_t kLen = 768;  // below eager_threshold: rides ring
  std::vector<mpi::CommStats> st(2);
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.rdma_eager = true;
    mc.ring.slab_bytes = 8 * kKiB;  // wraps many times under replay
    mc.ring.max_record = 1024;
    mpi::Comm comm(env, mc);
    const int me = comm.rank();
    const int other = 1 - me;
    const VirtAddr sbuf = env.alloc(kLen);
    const VirtAddr rbuf = env.alloc(kLen);
    for (int it = 0; it < kIters; ++it) {
      auto sb = env.space().host_span(sbuf, kLen);
      for (std::uint64_t i = 0; i < kLen; ++i)
        sb[i] = static_cast<std::uint8_t>(i * 17 + it + me);
      comm.sendrecv(sbuf, kLen, other, it, rbuf, kLen, other, it);
      auto rb = env.space().host_span(rbuf, kLen);
      for (std::uint64_t i = 0; i < kLen; ++i)
        ASSERT_EQ(rb[i], static_cast<std::uint8_t>(i * 17 + it + other))
            << "iter " << it << " byte " << i;
    }
    comm.barrier();
    st[static_cast<std::size_t>(me)] = comm.stats();
  });
  EXPECT_GT(cluster.fault()->stats().packets_dropped, 0u);
  EXPECT_GT(st[0].retransmits + st[1].retransmits, 0u);
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(st[static_cast<std::size_t>(r)].rdma_eager_sent, 100u)
        << "rank " << r << ": traffic must actually ride the ring";
    EXPECT_GT(st[static_cast<std::size_t>(r)].rdma_credit_returns, 0u)
        << "rank " << r << ": credit flow survived the loss";
  }
}

// Corrupted (ICRC-failed) one-sided writes behave like drops: the ring
// payload is only made visible by the retransmitted copy, so receivers
// never parse a mangled record and framing stays consistent.
TEST(MpiFault, RdmaEagerCorruptedWritesReplayCleanly) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.fault = fault::parse_fault_plan("corrupt=*-*:0.03");
  core::Cluster cluster(cfg);

  constexpr int kIters = 80;
  constexpr std::uint64_t kLen = 1024;
  std::vector<mpi::CommStats> st(2);
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.rdma_eager = true;
    mpi::Comm comm(env, mc);
    const int me = comm.rank();
    const int other = 1 - me;
    const VirtAddr sbuf = env.alloc(kLen);
    const VirtAddr rbuf = env.alloc(kLen);
    for (int it = 0; it < kIters; ++it) {
      auto sb = env.space().host_span(sbuf, kLen);
      for (std::uint64_t i = 0; i < kLen; ++i)
        sb[i] = static_cast<std::uint8_t>(i * 29 + it * 3 + me);
      comm.sendrecv(sbuf, kLen, other, it, rbuf, kLen, other, it);
      auto rb = env.space().host_span(rbuf, kLen);
      for (std::uint64_t i = 0; i < kLen; ++i)
        ASSERT_EQ(rb[i], static_cast<std::uint8_t>(i * 29 + it * 3 + other))
            << "iter " << it << " byte " << i;
    }
    comm.barrier();
    st[static_cast<std::size_t>(me)] = comm.stats();
  });
  EXPECT_GT(cluster.fault()->stats().packets_corrupted, 0u);
  EXPECT_GT(st[0].retransmits + st[1].retransmits, 0u);
  EXPECT_GT(st[0].rdma_eager_sent + st[1].rdma_eager_sent, 100u);
}

// The RPC response ring under a lossy server->client link: responses are
// RDMA-written into the client's ring, dropped writes replay, and every
// request still completes with the right payload while the ring tier
// stays engaged.
TEST(MpiFault, RpcResponseRingSurvivesLossyLink) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.fault = fault::parse_fault_plan("drop=0-1:0.02");
  core::Cluster cluster(cfg);

  rpc::RpcConfig rc;
  rc.rdma_response = true;
  rpc::ServerStats ss;
  rpc::ClientStats cs;
  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env);
    if (env.rank() == 0) {
      rpc::RpcServer server(comm, {1}, rc);
      server.serve();
      ss = server.stats();
      return;
    }
    rpc::RpcClient client(comm, 0, rc);
    std::vector<std::uint8_t> msg = {7, 6, 5, 4, 3, 2, 1};
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 48; ++i) ids.push_back(client.submit(msg));
    for (std::uint64_t id : ids) {
      const rpc::Completion& done = client.wait(id);
      ASSERT_EQ(done.status, rpc::Status::Ok);
      ASSERT_EQ(done.payload, msg);
    }
    client.close();
    cs = client.stats();
  });
  EXPECT_GT(cluster.fault()->stats().packets_dropped, 0u);
  EXPECT_GT(ss.ring_responses, 0u);
  EXPECT_EQ(cs.completed, 48u);
  EXPECT_GT(cs.ring_completions, 0u);
}

}  // namespace
}  // namespace ibp
