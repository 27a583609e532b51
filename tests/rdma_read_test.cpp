// RDMA-read support: adapter-level semantics and the rendezvous-read MPI
// protocol built on it.

#include <gtest/gtest.h>

#include "ibp/hca/adapter.hpp"
#include "ibp/mpi/comm.hpp"

namespace ibp {
namespace {

struct TwoNodes {
  TwoNodes() {
    qa = &a.create_qp(&a_scq, &a_rcq);
    qb = &b.create_qp(&b_scq, &b_rcq);
    qa->connect(qb);
    qb->connect(qa);
  }
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
};

TEST(RdmaRead, PullsRemoteBytes) {
  TwoNodes t;
  auto& ma = t.as_a.map(64 * kKiB, mem::PageKind::Small);
  auto& mb = t.as_b.map(64 * kKiB, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 64 * kKiB, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 64 * kKiB, kSmallPageSize);

  auto src = t.as_b.host_span(mb.va_base + 512, 32 * kKiB);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i * 7 + 1);

  hca::SendWr wr;
  wr.wr_id = 11;
  wr.opcode = hca::Opcode::RdmaRead;
  wr.sges = {{ma.va_base + 64, 32 * kKiB, ra.mr->lkey}};
  wr.remote_addr = mb.va_base + 512;
  wr.rkey = rb.mr->lkey;
  t.qa->post_send(wr, 0);

  const auto cqe = t.a_scq.poll(ms(100));
  ASSERT_TRUE(cqe);
  EXPECT_EQ(cqe->type, hca::CqeType::RdmaReadComplete);
  EXPECT_EQ(cqe->byte_len, 32 * kKiB);
  // The read must take at least a request trip plus the data stream.
  EXPECT_GT(cqe->ready_time, 2 * t.a.config().wire_latency);

  auto dst = t.as_a.host_span(ma.va_base + 64, 32 * kKiB);
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(dst[i], static_cast<std::uint8_t>(i * 7 + 1));
  EXPECT_EQ(t.a.stats().rdma_reads_posted, 1u);
}

TEST(RdmaRead, ScattersAcrossLocalSges) {
  TwoNodes t;
  auto& ma = t.as_a.map(4 * kSmallPageSize, mem::PageKind::Small);
  auto& mb = t.as_b.map(4 * kSmallPageSize, mem::PageKind::Small);
  const auto ra =
      t.a.reg_mr(t.as_a, ma.va_base, 4 * kSmallPageSize, kSmallPageSize);
  const auto rb =
      t.b.reg_mr(t.as_b, mb.va_base, 4 * kSmallPageSize, kSmallPageSize);
  auto src = t.as_b.host_span(mb.va_base, 300);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i);

  hca::SendWr wr;
  wr.opcode = hca::Opcode::RdmaRead;
  wr.sges = {{ma.va_base, 100, ra.mr->lkey},
             {ma.va_base + kSmallPageSize, 200, ra.mr->lkey}};
  wr.remote_addr = mb.va_base;
  wr.rkey = rb.mr->lkey;
  t.qa->post_send(wr, 0);
  ASSERT_TRUE(t.a_scq.poll(ms(100)));
  EXPECT_EQ(t.as_a.host_span(ma.va_base, 100)[99], 99);
  EXPECT_EQ(t.as_a.host_span(ma.va_base + kSmallPageSize, 200)[0], 100);
}

TEST(RdmaRead, OutOfBoundsRemoteThrows) {
  TwoNodes t;
  auto& ma = t.as_a.map(4096, mem::PageKind::Small);
  auto& mb = t.as_b.map(4096, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 4096, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 1024, kSmallPageSize);
  hca::SendWr wr;
  wr.opcode = hca::Opcode::RdmaRead;
  wr.sges = {{ma.va_base, 4096, ra.mr->lkey}};
  wr.remote_addr = mb.va_base;
  wr.rkey = rb.mr->lkey;
  EXPECT_THROW(t.qa->post_send(wr, 0), SimError);
}

// ---------------------------------------------------------------------------
// Rendezvous-read protocol through the MPI layer

core::ClusterConfig two_singles(bool lazy = true) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.lazy_deregistration = lazy;
  return cfg;
}

class RndvRead : public ::testing::TestWithParam<bool> {};  // lazy dereg

TEST_P(RndvRead, LargeMessageIntegrity) {
  core::Cluster cluster(two_singles(GetParam()));
  mpi::CommConfig ccfg;
  ccfg.rndv_read = true;
  constexpr std::uint64_t kLen = 777 * kKiB;
  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env, ccfg);
    // Bounce buffers stay registered for the process lifetime; user
    // buffers must come and go.
    const std::uint64_t base_pins = env.space().pinned_pages();
    const VirtAddr buf = env.alloc(kLen);
    if (env.rank() == 0) {
      auto s = env.space().host_span(buf, kLen);
      for (std::uint64_t i = 0; i < kLen; ++i)
        s[i] = static_cast<std::uint8_t>(i * 13);
      comm.send(buf, kLen, 1, 3);
    } else {
      const mpi::RecvStatus st = comm.recv(buf, kLen, 0, 3);
      EXPECT_EQ(st.len, kLen);
      EXPECT_EQ(st.src, 0);
      auto s = env.space().host_span(buf, kLen);
      for (std::uint64_t i = 0; i < kLen; i += 997)
        ASSERT_EQ(s[i], static_cast<std::uint8_t>(i * 13));
    }
    // With lazy dereg off, user-buffer pins must all be gone again.
    if (!comm.rcache().lazy()) {
      EXPECT_EQ(env.space().pinned_pages(), base_pins)
          << "rank " << env.rank() << " leaked user-buffer pins";
    }
  });
}

INSTANTIATE_TEST_SUITE_P(LazyModes, RndvRead, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "lazy" : "eager_dereg";
                         });

TEST(RndvRead, UsesOneFewerControlHop) {
  // The read protocol (RTS -> read -> FIN) should beat the write protocol
  // (RTS -> CTS -> write -> FIN) on first-message latency.
  auto once = [](bool read) {
    core::Cluster cluster(two_singles());
    mpi::CommConfig ccfg;
    ccfg.rndv_read = read;
    TimePs dt = 0;
    constexpr std::uint64_t kLen = 64 * kKiB;
    cluster.run([&](core::RankEnv& env) {
      mpi::Comm comm(env, ccfg);
      const VirtAddr buf = env.alloc(kLen);
      // Warm up registrations so only the protocol differs.
      if (env.rank() == 0) {
        comm.send(buf, kLen, 1, 0);
        comm.barrier();
        comm.send(buf, kLen, 1, 1);
      } else {
        comm.recv(buf, kLen, 0, 0);
        comm.barrier();
        const TimePs t0 = env.now();
        comm.recv(buf, kLen, 0, 1);
        dt = env.now() - t0;
      }
    });
    return dt;
  };
  const TimePs write_lat = once(false);
  const TimePs read_lat = once(true);
  EXPECT_LT(read_lat, write_lat);
}

TEST(RndvRead, MixedWithWriteProtocolPeersWouldConflict) {
  // Both ranks in read mode swap 200 KiB. The knob is per communicator,
  // and a peer with another rendezvous config does not conflict: every
  // RTS names its sender's flavour and the receiver follows it (see
  // SenderChoiceWinsOverReceiverConfig).
  core::Cluster cluster(two_singles());
  mpi::CommConfig ccfg;
  ccfg.rndv_read = true;
  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env, ccfg);
    const VirtAddr buf = env.alloc(256 * kKiB);
    const int other = 1 - env.rank();
    comm.sendrecv(buf, 200 * kKiB, other, 1, buf, 200 * kKiB, other, 1);
  });
}

TEST(RndvRead, SenderChoiceWinsOverReceiverConfig) {
  // Rank 0 reads above its 16 KiB copy ceiling; rank 1 would copy up to
  // 32 KiB. The 24 KiB message takes the sender's read flavour: it
  // arrives intact, and with lazy deregistration off both ranks unpin
  // what they registered for it. A receiver that planned its own copy
  // path would leave the sender's read registration pinned.
  core::Cluster cluster(two_singles(/*lazy=*/false));
  constexpr std::uint64_t kLen = 24 * kKiB;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig ccfg;
    ccfg.slot_bytes = 32 * kKiB + 64;
    if (env.rank() == 0) {
      ccfg.rndv_read = true;
    } else {
      ccfg.rndv_copy_max = 32 * kKiB;
    }
    mpi::Comm comm(env, ccfg);
    const VirtAddr buf = env.alloc(kLen);
    const std::uint64_t pinned = env.space().pinned_pages();
    if (env.rank() == 0) {
      auto s = env.space().host_span(buf, kLen);
      for (std::uint64_t i = 0; i < kLen; ++i)
        s[i] = static_cast<std::uint8_t>(i * 7 + 1);
      comm.send(buf, kLen, 1, 5);
    } else {
      const mpi::RecvStatus st = comm.recv(buf, kLen, 0, 5);
      EXPECT_EQ(st.len, kLen);
      auto s = env.space().host_span(buf, kLen);
      for (std::uint64_t i = 0; i < kLen; ++i)
        ASSERT_EQ(s[i], static_cast<std::uint8_t>(i * 7 + 1)) << i;
    }
    EXPECT_EQ(env.space().pinned_pages(), pinned)
        << "rank " << env.rank() << " kept a registration pinned";
  });
}

}  // namespace
}  // namespace ibp
