// One-sided ring channels (EXT-RDMA): the rdma-eager MPI tier and the
// RPC response fast path. Framing, wrap handling, credit backpressure
// with two-sided fallback, and stats engagement are all asserted here;
// randomized protocol crossings live in mpi_fuzz_test.cpp and the fault
// crossings in fault_test.cpp.

#include "ibp/ringchan/ringchan.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "ibp/core/cluster.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/rpc/rpc.hpp"

namespace ibp {
namespace {

std::uint8_t pattern(std::uint64_t seq, std::uint64_t i) {
  return static_cast<std::uint8_t>(seq * 131 + i * 7 + 1);
}

void fill(core::RankEnv& env, VirtAddr buf, std::uint64_t seq,
          std::uint64_t len) {
  auto s = env.space().host_span(buf, len);
  for (std::uint64_t i = 0; i < len; ++i) s[i] = pattern(seq, i);
}

void check(core::RankEnv& env, VirtAddr buf, std::uint64_t seq,
           std::uint64_t len) {
  auto s = env.space().host_span(buf, len);
  for (std::uint64_t i = 0; i < len; ++i)
    ASSERT_EQ(s[i], pattern(seq, i)) << "msg " << seq << " byte " << i;
}

TEST(RingChanConfig, RecordFootprintIsAligned) {
  EXPECT_EQ(ringchan::record_bytes(0), 16u);
  EXPECT_EQ(ringchan::record_bytes(1), 24u);
  EXPECT_EQ(ringchan::record_bytes(8), 24u);
  EXPECT_EQ(ringchan::record_bytes(9), 32u);
}

// Small sends ride the ring in both directions and enough traffic flows
// to wrap the slab several times and force credit-return writes.
TEST(RingChanMpi, EagerTrafficRidesRingWithWrapAndCredit) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);
  mpi::CommConfig mc;
  mc.rdma_eager = true;
  mc.ring.slab_bytes = 16 * kKiB;  // 200 x 1 KiB wraps many times
  mpi::CommStats st[2];
  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env, mc);
    const int me = comm.rank();
    const int peer = 1 - me;
    const int n = 200;
    const std::uint64_t len = 1000;
    const VirtAddr rbuf = env.alloc(len);
    const VirtAddr sbuf = env.alloc(len);
    for (int i = 0; i < n; ++i) {
      // Ping-pong so neither side overruns its ring without progress.
      if (me == 0) {
        fill(env, sbuf, static_cast<std::uint64_t>(i), len);
        comm.send(sbuf, len, peer, 7);
        comm.recv(rbuf, len, peer, 7);
        check(env, rbuf, static_cast<std::uint64_t>(i) + 1000, len);
      } else {
        comm.recv(rbuf, len, peer, 7);
        check(env, rbuf, static_cast<std::uint64_t>(i), len);
        fill(env, sbuf, static_cast<std::uint64_t>(i) + 1000, len);
        comm.send(sbuf, len, peer, 7);
      }
    }
    comm.barrier();
    st[me] = comm.stats();
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(st[r].rdma_eager_sent, 150u) << "rank " << r;
    EXPECT_GT(st[r].rdma_eager_bytes, 150'000u) << "rank " << r;
    EXPECT_GT(st[r].rdma_credit_returns, 0u) << "rank " << r;
  }
}

// A sender that outruns the receiver exhausts ring credit and falls back
// to the two-sided eager path; every payload still arrives intact and in
// order (the per-source sequence numbers absorb the mixed transports).
TEST(RingChanMpi, CreditExhaustionFallsBackToTwoSided) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);
  mpi::CommConfig mc;
  mc.rdma_eager = true;
  mc.ring.slab_bytes = 8 * kKiB;
  mc.ring.max_record = 1024;
  mpi::CommStats sender;
  mpi::CommStats receiver;
  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env, mc);
    const int n = 30;
    const std::uint64_t len = 512;
    if (comm.rank() == 0) {
      const VirtAddr buf = env.alloc(static_cast<std::uint64_t>(n) * len);
      std::vector<mpi::Req> reqs;
      for (int i = 0; i < n; ++i) {
        const VirtAddr b = buf + static_cast<std::uint64_t>(i) * len;
        fill(env, b, static_cast<std::uint64_t>(i), len);
        reqs.push_back(comm.isend(b, len, 1, 3));
      }
      for (auto& r : reqs) comm.wait(r);
      sender = comm.stats();
    } else {
      env.compute(us(500));  // let the sender hit the credit wall
      const VirtAddr buf = env.alloc(len);
      for (int i = 0; i < n; ++i) {
        comm.recv(buf, len, 0, 3);
        check(env, buf, static_cast<std::uint64_t>(i), len);
      }
      receiver = comm.stats();
    }
    comm.barrier();
  });
  EXPECT_GT(sender.rdma_eager_sent, 0u);
  EXPECT_GT(sender.rdma_eager_fallbacks, 0u)
      << "an 8 KiB ring cannot hold 30 x 512 B records without credit";
  // Ring records and RC-bounce fallbacks share one envelope and arrive
  // out of sequence: the receiver's reorder buffer restores the order.
  EXPECT_GT(receiver.reordered, 0u);
}

// Messages above ring.max_record never touch the ring.
TEST(RingChanMpi, OversizedEagerStaysTwoSided) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);
  mpi::CommConfig mc;
  mc.rdma_eager = true;
  mc.ring.max_record = 256;
  mpi::CommStats sender;
  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env, mc);
    const std::uint64_t len = 4096;  // eager, but > max_record
    const VirtAddr buf = env.alloc(len);
    if (comm.rank() == 0) {
      fill(env, buf, 1, len);
      comm.send(buf, len, 1, 0);
      sender = comm.stats();
    } else {
      comm.recv(buf, len, 0, 0);
      check(env, buf, 1, len);
    }
    comm.barrier();
  });
  EXPECT_EQ(sender.rdma_eager_sent, 0u);
  EXPECT_EQ(sender.rdma_eager_fallbacks, 0u)
      << "size gating is not a credit fallback";
}

/// Two ranks on two nodes: rank 0 serves, rank 1 runs `client_fn`.
void with_ring_rpc(const rpc::RpcConfig& rc,
                   const std::function<void(rpc::RpcClient&)>& client_fn,
                   rpc::ServerStats* server_out = nullptr,
                   rpc::ClientStats* client_out = nullptr) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mpi::Comm comm(env, mc);
    if (env.rank() == 0) {
      rpc::RpcServer server(comm, {1}, rc);
      server.serve();
      if (server_out != nullptr) *server_out = server.stats();
      return;
    }
    rpc::RpcClient client(comm, 0, rc);
    client_fn(client);
    client.close();
    if (client_out != nullptr) *client_out = client.stats();
  });
}

TEST(RingChanRpc, ResponsesRideTheRing) {
  rpc::RpcConfig rc;
  rc.rdma_response = true;
  rpc::ServerStats ss;
  rpc::ClientStats cs;
  with_ring_rpc(
      rc,
      [](rpc::RpcClient& c) {
        std::vector<std::uint8_t> msg = {1, 2, 3, 4, 5};
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 32; ++i) ids.push_back(c.submit(msg));
        for (std::uint64_t id : ids) {
          const rpc::Completion& done = c.wait(id);
          EXPECT_EQ(done.status, rpc::Status::Ok);
          EXPECT_EQ(done.payload, msg);
        }
      },
      &ss, &cs);
  EXPECT_EQ(ss.ring_responses, 33u)
      << "32 echoes + the credit-descriptor control record";
  EXPECT_EQ(ss.ring_fallbacks, 0u);
  EXPECT_EQ(ss.resp_batches, 0u) << "no two-sided batch should be needed";
  EXPECT_EQ(cs.ring_completions, 33u);
  EXPECT_EQ(cs.completed, 32u) << "the control record is not a completion";
}

// A response ring too small for the offered burst runs out of credit;
// overflow responses fall back to the batched two-sided path and every
// request still completes.
TEST(RingChanRpc, RingBackpressureFallsBackToBatches) {
  rpc::RpcConfig rc;
  rc.rdma_response = true;
  rc.response_ring_bytes = 4 * kKiB;
  rc.credits = 64;
  rpc::ServerStats ss;
  rpc::ClientStats cs;
  with_ring_rpc(
      rc,
      [](rpc::RpcClient& c) {
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 64; ++i)
          ids.push_back(c.submit({}, /*response_cap=*/1024));
        ASSERT_EQ(ids.size(), 64u);
        for (std::uint64_t id : ids) {
          const rpc::Completion& done = c.wait(id);
          EXPECT_EQ(done.status, rpc::Status::Ok);
          EXPECT_EQ(done.payload.size(), 1024u);
        }
      },
      &ss, &cs);
  EXPECT_GT(ss.ring_responses, 0u);
  EXPECT_GT(ss.ring_fallbacks, 0u)
      << "a 4 KiB ring holds only ~3 outstanding 1 KiB responses";
  EXPECT_GT(ss.resp_batches, 0u);
  EXPECT_GT(cs.ring_completions, 0u);
  EXPECT_EQ(cs.completed, 64u);
  EXPECT_GT(cs.ring_credit_returns, 0u)
      << "draining 64 KiB of responses through a 4 KiB ring returns credit";
}

// Large responses announce through the ring; the body still travels
// out-of-band on its own tag.
TEST(RingChanRpc, LargeResponsesAnnounceViaRing) {
  rpc::RpcConfig rc;
  rc.rdma_response = true;
  rpc::ServerStats ss;
  rpc::ClientStats cs;
  with_ring_rpc(
      rc,
      [&](rpc::RpcClient& c) {
        const std::uint32_t want = 8 * kKiB;  // > max_payload (2 KiB)
        const std::uint64_t id = c.submit({}, want);
        const rpc::Completion& done = c.wait(id);
        EXPECT_EQ(done.status, rpc::Status::Ok);
        EXPECT_EQ(done.payload.size(), want);
      },
      &ss, &cs);
  EXPECT_EQ(ss.large_responses, 1u);
  EXPECT_EQ(cs.large_responses, 1u);
  EXPECT_GE(ss.ring_responses, 1u) << "the announce record rides the ring";
}

// rdma_response off must not construct rings, register ring probes or
// consume ring stats — the tier is bit-inert by default.
TEST(RingChanRpc, DisabledTierLeavesStatsUntouched) {
  rpc::ServerStats ss;
  rpc::ClientStats cs;
  with_ring_rpc(
      {},
      [](rpc::RpcClient& c) {
        const std::vector<std::uint8_t> msg = {9, 9};
        const std::uint64_t id = c.submit(msg);
        EXPECT_EQ(c.wait(id).status, rpc::Status::Ok);
      },
      &ss, &cs);
  EXPECT_EQ(ss.ring_responses, 0u);
  EXPECT_EQ(ss.ring_fallbacks, 0u);
  EXPECT_EQ(cs.ring_completions, 0u);
  EXPECT_EQ(cs.ring_credit_returns, 0u);
}

}  // namespace
}  // namespace ibp
