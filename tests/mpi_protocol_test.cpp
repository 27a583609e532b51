// Parameterized protocol sweeps: payload integrity and ordering across
// the eager / rendezvous-copy / RDMA bands, transports (IB vs shm), and
// stress patterns (slot exhaustion, bidirectional floods, mixed sizes).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "ibp/mpi/comm.hpp"

namespace ibp::mpi {
namespace {

core::ClusterConfig topo(int nodes, int rpn) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.ranks_per_node = rpn;
  cfg.node_memory = 512 * kMiB;
  cfg.hugepages_per_node = 256;
  return cfg;
}

std::uint8_t pattern_at(std::uint64_t i, std::uint8_t seed) {
  return static_cast<std::uint8_t>(seed * 31 + i * 7 + (i >> 9));
}

void fill(core::RankEnv& env, VirtAddr va, std::uint64_t len,
          std::uint8_t seed) {
  auto s = env.space().host_span(va, len);
  for (std::uint64_t i = 0; i < len; ++i) s[i] = pattern_at(i, seed);
}

::testing::AssertionResult check(core::RankEnv& env, VirtAddr va,
                                 std::uint64_t len, std::uint8_t seed) {
  auto s = env.space().host_span(va, len);
  for (std::uint64_t i = 0; i < len; ++i)
    if (s[i] != pattern_at(i, seed))
      return ::testing::AssertionFailure()
             << "mismatch at byte " << i << " (len " << len << ")";
  return ::testing::AssertionSuccess();
}

// --- size sweep across every protocol band, both transports -------------

struct SweepParam {
  std::uint64_t bytes;
  bool intra_node;
  // gtest names each case after a byte dump of this struct. Left as
  // padding, these bytes dump whatever the stack held, so the names
  // changed from build to build; spelled out, they are always zero.
  std::uint8_t zero_tail[7] = {};
};
static_assert(std::has_unique_object_representations_v<SweepParam>,
              "SweepParam must have no padding bytes");

class ProtocolSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ProtocolSweep, PayloadIntact) {
  const std::uint64_t bytes = GetParam().bytes;
  const bool intra = GetParam().intra_node;
  core::Cluster cluster(intra ? topo(1, 2) : topo(2, 1));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(std::max<std::uint64_t>(bytes, 64));
    if (env.rank() == 0) {
      fill(env, buf, bytes, 42);
      comm.send(buf, bytes, 1, 5);
    } else {
      const RecvStatus st = comm.recv(buf, bytes, 0, 5);
      EXPECT_EQ(st.len, bytes);
      EXPECT_TRUE(check(env, buf, bytes, 42));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ProtocolSweep,
    ::testing::Values(
        SweepParam{1, false}, SweepParam{64, false}, SweepParam{4095, false},
        SweepParam{8 * kKiB, false},        // eager boundary
        SweepParam{8 * kKiB + 1, false},    // first rendezvous-copy byte
        SweepParam{16 * kKiB, false},       // rendezvous-copy ceiling
        SweepParam{16 * kKiB + 1, false},   // first RDMA byte
        SweepParam{1 * kMiB, false}, SweepParam{7 * kMiB, false},
        SweepParam{1, true}, SweepParam{8 * kKiB + 1, true},
        SweepParam{1 * kMiB, true}),
    [](const auto& info) {
      return (info.param.intra_node ? std::string("shm_") : std::string("ib_")) +
             std::to_string(info.param.bytes) + "B";
    });

// --- ordering across protocol bands --------------------------------------

TEST(ProtocolOrdering, MixedSizesSameTagArriveInOrder) {
  // MPI non-overtaking must hold even when messages take different
  // protocol paths (a big rendezvous must not be overtaken by a later
  // eager message of the same envelope).
  core::Cluster cluster(topo(2, 1));
  const std::uint64_t sizes[] = {64 * kKiB, 128, 12 * kKiB, 1,
                                 300 * kKiB, 2 * kKiB};
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    if (env.rank() == 0) {
      std::vector<Req> rs;
      for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const VirtAddr b = env.alloc(std::max<std::uint64_t>(sizes[i], 64));
        fill(env, b, sizes[i], static_cast<std::uint8_t>(i));
        rs.push_back(comm.isend(b, sizes[i], 1, 9));
      }
      comm.waitall(rs);
    } else {
      env.sim().advance(ms(2));  // let several sends pile up unexpected
      for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const VirtAddr b = env.alloc(std::max<std::uint64_t>(sizes[i], 64));
        const RecvStatus st = comm.recv(b, sizes[i], 0, 9);
        EXPECT_EQ(st.len, sizes[i]) << "message " << i << " out of order";
        EXPECT_TRUE(check(env, b, sizes[i], static_cast<std::uint8_t>(i)));
      }
    }
  });
}

TEST(ProtocolStress, SendSlotExhaustionResolves) {
  // Far more in-flight eager sends than bounce slots: take_send_slot must
  // recycle via completions without deadlock.
  core::Cluster cluster(topo(2, 1));
  constexpr int kMsgs = 300;  // > 64 send slots
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(4 * kKiB);
    if (env.rank() == 0) {
      std::vector<Req> rs;
      for (int i = 0; i < kMsgs; ++i)
        rs.push_back(comm.isend(buf, 2 * kKiB, 1, i));
      comm.waitall(rs);
    } else {
      for (int i = 0; i < kMsgs; ++i) comm.recv(buf, 2 * kKiB, 0, i);
    }
  });
}

TEST(ProtocolStress, BidirectionalRendezvousFlood) {
  // Both sides issue RDMA rendezvous simultaneously; control messages
  // interleave on the same QPs.
  core::Cluster cluster(topo(2, 1));
  constexpr int kMsgs = 20;
  constexpr std::uint64_t kLen = 200 * kKiB;
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const int other = 1 - env.rank();
    const VirtAddr sb = env.alloc(kLen);
    const VirtAddr rb = env.alloc(kLen);
    fill(env, sb, kLen, static_cast<std::uint8_t>(env.rank() + 1));
    for (int i = 0; i < kMsgs; ++i) {
      Req rr = comm.irecv(rb, kLen, other, i);
      Req sr = comm.isend(sb, kLen, other, i);
      comm.wait(sr);
      comm.wait(rr);
      EXPECT_TRUE(
          check(env, rb, kLen, static_cast<std::uint8_t>(other + 1)));
    }
  });
}

TEST(ProtocolStress, ManyToOneFanIn) {
  // 7 ranks flood rank 0 with mixed-protocol messages.
  core::Cluster cluster(topo(2, 4));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    constexpr std::uint64_t kBig = 100 * kKiB;
    const VirtAddr buf = env.alloc(kBig);
    if (env.rank() == 0) {
      int received = 0;
      for (int p = 1; p < 8; ++p)
        for (int m = 0; m < 3; ++m) {
          const RecvStatus st = comm.recv(buf, kBig, kAnySource, kAnyTag);
          EXPECT_TRUE(check(env, buf, st.len,
                            static_cast<std::uint8_t>(st.src)));
          ++received;
        }
      EXPECT_EQ(received, 21);
    } else {
      const std::uint64_t sizes[3] = {512, 10 * kKiB, 64 * kKiB};
      fill(env, buf, kBig, static_cast<std::uint8_t>(env.rank()));
      for (int m = 0; m < 3; ++m)
        comm.send(buf, sizes[m], 0, env.rank() * 10 + m);
    }
  });
}

TEST(ProtocolLatency, BandsStepUpAtThresholds) {
  // Crossing the eager threshold must cost a visible latency step (the
  // extra rendezvous round trip).
  core::Cluster cluster(topo(2, 1));
  TimePs at_eager = 0, above_eager = 0;
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(64 * kKiB);
    auto once = [&](std::uint64_t len) {
      if (env.rank() == 0) {
        comm.send(buf, len, 1, 1);
        comm.recv(buf, 1, 1, 2);
        return TimePs{0};
      }
      const TimePs t0 = env.now();
      comm.recv(buf, len, 0, 1);
      const TimePs dt = env.now() - t0;
      comm.send(buf, 1, 0, 2);
      return dt;
    };
    const TimePs a = once(8 * kKiB);
    const TimePs b = once(8 * kKiB + 64);
    if (env.rank() == 1) {
      at_eager = a;
      above_eager = b;
    }
  });
  EXPECT_GT(above_eager, at_eager)
      << "rendezvous handshake must add latency at the threshold";
}

TEST(Profiler, CategorizesOperations) {
  core::Cluster cluster(topo(2, 1));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(64 * kKiB);
    comm.barrier();
    const int other = 1 - env.rank();
    comm.sendrecv(buf, 1024, other, 1, buf, 1024, other, 1);
    comm.bcast(buf, 4096, 0);
    const auto& by_op = comm.profiler().by_op();
    EXPECT_TRUE(by_op.count("barrier"));
    EXPECT_TRUE(by_op.count("sendrecv"));
    EXPECT_TRUE(by_op.count("bcast"));
    // Nested p2p inside collectives must not be double counted.
    EXPECT_FALSE(by_op.count("isend"));
    TimePs sum = 0;
    for (const auto& [op, t] : by_op) sum += t;
    EXPECT_EQ(sum, comm.profiler().total());
  });
}

TEST(CommConfig, BadThresholdsRejected) {
  core::Cluster cluster(topo(2, 1));
  EXPECT_THROW(cluster.run([](core::RankEnv& env) {
    CommConfig cfg;
    cfg.eager_threshold = 32 * kKiB;  // above rndv_copy_max
    Comm comm(env, cfg);
  }),
               SimError);
}

/// Rank 0 copies rendezvous messages up to 32 KiB through 32 KiB bounce
/// slots; rank 1 keeps the default 16 KiB + 64 B slots. One 24 KiB send
/// cannot fit rank 1's slot. Returns the error the run fails with.
std::string slot_mismatch_error(CommConfig::Recovery recovery) {
  core::Cluster cluster(topo(2, 1));
  try {
    cluster.run([&](core::RankEnv& env) {
      CommConfig cfg;
      cfg.recovery = recovery;
      if (env.rank() == 0) {
        cfg.rndv_copy_max = 32 * kKiB;
        cfg.slot_bytes = 32 * kKiB + 64;
      }
      Comm comm(env, cfg);
      const VirtAddr buf = env.alloc(24 * kKiB);
      if (env.rank() == 0) {
        comm.send(buf, 24 * kKiB, 1, 1);
      } else {
        comm.recv(buf, 24 * kKiB, 0, 1);
      }
    });
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

// A repost cannot cure a message longer than the receive slot, so the
// receiver fails fast in both recovery modes, naming the sender, the
// message length and its own slot size.
TEST(CommConfig, SlotMismatchFailsFastNamingTheMismatch) {
  const std::string error = slot_mismatch_error(CommConfig::Recovery::FailFast);
  EXPECT_NE(error.find("rank 0 sent a " +
                       std::to_string(24 * kKiB + kHeaderBytes) +
                       "-byte message into rank 1's 16448-byte receive slots"),
            std::string::npos)
      << error;
}

TEST(CommConfig, SlotMismatchFailsFastUnderRepost) {
  const std::string error = slot_mismatch_error(CommConfig::Recovery::Repost);
  EXPECT_NE(error.find("rank 0 sent a " +
                       std::to_string(24 * kKiB + kHeaderBytes) +
                       "-byte message into rank 1's 16448-byte receive slots"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace ibp::mpi

namespace ibp::mpi {
namespace {

TEST(CommStats, CountsPerProtocol) {
  core::Cluster cluster(topo(2, 2));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(1 * kMiB);
    if (env.rank() == 0) {
      comm.send(buf, 100, 3, 1);          // eager (inter-node)
      comm.send(buf, 12 * kKiB, 3, 2);    // rendezvous copy
      comm.send(buf, 200 * kKiB, 3, 3);   // rendezvous RDMA
      comm.send(buf, 100, 1, 4);          // shm (same node)
      const auto& st = comm.stats();
      EXPECT_EQ(st.eager_sent, 1u);
      EXPECT_EQ(st.rndv_copy_sent, 1u);
      EXPECT_EQ(st.rndv_rdma_sent, 1u);
      EXPECT_EQ(st.rndv_rdma_bytes, 200 * kKiB);
      EXPECT_EQ(st.shm_sent, 1u);
    } else if (env.rank() == 3) {
      env.sim().advance(ms(1));  // force the eager one unexpected
      comm.recv(buf, 100, 0, 1);
      comm.recv(buf, 12 * kKiB, 0, 2);
      comm.recv(buf, 200 * kKiB, 0, 3);
      EXPECT_GE(comm.stats().unexpected_arrivals, 1u);
    } else if (env.rank() == 1) {
      comm.recv(buf, 100, 0, 4);
    }
  });
}

TEST(CommStats, ConfigThresholdsAndSgeGatePickThePath) {
  // The path is picked from the Comm's own config: eager up to 256 B,
  // rendezvous copy up to 512 B, RDMA above, and NIC gathering of typed
  // sends that fit the eager path only while sge_gather is on.
  const Datatype strided = Datatype::vector(2, 128, 192);  // 256 B
  const Datatype wide = Datatype::vector(257, 1, 2);       // 257 B
  for (const bool sge : {false, true}) {
    CommConfig cfg;
    cfg.eager_threshold = 256;
    cfg.rndv_copy_max = 512;
    cfg.sge_gather = sge;
    core::Cluster cluster(topo(2, 1));
    cluster.run([&](core::RankEnv& env) {
      Comm comm(env, cfg);
      const VirtAddr sbuf = env.alloc(4 * kKiB);
      const VirtAddr rbuf = env.alloc(4 * kKiB);
      fill(env, sbuf, 4 * kKiB, 9);
      const struct {
        std::uint64_t len, eager, copy, rdma;
      } bands[] = {{256, 1, 0, 0}, {257, 0, 1, 0}, {512, 0, 1, 0},
                   {513, 0, 0, 1}};
      if (env.rank() == 0) {
        for (const auto& b : bands) {
          const CommStats before = comm.stats();
          comm.send(sbuf, b.len, 1, 1);
          const CommStats& after = comm.stats();
          EXPECT_EQ(after.eager_sent - before.eager_sent, b.eager) << b.len;
          EXPECT_EQ(after.rndv_copy_sent - before.rndv_copy_sent, b.copy)
              << b.len;
          EXPECT_EQ(after.rndv_rdma_sent - before.rndv_rdma_sent, b.rdma)
              << b.len;
        }
        const CommStats before = comm.stats();
        comm.send_typed(sbuf, strided, 1, 2);
        const CommStats mid = comm.stats();
        EXPECT_EQ(mid.gather_sends - before.gather_sends, sge ? 1u : 0u);
        EXPECT_EQ(mid.eager_sent - before.eager_sent, sge ? 0u : 1u);
        comm.send_typed(sbuf, wide, 1, 3);
        const CommStats& after = comm.stats();
        EXPECT_EQ(after.gather_sends, mid.gather_sends)
            << "a typed send above the eager path is packed";
        EXPECT_EQ(after.rndv_copy_sent - mid.rndv_copy_sent, 1u);
      } else {
        for (const auto& b : bands) {
          EXPECT_EQ(comm.recv(rbuf, b.len, 0, 1).len, b.len);
          EXPECT_TRUE(check(env, rbuf, b.len, 9));
        }
        for (const auto& [type, tag] : {std::pair{strided, 2},
                                        std::pair{wide, 3}}) {
          EXPECT_EQ(comm.recv_typed(rbuf, type, 0, tag).len, type.size());
          for (std::uint64_t k = 0; k < type.count; ++k) {
            const std::uint64_t off = k * type.stride;
            auto got = env.space().host_span(rbuf + off, type.block_len);
            auto want = env.space().host_span(sbuf + off, type.block_len);
            ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
                << "tag " << tag << " block " << k;
          }
        }
      }
    });
  }
}

}  // namespace
}  // namespace ibp::mpi
