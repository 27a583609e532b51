#include "ibp/mpi/comm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "ibp/core/cluster.hpp"

namespace ibp::mpi {
namespace {

core::ClusterConfig small_cluster(int nodes, int rpn) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.ranks_per_node = rpn;
  cfg.node_memory = 256 * kMiB;
  cfg.hugepages_per_node = 128;
  return cfg;
}

void fill_pattern(core::RankEnv& env, VirtAddr va, std::uint64_t len,
                  std::uint8_t seed) {
  auto s = env.space().host_span(va, len);
  for (std::uint64_t i = 0; i < len; ++i)
    s[i] = static_cast<std::uint8_t>(seed + i * 7);
}

bool check_pattern(core::RankEnv& env, VirtAddr va, std::uint64_t len,
                   std::uint8_t seed) {
  auto s = env.space().host_span(va, len);
  for (std::uint64_t i = 0; i < len; ++i)
    if (s[i] != static_cast<std::uint8_t>(seed + i * 7)) return false;
  return true;
}

/// Exercise one send/recv pair at `len` bytes between ranks 0 and 1 of the
/// given topology; checks payload integrity and returns the receiver's
/// elapsed time.
TimePs pingpong_once(int nodes, int rpn, std::uint64_t len) {
  core::Cluster cluster(small_cluster(nodes, rpn));
  TimePs elapsed = 0;
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    if (env.rank() == 0) {
      const VirtAddr buf = env.alloc(std::max<std::uint64_t>(len, 64));
      fill_pattern(env, buf, len, 3);
      comm.send(buf, len, 1, 42);
    } else if (env.rank() == 1) {
      const VirtAddr buf = env.alloc(std::max<std::uint64_t>(len, 64));
      const TimePs t0 = env.now();
      const RecvStatus st = comm.recv(buf, len, 0, 42);
      elapsed = env.now() - t0;
      EXPECT_EQ(st.len, len);
      EXPECT_EQ(st.src, 0);
      EXPECT_EQ(st.tag, 42);
      EXPECT_TRUE(check_pattern(env, buf, len, 3));
    }
  });
  return elapsed;
}

TEST(MpiP2P, EagerInterNode) { EXPECT_GT(pingpong_once(2, 1, 1024), 0u); }
TEST(MpiP2P, EagerZeroBytes) { pingpong_once(2, 1, 0); }
TEST(MpiP2P, MediumRendezvousInterNode) {
  EXPECT_GT(pingpong_once(2, 1, 12 * kKiB), 0u);
}
TEST(MpiP2P, RdmaRendezvousInterNode) {
  EXPECT_GT(pingpong_once(2, 1, 256 * kKiB), 0u);
}
TEST(MpiP2P, EagerIntraNode) { EXPECT_GT(pingpong_once(1, 2, 1024), 0u); }
TEST(MpiP2P, LargeIntraNode) {
  EXPECT_GT(pingpong_once(1, 2, 256 * kKiB), 0u);
}

TEST(MpiP2P, ProtocolBandsOrderedByLatency) {
  // Larger messages must take longer within the same topology.
  const TimePs t_small = pingpong_once(2, 1, 512);
  const TimePs t_med = pingpong_once(2, 1, 12 * kKiB);
  const TimePs t_big = pingpong_once(2, 1, 1 * kMiB);
  EXPECT_LT(t_small, t_med);
  EXPECT_LT(t_med, t_big);
}

TEST(MpiP2P, UnexpectedMessagesMatchInOrder) {
  core::Cluster cluster(small_cluster(2, 1));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(4096);
    if (env.rank() == 0) {
      // Three sends with the same tag arrive before any recv is posted.
      for (int i = 0; i < 3; ++i) {
        auto s = env.space().host_span(buf, 8);
        std::memset(s.data(), 'a' + i, 8);
        comm.send(buf, 8, 1, 7);
      }
    } else {
      env.sim().advance(ms(1));  // guarantee the sends are unexpected
      for (int i = 0; i < 3; ++i) {
        comm.recv(buf, 8, 0, 7);
        auto s = env.space().host_span(buf, 8);
        EXPECT_EQ(s[0], 'a' + i) << "message " << i << " out of order";
      }
    }
  });
}

TEST(MpiP2P, AnySourceAnyTag) {
  core::Cluster cluster(small_cluster(2, 2));  // 4 ranks
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(4096);
    if (env.rank() != 0) {
      auto s = env.space().host_span(buf, 4);
      std::memset(s.data(), env.rank(), 4);
      comm.send(buf, 4, 0, 100 + env.rank());
    } else {
      bool seen[4] = {};
      for (int i = 0; i < 3; ++i) {
        const RecvStatus st = comm.recv(buf, 4, kAnySource, kAnyTag);
        EXPECT_EQ(st.tag, 100 + st.src);
        auto s = env.space().host_span(buf, 4);
        EXPECT_EQ(s[0], st.src);
        seen[st.src] = true;
      }
      EXPECT_TRUE(seen[1] && seen[2] && seen[3]);
    }
  });
}

TEST(MpiP2P, NonblockingOverlap) {
  core::Cluster cluster(small_cluster(2, 1));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    constexpr std::uint64_t kLen = 64 * kKiB;
    const VirtAddr a = env.alloc(kLen);
    const VirtAddr b = env.alloc(kLen);
    if (env.rank() == 0) {
      fill_pattern(env, a, kLen, 1);
      fill_pattern(env, b, kLen, 2);
      Req r1 = comm.isend(a, kLen, 1, 1);
      Req r2 = comm.isend(b, kLen, 1, 2);
      comm.wait(r1);
      comm.wait(r2);
    } else {
      Req r2 = comm.irecv(b, kLen, 0, 2);
      Req r1 = comm.irecv(a, kLen, 0, 1);
      std::vector<Req> rs{r1, r2};
      comm.waitall(rs);
      EXPECT_TRUE(check_pattern(env, a, kLen, 1));
      EXPECT_TRUE(check_pattern(env, b, kLen, 2));
    }
  });
}

TEST(MpiP2P, SendrecvExchangesBothDirections) {
  core::Cluster cluster(small_cluster(2, 1));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    constexpr std::uint64_t kLen = 2 * kKiB;
    const VirtAddr sb = env.alloc(kLen);
    const VirtAddr rb = env.alloc(kLen);
    const int other = 1 - env.rank();
    fill_pattern(env, sb, kLen, static_cast<std::uint8_t>(env.rank()));
    comm.sendrecv(sb, kLen, other, 5, rb, kLen, other, 5);
    EXPECT_TRUE(
        check_pattern(env, rb, kLen, static_cast<std::uint8_t>(other)));
  });
}

TEST(MpiP2P, TruncationIsFatal) {
  core::Cluster cluster(small_cluster(2, 1));
  EXPECT_THROW(cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(4096);
    if (env.rank() == 0) {
      comm.send(buf, 1024, 1, 1);
    } else {
      comm.recv(buf, 100, 0, 1);  // capacity < message
    }
  }),
               SimError);
}

TEST(MpiColl, Barrier) {
  core::Cluster cluster(small_cluster(2, 2));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    // Stagger arrival; after the barrier all clocks must be >= the
    // latest arrival.
    env.sim().advance(us(static_cast<std::uint64_t>(env.rank()) * 100));
    comm.barrier();
    EXPECT_GE(env.now(), us(300));
  });
}

TEST(MpiColl, BcastFromEveryRoot) {
  core::Cluster cluster(small_cluster(2, 2));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(4096);
    for (int root = 0; root < comm.size(); ++root) {
      if (env.rank() == root)
        fill_pattern(env, buf, 777, static_cast<std::uint8_t>(root));
      comm.bcast(buf, 777, root);
      EXPECT_TRUE(
          check_pattern(env, buf, 777, static_cast<std::uint8_t>(root)))
          << "root " << root;
    }
  });
}

TEST(MpiColl, AllreduceSumDoubles) {
  core::Cluster cluster(small_cluster(2, 2));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    constexpr std::uint64_t kN = 257;
    const VirtAddr in = env.alloc(kN * sizeof(double));
    const VirtAddr out = env.alloc(kN * sizeof(double));
    auto* p = env.host_ptr<double>(in, kN);
    for (std::uint64_t i = 0; i < kN; ++i)
      p[i] = static_cast<double>(env.rank() + 1) * static_cast<double>(i);
    comm.allreduce<double>(in, out, kN, ReduceOp::Sum);
    auto* q = env.host_ptr<double>(out, kN);
    const double ranksum = 1 + 2 + 3 + 4;
    for (std::uint64_t i = 0; i < kN; ++i)
      ASSERT_DOUBLE_EQ(q[i], ranksum * static_cast<double>(i));
  });
}

TEST(MpiColl, AllreduceMaxU64) {
  core::Cluster cluster(small_cluster(2, 2));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr in = env.alloc(64);
    const VirtAddr out = env.alloc(64);
    *env.host_ptr<std::uint64_t>(in) = 100 + env.rank();
    comm.allreduce<std::uint64_t>(in, out, 1, ReduceOp::Max);
    EXPECT_EQ(*env.host_ptr<std::uint64_t>(out), 103u);
  });
}

TEST(MpiColl, AllgatherRing) {
  core::Cluster cluster(small_cluster(2, 2));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    constexpr std::uint64_t kLen = 512;
    const VirtAddr in = env.alloc(kLen);
    const VirtAddr out = env.alloc(kLen * 4);
    fill_pattern(env, in, kLen, static_cast<std::uint8_t>(env.rank() * 11));
    comm.allgather(in, kLen, out);
    for (int p = 0; p < 4; ++p)
      EXPECT_TRUE(check_pattern(env, out + p * kLen, kLen,
                                static_cast<std::uint8_t>(p * 11)))
          << "block " << p;
  });
}

TEST(MpiColl, AlltoallvVariableBlocks) {
  core::Cluster cluster(small_cluster(2, 2));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const int n = comm.size();
    const int me = env.rank();
    // Rank r sends (r+1)*(c+1)*16 bytes to rank c.
    std::vector<std::uint64_t> scounts(n), sdispls(n), rcounts(n), rdispls(n);
    std::uint64_t soff = 0, roff = 0;
    for (int c = 0; c < n; ++c) {
      scounts[c] = static_cast<std::uint64_t>((me + 1) * (c + 1)) * 16;
      sdispls[c] = soff;
      soff += scounts[c];
      rcounts[c] = static_cast<std::uint64_t>((c + 1) * (me + 1)) * 16;
      rdispls[c] = roff;
      roff += rcounts[c];
    }
    const VirtAddr sbuf = env.alloc(soff);
    const VirtAddr rbuf = env.alloc(roff);
    for (int c = 0; c < n; ++c)
      fill_pattern(env, sbuf + sdispls[c], scounts[c],
                   static_cast<std::uint8_t>(me * 16 + c));
    comm.alltoallv(sbuf, scounts, sdispls, rbuf, rcounts, rdispls);
    for (int c = 0; c < n; ++c)
      EXPECT_TRUE(check_pattern(env, rbuf + rdispls[c], rcounts[c],
                                static_cast<std::uint8_t>(c * 16 + me)))
          << "from rank " << c;
  });
}

TEST(MpiGather, SgeGatherMatchesPackAndSend) {
  // Same payload, both paths; receiver must observe identical bytes.
  for (const bool sge : {false, true}) {
    CommConfig cfg;
    cfg.sge_gather = sge;
    core::Cluster cluster(small_cluster(2, 1));
    cluster.run([&](core::RankEnv& env) {
      Comm comm(env, cfg);
      const VirtAddr a = env.alloc(4096);
      const VirtAddr b = env.alloc(4096);
      const VirtAddr c = env.alloc(4096);
      if (env.rank() == 0) {
        fill_pattern(env, a, 100, 1);
        fill_pattern(env, b, 200, 2);
        fill_pattern(env, c, 300, 3);
        Req r = comm.isend_gather({{a, 100}, {b, 200}, {c, 300}}, 1, 9);
        comm.wait(r);
      } else {
        const VirtAddr buf = env.alloc(4096);
        const RecvStatus st = comm.recv(buf, 600, 0, 9);
        EXPECT_EQ(st.len, 600u);
        EXPECT_TRUE(check_pattern(env, buf, 100, 1));
        EXPECT_TRUE(check_pattern(env, buf + 100, 200, 2));
        EXPECT_TRUE(check_pattern(env, buf + 300, 300, 3));
      }
    });
  }
}

TEST(MpiProfiler, SplitsCommFromCompute) {
  core::Cluster cluster(small_cluster(2, 1));
  TimePs comm_time[2] = {};
  TimePs total_time[2] = {};
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(64 * kKiB);
    env.compute(1000000);  // pure compute, must not count as comm
    const int other = 1 - env.rank();
    comm.sendrecv(buf, 32 * kKiB, other, 1, buf, 32 * kKiB, other, 1);
    comm_time[env.rank()] = comm.profiler().total();
    total_time[env.rank()] = env.now();
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(comm_time[r], 0u);
    EXPECT_LT(comm_time[r], total_time[r]);
  }
}

TEST(MpiTracks, SiblingComputeDoesNotRerunABlockedRecv) {
  // Rank 0 blocks in recv while a sibling track computes in 1,000 steps;
  // rank 1 sends 1 ms after its Comm is built. Only the receive's own
  // events and its completion may re-run the wait's ready function, not
  // every step the sibling takes.
  core::Cluster cluster(small_cluster(2, 1));
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env);
    const VirtAddr buf = env.alloc(64);
    if (env.rank() == 1) {
      env.sim().advance(ms(1));
      comm.send(buf, 64, 0, 7);
      return;
    }
    const sim::TrackId t = env.sim().spawn_track([](sim::Context& sc) {
      for (int i = 0; i < 1000; ++i) sc.advance(ns(100));
    });
    EXPECT_EQ(comm.recv(buf, 64, 1, 7).len, 64u);
    env.sim().join_track(t);
  });
  const sim::Engine::Stats s = cluster.engine().stats();
  EXPECT_EQ(s.decisions, 1096u);
  EXPECT_LE(s.predicate_calls, 10u);
}

TEST(MpiTracks, SiblingProgressHandsTheSendSlotOn) {
  // One bounce slot. Track 0 sends; track 2 then waits for the slot.
  // Track 0's receive drains the first send's completion and frees the
  // slot at kFree, which makes track 2's wait ready. Track 1 finishes
  // touching its payload at the same time and, as the lower track,
  // takes the slot first, so track 2 waits on. Both changes to the free
  // slots must reach the wait (Debug builds audit it on every decision).
  constexpr TimePs kFree = 494665739;  // the slot frees
  constexpr TimePs kTouch = 90538;     // track 1's 64 B payload touch
  CommConfig cc;
  cc.send_slots = 1;
  core::Cluster cluster(small_cluster(2, 1));
  TimePs sent_at[2] = {0, 0};
  cluster.run([&](core::RankEnv& env) {
    Comm comm(env, cc);
    const VirtAddr buf = env.alloc(256);
    if (env.rank() == 1) {
      for (int tag = 1; tag <= 3; ++tag) comm.recv(buf, 64, 0, tag);
      comm.send(buf, 64, 0, 4);
      return;
    }
    comm.send(buf, 64, 1, 1);
    const sim::TrackId taker = env.sim().spawn_track([&](sim::Context& sc) {
      sc.sleep_until(kFree - kTouch);
      comm.send(buf + 128, 64, 1, 2);
      sent_at[0] = sc.now();
    });
    const sim::TrackId waiter = env.sim().spawn_track([&](sim::Context& sc) {
      comm.send(buf + 64, 64, 1, 3);
      sent_at[1] = sc.now();
    });
    comm.recv(buf, 64, 1, 4);
    env.sim().join_track(taker);
    env.sim().join_track(waiter);
  });
  EXPECT_EQ(sent_at[0], 495408046u);
  EXPECT_EQ(sent_at[1], 497725247u);
  EXPECT_EQ(cluster.engine().stats().decisions, 167u);
}

TEST(MpiDeterminism, IdenticalRunsIdenticalClocks) {
  auto run_once = [] {
    core::Cluster cluster(small_cluster(2, 2));
    cluster.run([&](core::RankEnv& env) {
      Comm comm(env);
      const VirtAddr buf = env.alloc(128 * kKiB);
      for (int i = 0; i < 5; ++i) {
        comm.barrier();
        const int other = env.rank() ^ 1;
        comm.sendrecv(buf, 40 * kKiB, other, i, buf, 40 * kKiB, other, i);
      }
    });
    return cluster.makespan();
  };
  const TimePs a = run_once();
  const TimePs b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
}

}  // namespace
}  // namespace ibp::mpi
