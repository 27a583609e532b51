#include "ibp/rpc/rpc.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "handover_checks.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/loadgen/loadgen.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/platform/platform.hpp"

namespace ibp::rpc {
namespace {

/// Two ranks on two nodes: rank 0 serves, rank 1 runs `client_fn`.
void with_rpc(const RpcConfig& rc,
              const std::function<void(RpcClient&)>& client_fn,
              ServerStats* server_out = nullptr, Handler handler = {}) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mpi::Comm comm(env, mc);
    if (env.rank() == 0) {
      RpcServer server(comm, {1}, rc, handler);
      server.serve();
      if (server_out != nullptr) *server_out = server.stats();
      return;
    }
    RpcClient client(comm, 0, rc);
    client_fn(client);
    client.close();
  });
}

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

TEST(Rpc, EchoRoundtrip) {
  with_rpc({}, [](RpcClient& c) {
    const auto msg = bytes({1, 2, 3, 4, 5});
    const std::uint64_t id = c.submit(msg);
    ASSERT_NE(id, 0u);
    const Completion& done = c.wait(id);
    EXPECT_EQ(done.status, Status::Ok);
    EXPECT_EQ(done.payload, msg);
    EXPECT_GT(done.latency, 0);
  });
}

TEST(Rpc, BatchingCoalescesRequestsIntoFewWrs) {
  RpcConfig rc;
  rc.max_batch_requests = 16;
  ClientStats stats;
  with_rpc(rc, [&](RpcClient& c) {
    const auto msg = bytes({7});
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 48; ++i) ids.push_back(c.submit(msg));
    for (std::uint64_t id : ids) c.wait(id);
    stats = c.stats();
  });
  EXPECT_EQ(stats.batched_requests, 48u);
  EXPECT_LE(stats.batches, 6u) << "48 queued requests should ride few WRs";
}

TEST(Rpc, UnbatchedSendsOneRequestPerWr) {
  RpcConfig rc;
  rc.batching = false;
  ClientStats stats;
  with_rpc(rc, [&](RpcClient& c) {
    const auto msg = bytes({7});
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 16; ++i) ids.push_back(c.submit(msg));
    for (std::uint64_t id : ids) c.wait(id);
    stats = c.stats();
  });
  EXPECT_EQ(stats.batches, 16u);
}

TEST(Rpc, CreditsBoundInflightRequests) {
  RpcConfig rc;
  rc.credits = 8;
  rc.client_queue_cap = 128;
  rc.service_base = us(20);  // slow server: the burst outruns credits
  ClientStats stats;
  with_rpc(rc, [&](RpcClient& c) {
    const auto msg = bytes({1});
    for (int i = 0; i < 64; ++i) ASSERT_NE(c.submit(msg), 0u);
    c.drain();
    stats = c.stats();
  });
  EXPECT_GT(stats.credit_stalls, 0u)
      << "a 64-deep burst against 8 credits must stall flushes";
  EXPECT_EQ(stats.completed, 64u);
}

TEST(Rpc, AdmissionControlShedsBeyondQueueCap) {
  RpcConfig rc;
  rc.server_queue_cap = 4;
  rc.service_base = us(50);  // requests pile up faster than they drain
  ServerStats server;
  ClientStats stats;
  std::uint64_t shed_completions = 0;
  with_rpc(
      rc,
      [&](RpcClient& c) {
        const auto msg = bytes({9});
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 32; ++i) ids.push_back(c.submit(msg));
        for (std::uint64_t id : ids) {
          if (c.wait(id).status == Status::Overloaded) ++shed_completions;
        }
        stats = c.stats();
      },
      &server);
  EXPECT_GT(server.shed, 0u);
  EXPECT_EQ(server.shed, shed_completions);
  EXPECT_EQ(stats.shed, shed_completions);
  EXPECT_EQ(server.requests_in, server.accepted + server.shed);
}

TEST(Rpc, LatencyClassServedBeforeBulk) {
  RpcConfig rc;
  rc.max_batch_requests = 16;
  std::vector<Class> order;
  Handler handler = [&order](const RequestView& rq, std::uint8_t* out,
                             std::uint32_t cap) {
    order.push_back(rq.cls);
    const std::uint32_t n = std::min(rq.payload_len, cap);
    std::memcpy(out, rq.payload, n);
    return n;
  };
  with_rpc(
      rc,
      [&](RpcClient& c) {
        const auto msg = bytes({3});
        // One batch carrying bulk first; the server must still serve the
        // latency class ahead of it once the batch is queued.
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 8; ++i)
          ids.push_back(c.submit(msg, 0, Class::Bulk));
        for (int i = 0; i < 8; ++i)
          ids.push_back(c.submit(msg, 0, Class::Latency));
        for (std::uint64_t id : ids) c.wait(id);
      },
      nullptr, handler);
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], Class::Latency)
        << "position " << i << " served before all latency drained";
}

TEST(Rpc, TenantsRoundRobinWithinClass) {
  RpcConfig rc;
  rc.max_batch_requests = 16;
  std::vector<std::uint32_t> order;
  Handler handler = [&order](const RequestView& rq, std::uint8_t* out,
                             std::uint32_t cap) {
    order.push_back(rq.tenant);
    const std::uint32_t n = std::min(rq.payload_len, cap);
    std::memcpy(out, rq.payload, n);
    return n;
  };
  with_rpc(
      rc,
      [&](RpcClient& c) {
        const auto msg = bytes({3});
        std::vector<std::uint64_t> ids;
        // Tenant 0 floods; tenant 1 trickles — one arrival batch.
        for (int i = 0; i < 12; ++i)
          ids.push_back(c.submit(msg, 0, Class::Latency, 0));
        for (int i = 0; i < 4; ++i)
          ids.push_back(c.submit(msg, 0, Class::Latency, 1));
        for (std::uint64_t id : ids) c.wait(id);
      },
      nullptr, handler);
  ASSERT_EQ(order.size(), 16u);
  // While both tenants are queued the service order alternates, so the
  // trickling tenant's 4 requests all complete within the first 8 slots.
  std::uint32_t tenant1_in_first8 = 0;
  for (int i = 0; i < 8; ++i)
    if (order[static_cast<std::size_t>(i)] == 1) ++tenant1_in_first8;
  EXPECT_EQ(tenant1_in_first8, 4u)
      << "round-robin must not let the flooding tenant starve the other";
}

TEST(Rpc, LargeResponseTakesRendezvousPath) {
  ServerStats server;
  ClientStats stats;
  with_rpc(
      {},
      [&](RpcClient& c) {
        const auto msg = bytes({0x5a});
        const std::uint64_t id = c.submit(msg, 64 * 1024);
        const Completion& done = c.wait(id);
        EXPECT_EQ(done.status, Status::Ok);
        ASSERT_EQ(done.payload.size(), 64u * 1024u);
        EXPECT_EQ(done.payload[0], 0x5a);  // echo then zero padding
        EXPECT_EQ(done.payload[1], 0);
        stats = c.stats();
      },
      &server);
  EXPECT_EQ(server.large_responses, 1u);
  EXPECT_EQ(stats.large_responses, 1u);
}

TEST(Rpc, ClientQueueCapRejectsLocally) {
  RpcConfig rc;
  rc.client_queue_cap = 4;
  rc.credits = 2;
  rc.service_base = us(50);
  ClientStats stats;
  with_rpc(rc, [&](RpcClient& c) {
    const auto msg = bytes({1});
    std::uint64_t rejected = 0;
    for (int i = 0; i < 32; ++i)
      if (c.submit(msg) == 0) ++rejected;
    EXPECT_GT(rejected, 0u);
    c.drain();
    stats = c.stats();
  });
  EXPECT_EQ(stats.rejected + stats.completed, 32u);
}

TEST(Rpc, TimeoutRetriesRescueAndDeduplicate) {
  RpcConfig rc;
  rc.service_base = us(40);     // responses outlive the first deadline
  rc.request_timeout = us(30);  // ... so the tail retries at least once
  rc.max_retries = 4;
  const auto run = [&] {
    ClientStats stats;
    std::uint64_t ok = 0;
    with_rpc(rc, [&](RpcClient& c) {
      // Full-slot responses: one record per response batch, so arrivals
      // spread out in virtual time and the client wakes to find later
      // requests already past their deadlines (a single coalesced batch
      // would deliver everything before a timeout could be observed).
      const std::vector<std::uint8_t> msg(rc.max_payload, 6);
      std::vector<std::uint64_t> ids;
      for (int i = 0; i < 12; ++i) ids.push_back(c.submit(msg));
      for (std::uint64_t id : ids) {
        if (c.wait(id).status == Status::Ok) ++ok;
      }
      c.drain();
      stats = c.stats();
    });
    EXPECT_EQ(ok, 12u) << "the transport never loses, so retries all land";
    return stats;
  };
  const ClientStats a = run();
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(a.duplicates, 0u)
      << "the original response still arrives and must be dropped";
  const ClientStats b = run();
  EXPECT_EQ(a.retries, b.retries) << "retry schedule must be deterministic";
  EXPECT_EQ(a.duplicates, b.duplicates);
}

TEST(Rpc, ZeroTimeoutIsBitInert) {
  const auto run = [](TimePs timeout) {
    RpcConfig rc;
    rc.request_timeout = timeout;
    loadgen::GenResult gen;
    with_rpc(rc, [&](RpcClient& c) {
      loadgen::Workload w;
      w.request_bytes = 128;
      loadgen::ClosedLoopConfig cc;
      cc.workers = 4;
      cc.requests = 120;
      cc.seed = 3;
      gen = loadgen::run_closed_loop(c, w, cc);
    });
    return gen;
  };
  const loadgen::GenResult off = run(0);
  const loadgen::GenResult armed = run(ms(100));  // far beyond any latency
  EXPECT_EQ(off.trace_hash, armed.trace_hash)
      << "a never-firing timeout must not perturb the wire schedule";
  EXPECT_EQ(off.span, armed.span);
}

TEST(Rpc, ServerCrashFailsRequestsOverTimeout) {
  // The server's node dies mid-run: requests it accepted but never served
  // are discarded silently, and the client — out of retries — must
  // complete them locally as TimedOut instead of blocking forever.
  RpcConfig rc;
  // The deadline must clear the first-touch warmup (~2 ms before the
  // first response lands); service pacing then spreads the 40 requests
  // across the crash so both sides of it are populated.
  rc.request_timeout = us(4000);
  rc.max_retries = 1;
  rc.fail_timed_out = true;
  rc.service_base = us(100);
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.fault = fault::parse_fault_plan("crash=0@4000");  // server is rank 0
  core::Cluster cluster(cfg);
  ServerStats ss;
  ClientStats cs;
  std::uint64_t ok = 0, lost = 0;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mc.recovery = mpi::CommConfig::Recovery::Repost;
    mpi::Comm comm(env, mc);
    if (env.rank() == 0) {
      RpcServer server(comm, {1}, rc);
      server.serve();
      ss = server.stats();
      return;
    }
    RpcClient client(comm, 0, rc);
    const auto msg = bytes({1, 2, 3});
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 40; ++i) ids.push_back(client.submit(msg));
    for (std::uint64_t id : ids) {
      client.wait(id).status == Status::Ok ? ++ok : ++lost;
    }
    client.drain();
    cs = client.stats();
    client.close();
  });
  EXPECT_EQ(ok + lost, 40u);
  EXPECT_GT(ok, 0u) << "requests served before the crash still complete";
  EXPECT_GT(lost, 0u) << "requests the corpse swallowed must time out";
  EXPECT_EQ(cs.timed_out, lost);
  EXPECT_GT(ss.discarded, 0u);
}

TEST(Rpc, AbandonCompletesOutstandingAsTimedOut) {
  RpcConfig rc;
  rc.request_timeout = us(500);
  rc.fail_timed_out = true;
  rc.service_base = us(50);  // slow enough that everything is in flight
  ClientStats cs;
  with_rpc(rc, [&](RpcClient& c) {
    const auto msg = bytes({9});
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i) ids.push_back(c.submit(msg));
    c.abandon();
    for (std::uint64_t id : ids)
      EXPECT_EQ(c.wait(id).status, Status::TimedOut)
          << "abandon must fail every queued and inflight request";
    c.drain();  // forgiven records: returns without the responses
    cs = c.stats();
  });
  EXPECT_EQ(cs.timed_out, 6u);
  EXPECT_EQ(cs.completed, 6u);
}

TEST(Rpc, LateResponseAfterRetryIsDeduplicated) {
  // Service latency sits beyond the request deadline, so the client
  // retransmits while the genuine response is still on its way. The
  // original completes the id and wait() takes its record; the retry's
  // response must then hit the duplicate path through the per-id state
  // instead of re-completing it or bringing a record back.
  RpcConfig rc;
  rc.service_base = us(60);
  rc.request_timeout = us(30);
  rc.max_retries = 2;
  const auto run = [&] {
    ClientStats stats;
    std::uint64_t ok = 0;
    with_rpc(rc, [&](RpcClient& c) {
      const std::vector<std::uint8_t> msg(rc.max_payload, 6);
      std::vector<std::uint64_t> ids;
      for (int i = 0; i < 12; ++i) ids.push_back(c.submit(msg));
      for (std::uint64_t id : ids)
        if (c.wait(id).status == Status::Ok) ++ok;
      c.drain();
      for (std::uint64_t id : ids) {
        EXPECT_TRUE(c.completed(id));
        EXPECT_EQ(c.find_completion(id), nullptr);
      }
      EXPECT_TRUE(c.take_completions().empty());
      stats = c.stats();
    });
    EXPECT_EQ(ok, 12u) << "the race must stay invisible to the caller";
    return stats;
  };
  const ClientStats a = run();
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(a.duplicates, 0u)
      << "the late response still arrives and must be dropped";
  EXPECT_EQ(a.timed_out, 0u);
  const ClientStats b = run();
  EXPECT_EQ(a.retries, b.retries) << "the race must be deterministic";
  EXPECT_EQ(a.duplicates, b.duplicates);
}

TEST(Rpc, CompletionsAreHandedOverOnce) {
  // A record is held from completion until a caller takes it, and then
  // no longer: find_completion turns null while completed() stays true.
  with_rpc({}, [](RpcClient& c) {
    const auto msg = bytes({4, 5});
    const std::uint64_t a = c.submit(msg);
    const std::uint64_t b = c.submit(msg);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_FALSE(c.completed(a));
    const Completion got = c.wait(a);
    EXPECT_EQ(got.payload, msg);
    EXPECT_EQ(c.find_completion(a), nullptr) << "wait(id) takes the record";
    EXPECT_TRUE(c.completed(a));
    while (c.find_completion(b) == nullptr) c.wait_some();
    const std::vector<Completion> taken = c.take_completions();
    ASSERT_EQ(taken.size(), 1u) << "a record wait() took is not taken again";
    EXPECT_EQ(taken[0].id, b);
    EXPECT_EQ(taken[0].payload, msg);
    EXPECT_EQ(c.find_completion(b), nullptr);
    EXPECT_TRUE(c.completed(b));
    EXPECT_TRUE(c.take_completions().empty());
    EXPECT_FALSE(c.completed(0));
    EXPECT_FALSE(c.completed(b + 1)) << "never issued";
  });
}

TEST(Rpc, WaitFailsFastOnAnIdNotOutstanding) {
  with_rpc({}, [](RpcClient& c) { test::expect_wait_fails_fast(c, "rpc"); });
}

TEST(Rpc, WaitFailsFastOnAnIdNotOutstandingUnderFailTimedOut) {
  RpcConfig rc;
  rc.request_timeout = us(4000);
  rc.fail_timed_out = true;
  with_rpc(rc, [](RpcClient& c) { test::expect_wait_fails_fast(c, "rpc"); });
}

// ---------------------------------------------------------------------------
// Load generators

loadgen::GenResult open_loop_result(std::uint64_t seed) {
  loadgen::GenResult gen;
  with_rpc({}, [&](RpcClient& c) {
    loadgen::Workload w;
    w.request_bytes = 64;
    w.tenants = 2;
    w.bulk_fraction = 0.25;
    loadgen::OpenLoopConfig oc;
    oc.rate_rps = 400e3;
    oc.requests = 300;
    oc.warmup = 50;
    oc.seed = seed;
    gen = loadgen::run_open_loop(c, w, oc);
  });
  return gen;
}

TEST(Loadgen, OpenLoopReplayIsDeterministic) {
  const loadgen::GenResult a = open_loop_result(21);
  const loadgen::GenResult b = open_loop_result(21);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.latency_ns.p99(), b.latency_ns.p99());
}

TEST(Loadgen, DifferentSeedsDiverge) {
  const loadgen::GenResult a = open_loop_result(21);
  const loadgen::GenResult b = open_loop_result(22);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(Loadgen, ClosedLoopCompletesEveryBudgetedRequest) {
  loadgen::GenResult gen;
  with_rpc({}, [&](RpcClient& c) {
    loadgen::Workload w;
    w.request_bytes = 128;
    loadgen::ClosedLoopConfig cc;
    cc.workers = 4;
    cc.requests = 200;
    cc.seed = 5;
    gen = loadgen::run_closed_loop(c, w, cc);
  });
  EXPECT_EQ(gen.ok + gen.shed, 200u)
      << "closed-loop workers retry rejects until the budget completes";
}

loadgen::GenResult tracked_closed_loop_result(std::uint64_t seed) {
  loadgen::GenResult gen;
  with_rpc({}, [&](RpcClient& c) {
    loadgen::Workload w;
    w.request_bytes = 128;
    loadgen::ClosedLoopConfig cc;
    cc.workers = 4;
    cc.requests = 200;
    cc.think = us(2);
    cc.seed = seed;
    cc.tracked_workers = true;
    gen = loadgen::run_closed_loop(c, w, cc);
  });
  return gen;
}

TEST(Loadgen, TrackedWorkersCompleteEveryBudgetedRequest) {
  const loadgen::GenResult gen = tracked_closed_loop_result(5);
  EXPECT_EQ(gen.ok + gen.shed, 200u)
      << "tracked workers retry rejects until the budget completes";
  EXPECT_GT(gen.span, 0);
}

TEST(Loadgen, TrackedWorkersReplayIsDeterministic) {
  const loadgen::GenResult a = tracked_closed_loop_result(9);
  const loadgen::GenResult b = tracked_closed_loop_result(9);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.ok, b.ok);
}

TEST(Loadgen, TrackedWorkersOverlapThinkTime) {
  // Four tracked workers with 2us think should finish well before four
  // sequentialized ones would: the overlap is real virtual-time overlap.
  const loadgen::GenResult tracked = tracked_closed_loop_result(5);
  loadgen::GenResult legacy;
  with_rpc({}, [&](RpcClient& c) {
    loadgen::Workload w;
    w.request_bytes = 128;
    loadgen::ClosedLoopConfig cc;
    cc.workers = 4;
    cc.requests = 200;
    cc.think = us(2);
    cc.seed = 5;
    legacy = loadgen::run_closed_loop(c, w, cc);
  });
  ASSERT_GT(legacy.span, 0);
  // Both model the same concurrency; tracked must be in the same
  // ballpark (not serialized: 200 requests x 2us think alone would be
  // 400us if workers ran one after another).
  EXPECT_LT(tracked.span, 2 * legacy.span)
      << "tracked workers must genuinely overlap, not serialize";
}

TEST(Loadgen, TrackedWorkersFlushUnderFailingTimeouts) {
  // Unbatched tracked workers flush from their own submits, so a sibling
  // lane arms the request deadlines that the poll loop's blocked wait
  // reads. Packed sends (no SGE gather) charge copy time before the send
  // posts, so only the deadline's own Waker reaches that wait in time
  // (Debug builds audit it on every decision). Each run's results are
  // pinned.
  struct Pin {
    TimePs timeout;
    std::uint64_t ok;
    std::uint64_t shed;
    std::uint64_t timed_out;
    TimePs span;
    std::uint64_t trace_hash;
  };
  for (const Pin& want :
       {Pin{us(6), 3, 9, 288, 1790184184, 8154015685781354516u},
        Pin{us(15), 13, 0, 287, 4048753707, 308184223748461520u},
        Pin{us(30), 300, 0, 0, 3946417958, 7019886007321082166u},
        Pin{us(200), 300, 0, 0, 1474292001, 5905580184001717024u}}) {
    RpcConfig rc;
    rc.batching = false;
    rc.request_timeout = want.timeout;
    rc.max_retries = 2;
    rc.fail_timed_out = true;
    core::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.ranks_per_node = 1;
    core::Cluster cluster(cfg);
    loadgen::GenResult gen;
    cluster.run([&](core::RankEnv& env) {
      mpi::Comm comm(env);
      if (env.rank() == 0) {
        RpcServer server(comm, {1}, rc);
        server.serve();
        return;
      }
      RpcClient client(comm, 0, rc);
      loadgen::Workload w;
      w.request_bytes = 128;
      loadgen::ClosedLoopConfig cc;
      cc.workers = 8;
      cc.requests = 300;
      cc.think = us(1);
      cc.seed = 5;
      cc.tracked_workers = true;
      gen = loadgen::run_closed_loop(client, w, cc);
      client.close();
    });
    EXPECT_EQ(gen.ok + gen.shed + gen.timed_out, 300u);
    EXPECT_EQ(gen.ok, want.ok) << want.timeout;
    EXPECT_EQ(gen.shed, want.shed) << want.timeout;
    EXPECT_EQ(gen.timed_out, want.timed_out) << want.timeout;
    EXPECT_EQ(gen.span, want.span) << want.timeout;
    EXPECT_EQ(gen.trace_hash, want.trace_hash) << want.timeout;
  }
}

TEST(Loadgen, OverloadP99StaysBoundedUnderShedding) {
  const auto run = [](std::uint32_t workers) {
    RpcConfig rc;
    rc.max_payload = 256;
    rc.server_queue_cap = 8;
    loadgen::GenResult gen;
    with_rpc(rc, [&](RpcClient& c) {
      loadgen::Workload w;
      w.request_bytes = 128;
      loadgen::ClosedLoopConfig cc;
      cc.workers = workers;
      cc.requests = 400;
      cc.warmup = 100;
      cc.seed = 11;
      gen = loadgen::run_closed_loop(c, w, cc);
    });
    return gen;
  };
  const loadgen::GenResult uncont = run(2);
  const loadgen::GenResult overload = run(32);
  EXPECT_GT(overload.shed, 0u) << "16x workers must trip admission control";
  ASSERT_GT(uncont.latency_ns.p99(), 0.0);
  // Without shedding the accepted p99 would scale with the worker ratio
  // (16x); with it the queue is capped at 8, so the p99 stays within a
  // small multiple (8x allows for histogram bucket granularity — the
  // tuned bench holds the paper-style < 5x bound).
  EXPECT_LT(overload.latency_ns.p99(), 8.0 * uncont.latency_ns.p99())
      << "shedding must keep accepted-request p99 bounded";
}

// --- dispatcher-fed worker pool -------------------------------------------

struct PoolResult {
  ServerStats server;
  ClientStats client;
  TimePs makespan = 0;
  TimePs qp_contention_ps = 0;
  std::uint64_t cq_poll_contention = 0;
};

/// Rank 0 serves `requests` echo requests with a worker pool; rank 1
/// submits them in bursts of `burst` and waits each burst out.
PoolResult run_pooled(std::uint32_t workers, hca::ShareMode mode,
                      int requests = 96, TimePs service = us(4),
                      int burst = 16, std::uint32_t response_cap = 0) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);
  PoolResult out;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mpi::Comm comm(env, mc);
    RpcConfig rc;
    rc.server_workers = workers;
    rc.share_mode = mode;
    rc.service_base = service;
    if (env.rank() == 0) {
      RpcServer server(comm, {1}, rc);
      server.serve();
      out.server = server.stats();
      const hca::AdapterStats& ad = env.state().node->adapter.stats();
      out.qp_contention_ps = ad.qp_contention_ps;
      out.cq_poll_contention = ad.cq_poll_contention;
      return;
    }
    RpcClient client(comm, 0, rc);
    const std::vector<std::uint8_t> msg(64, 7);
    std::vector<std::uint64_t> ids;
    std::size_t waited = 0;  // ids[0, waited) are handed over
    const auto wait_all = [&] {
      for (; waited < ids.size(); ++waited) client.wait(ids[waited]);
    };
    for (int i = 0; i < requests; ++i) {
      const std::uint64_t id = client.submit(msg, response_cap);
      if (id != 0) ids.push_back(id);
      if (static_cast<int>(ids.size() % burst) == 0) wait_all();
    }
    wait_all();
    out.client = client.stats();
    client.close();
  });
  out.makespan = cluster.makespan();
  return out;
}

TEST(RpcWorkerPool, ServesEveryRequestInAllShareModes) {
  for (hca::ShareMode mode :
       {hca::ShareMode::SharedLocked, hca::ShareMode::PerThreadQp,
        hca::ShareMode::Dispatcher}) {
    const PoolResult r = run_pooled(4, mode);
    EXPECT_EQ(r.client.completed, 96u) << share_mode_name(mode);
    EXPECT_EQ(r.server.served, 96u) << share_mode_name(mode);
    EXPECT_EQ(r.client.shed, 0u) << share_mode_name(mode);
  }
}

TEST(RpcWorkerPool, DispatcherModeHandsOffLargeResponses) {
  // A dispatcher-mode worker hands each response to the dispatcher. For
  // a large one it then sends the body itself, charging time before it
  // signals, so the hand-off alone must wake the dispatcher (Debug
  // builds audit its wait on every decision).
  const PoolResult r =
      run_pooled(4, hca::ShareMode::Dispatcher, 48, us(4), 16, 4 * kKiB);
  EXPECT_EQ(r.client.completed, 48u);
  EXPECT_EQ(r.client.large_responses, 48u);
  EXPECT_EQ(r.makespan, 1928087696u);
}

TEST(RpcWorkerPool, WorkersOverlapServiceTime) {
  // Service-bound workload: 4 workers overlap the 4 us service windows
  // the inline server must serialize.
  const PoolResult inline_srv =
      run_pooled(0, hca::ShareMode::SharedLocked, 96, us(4));
  const PoolResult pooled =
      run_pooled(4, hca::ShareMode::PerThreadQp, 96, us(4));
  EXPECT_LT(pooled.makespan, inline_srv.makespan)
      << "a 4-worker pool must beat inline serving on service-bound load";
}

TEST(RpcWorkerPool, SharedLockedChargesContention) {
  const PoolResult r = run_pooled(4, hca::ShareMode::SharedLocked);
  EXPECT_GT(r.qp_contention_ps, 0) << "shared QPs under 4 workers must "
                                      "pay lock/cache-bounce time";
  const PoolResult inline_srv = run_pooled(0, hca::ShareMode::SharedLocked);
  EXPECT_EQ(inline_srv.qp_contention_ps, 0)
      << "the single-track inline server must never arbitrate";
}

TEST(RpcWorkerPool, PerThreadQpAvoidsArbitration) {
  const PoolResult r = run_pooled(4, hca::ShareMode::PerThreadQp);
  EXPECT_EQ(r.qp_contention_ps, 0);
  EXPECT_EQ(r.cq_poll_contention, 0u);
}

struct FleetResult {
  std::uint64_t ok = 0;
  TimePs makespan = 0;
  TimePs qp_contention_ps = 0;
  std::uint64_t cq_poll_contention = 0;
  sim::Engine::Stats engine;
};

/// One ext_thread_scale cell: rank 0 serves with a `server_workers`-track
/// pool in `mode`; each of `clients` client ranks runs 8 tracked
/// closed-loop workers.
FleetResult run_fleet(std::uint32_t clients, std::uint32_t server_workers,
                      hca::ShareMode mode, std::uint64_t requests) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = static_cast<int>(1 + clients);
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);
  FleetResult out;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mpi::Comm comm(env, mc);
    RpcConfig rc;
    rc.max_payload = 256;
    rc.service_base = ns(200);
    rc.service_per_byte_ps = 0;
    rc.server_workers = server_workers;
    rc.share_mode = mode;
    if (env.rank() == 0) {
      rc.batching = false;
      std::vector<int> ranks;
      for (std::uint32_t c = 1; c <= clients; ++c)
        ranks.push_back(static_cast<int>(c));
      RpcServer server(comm, ranks, rc);
      server.serve();
      const hca::AdapterStats& ad = env.state().node->adapter.stats();
      out.qp_contention_ps = ad.qp_contention_ps;
      out.cq_poll_contention = ad.cq_poll_contention;
      return;
    }
    RpcClient client(comm, 0, rc);
    loadgen::Workload w;
    w.request_bytes = 128;
    loadgen::ClosedLoopConfig cc;
    cc.workers = 8;
    cc.requests = requests / clients;
    cc.warmup = requests / (4 * clients);
    cc.seed = 13 + static_cast<std::uint64_t>(env.rank());
    cc.tracked_workers = true;
    out.ok += loadgen::run_closed_loop(client, w, cc).ok;
    client.close();
  });
  out.makespan = cluster.makespan();
  out.engine = cluster.engine().stats();
  return out;
}

TEST(RpcWorkerPool, TrackedClosedLoopKeepsItsScheduleWithFewReadyCalls) {
  // The host-speed shape of perfbench rpc-threads, with one client rank.
  // Decisions and switches are pinned: precise wakes must not change the
  // schedule. Re-running every blocked lane after each run of its rank
  // takes 299,064 ready function calls here and typed waits 23,794; a
  // hot wait that loses its precise Waker (the closed-loop worker's or
  // the RPC worker's) breaks the bound.
  const FleetResult r = run_fleet(1, 8, hca::ShareMode::PerThreadQp, 800);
  EXPECT_EQ(r.ok, 800u);
  EXPECT_EQ(r.makespan, 3363110517u);
  EXPECT_EQ(r.engine.decisions, 38992u);
  EXPECT_EQ(r.engine.switches, 19771u);
  EXPECT_LE(r.engine.predicate_calls, 30000u);
}

TEST(RpcWorkerPool, SharedLockedFleetKeepsItsSchedule) {
  // ext_thread_scale's shared-locked T=4 cell at full size. Its worker
  // tracks complete the dispatcher's request receives only after the
  // poll that popped their CQEs has yielded, so the dispatcher's wait
  // must name the Comm's request Waker, which fires at the completion
  // itself, not only the transport's event sources; without it this
  // cell's schedule, pinned here, changes.
  const FleetResult r = run_fleet(4, 4, hca::ShareMode::SharedLocked, 4800);
  EXPECT_EQ(r.ok, 4800u);
  EXPECT_EQ(r.makespan, 41084825048u);
  EXPECT_EQ(r.qp_contention_ps, 68745369145u);
  EXPECT_EQ(r.cq_poll_contention, 42375u);
  EXPECT_EQ(r.engine.decisions, 216284u);
  EXPECT_EQ(r.engine.switches, 111869u);
}

TEST(RpcWorkerPool, DeterministicAcrossRuns) {
  const PoolResult a = run_pooled(4, hca::ShareMode::SharedLocked);
  const PoolResult b = run_pooled(4, hca::ShareMode::SharedLocked);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.qp_contention_ps, b.qp_contention_ps);
  EXPECT_EQ(a.client.completed, b.client.completed);
  EXPECT_EQ(a.server.resp_batches, b.server.resp_batches);
}

}  // namespace
}  // namespace ibp::rpc
