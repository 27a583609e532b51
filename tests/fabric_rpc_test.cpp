// The sharded RPC serving fabric (ibp_fabric): shard-map determinism,
// stripe reassembly (in order, interleaved, and under fault-injected
// loss), and the golden-equivalence contract against bare ibp_rpc.

#include "ibp/fabric/fabric.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "handover_checks.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/loadgen/loadgen.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/rpc/rpc.hpp"

namespace ibp::fabric {
namespace {

/// `servers`+1 ranks on as many nodes: rank 0 runs `client_fn`, the rest
/// serve shards. A non-empty `fault_spec` also switches the transport to
/// Repost recovery so dropped packets retransmit instead of failing.
void with_fabric(
    std::uint32_t servers, const FabricConfig& fc,
    const std::function<void(FabricClient&, core::RankEnv&)>& client_fn,
    const std::string& fault_spec = "") {
  core::ClusterConfig cfg;
  cfg.nodes = static_cast<int>(servers) + 1;
  cfg.ranks_per_node = 1;
  if (!fault_spec.empty()) cfg.fault = fault::parse_fault_plan(fault_spec);
  core::Cluster cluster(cfg);
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    if (!fault_spec.empty()) mc.recovery = mpi::CommConfig::Recovery::Repost;
    mpi::Comm comm(env, mc);
    if (env.rank() != 0) {
      FabricServer server(comm, {0}, fc);
      server.serve();
      return;
    }
    std::vector<int> ranks;
    for (std::uint32_t s = 1; s <= servers; ++s)
      ranks.push_back(static_cast<int>(s));
    FabricClient client(comm, ranks, fc);
    client_fn(client, env);
    client.close();
  });
}

void expect_stripe_payload(const rpc::Completion& c, std::uint32_t tenant) {
  ASSERT_EQ(c.status, rpc::Status::Ok);
  for (std::size_t off = 0; off < c.payload.size(); ++off) {
    ASSERT_EQ(c.payload[off], stripe_byte(c.id, tenant, off))
        << "byte " << off << " of stripe " << c.id;
  }
}

TEST(ShardMap, DeterministicAndEpochSensitive) {
  const ShardMap a(8, ShardStrategy::Hash, 42, 0);
  const ShardMap b(8, ShardStrategy::Hash, 42, 0);
  EXPECT_EQ(a.digest(), b.digest());
  for (std::uint32_t t = 0; t < 1000; ++t) EXPECT_EQ(a.home(t), b.home(t));

  const ShardMap bumped(8, ShardStrategy::Hash, 42, 1);
  EXPECT_NE(a.digest(), bumped.digest()) << "epoch bump must reshard";
  const ShardMap reseeded(8, ShardStrategy::Hash, 43, 0);
  EXPECT_NE(a.digest(), reseeded.digest());

  for (ShardStrategy s : {ShardStrategy::Hash, ShardStrategy::Range,
                          ShardStrategy::Affinity}) {
    const ShardMap m(5, s, 42, 0);
    for (std::uint32_t t = 0; t < 1000; ++t) ASSERT_LT(m.home(t), 5u);
    EXPECT_EQ(shard_strategy_from_name(shard_strategy_name(s)), s);
  }
  const ShardMap solo(1, ShardStrategy::Affinity);
  for (std::uint32_t t = 0; t < 64; ++t) EXPECT_EQ(solo.home(t), 0u);
}

TEST(ShardMap, RangeIsContiguousAndAffinityGroupsColocate) {
  const ShardMap range(4, ShardStrategy::Range, 42, 0);
  std::uint32_t prev = 0;
  for (std::uint32_t t = 0; t < 0x10000; ++t) {
    const std::uint32_t h = range.home(t);
    ASSERT_GE(h, prev) << "range homes must be monotone in the tenant id";
    prev = h;
  }

  const ShardMap aff(4, ShardStrategy::Affinity, 42, 0);
  for (std::uint32_t group = 0; group < 64; ++group) {
    const std::uint32_t head = aff.home(group << 4);
    for (std::uint32_t i = 1; i < 16; ++i)
      ASSERT_EQ(aff.home((group << 4) | i), head)
          << "tenant group " << group << " must share one server";
  }
}

TEST(ServingFabric, SmallRequestsPassThroughToHomeShard) {
  FabricConfig fc;
  with_fabric(3, fc, [&](FabricClient& c, core::RankEnv&) {
    const std::vector<std::uint8_t> msg{1, 2, 3};
    for (std::uint32_t t = 0; t < 12; ++t) {
      const std::uint64_t id = c.submit(msg, 0, rpc::Class::Latency, t);
      ASSERT_NE(id, 0u);
      const rpc::Completion& done = c.wait(id);
      EXPECT_EQ(done.status, rpc::Status::Ok);
      EXPECT_EQ(done.payload, msg);
    }
    EXPECT_EQ(c.stats().passthrough, 12u);
    EXPECT_EQ(c.stats().stripes, 0u);
    // Every link the map names for these tenants carried its share.
    for (std::uint32_t t = 0; t < 12; ++t)
      EXPECT_GT(c.link(c.shard_map().home(t)).stats().submitted, 0u);
  });
}

TEST(ServingFabric, StripedResponseReassemblesDeterministicPattern) {
  FabricConfig fc;
  with_fabric(4, fc, [&](FabricClient& c, core::RankEnv& env) {
    const auto lib_allocs = [&env] {
      const hugepage::LibraryStats& s = env.lib().stats();
      return s.huge_allocs + s.libc_allocs + s.fallback_allocs;
    };
    const std::uint64_t allocs_before = lib_allocs();
    const std::vector<std::uint8_t> msg{9};
    const std::uint32_t kBulk = 32 * kKiB;
    const std::uint64_t id = c.submit(msg, kBulk, rpc::Class::Bulk, 5);
    ASSERT_NE(id, 0u);
    const rpc::Completion& done = c.wait(id);
    ASSERT_EQ(done.payload.size(), kBulk);
    expect_stripe_payload(done, 5);
    EXPECT_EQ(c.stats().stripes, 1u);
    EXPECT_GE(c.stats().segments, kBulk / fc.rpc.max_payload);
    EXPECT_EQ(c.stats().reassembled_bytes, kBulk);
    // Segment sizing reads the library's chunk without allocating: the
    // one allocation is the buffer the stripe reassembles into.
    EXPECT_EQ(lib_allocs() - allocs_before, 1u);
  });
}

TEST(ServingFabric, SingleServerStripingStillReassembles) {
  FabricConfig fc;
  with_fabric(1, fc, [&](FabricClient& c, core::RankEnv&) {
    const std::vector<std::uint8_t> msg{3};
    const std::uint64_t id = c.submit(msg, 16 * kKiB, rpc::Class::Bulk, 2);
    ASSERT_NE(id, 0u);
    const rpc::Completion& done = c.wait(id);
    ASSERT_EQ(done.payload.size(), 16 * kKiB);
    expect_stripe_payload(done, 2);
  });
}

TEST(ServingFabric, ConcurrentStripesInterleaveAcrossLinks) {
  // Several stripes in flight at once: segments of different stripes
  // complete out of order relative to submission, and the reassembly
  // window must route each to the right buffer.
  FabricConfig fc;
  fc.reassembly_window = 4;
  with_fabric(4, fc, [&](FabricClient& c, core::RankEnv&) {
    std::vector<std::uint64_t> ids;
    std::vector<std::uint32_t> tenants;
    for (std::uint32_t i = 0; i < 10; ++i) {
      const std::uint32_t tenant = i % 7;
      const std::uint64_t id =
          c.submit({}, 24 * kKiB, rpc::Class::Bulk, tenant);
      ASSERT_NE(id, 0u);
      ids.push_back(id);
      tenants.push_back(tenant);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const rpc::Completion& done = c.wait(ids[i]);
      ASSERT_EQ(done.payload.size(), 24 * kKiB);
      expect_stripe_payload(done, tenants[i]);
    }
    EXPECT_EQ(c.stats().stripes, 10u);
  });
}

TEST(ServingFabric, StripesSurviveFaultInjectedLoss) {
  // Packet loss under Repost recovery: the RC transport retransmits, so
  // every segment still lands and the assembled bytes stay exact.
  FabricConfig fc;
  with_fabric(
      4, fc,
      [&](FabricClient& c, core::RankEnv&) {
        std::vector<std::uint64_t> ids;
        for (std::uint32_t i = 0; i < 6; ++i) {
          const std::uint64_t id =
              c.submit({}, 16 * kKiB, rpc::Class::Bulk, i);
          ASSERT_NE(id, 0u);
          ids.push_back(id);
        }
        for (std::uint32_t i = 0; i < 6; ++i) {
          const rpc::Completion& done = c.wait(ids[i]);
          ASSERT_EQ(done.payload.size(), 16 * kKiB);
          expect_stripe_payload(done, i);
        }
      },
      "drop=*-*:0.02;seed=5");
}

TEST(ServingFabric, OneServerFabricMatchesBareRpcByteForByte) {
  // The golden-equivalence contract: an un-striped 1-server fabric is a
  // transparent wrapper — same completion trace hash, same virtual span.
  loadgen::Workload w;
  w.request_bytes = 128;
  w.response_bytes = 256;
  w.tenants = 4;
  loadgen::ClosedLoopConfig cc;
  cc.workers = 4;
  cc.requests = 60;
  cc.warmup = 12;
  cc.seed = 17;

  loadgen::GenResult bare;
  {
    core::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.ranks_per_node = 1;
    core::Cluster cluster(cfg);
    cluster.run([&](core::RankEnv& env) {
      mpi::CommConfig mc;
      mc.sge_gather = true;
      mpi::Comm comm(env, mc);
      rpc::RpcConfig rc;
      if (env.rank() != 0) {
        rpc::RpcServer server(comm, {0}, rc);
        server.serve();
        return;
      }
      rpc::RpcClient client(comm, 1, rc);
      bare = loadgen::run_closed_loop(client, w, cc);
      client.close();
    });
  }
  loadgen::GenResult wrapped;
  with_fabric(1, {}, [&](FabricClient& c, core::RankEnv&) {
    wrapped = loadgen::run_closed_loop(c, w, cc);
  });
  EXPECT_EQ(bare.trace_hash, wrapped.trace_hash);
  EXPECT_EQ(bare.span, wrapped.span);
  EXPECT_EQ(bare.ok, wrapped.ok);
}

TEST(ServingFabric, CompletionsAreHandedOverOnce) {
  // A record is held from completion until a caller takes it, and then
  // no longer: find_completion turns null while completed() stays true.
  // A striped payload moves out of the stripe byte-exact, whichever way
  // it is taken.
  with_fabric(4, {}, [&](FabricClient& c, core::RankEnv&) {
    const std::vector<std::uint8_t> msg{8};
    const std::uint64_t a = c.submit({}, 32 * kKiB, rpc::Class::Bulk, 5);
    const std::uint64_t b = c.submit({}, 24 * kKiB, rpc::Class::Bulk, 3);
    const std::uint64_t p = c.submit(msg, 0, rpc::Class::Latency, 1);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    ASSERT_NE(p, 0u);
    const rpc::Completion got = c.wait(a);
    ASSERT_EQ(got.payload.size(), 32 * kKiB);
    expect_stripe_payload(got, 5);
    EXPECT_EQ(c.find_completion(a), nullptr) << "wait(id) takes the record";
    EXPECT_TRUE(c.completed(a));
    std::vector<rpc::Completion> taken;
    while (taken.size() < 2) {
      c.wait_some();
      for (rpc::Completion& done : c.take_completions())
        taken.push_back(std::move(done));
    }
    ASSERT_EQ(taken.size(), 2u) << "a record wait() took is not taken again";
    for (const rpc::Completion& done : taken) {
      EXPECT_EQ(c.find_completion(done.id), nullptr);
      EXPECT_TRUE(c.completed(done.id));
      if (done.id == b) {
        ASSERT_EQ(done.payload.size(), 24 * kKiB);
        expect_stripe_payload(done, 3);
      } else {
        EXPECT_EQ(done.id, p);
        EXPECT_EQ(done.payload, msg);
      }
    }
    EXPECT_TRUE(c.take_completions().empty());
    EXPECT_FALSE(c.completed(p + 1)) << "never issued";
  });
}

TEST(ServingFabric, SingleLinkWaitSkipsOtherUntakenRecords) {
  // On one link, a wait for a second request finds the first one's record
  // untaken: it must block for its own record, not return at once and
  // spin without ever advancing virtual time.
  with_fabric(1, {}, [&](FabricClient& c, core::RankEnv&) {
    const std::vector<std::uint8_t> first{1};
    const std::vector<std::uint8_t> second{2, 2};
    const std::uint64_t a = c.submit(first);
    ASSERT_NE(a, 0u);
    c.wait_some();
    ASSERT_NE(c.find_completion(a), nullptr);
    const std::uint64_t b = c.submit(second);
    ASSERT_NE(b, 0u);
    EXPECT_EQ(c.wait(b).payload, second);
    EXPECT_EQ(c.wait(a).payload, first);
  });
}

TEST(ServingFabric, WaitFailsFastOnAnIdNotOutstanding) {
  for (std::uint32_t servers : {1u, 2u}) {
    with_fabric(servers, {}, [](FabricClient& c, core::RankEnv&) {
      test::expect_wait_fails_fast(c, "fabric");
    });
  }
}

// ---------------------------------------------------------------------------
// Failure recovery

/// Like with_fabric, but servers count application executions of real
/// (non-probe) requests and report what the crashed process discarded,
/// and the hub's JSONL stream is captured when tracing is on — the
/// instrumentation the exactly-once assertions need.
struct FailoverOut {
  std::vector<std::uint64_t> served;     // handler executions, by rank
  std::vector<std::uint64_t> discarded;  // crash-discarded, by rank
  std::string trace_jsonl;
};

void with_failover_fabric(
    std::uint32_t servers, const FabricConfig& fc,
    const std::string& fault_spec,
    const std::function<void(FabricClient&, core::RankEnv&)>& client_fn,
    FailoverOut* out = nullptr, bool trace = false) {
  core::ClusterConfig cfg;
  cfg.nodes = static_cast<int>(servers) + 1;
  cfg.ranks_per_node = 1;
  if (!fault_spec.empty()) cfg.fault = fault::parse_fault_plan(fault_spec);
  if (trace) cfg.request_trace.enabled = true;
  core::Cluster cluster(cfg);
  std::vector<std::uint64_t> served(cfg.nodes, 0);
  std::vector<std::uint64_t> discarded(cfg.nodes, 0);
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mc.recovery = mpi::CommConfig::Recovery::Repost;
    mpi::Comm comm(env, mc);
    if (env.rank() != 0) {
      const std::size_t me = static_cast<std::size_t>(env.rank());
      const rpc::Handler echo = rpc::default_handler();
      const rpc::Handler counting = [&served, me, &echo](
                                        const rpc::RequestView& rq,
                                        std::uint8_t* buf,
                                        std::uint32_t cap) {
        if (rq.payload_len > 0) ++served[me];  // health probes are empty
        return echo(rq, buf, cap);
      };
      FabricServer server(comm, {0}, fc, counting);
      server.serve();
      discarded[me] = server.stats().discarded;
      return;
    }
    std::vector<int> ranks;
    for (std::uint32_t s = 1; s <= servers; ++s)
      ranks.push_back(static_cast<int>(s));
    FabricClient client(comm, ranks, fc);
    client_fn(client, env);
    client.close();
  });
  if (out != nullptr) {
    out->served = served;
    out->discarded = discarded;
    if (trace && cluster.request_tracer() != nullptr) {
      std::ostringstream os;
      cluster.request_tracer()->write_jsonl(os);
      out->trace_jsonl = os.str();
    }
  }
}

FabricConfig failover_config() {
  FabricConfig fc;
  fc.fail_after = 2;
  // Above the first-touch warmup (~2 ms to the first completion), so a
  // slow cold server is never mistaken for a dead one.
  fc.rpc.request_timeout = us(4000);
  fc.rpc.max_retries = 0;
  fc.probe_backoff = us(1000);
  fc.probe_backoff_max = us(8000);
  return fc;
}

/// Largest "failovers" value in the hub's JSONL stream.
std::uint32_t max_traced_failovers(const std::string& jsonl) {
  std::uint32_t best = 0;
  const std::string key = "\"failovers\": ";
  for (std::size_t p = jsonl.find(key); p != std::string::npos;
       p = jsonl.find(key, p + key.size())) {
    best = std::max(best, static_cast<std::uint32_t>(std::atoi(
                              jsonl.c_str() + p + key.size())));
  }
  return best;
}

TEST(FabricFailover, CrashedServerFailsOverExactlyOnce) {
  // One of two servers dies mid-run. Every request must still complete
  // Ok — rerouted across the epoch bump — and the application handler
  // must run exactly once per request: the corpse discards what it
  // accepted but never served, the survivor executes the rerouted copy,
  // and link-level dedupe would drop any late original.
  const FabricConfig fc = failover_config();
  FailoverOut out;
  FabricClientStats stats;
  std::uint32_t epoch = 0;
  std::uint32_t total = 0;
  with_failover_fabric(
      2, fc, "crash=1@2500",
      [&](FabricClient& c, core::RankEnv&) {
        const std::vector<std::uint8_t> msg{1, 2, 3};
        const auto roundtrip = [&](std::uint32_t i) {
          const std::uint64_t id =
              c.submit(msg, 0, rpc::Class::Latency, i % 6);
          ASSERT_NE(id, 0u);
          const rpc::Completion& done = c.wait(id);
          ASSERT_EQ(done.status, rpc::Status::Ok)
              << "request " << i << " lost across the failover";
          ASSERT_EQ(done.payload, msg);
        };
        // Serve traffic through the crash until the monitor declares it.
        std::uint32_t n = 0;
        while (c.stats().failovers == 0) {
          ASSERT_LT(n, 1000u) << "failover never detected";
          roundtrip(n);
          if (testing::Test::HasFatalFailure()) return;
          ++n;
        }
        // A dozen more rides on the new epoch.
        for (std::uint32_t i = 0; i < 12; ++i, ++n) {
          roundtrip(n);
          if (testing::Test::HasFatalFailure()) return;
        }
        c.drain();
        total = n;
        stats = c.stats();
        epoch = c.shard_map().epoch();
        EXPECT_EQ(c.link_health(0), LinkHealth::Dead);
      },
      &out, /*trace=*/true);
  ASSERT_GT(total, 0u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_GE(stats.rerouted, 1u);
  EXPECT_EQ(epoch, 1u);
  // Exactly-once: total application executions equal completed requests.
  EXPECT_EQ(out.served[1] + out.served[2], total);
  EXPECT_GT(out.served[1], 0u) << "some requests ran before the crash";
  EXPECT_GT(out.discarded[1], 0u) << "the corpse must discard, not serve";
  // The hub recorded the failover hop(s) of the rerouted request.
  EXPECT_GE(max_traced_failovers(out.trace_jsonl), 1u);
}

TEST(FabricFailover, BrownoutReadmitsAfterRecovery) {
  FabricConfig fc = failover_config();
  fc.probe_backoff_max = us(4000);  // probe often enough to catch recovery
  FabricClientStats stats;
  std::uint32_t epoch = 0;
  std::array<LinkHealth, 2> health{};
  // Crash lands after warmup; detection needs two 4 ms losses (~10.5 ms);
  // the server recovers at 12 ms and the doubling probe finds it shortly
  // after. Traffic keeps flowing well past that so regular completions
  // can walk the readmitted link back to Healthy.
  with_failover_fabric(
      2, fc, "crash=1@2500; recover=1@12000",
      [&](FabricClient& c, core::RankEnv& env) {
        const std::vector<std::uint8_t> msg{7};
        std::uint32_t i = 0;
        while (env.now() < us(18000) || i < 60) {
          const std::uint64_t id =
              c.submit(msg, 0, rpc::Class::Latency, i % 6);
          ASSERT_NE(id, 0u);
          ASSERT_EQ(c.wait(id).status, rpc::Status::Ok);
          ++i;
        }
        c.drain();
        stats = c.stats();
        epoch = c.shard_map().epoch();
        health = {c.link_health(0), c.link_health(1)};
      });
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.readmissions, 1u);
  EXPECT_GT(stats.probes, 0u);
  EXPECT_EQ(epoch, 2u) << "exclude + readmit = two handoffs";
  EXPECT_EQ(health[0], LinkHealth::Healthy)
      << "post-readmission traffic must mark the link healthy again";
  EXPECT_EQ(health[1], LinkHealth::Healthy);
}

TEST(FabricFailover, StripedSegmentsRerouteAroundDeadServer) {
  // Bulk responses striped across three servers; one dies. The orphaned
  // segments must be adopted and re-issued on the survivors, and every
  // reassembled payload must still verify byte-for-byte.
  FabricConfig fc = failover_config();
  fc.stripe_width = 3;
  FabricClientStats stats;
  with_failover_fabric(
      3, fc, "crash=2@2500",
      [&](FabricClient& c, core::RankEnv&) {
        std::vector<std::uint64_t> ids;
        std::vector<std::uint32_t> tenants;
        for (std::uint32_t i = 0; i < 8; ++i) {
          const std::uint32_t tenant = i % 5;
          const std::uint64_t id =
              c.submit({}, 24 * kKiB, rpc::Class::Bulk, tenant);
          ASSERT_NE(id, 0u);
          ids.push_back(id);
          tenants.push_back(tenant);
          // Serial: each stripe completes (possibly after a segment
          // reroute) before the next is issued.
          const rpc::Completion& done = c.wait(id);
          ASSERT_EQ(done.status, rpc::Status::Ok);
          ASSERT_EQ(done.payload.size(), 24 * kKiB);
          expect_stripe_payload(done, tenant);
        }
        c.drain();
        stats = c.stats();
      });
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_GE(stats.rerouted, 1u) << "orphaned segments must be re-issued";
}

TEST(FabricFailover, DegradationShedsBulkWhileShortHanded) {
  FabricConfig fc = failover_config();
  fc.readmit = false;  // the kill is permanent; do not probe
  fc.degrade_outstanding = 1;
  FabricClientStats stats;
  with_failover_fabric(
      2, fc, "crash=1@50",
      [&](FabricClient& c, core::RankEnv&) {
        const std::vector<std::uint8_t> msg{4};
        // Drive until the health monitor declares the death.
        for (std::uint32_t i = 0; i < 40 && c.stats().failovers == 0;
             ++i) {
          const std::uint64_t id =
              c.submit(msg, 0, rpc::Class::Latency, i % 6);
          ASSERT_NE(id, 0u);
          (void)c.wait(id);
        }
        ASSERT_EQ(c.stats().failovers, 1u);
        EXPECT_EQ(c.link_health(0), LinkHealth::Dead);
        // Short-handed with work outstanding: Bulk sheds, Latency lands.
        const std::uint64_t lat = c.submit(msg, 0, rpc::Class::Latency, 1);
        ASSERT_NE(lat, 0u);
        const std::uint64_t bulk = c.submit(msg, 256, rpc::Class::Bulk, 2);
        ASSERT_NE(bulk, 0u);
        EXPECT_EQ(c.wait(bulk).status, rpc::Status::Overloaded)
            << "Bulk class must shed before Latency class degrades";
        EXPECT_EQ(c.wait(lat).status, rpc::Status::Ok);
        c.drain();
        stats = c.stats();
      });
  EXPECT_GE(stats.degraded_shed, 1u);
  EXPECT_EQ(stats.failovers, 1u);
}

TEST(FabricFailover, WaitFailsFastOnAnIdNotOutstanding) {
  with_failover_fabric(2, failover_config(), "",
                       [](FabricClient& c, core::RankEnv&) {
                         test::expect_wait_fails_fast(c, "fabric");
                       });
}

TEST(ServingFabric, StripedClosedLoopReplayIsDeterministic) {
  loadgen::Workload w;
  w.request_bytes = 64;
  w.tenants = 8;
  w.bulk_fraction = 1.0;
  w.bulk_response_bytes = 32 * kKiB;
  loadgen::ClosedLoopConfig cc;
  cc.workers = 4;
  cc.requests = 24;
  cc.warmup = 6;
  cc.seed = 13;

  loadgen::GenResult runs[2];
  for (auto& run : runs) {
    with_fabric(4, {}, [&](FabricClient& c, core::RankEnv&) {
      run = loadgen::run_closed_loop(c, w, cc);
    });
  }
  EXPECT_EQ(runs[0].trace_hash, runs[1].trace_hash);
  EXPECT_EQ(runs[0].span, runs[1].span);
}

}  // namespace
}  // namespace ibp::fabric
