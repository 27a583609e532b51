#include "ibp/telemetry/reqtrace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ibp/core/cluster.hpp"
#include "ibp/fabric/fabric.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/loadgen/loadgen.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/rpc/rpc.hpp"
#include "ibp/sim/tracer.hpp"

namespace ibp::telemetry {
namespace {

core::ClusterConfig traced_cluster(int nodes) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.ranks_per_node = 1;
  cfg.request_trace.enabled = true;
  return cfg;
}

/// Closed-loop rpc run against a T-worker server; returns the generator
/// result, leaving the cluster (and its hub) alive in `cluster`.
loadgen::GenResult run_rpc_closed(core::Cluster& cluster,
                                  std::uint32_t server_workers,
                                  std::uint32_t gen_workers,
                                  std::uint64_t requests,
                                  std::uint64_t warmup) {
  loadgen::GenResult gen;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mpi::Comm comm(env, mc);
    rpc::RpcConfig rc;
    rc.max_payload = 256;
    rc.server_workers = server_workers;
    if (env.rank() == 0) {
      rpc::RpcServer server(comm, {1}, rc);
      server.serve();
      return;
    }
    rpc::RpcClient client(comm, 0, rc);
    loadgen::Workload w;
    w.request_bytes = 128;
    loadgen::ClosedLoopConfig cc;
    cc.workers = gen_workers;
    cc.requests = requests;
    cc.warmup = warmup;
    cc.seed = 11;
    gen = loadgen::run_closed_loop(client, w, cc);
    client.close();
  });
  return gen;
}

/// Closed-loop striped bulk traffic against `servers` fabric ranks.
loadgen::GenResult run_fabric_closed(core::Cluster& cluster, int servers,
                                     std::uint64_t requests) {
  loadgen::GenResult gen;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mpi::Comm comm(env, mc);
    fabric::FabricConfig fc;
    fc.stripe_width = static_cast<std::uint32_t>(servers);
    if (env.rank() != 0) {
      fabric::FabricServer server(comm, {0}, fc);
      server.serve();
      return;
    }
    std::vector<int> ranks;
    for (int s = 1; s <= servers; ++s) ranks.push_back(s);
    fabric::FabricClient client(comm, ranks, fc);
    loadgen::Workload w;
    w.request_bytes = 64;
    w.tenants = 4;
    w.bulk_fraction = 1.0;
    w.bulk_response_bytes = 64 * kKiB;
    loadgen::ClosedLoopConfig cc;
    cc.workers = 4;
    cc.requests = requests;
    cc.warmup = requests / 4;
    cc.seed = 13;
    gen = loadgen::run_closed_loop(client, w, cc);
    client.close();
  });
  return gen;
}

// The tiling invariant: each exemplar's stage durations sum exactly to
// its end-to-end latency — queueing vs service vs transfer attribution
// never loses or double-counts a picosecond.
TEST(RequestTrace, RpcStageSpansTileLatencyExactly) {
  core::Cluster cluster(traced_cluster(2));
  const std::uint64_t requests = 600;
  const loadgen::GenResult gen =
      run_rpc_closed(cluster, 4, 8, requests, requests / 4);
  RequestTracer* hub = cluster.request_tracer();
  ASSERT_NE(hub, nullptr);
  // Warmup is muted: only steady-state requests enter the population.
  EXPECT_EQ(hub->finished(), requests);
  EXPECT_EQ(hub->live(), 0u);
  EXPECT_EQ(gen.ok + gen.shed + gen.rejected, requests);

  ASSERT_GT(hub->exemplar_count(), 0u);
  for (const auto& [trace, rec] : hub->exemplars()) {
    TimePs sum = 0;
    TimePs cursor = rec.t0;
    for (const SpanRec& s : rec.spans) {
      EXPECT_EQ(s.start, cursor) << "gap in trace " << trace;
      sum += s.end - s.start;
      cursor = s.end;
    }
    EXPECT_EQ(sum, rec.latency()) << "trace " << trace;
    EXPECT_EQ(cursor, rec.t_end) << "trace " << trace;
  }
  // Every steady-state request passed through the client queue; only
  // accepted ones were served.
  EXPECT_EQ(hub->stage_hist(Stage::ClientQueue).count(), requests);
  EXPECT_EQ(hub->stage_hist(Stage::Service).count(), gen.ok);
  EXPECT_EQ(hub->e2e_hist().count(), requests);
}

// The acceptance bound: on a 4-server T=4 closed-loop run the per-stage
// breakdown (sum over stages of count x mean) matches the end-to-end
// total within 12.5 %. The tiling is exact in ps, so the only slack is
// ps -> ns truncation when folding into the histograms.
TEST(RequestTrace, FabricBreakdownSumsToEndToEnd) {
  core::Cluster cluster(traced_cluster(5));
  const loadgen::GenResult gen = run_fabric_closed(cluster, 4, 120);
  RequestTracer* hub = cluster.request_tracer();
  ASSERT_NE(hub, nullptr);
  EXPECT_GT(gen.ok, 0u);
  // Striped traffic produced fabric-level parents with rpc children.
  EXPECT_GT(hub->stage_hist(Stage::StripeWait).count(), 0u);
  EXPECT_GT(hub->stage_hist(Stage::Fanout).count(), 0u);

  double stage_total = 0.0;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const LogHistogram& h = hub->stage_hist(static_cast<Stage>(i));
    stage_total += static_cast<double>(h.count()) * h.stats().mean();
  }
  const double e2e_total = static_cast<double>(hub->e2e_hist().count()) *
                           hub->e2e_hist().stats().mean();
  ASSERT_GT(e2e_total, 0.0);
  EXPECT_NEAR(stage_total / e2e_total, 1.0, 0.125);

  // Parent records reference their stripe segments, and every child
  // tiles its own latency too.
  bool saw_parent = false;
  for (const auto& [trace, rec] : hub->exemplars()) {
    if (!rec.children.empty()) saw_parent = true;
    TimePs sum = 0;
    for (const SpanRec& s : rec.spans) sum += s.end - s.start;
    EXPECT_EQ(sum, rec.latency()) << "trace " << trace;
  }
  EXPECT_TRUE(saw_parent) << "no striped parent survived tail sampling";
}

// Exemplar memory is a fixed ring: no matter how many requests finish,
// at most slowest_k + error_ring full records are retained.
TEST(RequestTrace, ExemplarMemoryBounded) {
  core::ClusterConfig cfg = traced_cluster(2);
  cfg.request_trace.slowest_k = 4;
  cfg.request_trace.error_ring = 2;
  core::Cluster cluster(cfg);
  const std::uint64_t requests = 800;
  (void)run_rpc_closed(cluster, 2, 8, requests, 0);
  RequestTracer* hub = cluster.request_tracer();
  ASSERT_NE(hub, nullptr);
  EXPECT_EQ(hub->finished(), requests);
  EXPECT_LE(hub->exemplar_count(), 4u + 2u);
  std::size_t slowest = 0;
  for (const auto& [trace, rec] : hub->exemplars())
    slowest += rec.in_slowest ? 1 : 0;
  EXPECT_EQ(slowest, 4u);
}

// Bit-inertness: tracing must not move a single event in virtual time.
// The same workload with the hub on and off produces the same request
// interleaving (trace hash), the same span, and the same makespan.
TEST(RequestTrace, TracingIsTimingInert) {
  loadgen::GenResult gen[2];
  TimePs makespan[2];
  for (int traced = 0; traced < 2; ++traced) {
    core::ClusterConfig cfg = traced_cluster(2);
    cfg.request_trace.enabled = traced != 0;
    core::Cluster cluster(cfg);
    gen[traced] = run_rpc_closed(cluster, 4, 8, 400, 100);
    makespan[traced] = cluster.makespan();
    EXPECT_EQ(cluster.request_tracer() != nullptr, traced != 0);
  }
  EXPECT_EQ(gen[0].trace_hash, gen[1].trace_hash);
  EXPECT_EQ(gen[0].span, gen[1].span);
  EXPECT_EQ(makespan[0], makespan[1]);
}

// The JSONL stream is byte-reproducible across identical runs.
TEST(RequestTrace, JsonlStreamIsDeterministic) {
  auto run_once = [] {
    core::Cluster cluster(traced_cluster(2));
    (void)run_rpc_closed(cluster, 4, 8, 300, 75);
    std::ostringstream os;
    cluster.request_tracer()->write_jsonl(os);
    return os.str();
  };
  const std::string first = run_once();
  EXPECT_NE(first.find("\"type\": \"meta\""), std::string::npos);
  EXPECT_NE(first.find("\"type\": \"request\""), std::string::npos);
  EXPECT_NE(first.find("\"type\": \"stages\""), std::string::npos);
  EXPECT_EQ(first, run_once());

  // One meta and one stages record; every request record has the full
  // exemplar schema.
  std::map<std::string, int> types;
  std::istringstream lines(first);
  for (std::string line; std::getline(lines, line);) {
    const std::string tag = "{\"type\": \"";
    ASSERT_EQ(line.rfind(tag, 0), 0u) << line;
    const std::string type =
        line.substr(tag.size(), line.find('"', tag.size()) - tag.size());
    ++types[type];
    if (type == "request") {
      for (const char* field :
           {"trace", "parent", "origin", "tenant", "cls", "status", "retries",
            "exemplar", "t0_ps", "latency_ps", "arbitration_ps", "spans"}) {
        std::string key = "\"";
        key += field;
        key += "\": ";
        EXPECT_NE(line.find(key), std::string::npos) << field;
      }
    } else if (type == "stages") {
      EXPECT_NE(line.find("{\"stage\": \"service\""), std::string::npos);
      EXPECT_NE(line.find("{\"stage\": \"net_request\""), std::string::npos);
    }
  }
  EXPECT_EQ(types["meta"], 1);
  EXPECT_EQ(types["stages"], 1);
  EXPECT_GT(types["request"], 0);
}

// SLO burn counters: with an impossible latency target every steady-state
// completion burns one unit for its (tenant, class).
TEST(RequestTrace, SloBurnCountersFire) {
  core::ClusterConfig cfg = traced_cluster(2);
  cfg.request_trace.slo_latency = 1;  // 1 ps: everything misses
  cfg.request_trace.slo_bulk = 1;
  core::Cluster cluster(cfg);
  const std::uint64_t requests = 200;
  (void)run_rpc_closed(cluster, 2, 4, requests, 0);
  double burned = 0.0;
  const MetricsSnapshot snap = cluster.metrics().snapshot();
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const std::string name(snap.name(i));
    if (name.rfind("rpc.slo.", 0) == 0) burned += snap.value(i);
  }
  EXPECT_DOUBLE_EQ(burned, static_cast<double>(requests));
}

// The hub's quantile probes surface stage and end-to-end percentiles in
// the pull-metrics plane, beside the shared-locked server's contention
// probe.
TEST(RequestTrace, LatencyQuantileProbesAreLive) {
  core::Cluster cluster(traced_cluster(2));
  (void)run_rpc_closed(cluster, 2, 4, 300, 0);
  EXPECT_GT(cluster.metrics().value("rpc.latency.p99_us"), 0.0);
  EXPECT_GE(cluster.metrics().value("rpc.latency.p99_us"),
            cluster.metrics().value("rpc.latency.p50_us"));
  EXPECT_GT(cluster.metrics().value("rpc.stage.service.p50_us"), 0.0);
  EXPECT_GT(cluster.metrics().value("rpc.trace.finished"), 0.0);
  EXPECT_GT(cluster.metrics().value("hca.cq_poll_contention_ps"), 0.0);
}

// Satellite: the flow-event pairing guarantee ("s"/"f" exactly once per
// flow id, retransmissions included) extends across the fabric stripe
// path, and the hub's Chrome async spans pair "b"/"e" one-to-one.
TEST(RequestTrace, FlowAndAsyncEventsPairAcrossFaultedStripes) {
  core::ClusterConfig cfg = traced_cluster(3);
  cfg.enable_tracing = true;
  cfg.fault = fault::parse_fault_plan("drop=*-*:0.02;seed=5");
  core::Cluster cluster(cfg);
  (void)run_fabric_closed(cluster, 2, 64);
  std::uint64_t retransmits = 0;
  for (int n = 0; n < cluster.nodes(); ++n)
    retransmits += cluster.node(n).adapter.stats().retransmits;
  EXPECT_GT(retransmits, 0u) << "fault plan exercised no retransmissions";

  std::map<std::uint64_t, int> opens, closes;
  std::map<std::pair<std::uint64_t, std::string>, int> abegin, aend;
  for (const auto& e : cluster.tracer()->events()) {
    switch (e.kind) {
      case sim::Tracer::Kind::FlowStart: ++opens[e.flow_id]; break;
      case sim::Tracer::Kind::FlowEnd: ++closes[e.flow_id]; break;
      case sim::Tracer::Kind::AsyncBegin:
        ++abegin[{e.flow_id, e.name}];
        break;
      case sim::Tracer::Kind::AsyncEnd:
        ++aend[{e.flow_id, e.name}];
        break;
      default: break;
    }
  }
  EXPECT_GT(opens.size(), 0u);
  EXPECT_EQ(opens.size(), closes.size());
  for (const auto& [id, n] : opens) {
    EXPECT_EQ(n, 1) << "flow " << id << " opened " << n << " times";
    EXPECT_EQ(closes[id], 1) << "flow " << id;
  }
  EXPECT_GT(abegin.size(), 0u) << "no async request spans emitted";
  EXPECT_EQ(abegin, aend);
}

}  // namespace
}  // namespace ibp::telemetry
