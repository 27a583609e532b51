// EXT-FABRIC — extension: the sharded serving fabric scaled across
// server ranks.
//
// A FabricClient drives closed-loop bulk traffic whose responses exceed
// the stripe threshold, so every response is split into stripe-segment
// chunks fanned out over the server fleet and reassembled client-side.
// The per-byte serving cost (shard-arena reads, response staging, eager
// transport) lives on the server ranks' virtual timelines, so doubling
// the fleet parallelises it while the client pays only its reassembly
// pass — the multi-rail argument: many QPs carry one payload.
//
// Two sweeps and one contract:
//   * scale  — 1 -> 8 server ranks at a fixed stripe width, asserting
//     >= 2x bulk-response throughput at 4 servers vs 1,
//   * width  — stripe width 1 -> 4 on a fixed 4-server fleet,
//   * golden — a 1-server fabric carrying un-striped traffic must be
//     byte-identical (trace hash and span) to the plain RpcServer path.
//
// Deterministic: identical seeds produce byte-identical output; the
// fabric_scale_golden and fabric_crash_golden ctests pin --short --json.
//
// Optional arguments:
//   --shard-map=STRAT       hash | range | affinity (default hash)
//   --fault=SPEC            fault-plan DSL applied to the sweep runs
//                           (the golden pair always runs fault-free);
//                           a plan with crash directives arms the
//                           client health monitor
//   --fault-file=PATH       fault plan from a file (appended to --fault)
//   --recovery=MODE         failfast | repost transport recovery
//   --short                 fewer requests (the ctest golden mode)
//   --json=PATH             also write results as JSON
//   --request-trace-out=PATH  enable per-request tracing; the file holds
//                           the last sweep run's JSONL stream

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ibp/fabric/fabric.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/loadgen/loadgen.hpp"
#include "ibp/telemetry/reqtrace.hpp"

using namespace ibp;

namespace {

constexpr std::uint32_t kBulkBytes = 64 * kKiB;  // striped response size

std::string g_trace_out;  // --request-trace-out (empty = tracing off)
fault::FaultPlan g_plan;  // --fault / --fault-file (sweep runs only)
bool g_repost = false;    // --recovery=repost

struct RunOut {
  loadgen::GenResult gen;
  fabric::FabricClientStats fab;
  rpc::ClientStats links;
  std::uint32_t servers = 0;
  std::uint32_t width = 0;
  std::uint32_t epoch = 0;
  double shed_total_metric = 0.0;

  double bulk_mbps() const {
    return gen.span > 0 ? static_cast<double>(fab.reassembled_bytes) * 1e12 /
                              static_cast<double>(gen.span) / 1e6
                        : 0.0;
  }
};

core::ClusterConfig cluster_config(int servers, bool faulted) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = servers + 1;  // rank 0 is the client
  cfg.ranks_per_node = 1;
  if (faulted) cfg.fault = g_plan;
  if (!g_trace_out.empty()) cfg.request_trace.enabled = true;
  return cfg;
}

fabric::FabricConfig fabric_config(std::uint32_t width,
                                   fabric::ShardStrategy strategy) {
  fabric::FabricConfig fc;
  fc.stripe_threshold = 8 * kKiB;
  fc.stripe_width = width;
  fc.shard_strategy = strategy;
  if (!g_plan.crashes.empty()) {
    // A crash directive arms the health monitor: requests that the dead
    // server black-holes must time out and fail over instead of hanging
    // the closed loop forever.
    fc.fail_after = 2;
    fc.rpc.request_timeout = us(4000);
    fc.rpc.max_retries = 1;
  }
  return fc;
}

/// Closed-loop bulk traffic against `servers` ranks, striped `width` wide.
RunOut run_fabric(std::uint32_t servers, std::uint32_t width,
                  std::uint64_t requests, fabric::ShardStrategy strategy) {
  core::Cluster cluster(cluster_config(static_cast<int>(servers), true));
  RunOut out;
  out.servers = servers;
  out.width = width;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    if (g_repost) mc.recovery = mpi::CommConfig::Recovery::Repost;
    mpi::Comm comm(env, mc);
    const fabric::FabricConfig fc = fabric_config(width, strategy);
    if (env.rank() != 0) {
      fabric::FabricServer server(comm, {0}, fc);
      server.serve();
      return;
    }
    std::vector<int> ranks;
    for (std::uint32_t s = 1; s <= servers; ++s)
      ranks.push_back(static_cast<int>(s));
    fabric::FabricClient client(comm, ranks, fc);
    loadgen::Workload w;
    w.request_bytes = 64;
    w.tenants = 8;
    w.bulk_fraction = 1.0;  // every request is a striped bulk read
    w.bulk_response_bytes = kBulkBytes;
    loadgen::ClosedLoopConfig cc;
    cc.workers = 4;
    cc.requests = requests;
    cc.warmup = requests / 4;
    cc.seed = 13;
    out.gen = loadgen::run_closed_loop(client, w, cc);
    out.fab = client.stats();
    out.links = client.link_stats();
    out.epoch = client.shard_map().epoch();
    client.close();
  });
  out.shed_total_metric = cluster.metrics().value("rpc.shed_total");
  if (!g_trace_out.empty()) {
    // Overwrite each sweep point; the last run's stream wins (the golden
    // pair below does not touch the file).
    std::ofstream tout(g_trace_out);
    if (cluster.request_tracer() != nullptr)
      cluster.request_tracer()->write_jsonl(tout);
  }
  return out;
}

struct GoldenOut {
  loadgen::GenResult rpc;
  loadgen::GenResult fab;
};

/// Golden-equivalence: identical un-striped workload through the plain
/// RpcClient/RpcServer pair and through a 1-server fabric. The fabric
/// must be a transparent wrapper: same trace hash, same virtual span.
GoldenOut run_golden(std::uint64_t requests) {
  GoldenOut out;
  loadgen::Workload w;
  w.request_bytes = 128;
  w.response_bytes = 256;
  w.tenants = 4;
  loadgen::ClosedLoopConfig cc;
  cc.workers = 4;
  cc.requests = requests;
  cc.warmup = requests / 4;
  cc.seed = 17;

  {
    core::Cluster cluster(cluster_config(1, false));
    cluster.run([&](core::RankEnv& env) {
      mpi::CommConfig mc;
      mc.sge_gather = true;
      mpi::Comm comm(env, mc);
      rpc::RpcConfig rc;  // = FabricConfig{}.rpc
      if (env.rank() != 0) {
        rpc::RpcServer server(comm, {0}, rc);
        server.serve();
        return;
      }
      rpc::RpcClient client(comm, 1, rc);
      out.rpc = loadgen::run_closed_loop(client, w, cc);
      client.close();
    });
  }
  {
    core::Cluster cluster(cluster_config(1, false));
    cluster.run([&](core::RankEnv& env) {
      mpi::CommConfig mc;
      mc.sge_gather = true;
      mpi::Comm comm(env, mc);
      const fabric::FabricConfig fc;
      if (env.rank() != 0) {
        fabric::FabricServer server(comm, {0}, fc);
        server.serve();
        return;
      }
      fabric::FabricClient client(comm, {1}, fc);
      out.fab = loadgen::run_closed_loop(client, w, cc);
      client.close();
    });
  }
  return out;
}

void print_result(const RunOut& r) {
  std::printf(
      "  %u servers x%u  %6llu ok  %4llu shed  %7.1f MB/s  %8.0f req/s  "
      "p50 %8.1f us  p99 %8.1f us  %5llu skips\n",
      r.servers, r.width, static_cast<unsigned long long>(r.gen.ok),
      static_cast<unsigned long long>(r.gen.shed), r.bulk_mbps(),
      r.gen.achieved_rps(), r.gen.latency_ns.p50() / 1000.0,
      r.gen.latency_ns.p99() / 1000.0,
      static_cast<unsigned long long>(r.fab.adaptive_skips));
}

void json_result(std::ofstream& out, const RunOut& r, const char* indent) {
  char hash[32];
  std::snprintf(hash, sizeof(hash), "0x%016llx",
                static_cast<unsigned long long>(r.gen.trace_hash));
  out << indent << "{\"servers\": " << r.servers
      << ", \"width\": " << r.width << ", \"issued\": " << r.gen.issued
      << ", \"ok\": " << r.gen.ok << ", \"shed\": " << r.gen.shed
      << ", \"rejected\": " << r.gen.rejected << ",\n"
      << indent << " \"achieved_rps\": "
      << static_cast<std::uint64_t>(r.gen.achieved_rps())
      << ", \"bulk_mbps\": " << static_cast<std::uint64_t>(r.bulk_mbps())
      << ", \"p50_us\": " << r.gen.latency_ns.p50() / 1000.0
      << ", \"p95_us\": " << r.gen.latency_ns.p95() / 1000.0
      << ", \"p99_us\": " << r.gen.latency_ns.p99() / 1000.0 << ",\n"
      << indent << " \"stripes\": " << r.fab.stripes
      << ", \"segments\": " << r.fab.segments
      << ", \"reassembled_bytes\": " << r.fab.reassembled_bytes
      << ", \"adaptive_skips\": " << r.fab.adaptive_skips << ",\n"
      << indent << " \"shed_total\": "
      << static_cast<std::uint64_t>(r.shed_total_metric)
      << ", \"credit_stalls\": " << r.links.credit_stalls
      << ", \"retries\": " << r.links.retries;
  if (!g_plan.empty()) {
    // Failover fields only appear on faulted runs, keeping the default
    // fault-free JSON byte-identical to what older runs produced.
    out << ",\n"
        << indent << " \"epoch\": " << r.epoch
        << ", \"failovers\": " << r.fab.failovers
        << ", \"rerouted\": " << r.fab.rerouted
        << ", \"lost\": " << r.gen.timed_out
        << ", \"readmissions\": " << r.fab.readmissions;
  }
  out << ", \"trace_hash\": \"" << hash << "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, shard = "hash";
  std::string fault_spec, fault_file, recovery;
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shard-map=", 12) == 0) {
      shard = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--fault=", 8) == 0) {
      fault_spec = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--fault-file=", 13) == 0) {
      fault_file = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--recovery=", 11) == 0) {
      recovery = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--request-trace-out=", 20) == 0) {
      g_trace_out = argv[i] + 20;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  const auto strategy = fabric::shard_strategy_from_name(shard);
  if (!strategy.has_value()) {
    std::fprintf(stderr, "bad --shard-map (hash|range|affinity)\n");
    return 2;
  }
  if (!fault_file.empty()) {
    std::ifstream in(fault_file);
    if (!in) {
      std::fprintf(stderr, "cannot open fault file %s\n",
                   fault_file.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!fault_spec.empty()) fault_spec += ';';
    fault_spec += ss.str();
  }
  if (!fault_spec.empty()) g_plan = fault::parse_fault_plan(fault_spec);
  if (!recovery.empty()) {
    if (recovery == "repost") {
      g_repost = true;
    } else if (recovery != "failfast") {
      std::fprintf(stderr, "bad --recovery (failfast|repost)\n");
      return 2;
    }
  }

  std::printf("EXT-FABRIC — sharded serving fabric, striped bulk reads\n\n");
  if (!g_plan.empty())
    std::printf("fault plan (sweeps only, golden stays clean): %s\n\n",
                fault::describe(g_plan).c_str());

  const std::uint64_t requests = short_mode ? 48 : 160;
  const std::uint32_t kWidth = 4;
  const std::vector<std::uint32_t> scale =
      short_mode ? std::vector<std::uint32_t>{1, 4}
                 : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::vector<std::uint32_t> widths =
      short_mode ? std::vector<std::uint32_t>{1, 4}
                 : std::vector<std::uint32_t>{1, 2, 4};

  std::printf("scale sweep (%u KiB bulk responses, stripe width %u):\n",
              kBulkBytes / 1024, kWidth);
  std::vector<RunOut> scale_runs;
  double mbps1 = 0, mbps4 = 0;
  for (std::uint32_t s : scale) {
    scale_runs.push_back(run_fabric(s, kWidth, requests, *strategy));
    print_result(scale_runs.back());
    if (s == 1) mbps1 = scale_runs.back().bulk_mbps();
    if (s == 4) mbps4 = scale_runs.back().bulk_mbps();
  }
  const double scaling = mbps1 > 0 ? mbps4 / mbps1 : 0.0;
  std::printf("  4-server scaling: %.2fx\n\n", scaling);

  std::printf("width sweep (4 servers):\n");
  std::vector<RunOut> width_runs;
  for (std::uint32_t wd : widths) {
    width_runs.push_back(run_fabric(4, wd, requests, *strategy));
    print_result(width_runs.back());
  }
  std::printf("\n");

  const GoldenOut golden = run_golden(requests);
  const bool identical = golden.rpc.trace_hash == golden.fab.trace_hash &&
                         golden.rpc.span == golden.fab.span;
  std::printf("golden: rpc 0x%016llx  1-server fabric 0x%016llx  %s\n",
              static_cast<unsigned long long>(golden.rpc.trace_hash),
              static_cast<unsigned long long>(golden.fab.trace_hash),
              identical ? "identical" : "DIVERGED");

  const fabric::ShardMap map(4, *strategy);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016llx",
                  static_cast<unsigned long long>(map.digest()));
    out << "{\n  \"bench\": \"ext_fabric_scale\",\n  \"bulk_bytes\": "
        << kBulkBytes
        << ",\n  \"shard_map\": {\"strategy\": \""
        << fabric::shard_strategy_name(*strategy)
        << "\", \"epoch\": 0, \"digest\": \"" << digest << "\"},\n";
    out << "  \"scale\": [\n";
    for (std::size_t i = 0; i < scale_runs.size(); ++i) {
      json_result(out, scale_runs[i], "    ");
      out << (i + 1 < scale_runs.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"width\": [\n";
    for (std::size_t i = 0; i < width_runs.size(); ++i) {
      json_result(out, width_runs[i], "    ");
      out << (i + 1 < width_runs.size() ? ",\n" : "\n");
    }
    char rh[32], fh[32];
    std::snprintf(rh, sizeof(rh), "0x%016llx",
                  static_cast<unsigned long long>(golden.rpc.trace_hash));
    std::snprintf(fh, sizeof(fh), "0x%016llx",
                  static_cast<unsigned long long>(golden.fab.trace_hash));
    out << "  ],\n  \"scaling_4x\": " << scaling
        << ",\n  \"golden\": {\"rpc_trace\": \"" << rh
        << "\", \"fabric_trace\": \"" << fh << "\", \"identical\": "
        << (identical ? "true" : "false") << "}\n}\n";
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: 1-server fabric diverged from the RpcServer path\n");
    return 1;
  }
  // A seeded fault can legitimately destroy scaling (that is the point
  // of injecting it), so the perf floor only binds fault-free runs.
  if (g_plan.empty() && mbps1 > 0 && scaling < 2.0) {
    std::fprintf(stderr, "FAIL: 4-server scaling %.2fx < 2x\n", scaling);
    return 1;
  }
  return 0;
}
