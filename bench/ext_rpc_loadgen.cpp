// EXT-RPC — extension: the RPC serving layer measured with deterministic
// load generators.
//
// Open loop: 128 B requests offered well above capacity, batching on vs
// off. With batching, queued requests coalesce into one gather WR (at
// most mpi::Comm::kMaxSges SGEs), amortising per-WR posting overhead on
// both sides — the §7 scatter/gather argument applied to serving instead
// of MPI datatypes. Off, every request pays its own WR.
//
// Closed loop: a worker pool against a small admission queue. Uncontended
// (few workers) vs 2x overload (workers far beyond saturation): admission
// control sheds the excess with Status::Overloaded, so the p99 of the
// *accepted* requests stays within a small multiple of the uncontended
// p99 instead of growing with the offered load.
//
// Deterministic: identical seeds produce byte-identical output, and the
// rpc_loadgen_t1_golden ctest pins the --short --json output. The bench
// exits 1 when a serving floor breaks (see the end of main).
//
// Optional arguments:
//   --mode=open|closed|all  which experiment (default all)
//   --short                 fewer requests (the ctest golden mode)
//   --json=PATH             also write results as JSON
//   --request-trace-out=PATH  enable per-request tracing; the file holds
//                           the last run's exemplar/stage JSONL stream

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "ibp/loadgen/loadgen.hpp"
#include "ibp/rpc/rpc.hpp"
#include "ibp/telemetry/reqtrace.hpp"

using namespace ibp;

namespace {

constexpr std::uint32_t kClosedQueueCap = 8;

std::string g_trace_out;  // --request-trace-out (empty = tracing off)

/// Overwrite the trace file with this run's stream; the last run wins,
/// matching how --metrics-out snapshots behave elsewhere.
void dump_request_trace(core::Cluster& cluster) {
  if (g_trace_out.empty()) return;
  std::ofstream out(g_trace_out);
  if (cluster.request_tracer() != nullptr)
    cluster.request_tracer()->write_jsonl(out);
}

struct RunOut {
  loadgen::GenResult gen;
  rpc::ServerStats server;
  rpc::ClientStats client;
  double req_per_wr = 0.0;
  double shed_metric = 0.0;  // cluster metric rpc.shed (latched probe)
  double shed_total_metric = 0.0;  // cluster metric rpc.shed_total
};

core::ClusterConfig cluster_config() {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  if (!g_trace_out.empty()) cfg.request_trace.enabled = true;
  return cfg;
}

/// Open loop, offered above capacity: achieved req/s is the serving
/// capacity of the configuration.
RunOut run_open(bool batching, double rate, std::uint64_t requests) {
  core::Cluster cluster(cluster_config());
  RunOut out;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mpi::Comm comm(env, mc);
    rpc::RpcConfig rc;
    rc.batching = batching;
    rc.max_payload = 256;  // right-size the slot rings to the workload
    // Light application work: the transport, not the handler, is the
    // bottleneck under measurement.
    rc.service_base = ns(200);
    rc.service_per_byte_ps = 0;
    if (env.rank() == 0) {
      rpc::RpcServer server(comm, {1}, rc);
      server.serve();
      out.server = server.stats();
      return;
    }
    rpc::RpcClient client(comm, 0, rc);
    loadgen::Workload w;
    w.request_bytes = 128;
    loadgen::OpenLoopConfig oc;
    oc.rate_rps = rate;
    oc.requests = requests;
    // Steady-state measurement: the warmup fills the client queue and
    // first-touches the slot rings, so the pin-down cache is hot before
    // the span starts.
    oc.warmup = requests / 2;
    oc.seed = 7;
    out.gen = loadgen::run_open_loop(client, w, oc);
    const rpc::ClientStats& cs = client.stats();
    out.req_per_wr = cs.batches != 0
                         ? static_cast<double>(cs.batched_requests) /
                               static_cast<double>(cs.batches)
                         : 0.0;
    out.client = cs;
    client.close();
  });
  out.shed_metric = cluster.metrics().value("rpc.shed");
  out.shed_total_metric = cluster.metrics().value("rpc.shed_total");
  dump_request_trace(cluster);
  return out;
}

RunOut run_closed(std::uint32_t workers, std::uint64_t requests) {
  core::Cluster cluster(cluster_config());
  RunOut out;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mpi::Comm comm(env, mc);
    rpc::RpcConfig rc;
    rc.max_payload = 256;      // right-size the slot rings to the workload
    rc.server_queue_cap = kClosedQueueCap;  // small queue: shed early
    if (env.rank() == 0) {
      rpc::RpcServer server(comm, {1}, rc);
      server.serve();
      out.server = server.stats();
      return;
    }
    rpc::RpcClient client(comm, 0, rc);
    loadgen::Workload w;
    w.request_bytes = 128;
    loadgen::ClosedLoopConfig cc;
    cc.workers = workers;
    cc.requests = requests;
    cc.warmup = requests / 4;
    cc.seed = 11;
    out.gen = loadgen::run_closed_loop(client, w, cc);
    const rpc::ClientStats& cs = client.stats();
    out.req_per_wr = cs.batches != 0
                         ? static_cast<double>(cs.batched_requests) /
                               static_cast<double>(cs.batches)
                         : 0.0;
    out.client = cs;
    client.close();
  });
  out.shed_metric = cluster.metrics().value("rpc.shed");
  out.shed_total_metric = cluster.metrics().value("rpc.shed_total");
  dump_request_trace(cluster);
  return out;
}

void print_result(const char* label, const RunOut& r) {
  std::printf(
      "  %-12s %8llu ok  %6llu shed  %6llu rej  %8.0f req/s  "
      "p50 %7.1f us  p99 %7.1f us  %5.1f req/WR\n",
      label, static_cast<unsigned long long>(r.gen.ok),
      static_cast<unsigned long long>(r.gen.shed),
      static_cast<unsigned long long>(r.gen.rejected), r.gen.achieved_rps(),
      r.gen.latency_ns.p50() / 1000.0, r.gen.latency_ns.p99() / 1000.0,
      r.req_per_wr);
}

void json_result(std::ofstream& out, const char* key, const RunOut& r,
                 const char* indent) {
  char hash[32];
  std::snprintf(hash, sizeof(hash), "0x%016llx",
                static_cast<unsigned long long>(r.gen.trace_hash));
  out << indent << "\"" << key << "\": {\"issued\": " << r.gen.issued
      << ", \"ok\": " << r.gen.ok << ", \"shed\": " << r.gen.shed
      << ", \"rejected\": " << r.gen.rejected << ",\n"
      << indent << "  \"achieved_rps\": " << static_cast<std::uint64_t>(
             r.gen.achieved_rps())
      << ", \"p50_us\": " << r.gen.latency_ns.p50() / 1000.0
      << ", \"p95_us\": " << r.gen.latency_ns.p95() / 1000.0
      << ", \"p99_us\": " << r.gen.latency_ns.p99() / 1000.0 << ",\n"
      << indent << "  \"req_per_wr\": " << r.req_per_wr
      << ", \"rpc_shed\": " << static_cast<std::uint64_t>(r.shed_metric)
      << ",\n"
      << indent
      << "  \"shed_total\": " << static_cast<std::uint64_t>(
             r.shed_total_metric)
      << ", \"credit_stalls\": " << r.client.credit_stalls
      << ", \"retries\": " << r.client.retries
      << ", \"trace_hash\": \"" << hash << "\"}";
}

double speedup(const RunOut& batched, const RunOut& unbatched) {
  return unbatched.gen.achieved_rps() > 0
             ? batched.gen.achieved_rps() / unbatched.gen.achieved_rps()
             : 0.0;
}

double p99_ratio(const RunOut& overload, const RunOut& uncont) {
  return uncont.gen.latency_ns.p99() > 0
             ? overload.gen.latency_ns.p99() / uncont.gen.latency_ns.p99()
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "all", json_path;
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      mode = argv[i] + 7;
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
  const bool do_open = mode == "all" || mode == "open";
  const bool do_closed = mode == "all" || mode == "closed";
  if (!do_open && !do_closed) {
    std::fprintf(stderr, "bad --mode (open|closed|all)\n");
    return 2;
  }

  std::printf("EXT-RPC — serving layer under deterministic load\n\n");

  RunOut batched, unbatched, uncont, overload;
  const double rate = 8e6;  // far above capacity: measures capacity
  const std::uint64_t open_n = short_mode ? 1500 : 6000;
  const std::uint64_t closed_n = short_mode ? 1200 : 5000;
  const std::uint32_t w_base = 2, w_over = 32;

  if (do_open) {
    batched = run_open(true, rate, open_n);
    unbatched = run_open(false, rate, open_n);
    std::printf("open loop, 128 B requests offered at %.0fM req/s:\n",
                rate / 1e6);
    print_result("batched", batched);
    print_result("unbatched", unbatched);
    std::printf("  batching speedup: %.2fx\n\n", speedup(batched, unbatched));
  }
  if (do_closed) {
    uncont = run_closed(w_base, closed_n);
    overload = run_closed(w_over, closed_n);
    std::printf("closed loop, admission queue cap %u:\n", kClosedQueueCap);
    print_result("2 workers", uncont);
    print_result("32 workers", overload);
    std::printf("  accepted p99 under overload: %.2fx uncontended\n\n",
                p99_ratio(overload, uncont));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_rpc_loadgen\",\n  \"mode\": \"" << mode
        << "\"";
    if (do_open) {
      out << ",\n  \"open\": {\n    \"offered_rps\": "
          << static_cast<std::uint64_t>(rate) << ",\n";
      json_result(out, "batched", batched, "    ");
      out << ",\n";
      json_result(out, "unbatched", unbatched, "    ");
      out << ",\n    \"speedup\": " << speedup(batched, unbatched)
          << "\n  }";
    }
    if (do_closed) {
      out << ",\n  \"closed\": {\n    \"workers_uncontended\": " << w_base
          << ", \"workers_overload\": " << w_over << ",\n";
      json_result(out, "uncontended", uncont, "    ");
      out << ",\n";
      json_result(out, "overload", overload, "    ");
      out << ",\n    \"p99_ratio\": " << p99_ratio(overload, uncont)
          << "\n  }";
    }
    out << "\n}\n";
  }

  // Serving floors: batching must at least double open-loop capacity, and
  // admission control must shed the overload (counted by both the
  // generator and rpc.shed_total) to keep the accepted p99 within 5x.
  int rc = 0;
  if (do_open && speedup(batched, unbatched) < 2.0) {
    std::fprintf(stderr, "FAIL: batching speedup %.2fx < 2x\n",
                 speedup(batched, unbatched));
    rc = 1;
  }
  if (do_closed &&
      (overload.gen.shed == 0 || overload.shed_total_metric == 0)) {
    std::fprintf(stderr,
                 "FAIL: overload run shed %llu requests, rpc.shed_total "
                 "%.0f; both must be > 0\n",
                 static_cast<unsigned long long>(overload.gen.shed),
                 overload.shed_total_metric);
    rc = 1;
  }
  if (do_closed && p99_ratio(overload, uncont) >= 5.0) {
    std::fprintf(stderr, "FAIL: accepted p99 under overload %.2fx >= 5x\n",
                 p99_ratio(overload, uncont));
    rc = 1;
  }
  return rc;
}
