// EXT-THREAD — extension: server thread scaling under the three QP/CQ
// share modes.
//
// A saturating closed-loop client drives one RPC server whose worker
// pool is swept over T in {1, 2, 4, 8} tracks, once per share mode:
//
//   * shared-locked — all workers post and poll one QP/CQ pair behind a
//     virtual lock: every verb pays lock acquisition, and consecutive
//     posts from different tracks pay the cache-line bounce of the
//     lock + doorbell moving between cores. Throughput flattens as T
//     grows because the verbs path serializes even while service time
//     overlaps.
//   * per-thread-qp — each worker owns a private response ring (QP and
//     slots), so posts never arbitrate; the cost is T x the
//     registration footprint, allocated through the hugepage library.
//   * dispatcher — workers hand finished responses to the dispatcher
//     track at a fixed hand-off cost; only the dispatcher touches the
//     QP, so there is no arbitration and batches aggregate across
//     workers, at the price of the hand-off latency on every response.
//
// Expected ordering at high T: per-thread-qp > dispatcher >
// shared-locked. The bench exits 1 unless that ordering holds at T=4,
// per-thread-qp beats shared-locked there by >= 1.5x, and shared-locked
// is charged lock arbitration; the thread_scale_golden ctest pins the
// --short --json output.
//
// Optional arguments:
//   --short       fewer requests (the ctest golden mode)
//   --json=PATH   also write results as JSON
//   --request-trace-out=PATH  enable per-request tracing; the file holds
//                 the last sweep cell's JSONL stream

#include <cstdio>
#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ibp/loadgen/loadgen.hpp"
#include "ibp/rpc/rpc.hpp"
#include "ibp/telemetry/reqtrace.hpp"

using namespace ibp;

namespace {

std::string g_trace_out;  // --request-trace-out (empty = tracing off)

constexpr std::uint32_t kThreads[] = {1, 2, 4, 8};
constexpr hca::ShareMode kModes[] = {hca::ShareMode::SharedLocked,
                                     hca::ShareMode::PerThreadQp,
                                     hca::ShareMode::Dispatcher};

struct Cell {
  loadgen::GenResult gen;
  rpc::ServerStats server;
  TimePs makespan = 0;
  TimePs qp_contention_ps = 0;
  std::uint64_t cq_poll_contention = 0;
};

constexpr std::uint32_t kClients = 4;

/// One sweep point: rank 0 serves with a T-worker pool in `mode`; four
/// client ranks keep closed-loop workers pending against it, so the
/// server — not any single generator's ingest path — sets the pace.
Cell run_cell(std::uint32_t threads, hca::ShareMode mode,
              std::uint64_t requests) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = 1 + kClients;
  cfg.ranks_per_node = 1;
  if (!g_trace_out.empty()) cfg.request_trace.enabled = true;
  core::Cluster cluster(cfg);
  Cell out;
  loadgen::GenResult gens[kClients];
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mpi::Comm comm(env, mc);
    rpc::RpcConfig rc;
    rc.max_payload = 256;  // right-size the slot rings to the workload
    // Short application service: the verbs path, not the handler, must
    // dominate so the share-mode arbitration costs are what the sweep
    // measures.
    rc.service_base = ns(200);
    rc.service_per_byte_ps = 0;
    rc.server_workers = threads;
    rc.share_mode = mode;
    if (env.rank() == 0) {
      // Per-request WRs on the response path: batching would amortise
      // posting across requests and hide exactly the per-post
      // arbitration cost this sweep measures.
      rc.batching = false;
      std::vector<int> clients(kClients);
      for (std::uint32_t i = 0; i < kClients; ++i)
        clients[i] = static_cast<int>(1 + i);
      rpc::RpcServer server(comm, clients, rc);
      server.serve();
      out.server = server.stats();
      const hca::AdapterStats& ad = env.state().node->adapter.stats();
      out.qp_contention_ps = ad.qp_contention_ps;
      out.cq_poll_contention = ad.cq_poll_contention;
      return;
    }
    // Clients keep request batching on: submission stays cheap per
    // request, so the generator fleet outruns every server config.
    rpc::RpcClient client(comm, 0, rc);
    loadgen::Workload w;
    w.request_bytes = 128;
    loadgen::ClosedLoopConfig cc;
    cc.workers = 8;  // per client rank; 32 total across the fleet
    cc.requests = requests / kClients;
    cc.warmup = requests / (4 * kClients);
    cc.seed = 13 + static_cast<std::uint64_t>(env.rank());
    cc.tracked_workers = true;  // honest per-worker submit/wait tracks
    out.gen = loadgen::run_closed_loop(client, w, cc);
    gens[env.rank() - 1] = out.gen;
    client.close();
  });
  // Aggregate the fleet: total completions over the widest client span.
  out.gen = {};
  for (const loadgen::GenResult& g : gens) {
    out.gen.issued += g.issued;
    out.gen.ok += g.ok;
    out.gen.shed += g.shed;
    out.gen.rejected += g.rejected;
    out.gen.trace_hash ^= g.trace_hash;
    out.gen.latency_ns.merge(g.latency_ns);
    out.gen.span = std::max(out.gen.span, g.span);
  }
  out.makespan = cluster.makespan();
  if (!g_trace_out.empty()) {
    // Overwrite each cell; the last sweep cell's stream wins.
    std::ofstream tout(g_trace_out);
    if (cluster.request_tracer() != nullptr)
      cluster.request_tracer()->write_jsonl(tout);
  }
  return out;
}

double rps(const Cell& c) { return c.gen.achieved_rps(); }

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
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
  const std::uint64_t requests = short_mode ? 1200 : 4800;

  std::printf("EXT-THREAD — worker tracks vs QP/CQ share mode\n\n");
  std::printf("  %-14s", "T");
  for (std::uint32_t t : kThreads) std::printf("  %10u", t);
  std::printf("\n");

  Cell cells[3][4];
  for (std::size_t m = 0; m < 3; ++m) {
    std::printf("  %-14s", hca::share_mode_name(kModes[m]));
    for (std::size_t ti = 0; ti < 4; ++ti) {
      cells[m][ti] = run_cell(kThreads[ti], kModes[m], requests);
      std::printf("  %7.0f k/s", rps(cells[m][ti]) / 1e3);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  const double t4_speedup =
      rps(cells[0][2]) > 0 ? rps(cells[1][2]) / rps(cells[0][2]) : 0.0;
  std::printf(
      "\n  per-thread-qp vs shared-locked at T=4: %.2fx "
      "(contention charged: %.1f us, %llu cq polls)\n",
      t4_speedup,
      static_cast<double>(cells[0][2].qp_contention_ps) / 1e6,
      static_cast<unsigned long long>(cells[0][2].cq_poll_contention));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_thread_scale\",\n  \"requests\": "
        << requests << ",\n  \"client_ranks\": " << kClients
        << ", \"client_workers\": 32,\n  \"modes\": {";
    for (std::size_t m = 0; m < 3; ++m) {
      out << (m == 0 ? "\n" : ",\n") << "    \""
          << hca::share_mode_name(kModes[m]) << "\": {";
      for (std::size_t ti = 0; ti < 4; ++ti) {
        const Cell& c = cells[m][ti];
        char hash[32];
        std::snprintf(hash, sizeof(hash), "0x%016llx",
                      static_cast<unsigned long long>(c.gen.trace_hash));
        out << (ti == 0 ? "\n" : ",\n") << "      \"t" << kThreads[ti]
            << "\": {\"ok\": " << c.gen.ok << ", \"shed\": " << c.gen.shed
            << ", \"achieved_rps\": "
            << static_cast<std::uint64_t>(rps(c))
            << ", \"p99_us\": " << c.gen.latency_ns.p99() / 1000.0
            << ", \"makespan_us\": " << c.makespan / 1000000.0
            << ",\n             \"qp_contention_us\": "
            << static_cast<double>(c.qp_contention_ps) / 1e6
            << ", \"cq_poll_contention\": " << c.cq_poll_contention
            << ", \"resp_batches\": " << c.server.resp_batches
            << ", \"trace_hash\": \"" << hash << "\"}";
      }
      out << "\n    }";
    }
    out << "\n  },\n  \"t4_speedup_perthread_vs_shared\": " << t4_speedup
        << "\n}\n";
  }

  // Share-mode floors at T=4 (column 2).
  int rc = 0;
  if (t4_speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: T=4 per-thread-qp/shared-locked %.2fx < 1.5x\n",
                 t4_speedup);
    rc = 1;
  }
  if (cells[0][2].qp_contention_ps == 0) {
    std::fprintf(stderr,
                 "FAIL: shared-locked at T=4 charged no lock arbitration\n");
    rc = 1;
  }
  if (!(rps(cells[1][2]) > rps(cells[2][2]) &&
        rps(cells[2][2]) > rps(cells[0][2]))) {
    std::fprintf(stderr,
                 "FAIL: T=4 order is not per-thread-qp > dispatcher > "
                 "shared-locked (%.0f, %.0f, %.0f req/s)\n",
                 rps(cells[1][2]), rps(cells[2][2]), rps(cells[0][2]));
    rc = 1;
  }
  return rc;
}
