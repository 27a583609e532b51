// EXT-RDMA — extension: one-sided ring channels against two-sided eager.
//
// Size sweep: half-round-trip latency of small eager messages. The ring
// sender RDMA-writes [header | payload | tail marker] into a persistent
// receiver-owned slab, so the receiver pays no post_recv and no recv-CQ
// poll on the hot path — it polls ring memory and the record is already
// placed. Two-sided eager pays the prepost + recv-CQE + bounce-copy
// chain. The sweep runs on small pages and on a hugepage-backed slab
// (the paper's placement story applied to the ring: fewer ATT entries
// under the slab, cheaper registration, steadier write latency).
//
// RPC closed loop: the response fast path (servers RDMA-write responses
// into client-owned ring slots) against the batched two-sided response
// path, uncontended closed loop, p50/p99 of the same workload.
//
// Deterministic: identical seeds produce byte-identical output (the
// rdma_eager_golden ctest pins the --short JSON). The bench asserts
// its own acceptance floor — rdma-eager must beat two-sided eager on
// small messages and on RPC closed-loop p50 — and exits non-zero if the
// advantage ever regresses.
//
// Optional arguments:
//   --short       fewer iterations (the ctest golden mode)
//   --json=PATH   also write results as JSON

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ibp/loadgen/loadgen.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/rpc/rpc.hpp"

using namespace ibp;

namespace {

/// Half-round-trip latency of a ping-pong at `bytes`, averaged over the
/// measured iterations (after warmup), on rank 1's clock. `ring` selects
/// the rdma-eager tier instead of two-sided eager.
TimePs ping_pong(bool ring, std::uint32_t bytes, bool hugepages, int iters) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.hugepage_library = hugepages;
  core::Cluster cluster(cfg);
  mpi::CommConfig mc;
  mc.rdma_eager = ring;
  const int warmup = 5;
  TimePs dt = 0;
  std::uint64_t ring_sent = 0;
  cluster.run([&](core::RankEnv& env) {
    mpi::Comm comm(env, mc);
    const VirtAddr buf = env.alloc(16 * kKiB);
    env.touch_stream(buf, 16 * kKiB);
    if (env.rank() == 0) {
      for (int i = 0; i < iters + warmup; ++i) {
        comm.send(buf, bytes, 1, i);
        comm.recv(buf, bytes, 1, 1000 + i);
      }
    } else {
      TimePs t0 = 0;
      for (int i = 0; i < iters + warmup; ++i) {
        if (i == warmup) t0 = env.now();
        comm.recv(buf, bytes, 0, i);
        comm.send(buf, bytes, 0, 1000 + i);
      }
      dt = (env.now() - t0) / (2 * static_cast<TimePs>(iters));
    }
    if (env.rank() == 0) ring_sent = comm.stats().rdma_eager_sent;
    comm.barrier();
  });
  if (ring)
    IBP_CHECK(ring_sent > 0, "ring tier enabled but no message rode it");
  return dt;
}

struct RpcOut {
  loadgen::GenResult gen;
  rpc::ServerStats server;
  rpc::ClientStats client;
};

/// Uncontended closed loop, echo-style small responses; the only knob
/// under test is the response path (batched two-sided vs ring writes).
RpcOut run_rpc(bool ring, std::uint64_t requests, bool hugepages) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.hugepage_library = hugepages;
  core::Cluster cluster(cfg);
  RpcOut out;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mpi::Comm comm(env, mc);
    rpc::RpcConfig rc;
    rc.rdma_response = ring;
    rc.max_payload = 256;  // right-size the slot rings to the workload
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
    loadgen::ClosedLoopConfig cc;
    cc.workers = 2;
    cc.requests = requests;
    cc.warmup = requests / 4;
    cc.seed = 11;
    out.gen = loadgen::run_closed_loop(client, w, cc);
    out.client = client.stats();
    client.close();
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  const int iters = short_mode ? 20 : 60;
  const std::uint64_t rpc_n = short_mode ? 1200 : 5000;

  std::printf("EXT-RDMA — one-sided ring channels vs two-sided eager\n\n");

  const std::vector<std::uint32_t> sizes = {64, 256, 1024, 4096, 8192};
  struct Row {
    std::uint32_t bytes;
    TimePs two, ring, ring_huge;
  };
  std::vector<Row> rows;
  std::printf("ping-pong half-round-trip latency (%d iters):\n", iters);
  TextTable t({"size", "two-sided [us]", "rdma-eager [us]", "ring huge [us]",
               "ring vs two-sided"});
  for (std::uint32_t s : sizes) {
    Row r;
    r.bytes = s;
    r.two = ping_pong(false, s, false, iters);
    r.ring = ping_pong(true, s, false, iters);
    r.ring_huge = ping_pong(true, s, true, iters);
    char rel[32];
    std::snprintf(rel, sizeof rel, "%+.1f %%",
                  bench::pct_change(static_cast<double>(r.two),
                                    static_cast<double>(r.ring)));
    t.add_row(bench::human_bytes(s), ps_to_us(r.two), ps_to_us(r.ring),
              ps_to_us(r.ring_huge), std::string(rel));
    rows.push_back(r);
  }
  t.print();
  std::printf("\n(no post_recv and no recv-CQ poll on the ring hot path; "
              "the record is already placed when the poll finds its tail "
              "marker)\n\n");

  const RpcOut off = run_rpc(false, rpc_n, true);
  const RpcOut on = run_rpc(true, rpc_n, true);
  std::printf("RPC closed loop, 128 B echo, 2 workers, hugepage rings:\n");
  const auto rpc_row = [](const char* label, const RpcOut& r) {
    std::printf("  %-14s %6llu ok  %8.0f req/s  p50 %6.2f us  "
                "p99 %6.2f us  ring responses %llu  fallbacks %llu\n",
                label, static_cast<unsigned long long>(r.gen.ok),
                r.gen.achieved_rps(), r.gen.latency_ns.p50() / 1000.0,
                r.gen.latency_ns.p99() / 1000.0,
                static_cast<unsigned long long>(r.server.ring_responses),
                static_cast<unsigned long long>(r.server.ring_fallbacks));
  };
  rpc_row("batched", off);
  rpc_row("ring", on);
  const double p50_gain = on.gen.latency_ns.p50() > 0
                              ? off.gen.latency_ns.p50() /
                                    on.gen.latency_ns.p50()
                              : 0.0;
  std::printf("  response-ring p50 speedup: %.2fx\n\n", p50_gain);

  // Acceptance floor: the one-sided tier must actually win where its
  // mechanism says it should, and the response ring must carry responses
  // only when it is on. A regression fails the bench (and the
  // rdma_eager_golden ctest) outright.
  bool ok = true;
  for (const Row& r : rows) {
    if (r.bytes > 1024) continue;  // small-message floor only
    if (r.ring >= r.two) {
      std::fprintf(stderr,
                   "FLOOR VIOLATION: rdma-eager %llu ps >= two-sided "
                   "%llu ps at %u B\n",
                   static_cast<unsigned long long>(r.ring),
                   static_cast<unsigned long long>(r.two), r.bytes);
      ok = false;
    }
    if (r.ring_huge > r.ring) {
      std::fprintf(stderr,
                   "FLOOR VIOLATION: hugepage ring slower than small-page "
                   "ring at %u B\n",
                   r.bytes);
      ok = false;
    }
  }
  if (on.gen.latency_ns.p50() >= off.gen.latency_ns.p50()) {
    std::fprintf(stderr,
                 "FLOOR VIOLATION: ring response p50 %.2f us >= batched "
                 "p50 %.2f us\n",
                 on.gen.latency_ns.p50() / 1000.0,
                 off.gen.latency_ns.p50() / 1000.0);
    ok = false;
  }
  if (on.server.ring_responses == 0 || off.server.ring_responses != 0) {
    std::fprintf(stderr,
                 "FLOOR VIOLATION: ring responses %llu with the ring on "
                 "(want > 0), %llu with it off (want 0)\n",
                 static_cast<unsigned long long>(on.server.ring_responses),
                 static_cast<unsigned long long>(off.server.ring_responses));
    ok = false;
  }
  std::printf("acceptance floor: %s\n", ok ? "pass" : "FAIL");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_rdma_eager\",\n  \"iters\": " << iters
        << ",\n  \"pingpong\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << (i == 0 ? "\n" : ",\n") << "    {\"bytes\": " << r.bytes
          << ", \"two_sided_ps\": " << r.two << ", \"rdma_eager_ps\": "
          << r.ring << ", \"rdma_eager_huge_ps\": " << r.ring_huge << "}";
    }
    char h0[32], h1[32];
    std::snprintf(h0, sizeof(h0), "0x%016llx",
                  static_cast<unsigned long long>(off.gen.trace_hash));
    std::snprintf(h1, sizeof(h1), "0x%016llx",
                  static_cast<unsigned long long>(on.gen.trace_hash));
    out << "\n  ],\n  \"rpc_closed\": {\n"
        << "    \"batched\": {\"ok\": " << off.gen.ok
        << ", \"achieved_rps\": "
        << static_cast<std::uint64_t>(off.gen.achieved_rps())
        << ", \"p50_us\": " << off.gen.latency_ns.p50() / 1000.0
        << ", \"p99_us\": " << off.gen.latency_ns.p99() / 1000.0
        << ", \"ring_responses\": " << off.server.ring_responses
        << ", \"trace_hash\": \"" << h0 << "\"},\n"
        << "    \"ring\": {\"ok\": " << on.gen.ok << ", \"achieved_rps\": "
        << static_cast<std::uint64_t>(on.gen.achieved_rps())
        << ", \"p50_us\": " << on.gen.latency_ns.p50() / 1000.0
        << ", \"p99_us\": " << on.gen.latency_ns.p99() / 1000.0
        << ", \"ring_responses\": " << on.server.ring_responses
        << ", \"ring_fallbacks\": " << on.server.ring_fallbacks
        << ", \"trace_hash\": \"" << h1 << "\"},\n"
        << "    \"p50_speedup\": " << p50_gain << "\n  },\n"
        << "  \"floor\": \"" << (ok ? "pass" : "fail") << "\"\n}\n";
  }
  return ok ? 0 : 1;
}
