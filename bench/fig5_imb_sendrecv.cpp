// FIG5 — "Intel MPI Benchmarks on AMD Opteron with Mellanox InfiniHost"
// (paper Figure 5). IMB SendRecv bandwidth over message size in four
// configurations: {small pages, hugepages} x {lazy deregistration off,
// on}.
//
// Paper shape targets:
//   * without lazy deregistration, hugepages dominate small pages by a
//     wide margin (registration collapses to ~1 %) and approach the
//     ~1750 MB/s peak for buffers > 4 MB;
//   * with lazy deregistration, small pages and hugepages are nearly
//     identical on this PCIe platform.

// Optional arguments (absent: the four-configuration table below, byte-
// identical across runs). Either one runs the registration-sensitive
// configuration alone (hugepage library on, lazy deregistration off) and
// records per-size metric deltas:
//   --short             fewer sizes/iterations (the ctest mode)
//   --json=PATH         also write the measured points as JSON

#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_common.hpp"
#include "ibp/workloads/imb.hpp"

using namespace ibp;

namespace {

std::vector<workloads::ImbPoint> run_config(bool hugepages, bool lazy) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.hugepage_library = hugepages;
  cfg.lazy_deregistration = lazy;
  cfg.hugepages_per_node = 512;
  core::Cluster cluster(cfg);
  workloads::ImbConfig icfg;
  icfg.sizes = workloads::imb_default_sizes();
  icfg.iterations = 10;
  return workloads::run_sendrecv(cluster, icfg);
}

struct PhasedRun {
  std::vector<workloads::ImbPoint> pts;
  std::vector<bench::PhaseDelta> phases;  // one per message size
  telemetry::MetricsSnapshot metrics;     // final registry snapshot
};

PhasedRun run_phased(bool short_mode) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  // The registration-sensitive configuration: every rendezvous buffer
  // pays registration, which hugepages make cheap.
  cfg.hugepage_library = true;
  cfg.lazy_deregistration = false;
  cfg.hugepages_per_node = 512;
  core::Cluster cluster(cfg);
  workloads::ImbConfig icfg;
  icfg.sizes = short_mode
                   ? std::vector<std::uint64_t>{64 * kKiB, kMiB}
                   : workloads::imb_default_sizes();
  icfg.iterations = short_mode ? 3 : 10;

  PhasedRun run;
  // Per-size metric deltas, mpiP-style: the hook runs on rank 0 at each
  // size boundary, where a registry snapshot is race-free.
  bench::TelemetryScope scope(cluster.metrics());
  icfg.phase_hook = [&](std::size_t, std::uint64_t bytes) {
    scope.phase(bench::human_bytes(bytes));
  };
  run.pts = workloads::run_sendrecv(cluster, icfg);
  run.phases = scope.phases();
  run.metrics = cluster.metrics().snapshot();
  return run;
}

void write_json(const std::string& path, const PhasedRun& run) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"fig5_imb_sendrecv\",\n  \"points\": [\n";
  const auto& pts = run.pts;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    out << "    {\"bytes\": " << pts[i].bytes << ", \"mbytes_per_sec\": "
        << pts[i].mbytes_per_sec << "}" << (i + 1 < pts.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n  \"phases\": ";
  bench::write_phases_json(run.phases, out, "  ");
  out << ",\n  \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << sim::Tracer::escaped(std::string(run.metrics.name(i)))
        << "\": " << run.metrics.value(i);
  }
  out << (run.metrics.size() != 0 ? "\n  }" : "}") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: fig5_imb_sendrecv [--short] [--json=PATH]\n");
      return 2;
    }
  }

  if (short_mode || !json_path.empty()) {
    std::printf("FIG5: IMB SendRecv [MB/s], hugepage library on, lazy "
                "dereg off%s\n\n",
                short_mode ? ", short" : "");
    const PhasedRun run = run_phased(short_mode);
    TextTable t({"msg size", "MB/s"});
    for (const auto& pt : run.pts)
      t.add_row(bench::human_bytes(pt.bytes), pt.mbytes_per_sec);
    t.print();
    if (!json_path.empty()) write_json(json_path, run);
    return 0;
  }

  std::printf("FIG5: IMB SendRecv bandwidth [MB/s], platform=opteron "
              "(2 nodes x 1 rank)\n\n");

  const auto small_noreg = run_config(false, false);
  const auto huge_noreg = run_config(true, false);
  const auto small_lazy = run_config(false, true);
  const auto huge_lazy = run_config(true, true);

  TextTable t({"msg size", "small pages", "hugepages",
               "small lazy-dereg", "huge lazy-dereg"});
  for (std::size_t i = 0; i < small_noreg.size(); ++i)
    t.add_row(bench::human_bytes(small_noreg[i].bytes),
              small_noreg[i].mbytes_per_sec, huge_noreg[i].mbytes_per_sec,
              small_lazy[i].mbytes_per_sec, huge_lazy[i].mbytes_per_sec);
  t.print();

  const auto& back_h = huge_noreg.back();
  const auto& back_s = small_noreg.back();
  std::printf("\nno lazy dereg, 16 MB: hugepages %.0f MB/s vs small pages "
              "%.0f MB/s (%.1fx)\n",
              back_h.mbytes_per_sec, back_s.mbytes_per_sec,
              back_h.mbytes_per_sec / back_s.mbytes_per_sec);
  std::printf("lazy dereg, 16 MB: hugepages %.0f MB/s vs small pages %.0f "
              "MB/s (paper: nearly identical on PCIe)\n",
              huge_lazy.back().mbytes_per_sec,
              small_lazy.back().mbytes_per_sec);
  return 0;
}
