// EXT-FAULT — extension: IMB SendRecv bandwidth under an increasingly
// lossy link, small pages vs hugepages. Every dropped packet costs a
// retransmission timeout (exponential backoff from QpAttrs), so goodput
// degrades much faster than the raw loss rate; the placement gap from
// Figure 5 persists because registration/ATT costs are orthogonal to the
// wire losses. All runs are deterministic (seeded injector RNG streams).

// Optional arguments (absent: the small-vs-huge table below, byte-
// identical across runs). Either one runs the drop-rate sweep with the
// hugepage library on alone and records per-size metric deltas:
//   --short             fewer drop rates/iterations (the ctest mode)
//   --json=PATH         also write the measured points as JSON

#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_common.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/workloads/imb.hpp"

using namespace ibp;

namespace {

struct SweepPoint {
  std::vector<workloads::ImbPoint> pts;
  std::uint64_t retransmits = 0;
  std::uint64_t dropped = 0;
  std::vector<bench::PhaseDelta> phases;  // per-size metric deltas
};

SweepPoint run(double drop, bool hugepages, int iters = 4) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.hugepage_library = hugepages;
  if (drop > 0.0) {
    fault::LinkFault lf;  // both directions of the 0<->1 link
    lf.drop_prob = drop;
    cfg.fault.links.push_back(lf);
  }
  core::Cluster cluster(cfg);

  workloads::ImbConfig icfg;
  icfg.sizes = {64 * kKiB, kMiB, 16 * kMiB};
  icfg.iterations = iters;
  icfg.warmup = 1;
  SweepPoint sp;
  bench::TelemetryScope scope(cluster.metrics());
  icfg.phase_hook = [&](std::size_t, std::uint64_t bytes) {
    scope.phase(bench::human_bytes(bytes));
  };
  sp.pts = workloads::run_sendrecv(cluster, icfg);
  sp.phases = scope.phases();
  for (int n = 0; n < cluster.nodes(); ++n)
    sp.retransmits += cluster.node(n).adapter.stats().retransmits;
  if (cluster.fault() != nullptr)
    sp.dropped = cluster.fault()->stats().packets_dropped;
  return sp;
}

void write_json(const std::string& path, const std::vector<double>& drops,
                const std::vector<SweepPoint>& sps) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"ext_fault_sweep\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < sps.size(); ++i) {
    out << "    {\"drop\": " << drops[i] << ", \"mbytes_per_sec_64k\": "
        << sps[i].pts[0].mbytes_per_sec << ", \"mbytes_per_sec_16m\": "
        << sps[i].pts[2].mbytes_per_sec << ", \"retransmits\": "
        << sps[i].retransmits << ",\n     \"phases\": ";
    bench::write_phases_json(sps[i].phases, out, "     ");
    out << "}" << (i + 1 < sps.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
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
                   "usage: ext_fault_sweep [--short] [--json=PATH]\n");
      return 2;
    }
  }

  if (short_mode || !json_path.empty()) {
    std::printf("EXT-FAULT: SendRecv bandwidth vs drop rate, hugepage "
                "library on%s\n\n",
                short_mode ? ", short" : "");
    const std::vector<double> drops =
        short_mode ? std::vector<double>{0.0, 0.01}
                   : std::vector<double>{0.0, 0.001, 0.01, 0.05};
    std::vector<SweepPoint> sps;
    TextTable pt({"drop rate", "64K MB/s", "1M MB/s", "16M MB/s",
                  "retransmits", "dropped"});
    for (double drop : drops) {
      sps.push_back(run(drop, true, short_mode ? 2 : 4));
      const SweepPoint& sp = sps.back();
      char rate[32];
      std::snprintf(rate, sizeof rate, "%.1f %%", drop * 100.0);
      pt.add_row(rate, sp.pts[0].mbytes_per_sec, sp.pts[1].mbytes_per_sec,
                 sp.pts[2].mbytes_per_sec, sp.retransmits, sp.dropped);
    }
    pt.print();
    if (!json_path.empty()) write_json(json_path, drops, sps);
    return 0;
  }

  std::printf("EXT-FAULT: SendRecv bandwidth vs link drop rate "
              "(2 nodes, RC retransmission)\n\n");
  TextTable t({"drop rate", "pages", "64K MB/s", "1M MB/s", "16M MB/s",
               "retransmits", "dropped"});
  for (double drop : {0.0, 0.001, 0.01, 0.05}) {
    for (int huge = 0; huge < 2; ++huge) {
      const SweepPoint sp = run(drop, huge != 0);
      char rate[32];
      std::snprintf(rate, sizeof rate, "%.1f %%", drop * 100.0);
      t.add_row(rate, huge ? "huge" : "small", sp.pts[0].mbytes_per_sec,
                sp.pts[1].mbytes_per_sec, sp.pts[2].mbytes_per_sec,
                sp.retransmits, sp.dropped);
    }
  }
  t.print();
  std::printf("\n(Each drop stalls the QP for the backoff timeout, so "
              "goodput falls superlinearly with the loss rate; the "
              "hugepage advantage is preserved under loss.)\n");
  return 0;
}
