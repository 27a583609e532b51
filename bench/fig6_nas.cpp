// FIG6 — "NAS benchmarks with hugepages" (paper Figure 6). For each
// kernel (CG, EP, IS, LU, MG) on 2 nodes x 4 processes: the improvement
// from preloading the hugepage library, split mpiP-style into
// communication improvement, other (computation) improvement, and overall
// improvement, on the AMD Opteron and IBM System p platforms.
//
// Paper shape targets: communication improvements > 8 % for most kernels
// (MG and IS below that); every kernel improves overall except IS; the
// improvements combine faster registration/translation handling on the
// adapter with prefetch-friendly physical contiguity on the CPU side.
//
// TAB-TLB — the §5.2 PAPI observation, read off the same Opteron runs:
// with the hugepage library, data-TLB misses *increase* dramatically (up
// to ~8x for EP) on the Opteron's asymmetric TLB (544 x 4 KB vs 8 x 2 MB
// entries) — except for LU, whose fused loops touch few enough operands
// to fit the 2 MB TLB. The runtime still improves because thrash misses
// are served from cached page-table nodes while the prefetcher gains
// whole-hugepage streams.
//
// Optional arguments:
//   --json=PATH   per-kernel improvements plus per-iteration "phases"
//                 metric deltas (captured on the hugepage run via
//                 NasScale::iter_hook)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ibp/workloads/nas.hpp"

using namespace ibp;

namespace {

struct KernelRun {
  workloads::NasResult result;
  std::vector<bench::PhaseDelta> phases;  // per-iteration metric deltas
};

KernelRun run_one(const platform::PlatformConfig& plat,
                  const std::string& kernel, bool hugepages,
                  bool want_phases) {
  core::ClusterConfig cfg;
  cfg.platform = plat;
  cfg.nodes = 2;
  cfg.ranks_per_node = 4;
  cfg.hugepage_library = hugepages;
  core::Cluster cluster(cfg);
  KernelRun run;
  workloads::NasScale s;
  // Per-iteration metric deltas, mpiP-style: the hook runs on rank 0 at
  // each iteration boundary, where a registry snapshot is race-free.
  bench::TelemetryScope scope(cluster.metrics());
  if (want_phases) {
    s.iter_hook = [&scope](int iter) {
      scope.phase("iter " + std::to_string(iter));
    };
  }
  run.result = workloads::run_nas(kernel, cluster, s);
  run.phases = scope.phases();
  return run;
}

struct KernelRecord {
  std::string kernel;
  double comm = 0.0;
  double other = 0.0;
  double overall = 0.0;
  bool verified = false;
  std::uint64_t tlb_small = 0;  // data-TLB misses, summed over the ranks
  std::uint64_t tlb_huge = 0;
  std::vector<bench::PhaseDelta> phases;
};

std::vector<KernelRecord> report(const platform::PlatformConfig& plat,
                                 bool want_phases) {
  std::printf("platform=%s (2 nodes x 4 ranks, class-scaled kernels)\n",
              plat.name.c_str());
  TextTable t({"kernel", "comm impr %", "other impr %", "overall impr %",
               "verified"});
  std::vector<KernelRecord> records;
  for (const char* kernel : {"cg", "ep", "is", "lu", "mg"}) {
    const KernelRun base = run_one(plat, kernel, false, false);
    const KernelRun huge = run_one(plat, kernel, true, want_phases);
    KernelRecord rec;
    rec.kernel = kernel;
    rec.comm = bench::pct_change(static_cast<double>(base.result.comm_avg),
                                 static_cast<double>(huge.result.comm_avg));
    rec.other =
        bench::pct_change(static_cast<double>(base.result.other_avg),
                          static_cast<double>(huge.result.other_avg));
    rec.overall = bench::pct_change(static_cast<double>(base.result.total),
                                    static_cast<double>(huge.result.total));
    rec.verified = base.result.verified && huge.result.verified;
    rec.tlb_small = base.result.tlb_misses;
    rec.tlb_huge = huge.result.tlb_misses;
    rec.phases = huge.phases;
    t.add_row(rec.kernel, rec.comm, rec.other, rec.overall,
              rec.verified ? "yes" : "NO");
    records.push_back(std::move(rec));
  }
  t.print();
  std::printf("\n");
  return records;
}

void print_tlb_table(const platform::PlatformConfig& plat,
                     const std::vector<KernelRecord>& records) {
  std::printf("TAB-TLB: data-TLB misses (summed over 8 ranks), "
              "platform=%s\n\n", plat.name.c_str());
  TextTable t({"kernel", "misses (4K pages)", "misses (hugepages)",
               "ratio", "paper"});
  for (const KernelRecord& r : records) {
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.2fx",
                  static_cast<double>(r.tlb_huge) /
                      static_cast<double>(
                          std::max<std::uint64_t>(r.tlb_small, 1)));
    const char* expect = r.kernel == "ep"   ? "up to 8x more"
                         : r.kernel == "lu" ? "no increase"
                                            : "increase";
    t.add_row(r.kernel, r.tlb_small, r.tlb_huge, std::string(ratio), expect);
  }
  t.print();
  std::printf("\n");
}

void write_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<KernelRecord>>>&
        platforms) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"fig6_nas\",\n  \"platforms\": {";
  for (std::size_t p = 0; p < platforms.size(); ++p) {
    out << (p == 0 ? "\n" : ",\n") << "    \""
        << sim::Tracer::escaped(platforms[p].first) << "\": {";
    const auto& records = platforms[p].second;
    for (std::size_t k = 0; k < records.size(); ++k) {
      const KernelRecord& r = records[k];
      out << (k == 0 ? "\n" : ",\n") << "      \"" << r.kernel
          << "\": {\"comm_impr_pct\": " << r.comm
          << ", \"other_impr_pct\": " << r.other
          << ", \"overall_impr_pct\": " << r.overall << ", \"verified\": "
          << (r.verified ? "true" : "false") << ",\n        \"phases\": ";
      bench::write_phases_json(r.phases, out, "        ");
      out << "}";
    }
    out << "\n    }";
  }
  out << "\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  std::printf("FIG6: NAS kernel improvements with the hugepage library "
              "(positive = hugepages faster)\n\n");
  std::vector<std::pair<std::string, std::vector<KernelRecord>>> platforms;
  const bool want_phases = !json_path.empty();
  const platform::PlatformConfig opteron = platform::opteron_pcie_infinihost();
  platforms.emplace_back(opteron.name, report(opteron, want_phases));
  print_tlb_table(opteron, platforms.back().second);
  const platform::PlatformConfig systemp = platform::systemp_gx_ehca();
  platforms.emplace_back(systemp.name, report(systemp, want_phases));
  std::printf("(paper: comm improvement > 8 %% except MG and IS; overall "
              "improvement for all kernels except IS)\n");
  if (!json_path.empty()) write_json(json_path, platforms);
  return 0;
}
