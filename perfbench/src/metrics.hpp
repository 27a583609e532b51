#pragma once

// Turns passes into the benchmark's named metrics: the end-to-end set
// (untraced passes) and the per-layer set (traced passes). The names and
// units here are the ones BENCHMARK.json declares; run.py checks that the
// two agree.

#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  // shown in the table only (sample counts, bases)
};

struct Report {
  std::vector<Metric> json;   // the JSON line's metrics
  std::vector<Metric> extra;  // table-only rows
};

/// The host-side metrics (wall_s, cpu_s, setup_s, peak_rss_mib,
/// ops_per_s) as JSON metrics; the virtual-time headline metrics that
/// apply to the workload, and error_rate, as table rows.
Report end_to_end_report(const std::vector<PassResult>& plain);

/// Every per-layer metric, from the traced passes (host spans, getrusage,
/// registry deltas) and their untraced partners (tracing overhead).
Report per_layer_report(const std::vector<PassResult>& plain,
                        const std::vector<PassResult>& traced);

void print_table(const Report& r, const char* title);

/// Host self time per span name, median over the traced passes.
void print_self_times(const std::vector<PassResult>& traced);

}  // namespace perfbench
