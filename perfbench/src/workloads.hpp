#pragma once

// The benchmark's four workloads, each one "pass" of simulated work built
// from the simulator's public API. A pass builds its clusters, runs them,
// checks the outputs and tears them down, recording host time and
// getrusage around the calls and registry deltas around each run.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ibp/common/stats.hpp"
#include "measure.hpp"

namespace perfbench {

/// Names accepted by run_pass, in report order.
const std::vector<std::string>& workload_names();

/// Request stages with a latency histogram: the eight reqtrace stages plus
/// the share-mode lock arbitration the hub keeps beside them.
inline constexpr std::size_t kStageHists = 9;
const char* stage_hist_name(std::size_t i);

struct PassResult {
  /// Host time constructing core::Cluster objects (config to wired
  /// cluster); everything after it belongs to `run`.
  double setup_s = 0.0;
  Usage setup_usage;
  /// Host wall time and usage of the rest of the pass: engine runs,
  /// result checks and cluster teardown.
  Region run;
  /// reference_probe() around the pass (mean of the probes just before
  /// and just after it), wall and CPU time. Host wall times scale to
  /// reference seconds by to_ref(), CPU times by cpu_to_ref().
  double probe_s = kProbeNominalS;
  double probe_cpu_s = kProbeNominalS;
  double to_ref() const { return kProbeNominalS / probe_s; }
  double cpu_to_ref() const { return kProbeNominalS / probe_cpu_s; }
  /// Simulated operations completed (MPI messages, SendRecv iterations
  /// or Ok requests, by workload).
  std::uint64_t ops = 0;
  /// Virtual-time results in report order. Deterministic per seed.
  std::vector<std::pair<std::string, double>> virt;
  /// Kernel checksums and request-trace hashes: must repeat exactly.
  std::string fingerprint;
  /// Registry deltas summed over the pass's measured runs, and each
  /// metric's largest single-run delta (for high-water marks).
  std::map<std::string, double> reg_sum;
  std::map<std::string, double> reg_max;
  /// Closed-loop generator totals (rpc workloads).
  std::map<std::string, double> gen;
  /// Per-stage request latency, nanoseconds (traced rpc passes only).
  std::array<ibp::LogHistogram, kStageHists> stages;
  /// Broken invariants; a correct pass has none.
  std::vector<std::string> broken;
  /// Spans of the layer calls (traced passes only).
  SpanLog spans;
};

/// Run one pass of `workload` with inputs derived from `seed`. A traced
/// pass records spans around every layer call and turns on the request
/// tracer; its virtual-time results must equal the untraced pass's.
PassResult run_pass(const std::string& workload, std::uint64_t seed,
                    bool traced);

}  // namespace perfbench
