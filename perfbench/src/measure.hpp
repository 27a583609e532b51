#pragma once

// Host-side measurement primitives of the benchmark harness: clocks and
// getrusage deltas around calls into the simulator's public API, spans
// with self time, and the small statistics the report is built from.
// Nothing here touches the simulator; selftest.cpp checks the arithmetic
// on synthetic input.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the host's monotonic clock.
double host_now_s();

/// The getrusage fields the report uses, for the whole process (every
/// thread, live or joined).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minor_faults = 0;
  std::int64_t vol_switches = 0;
  std::int64_t invol_switches = 0;
  std::int64_t max_rss_kib = 0;  // a high-water mark, not a counter

  static Usage now();
  double cpu_s() const { return user_s + sys_s; }
  std::int64_t ctx_switches() const { return vol_switches + invol_switches; }
};

/// after - before for every counter; max_rss_kib keeps `after`'s mark.
Usage operator-(const Usage& after, const Usage& before);
Usage& operator+=(Usage& acc, const Usage& d);

/// Host wall time and resource usage of one bracketed region.
struct Region {
  double wall_s = 0.0;
  Usage usage;
};

/// Brackets a region: construct before, call stop() after.
class RegionTimer {
 public:
  RegionTimer() : t0_(host_now_s()), u0_(Usage::now()) {}
  Region stop() const {
    return {host_now_s() - t0_, Usage::now() - u0_};
  }

 private:
  double t0_;
  Usage u0_;
};

/// Host speed gauge: the wall and CPU time of a fixed piece of host work that
/// shares nothing with the simulator — thread handoffs through a mutex
/// and condition variable (what the engine does per lane switch), random
/// reads, streaming copies and integer arithmetic. On a shared
/// virtual machine the host's speed drifts by tens of percent over
/// minutes; host times divided by the probe measured beside them do not.
Region reference_probe();

/// The probe's duration on the machine the bounds were set on (4-vCPU
/// KVM guest, Xeon at 2.1 GHz, one core pinned). Host times are reported
/// in reference seconds: a wall time * kProbeNominalS / the probe's wall
/// time, a CPU time * kProbeNominalS / the probe's CPU time.
inline constexpr double kProbeNominalS = 0.11;

/// One traced layer call: host and virtual interval, the rank it ran on
/// (-1 outside the simulated cluster) and the enclosing span (-1 = root).
struct Span {
  std::string name;
  int parent = -1;
  int rank = -1;
  double host_start_s = 0.0;
  double host_end_s = 0.0;
  double virt_start_ms = 0.0;
  double virt_end_ms = 0.0;
  double host_s() const { return host_end_s - host_start_s; }
};

/// Spans kept in memory for the length of a run.
class SpanLog {
 public:
  /// Open a span and return its id; close it with end().
  int begin(std::string name, int parent, int rank, double virt_ms);
  void end(int id, double virt_ms);
  const std::vector<Span>& spans() const { return spans_; }
  Span& at(int id) { return spans_.at(static_cast<std::size_t>(id)); }

 private:
  std::vector<Span> spans_;
};

/// Host self time of every span: its duration minus the part of its
/// interval covered by the union of its children's intervals (clipped to
/// the span, so overlapping children are not subtracted twice).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Median (mean of the middle pair for an even count); 0 for none.
double median(std::vector<double> v);

/// Nearest-rank quantile over raw samples, q in [0, 1]; 0 for none.
double quantile(std::vector<double> v, double q);

/// The highest of the report's percentiles (p99, p95, p90, p75, p50) that
/// leaves at least ten samples beyond it among `n`, as a fraction; 0 when
/// even the median has fewer than ten samples above it.
double tail_quantile(std::uint64_t n);

/// num / base, or 0 when the base is empty. Every ratio in the report is
/// given with its base.
double ratio(double num, double base);

/// Shortest decimal text that reads back as exactly `v`.
std::string json_number(double v);

}  // namespace perfbench
