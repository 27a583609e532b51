#pragma once

// Process-wide metrics plane (one registry per simulated cluster).
//
// Every subsystem publishes named values under a stable dotted namespace
// ("mpi.rendezvous_bytes", "regcache.hits", "hca.att_misses", ...). Two
// publication styles coexist behind one name table:
//
//   * owned counters — a Counter handle resolved once, bumped on the hot
//     path with a single add (satellite layers like the MPI profiler);
//   * probes — pull-based contributors that read a subsystem's existing
//     stats struct at snapshot time (zero cost between snapshots). Many
//     probes may share one metric name; their values sum. A ProbeHandle
//     is RAII: when its owner dies (a rank's Comm, a RankEnv's RegCache)
//     the probe's final value is latched into the slot's base, so
//     snapshots taken after teardown still see the totals.
//
// Snapshots are dense value vectors over the registry's name table —
// allocation-light, O(1) per metric — and diffable (MetricsDelta), which
// is how benches report per-phase deltas exactly like the paper's
// mpiP-style communication/computation split.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ibp/common/stats.hpp"

namespace ibp::telemetry {

class MetricsRegistry;

/// Cheap handle to an owned metric slot. Value-semantic; resolves once,
/// adds in O(1) with no name lookup.
class Counter {
 public:
  Counter() = default;
  void add(double delta = 1.0);
  bool valid() const { return reg_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, std::size_t slot) : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  std::size_t slot_ = 0;
};

/// RAII registration of a pull-based metric contributor. Destruction (or
/// release()) reads the probe one last time and folds the value into the
/// slot's base, so the metric survives its publisher.
class ProbeHandle {
 public:
  ProbeHandle() = default;
  ProbeHandle(ProbeHandle&& o) noexcept { *this = std::move(o); }
  ProbeHandle& operator=(ProbeHandle&& o) noexcept;
  ProbeHandle(const ProbeHandle&) = delete;
  ProbeHandle& operator=(const ProbeHandle&) = delete;
  ~ProbeHandle() { release(); }

  /// Latch the probe's current value and unregister it.
  void release();

 private:
  friend class MetricsRegistry;
  ProbeHandle(MetricsRegistry* reg, std::size_t slot, std::uint64_t id)
      : reg_(reg), slot_(slot), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::size_t slot_ = 0;
  std::uint64_t id_ = 0;
};

class MetricsSnapshot;
struct MetricsDelta;
MetricsDelta diff(const MetricsSnapshot& before, const MetricsSnapshot& after);

/// Point-in-time copy of every metric value. Keeps the registry's name
/// table alive, so a snapshot outlives the registry that produced it.
class MetricsSnapshot {
 public:
  std::size_t size() const { return values_.size(); }
  std::string_view name(std::size_t i) const { return (*names_)[i]; }
  double value(std::size_t i) const { return values_[i]; }

  /// Value by metric name; 0.0 for an unknown name.
  double value_of(std::string_view name) const;

 private:
  friend class MetricsRegistry;
  friend MetricsDelta diff(const MetricsSnapshot&, const MetricsSnapshot&);
  std::shared_ptr<const std::deque<std::string>> names_;
  std::vector<double> values_;
};

/// Difference between two snapshots of the same registry: one entry per
/// metric whose value changed (plus metrics that only exist in `after`).
struct MetricsDelta {
  struct Entry {
    std::string_view name;  // backed by the snapshots' shared name table
    double before = 0.0;
    double after = 0.0;
    double delta() const { return after - before; }
  };
  std::vector<Entry> entries;
  // Keeps the name table the entries point into alive.
  std::shared_ptr<const std::deque<std::string>> names;

  bool empty() const { return entries.empty(); }
  /// Delta by metric name; 0.0 for an unchanged/unknown metric.
  double delta_of(std::string_view name) const;
};

/// Diff two snapshots (before → after) of the same registry.
MetricsDelta diff(const MetricsSnapshot& before, const MetricsSnapshot& after);

class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve (creating if needed) the owned slot `name`.
  Counter counter(std::string_view name);

  /// One-shot add to `name`'s base value.
  void add(std::string_view name, double delta);

  /// Register a pull-based contributor to `name`. Multiple probes on one
  /// name sum. The returned handle latches the final value on release.
  [[nodiscard]] ProbeHandle probe(std::string_view name,
                                  std::function<double()> fn);

  /// Current value of one metric (base + live probes); 0.0 if unknown.
  double value(std::string_view name) const;

  std::size_t size() const { return slots_.size(); }
  std::string_view name(std::size_t slot) const { return (*names_)[slot]; }
  double value_at(std::size_t slot) const;

  MetricsSnapshot snapshot() const;

 private:
  friend class Counter;
  friend class ProbeHandle;

  struct Probe {
    std::uint64_t id = 0;
    std::function<double()> fn;
  };
  struct Slot {
    double base = 0.0;
    std::vector<Probe> probes;
  };

  std::size_t resolve(std::string_view name);
  void latch(std::size_t slot, std::uint64_t probe_id);

  // Name table shared with snapshots; deque keeps element references
  // stable as the registry grows.
  std::shared_ptr<std::deque<std::string>> names_;
  std::vector<Slot> slots_;
  std::map<std::string, std::size_t, std::less<>> index_;
  std::uint64_t next_probe_id_ = 1;
};

/// Register pull probes for a LogHistogram's quantiles under `prefix`:
/// `<prefix>.p50_us`, `.p90_us`, `.p99_us` and `.max_us` (nanosecond
/// samples exported in microseconds, matching the loadgen convention).
/// Percentiles are per-publisher values — summing them across ranks is
/// meaningless — so callers pass a rank-qualified prefix when more than
/// one publisher exists. `hist` must outlive the returned handles.
std::vector<ProbeHandle> histogram_probes(MetricsRegistry& m,
                                          const std::string& prefix,
                                          const LogHistogram* hist);

inline void Counter::add(double delta) {
  if (reg_ != nullptr) reg_->slots_[slot_].base += delta;
}

inline ProbeHandle& ProbeHandle::operator=(ProbeHandle&& o) noexcept {
  if (this != &o) {
    release();
    reg_ = o.reg_;
    slot_ = o.slot_;
    id_ = o.id_;
    o.reg_ = nullptr;
  }
  return *this;
}

inline void ProbeHandle::release() {
  if (reg_ != nullptr) {
    reg_->latch(slot_, id_);
    reg_ = nullptr;
  }
}

}  // namespace ibp::telemetry
