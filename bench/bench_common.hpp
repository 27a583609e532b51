#pragma once

// Shared helpers for the reproduction benches: a raw-verbs work-request
// timing fixture (Figures 3/4, post-overhead table) and small utilities.

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ibp/common/stats.hpp"
#include "ibp/common/table.hpp"
#include "ibp/common/types.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/cpu/timebase.hpp"
#include "ibp/hca/types.hpp"
#include "ibp/platform/platform.hpp"
#include "ibp/telemetry/sink.hpp"

namespace ibp::bench {

/// Sender-side timing of one work-request configuration, averaged over
/// iterations: `post` covers building/ringing the WQE (step 1 of §4),
/// `poll` covers transfer + completion + notification (steps 2-4).
struct WrTiming {
  TimePs post = 0;
  TimePs poll = 0;
  TimePs total() const { return post + poll; }
};

struct WrParams {
  std::uint32_t sges = 1;        // scatter-gather elements per WR
  std::uint32_t sge_size = 64;   // bytes per element
  std::uint32_t offset = 0;      // start offset of each buffer in its page
  int iterations = 40;
  int warmup = 5;
  mem::PageKind page_kind = mem::PageKind::Small;
};

/// Measure an RC send between two single-rank nodes of `platform`.
/// Each SGE lives in its own page at `offset`, matching the paper's §4
/// test case parameters (offset, sge_size, sges).
inline WrTiming measure_send(const platform::PlatformConfig& platform,
                             const WrParams& p) {
  core::ClusterConfig cfg;
  cfg.platform = platform;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);

  WrTiming out;
  cluster.run([&](core::RankEnv& env) {
    auto& vctx = env.verbs();
    const std::uint64_t page = page_size_of(p.page_kind);
    const std::uint64_t region_bytes =
        static_cast<std::uint64_t>(p.sges) * page + page;
    mem::Mapping& m = env.space().map(region_bytes, p.page_kind);
    const verbs::Mr mr = vctx.reg_mr(m.va_base, m.length);

    auto make_sges = [&](std::uint32_t len) {
      std::vector<hca::Sge> sges;
      for (std::uint32_t i = 0; i < p.sges; ++i)
        sges.push_back({m.va_base + i * page + p.offset, len, mr.lkey});
      return sges;
    };

    hca::QueuePair* qp = env.state().qp_to[1 - env.rank()];
    auto q = vctx.wrap_qp(*qp);

    if (env.rank() == 1) {
      // Receiver: prepost one matching multi-SGE receive per iteration.
      for (int it = 0; it < p.iterations + p.warmup; ++it) {
        hca::RecvWr wr;
        wr.wr_id = static_cast<std::uint64_t>(it);
        wr.sges = make_sges(static_cast<std::uint32_t>(page - p.offset));
        vctx.post_recv(q, wr);
      }
      for (int it = 0; it < p.iterations + p.warmup; ++it) vctx.wait_recv();
      return;
    }

    // Sender.
    RunningStats post_stats, poll_stats;
    for (int it = 0; it < p.iterations + p.warmup; ++it) {
      hca::SendWr wr;
      wr.wr_id = static_cast<std::uint64_t>(it);
      wr.opcode = hca::Opcode::Send;
      wr.sges = make_sges(p.sge_size);
      const TimePs t0 = env.now();
      vctx.post_send(q, wr);
      const TimePs t1 = env.now();
      vctx.wait_send();
      const TimePs t2 = env.now();
      if (it >= p.warmup) {
        post_stats.add(static_cast<double>(t1 - t0));
        poll_stats.add(static_cast<double>(t2 - t1));
      }
    }
    out.post = static_cast<TimePs>(post_stats.mean());
    out.poll = static_cast<TimePs>(poll_stats.mean());
  });
  return out;
}

inline std::string human_bytes(std::uint64_t b) {
  if (b >= kMiB && b % kMiB == 0) return std::to_string(b / kMiB) + " MB";
  if (b >= kKiB && b % kKiB == 0) return std::to_string(b / kKiB) + " KB";
  return std::to_string(b) + " B";
}

inline double pct_change(double baseline, double improved) {
  return (baseline - improved) / baseline * 100.0;
}

/// One named bench phase and the metric movement it caused.
struct PhaseDelta {
  std::string name;
  telemetry::MetricsDelta delta;
};

/// Phase-scoped metrics capture over a cluster's registry. Construct
/// before the measured work, then call phase(name) at each boundary
/// (e.g. from ImbConfig::phase_hook): the delta since the previous
/// boundary — or construction — is recorded under that name. Used by
/// benches to emit mpiP-style per-phase breakdowns in --json mode.
class TelemetryScope {
 public:
  explicit TelemetryScope(const telemetry::MetricsRegistry& reg)
      : reg_(&reg), last_(reg.snapshot()) {}

  /// Close the running phase under `name` and start the next one.
  void phase(std::string name) {
    telemetry::MetricsSnapshot now = reg_->snapshot();
    phases_.push_back({std::move(name), telemetry::diff(last_, now)});
    last_ = std::move(now);
  }

  const std::vector<PhaseDelta>& phases() const { return phases_; }

 private:
  const telemetry::MetricsRegistry* reg_;
  telemetry::MetricsSnapshot last_;
  std::vector<PhaseDelta> phases_;
};

/// JSON object {"phase name": {"metric": {before, after, delta}}, ...}
/// with continuation lines prefixed by `indent`.
inline void write_phases_json(const std::vector<PhaseDelta>& phases,
                              std::ostream& os, std::string_view indent) {
  os << "{";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << indent << "  \""
       << sim::Tracer::escaped(phases[i].name) << "\": ";
    telemetry::write_delta_json(phases[i].delta, os,
                                std::string(indent) + "  ");
  }
  if (!phases.empty()) os << "\n" << indent;
  os << "}";
}

}  // namespace ibp::bench
