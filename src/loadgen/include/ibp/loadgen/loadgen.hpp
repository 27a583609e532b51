#pragma once

// ibp_loadgen — deterministic load generators for the RPC serving layer.
//
// Two standard shapes:
//
//   * open loop — arrivals are a Poisson process in *virtual* time
//     (interarrival = -ln(1-U)/rate drawn from a seeded Rng); the
//     generator submits on schedule whether or not earlier requests
//     completed, so queueing delay and shed rates are visible instead
//     of being absorbed by the generator (the coordinated-omission trap
//     closed-loop measurement falls into),
//   * closed loop — a fixed set of workers, each submit -> wait ->
//     think -> repeat; offered load adapts to service capacity.
//
// Both record Ok-completion latency into a fixed-bucket log-scale
// histogram (LogHistogram, <= 12.5 % quantile error) and fold
// the completion trace (id, status, latency) into an FNV-1a hash:
// identical seeds and configs must produce identical hashes, which the
// bench golden ctests pin byte-for-byte.

#include <cstdint>

#include "ibp/common/stats.hpp"
#include "ibp/common/types.hpp"
#include "ibp/fabric/fabric.hpp"
#include "ibp/rpc/rpc.hpp"

namespace ibp::loadgen {

struct Workload {
  std::uint32_t request_bytes = 128;
  /// Response size the server is asked for (0 = echo-sized).
  std::uint32_t response_bytes = 0;
  std::uint32_t tenants = 1;
  /// Per-request probability of Class::Bulk (else Class::Latency).
  double bulk_fraction = 0.0;
  /// Response size for Bulk-class requests (0 = same as response_bytes).
  /// Against a FabricClient, sizes above the stripe threshold exercise
  /// the striped multi-server path.
  std::uint32_t bulk_response_bytes = 0;
};

struct OpenLoopConfig {
  double rate_rps = 500e3;  // offered load, requests per virtual second
  std::uint64_t requests = 2000;
  /// Unmeasured requests issued (and drained) first. Serving steady
  /// state is what the generator measures; without warmup the span is
  /// dominated by one-time costs — above all first-touch registration
  /// of the slot rings, the very cost the pin-down cache amortises.
  std::uint64_t warmup = 0;
  std::uint64_t seed = 1;
};

struct ClosedLoopConfig {
  std::uint32_t workers = 8;
  TimePs think = 0;  // virtual-time pause between completion and resubmit
  std::uint64_t requests = 2000;  // total across all workers
  std::uint64_t warmup = 0;       // unmeasured requests issued first
  std::uint64_t seed = 1;
  /// Spawn each worker as a real sim track (sim::Context::spawn_track)
  /// instead of multiplexing worker state machines on the calling track:
  /// submit/wait/think cycles overlap honestly in virtual time while the
  /// calling track runs the client's poll loop. Off (the default) is the
  /// legacy single-track state machine, bit-exact with earlier runs.
  /// RpcClient only; FabricClient rejects it.
  bool tracked_workers = false;
  /// Bucket completions into goodput windows of this virtual-time width
  /// (GenResult::window_ok / window_lost), locating a failure and the
  /// recovery in time. 0 (the default) keeps the result window-free —
  /// pure bookkeeping either way, bit-inert on the run itself.
  TimePs window = 0;
};

struct GenResult {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;       // completed with Status::Overloaded
  std::uint64_t timed_out = 0;  // completed with Status::TimedOut (lost)
  /// Lost requests that were Latency class — the count the failover
  /// bench asserts is zero (closed loop only; open loop leaves it 0).
  std::uint64_t lost_latency = 0;
  std::uint64_t rejected = 0;  // client queue full at submit
  TimePs span = 0;             // first submit to last completion drained
  /// Absolute virtual time of the first measured submit — the origin of
  /// the goodput windows, letting callers map absolute event times (a
  /// fault plan's crash directive) onto window indices.
  TimePs start = 0;
  LogHistogram latency_ns;  // Ok completions only
  std::uint64_t trace_hash = 0;     // FNV-1a over (id, status, latency)
  /// Per-window completion counts (ClosedLoopConfig::window > 0 only):
  /// index i covers virtual time [start + i*window, start + (i+1)*window).
  std::vector<std::uint64_t> window_ok;
  std::vector<std::uint64_t> window_lost;  // TimedOut completions

  double achieved_rps() const {
    return span > 0 ? static_cast<double>(ok) * 1e12 /
                          static_cast<double>(span)
                    : 0.0;
  }
};

/// Drive `client` with a Poisson arrival schedule, then drain.
GenResult run_open_loop(rpc::RpcClient& client, const Workload& w,
                        const OpenLoopConfig& cfg);
GenResult run_open_loop(fabric::FabricClient& client, const Workload& w,
                        const OpenLoopConfig& cfg);

/// Drive `client` with a fixed worker pool, then drain.
GenResult run_closed_loop(rpc::RpcClient& client, const Workload& w,
                          const ClosedLoopConfig& cfg);
GenResult run_closed_loop(fabric::FabricClient& client, const Workload& w,
                          const ClosedLoopConfig& cfg);

}  // namespace ibp::loadgen
