#pragma once

// Intel-MPI-Benchmarks-like SendRecv microbenchmark (§5.1).
//
// IMB SendRecv forms a periodic chain: every rank receives from its left
// neighbour while sending to its right neighbour, and the reported
// bandwidth counts bytes in both directions. The paper runs it in two
// configurations: lazy deregistration on (pure transfer time) and off
// (transfer + registration each iteration); buffers are placed either by
// libc (small pages) or by the preloaded hugepage library. Every size gets
// freshly allocated, first-touched buffers, like IMB's off-cache mode in
// an allocating application.

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "ibp/common/types.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/mpi/comm.hpp"

namespace ibp::workloads {

struct ImbPoint {
  std::uint64_t bytes = 0;
  TimePs avg_time = 0;          // per-iteration time on the slowest rank
  double mbytes_per_sec = 0.0;  // IMB convention: 2 * bytes / time
};

struct ImbConfig {
  std::vector<std::uint64_t> sizes;  // message sizes to sweep
  int iterations = 20;               // timed iterations per size
  int warmup = 2;
  /// MPI layer configuration (protocol thresholds, recovery policy —
  /// relevant when the cluster runs under a fault plan).
  mpi::CommConfig comm;
  /// Invoked by rank 0 after each size finishes (past the closing
  /// barrier, before the next size's buffers are touched). Runs while
  /// rank 0 is the scheduled rank, so it may safely read the cluster's
  /// metrics registry — benches use it to snapshot per-phase deltas.
  std::function<void(std::size_t size_index, std::uint64_t bytes)> phase_hook;
};

/// Default size sweep 4 KB … 16 MB (powers of two), as in Figure 5.
std::vector<std::uint64_t> imb_default_sizes();

/// Run SendRecv on the given cluster (uses all its ranks). The cluster's
/// configuration decides page placement, driver mode and lazy
/// deregistration.
std::vector<ImbPoint> run_sendrecv(core::Cluster& cluster,
                                   const ImbConfig& cfg);

/// IMB PingPong between ranks 0 and 1: avg_time is the one-way latency
/// (half the round trip); bandwidth counts one direction.
std::vector<ImbPoint> run_pingpong(core::Cluster& cluster,
                                   const ImbConfig& cfg);

/// IMB Exchange: every rank exchanges with both chain neighbours per
/// iteration (4 messages per rank); bandwidth counts all four.
std::vector<ImbPoint> run_exchange(core::Cluster& cluster,
                                   const ImbConfig& cfg);

}  // namespace ibp::workloads
