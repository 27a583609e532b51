#pragma once

// NAS-Parallel-Benchmarks-like kernels (§5.2).
//
// Five kernels with the communication patterns and memory behaviour of
// their NAS namesakes, scaled down to simulator-friendly sizes but doing
// *real* computation with verified results:
//
//   CG — conjugate gradient on a sparse SPD stencil matrix; irregular
//        gathers, per-iteration allgather + dot-product allreduces.
//   EP — embarrassingly parallel Gaussian-pair tabulation; almost no
//        communication, hot-spot memory traffic across many regions.
//   IS — bucketed integer sort; histogram scatter, large alltoallv.
//   LU — SSOR-style wavefront sweeps on a 2D-decomposed 3D grid; many
//        small pipelined boundary messages.
//   MG — V-cycle multigrid on a 1D-decomposed 3D grid; halo exchanges
//        with sizes shrinking per level.
//
// Each kernel returns the mpiP-style communication/computation split and
// PAPI-style TLB counters, which bench/fig6_nas turns into the paper's
// Figure 6 bars and the §5.2 TLB table.

#include <cstdint>
#include <functional>
#include <string>

#include "ibp/common/types.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/mpi/comm.hpp"

namespace ibp::workloads {

struct NasResult {
  std::string name;
  TimePs total = 0;       // run makespan
  TimePs comm_avg = 0;    // mean over ranks of time inside MPI calls
  TimePs comm_max = 0;
  TimePs other_avg = 0;   // total - comm (computation & allocator)
  std::uint64_t tlb_misses = 0;        // summed over ranks
  std::uint64_t tlb_misses_small = 0;
  std::uint64_t tlb_misses_huge = 0;
  bool verified = false;
  double figure_of_merit = 0.0;  // deterministic kernel checksum
};

/// Problem-size multiplier. scale=1 keeps every kernel under ~1 s of host
/// time; the communication/computation ratio is calibrated at scale=1.
struct NasScale {
  int scale = 1;
  /// Per-iteration phase hook (like ImbConfig::phase_hook): invoked on
  /// rank 0 only, at the end of every iteration of the kernel's timed
  /// main loop (EP: every sample batch), with the 0-based iteration
  /// index. The call itself consumes no virtual time, so a registry
  /// snapshot taken inside it is race-free and the run is bit-identical
  /// whether or not a hook is installed. Null by default.
  std::function<void(int)> iter_hook;
};

NasResult run_cg(core::Cluster& cluster, NasScale s = {});
NasResult run_ep(core::Cluster& cluster, NasScale s = {});
NasResult run_is(core::Cluster& cluster, NasScale s = {});
NasResult run_lu(core::Cluster& cluster, NasScale s = {});
NasResult run_mg(core::Cluster& cluster, NasScale s = {});
/// Extension (not in the paper's evaluation): alltoall-dominated 3D FFT.
NasResult run_ft(core::Cluster& cluster, NasScale s = {});

/// Run by name ("cg", "ep", "is", "lu", "mg", "ft").
NasResult run_nas(const std::string& name, core::Cluster& cluster,
                  NasScale s = {});

namespace detail {

/// Per-rank outcome a kernel body reports back to the harness.
struct KernelOutcome {
  bool verified = false;
  double fom = 0.0;
};

/// Marks the start of the timed region. Kernels call start() exactly once
/// after allocating and initializing their data (the paper's runs last
/// minutes, so one-time setup is negligible there; at simulator scale it
/// must be excluded explicitly).
class Timer {
 public:
  Timer(core::RankEnv& env, mpi::Comm& comm) : env_(&env), comm_(&comm) {}
  void start() {
    comm_->barrier();
    env_->state().tlb.reset_stats();
    env_->state().memsys.reset_stats();
    comm0_ = comm_->profiler().total();
    t0_ = env_->now();
    started_ = true;
  }
  bool started() const { return started_; }
  TimePs t0() const { return t0_; }
  TimePs comm0() const { return comm0_; }

 private:
  core::RankEnv* env_;
  mpi::Comm* comm_;
  TimePs t0_ = 0;
  TimePs comm0_ = 0;
  bool started_ = false;
};

using KernelBody = std::function<KernelOutcome(core::RankEnv&, mpi::Comm&,
                                               int scale, Timer& timer)>;

/// Shared harness: runs `body` on every rank, then reduces profiler and
/// TLB data into a NasResult.
NasResult run_kernel(core::Cluster& cluster, const std::string& name,
                     int scale, const KernelBody& body);

}  // namespace detail
}  // namespace ibp::workloads
