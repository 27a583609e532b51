#pragma once

// The simulated cluster: nodes with physical memory, hugeTLBfs pools and
// HCAs; ranks with address spaces, CPUs and (optionally preloaded)
// hugepage libraries; full RC QP wiring between ranks on different nodes
// and shared-memory channels inside a node.
//
// This is the public entry point a downstream user builds experiments on:
//
//   core::ClusterConfig cfg;
//   cfg.hugepage_library = true;          // "LD_PRELOAD" the paper's lib
//   core::Cluster cluster(cfg);
//   cluster.run([&](core::RankEnv& env) { ... });

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ibp/common/rng.hpp"
#include "ibp/common/types.hpp"
#include "ibp/core/shm.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/cpu/memory_system.hpp"
#include "ibp/cpu/tlb.hpp"
#include "ibp/hca/adapter.hpp"
#include "ibp/hugepage/library.hpp"
#include "ibp/mem/address_space.hpp"
#include "ibp/platform/platform.hpp"
#include "ibp/regcache/regcache.hpp"
#include "ibp/sim/engine.hpp"
#include "ibp/sim/tracer.hpp"
#include "ibp/telemetry/registry.hpp"
#include "ibp/telemetry/reqtrace.hpp"
#include "ibp/verbs/verbs.hpp"

namespace ibp::core {

struct ClusterConfig {
  platform::PlatformConfig platform = platform::opteron_pcie_infinihost();
  int nodes = 2;
  int ranks_per_node = 4;
  std::uint64_t node_memory = 2 * kGiB;    // small-page RAM per node
  std::uint64_t hugepages_per_node = 768;  // 1.5 GB pool per node
  std::uint64_t hugetlb_fork_reserve = 2;  // kernel-side reserve
  /// Preload the paper's hugepage library (large allocations land in
  /// hugepages transparently). false = baseline (libc everywhere).
  bool hugepage_library = false;
  /// MPI-level lazy deregistration (pin-down cache). false = register
  /// and deregister around every transfer: Fig. 5's other configuration.
  bool lazy_deregistration = true;
  /// Kept for callers that still name the paper's strategy. The only
  /// accepted value is "paper-default", which hugepage::Library::malloc
  /// implements; the small-page baseline is `hugepage_library = false`.
  std::string placement_policy = "paper-default";
  /// The paper's OpenIB driver patch: ship native hugepage translations.
  verbs::DriverConfig driver{.hugepage_passthrough = true, .qp = {}};
  hugepage::LibraryConfig library;  // threshold / fit policy / costs
  /// The one trace switch. On, Cluster::tracer() records MPI-call and
  /// user spans, send->recv flows, fault and retry marks, and counter
  /// tracks sampling the MetricsRegistry every 100 us of virtual time
  /// (Chrome trace-event JSON via Tracer::write_json). Off (the default),
  /// tracer() is null and nothing is recorded or sampled;
  /// Cluster::metrics() is live either way.
  bool enable_tracing = false;
  /// Per-request tracing hub (ibp/telemetry/reqtrace.hpp). Off (the
  /// default), the cluster creates no hub and the serving stack is
  /// bit-inert — no wire flag, no extra state, byte-identical outputs.
  telemetry::RequestTraceConfig request_trace;
  /// Fat-tree style fabric: nodes are grouped into pods of this many
  /// nodes; cross-pod traffic shares `fabric_core_links` core links
  /// (oversubscription = pod uplink demand / core capacity). 0 disables
  /// the fabric stage (single switch, the paper's 2-node setup).
  int fabric_pod_nodes = 0;
  int fabric_core_links = 1;
  TimePs fabric_hop_latency = ns(450);
  /// Fault plan evaluated by a cluster-owned FaultInjector (seeded from
  /// `seed` unless the plan carries its own). An empty plan attaches no
  /// injector, leaving the legacy always-healthy transport untouched.
  fault::FaultPlan fault;
  std::uint64_t seed = 42;
};

class Cluster;

/// Everything one node owns.
struct Node {
  Node(const ClusterConfig& cfg, NodeId id, std::uint64_t seed)
      : id(id),
        phys(cfg.node_memory, cfg.hugepages_per_node, seed),
        hugetlbfs(&phys, cfg.hugepages_per_node, cfg.hugetlb_fork_reserve),
        adapter(id, cfg.platform.adapter) {}

  NodeId id;
  mem::PhysicalMemory phys;
  mem::HugeTlbFs hugetlbfs;
  hca::Adapter adapter;
};

/// Static per-rank state (exists before and after the run).
struct RankState {
  RankState(Node& n, const ClusterConfig& cfg, RankId id)
      : id(id),
        node(&n),
        space(&n.phys, &n.hugetlbfs),
        tlb(cfg.platform.tlb),
        memsys(cfg.platform.mem, &tlb),
        lib(space, n.hugetlbfs,
            [&] {
              hugepage::LibraryConfig lc = cfg.library;
              lc.enabled = cfg.hugepage_library;
              return lc;
            }()),
        rng(cfg.seed * 0x9e3779b9ull + static_cast<std::uint64_t>(id) + 1) {}

  RankId id;
  Node* node;
  mem::AddressSpace space;
  cpu::Tlb tlb;
  cpu::MemorySystem memsys;
  hugepage::Library lib;
  Rng rng;
  hca::CompletionQueue send_cq;
  hca::CompletionQueue recv_cq;
  // Wiring, indexed by peer rank. Exactly one of qp_to / shm_out is set
  // for every peer != self.
  std::vector<hca::QueuePair*> qp_to;
  std::vector<ShmChannel*> shm_out;  // this rank -> peer
  std::vector<ShmChannel*> shm_in;   // peer -> this rank
};

/// Per-rank runtime environment handed to rank programs by Cluster::run.
class RankEnv {
 public:
  RankEnv(Cluster& cluster, sim::Context& sc, RankState& st);

  RankId rank() const { return st_->id; }
  int nranks() const;
  NodeId node() const { return st_->node->id; }

  sim::Context& sim() { return *sc_; }
  RankState& state() { return *st_; }
  Cluster& cluster() { return *cluster_; }
  verbs::Context& verbs() { return vctx_; }
  regcache::RegCache& rcache() { return rcache_; }
  mem::AddressSpace& space() { return st_->space; }
  hugepage::Library& lib() { return st_->lib; }
  cpu::MemorySystem& memsys() { return st_->memsys; }
  Rng& rng() { return st_->rng; }

  TimePs now() const { return sc_->now(); }

  /// Allocate through the (possibly preloaded) hugepage library, charging
  /// allocator time.
  VirtAddr alloc(std::uint64_t size) {
    auto r = st_->lib.malloc(size);
    sc_->advance(r.cost);
    IBP_CHECK(r.addr != 0, "allocation failed");
    return r.addr;
  }

  void dealloc(VirtAddr addr) {
    // Drop stale registrations before the block can be reused.
    rcache_.invalidate(addr, st_->lib.block_size(addr));
    sc_->advance(st_->lib.free(addr).cost);
  }

  /// Charge a sequential sweep over [va, va+len) (compute-side traffic).
  void touch_stream(VirtAddr va, std::uint64_t len) {
    sc_->advance(st_->memsys.stream(st_->space, va, len));
  }

  /// Charge `n` random accesses inside [va, va+len).
  void touch_random(VirtAddr va, std::uint64_t len, std::uint64_t n) {
    sc_->advance(st_->memsys.random_access(st_->space, va, len, n, st_->rng));
  }

  /// Charge a fused loop sweeping several operands in lockstep.
  void touch_interleaved(std::span<const cpu::MemorySystem::StreamRef> refs,
                         std::uint64_t quantum = 512) {
    sc_->advance(st_->memsys.interleaved_stream(st_->space, refs, quantum));
  }

  /// Charge `ops` arithmetic operations.
  void compute(std::uint64_t ops);

  /// Record a user span into the cluster tracer (no-op when tracing is
  /// off). Pass the span's virtual start time.
  void trace(const char* category, const char* name, TimePs start);

  template <typename T>
  T* host_ptr(VirtAddr va, std::uint64_t count = 1) {
    return st_->space.host_ptr<T>(va, count);
  }

 private:
  Cluster* cluster_;
  sim::Context* sc_;
  RankState* st_;
  verbs::Context vctx_;
  regcache::RegCache rcache_;
  // Declared after rcache_: released (final values latched into the
  // cluster registry) before the cache they read goes away.
  std::vector<telemetry::ProbeHandle> probes_;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);

  int nranks() const { return static_cast<int>(ranks_.size()); }
  int nodes() const { return static_cast<int>(nodes_.size()); }
  const ClusterConfig& config() const { return cfg_; }

  RankState& rank(RankId r) { return *ranks_.at(static_cast<std::size_t>(r)); }
  Node& node(NodeId n) { return *nodes_.at(static_cast<std::size_t>(n)); }
  sim::Engine& engine() { return engine_; }

  /// Populated when config().enable_tracing is on; null otherwise.
  sim::Tracer* tracer() { return cfg_.enable_tracing ? &tracer_ : nullptr; }

  /// The cluster-wide metrics plane. Subsystems publish via probes (see
  /// ibp/telemetry/registry.hpp); always live, costs nothing unless read.
  telemetry::MetricsRegistry& metrics() { return metrics_; }

  /// The fault injector driving config().fault, or null for a healthy
  /// fabric. Shared by every adapter in the cluster.
  fault::FaultInjector* fault() { return fault_.get(); }

  /// The per-request tracing hub, or null when config().request_trace is
  /// disabled. Shared by every RpcClient/RpcServer/FabricClient built on
  /// this cluster.
  telemetry::RequestTracer* request_tracer() { return reqtrace_.get(); }

  /// Run one program on every rank (single-use, like sim::Engine).
  void run(const std::function<void(RankEnv&)>& fn);

  /// Makespan of the completed run.
  TimePs makespan() const { return engine_.makespan(); }
  TimePs rank_time(RankId r) const { return engine_.final_time(r); }

 private:
  void register_probes();
  void install_sampler();

  ClusterConfig cfg_;
  // Declared before the subsystems that publish into it, so snapshots
  // stay valid for the whole teardown.
  telemetry::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  // Ordered-pair shm channels: shm_[from][to] for same-node pairs.
  std::vector<std::vector<std::unique_ptr<ShmChannel>>> shm_;
  sim::Engine engine_;
  sim::Tracer tracer_;
  std::unique_ptr<hca::Fabric> fabric_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<telemetry::RequestTracer> reqtrace_;
  // Last member: released first, latching every live probe's final value
  // while the subsystems it reads are still alive.
  std::vector<telemetry::ProbeHandle> probes_;
};

inline void RankEnv::trace(const char* category, const char* name,
                           TimePs start) {
  if (sim::Tracer* t = cluster_->tracer())
    t->add(rank(), category, name, start, now() - start);
}

}  // namespace ibp::core
