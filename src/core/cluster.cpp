#include "ibp/core/cluster.hpp"

#include <sstream>

namespace ibp::core {

namespace {

/// Reject qpkill directives aimed at a node or QP the cluster does not
/// have: they would otherwise never fire.
void check_qp_kills(const fault::FaultPlan& plan,
                    const std::vector<std::unique_ptr<Node>>& nodes) {
  const int nnodes = static_cast<int>(nodes.size());
  for (const fault::QpError& e : plan.qp_errors) {
    const bool any_node = e.node == fault::kAnyNode;
    std::ostringstream directive;
    directive << "qpkill=" << (any_node ? "*" : std::to_string(e.node)) << ':'
              << (e.qp_num == 0 ? "*" : std::to_string(e.qp_num)) << ':'
              << ps_to_us(e.at);
    IBP_CHECK(any_node || (e.node >= 0 && e.node < nnodes),
              "fault plan: " << directive.str() << " names node " << e.node
                             << "; valid nodes are 0.." << nnodes - 1);
    if (e.qp_num == 0) continue;
    // Wiring gives every node the same QP count.
    const std::uint32_t nqps =
        nodes[any_node ? 0 : static_cast<std::size_t>(e.node)]
            ->adapter.qp_count();
    IBP_CHECK(e.qp_num <= nqps,
              "fault plan: " << directive.str() << " names QP " << e.qp_num
                             << "; valid QPs per node are "
                             << (nqps == 0 ? "none (single node)"
                                           : "1.." + std::to_string(nqps)));
  }
}

}  // namespace

RankEnv::RankEnv(Cluster& cluster, sim::Context& sc, RankState& st)
    : cluster_(&cluster),
      sc_(&sc),
      st_(&st),
      vctx_(sc, st.space, st.node->adapter, cluster.config().driver,
            &st.send_cq, &st.recv_cq),
      rcache_(vctx_, cluster.config().lazy_deregistration) {
  // Pin-down cache counters: per-run probes (this env dies with the rank
  // program; the handles latch the final values into the registry).
  telemetry::MetricsRegistry& m = cluster.metrics();
  const regcache::RegCache* rc = &rcache_;
  auto probe = [&](std::string_view name, std::function<double()> fn) {
    probes_.push_back(m.probe(name, std::move(fn)));
  };
  probe("regcache.hits", [rc] { return double(rc->stats().hits); });
  probe("regcache.misses", [rc] { return double(rc->stats().misses); });
  probe("regcache.releases", [rc] { return double(rc->stats().releases); });
  probe("regcache.invalidations",
        [rc] { return double(rc->stats().invalidations); });
  probe("regcache.pinned_bytes_peak",
        [rc] { return double(rc->stats().pinned_bytes_peak); });
}

int RankEnv::nranks() const { return cluster_->nranks(); }

void RankEnv::compute(std::uint64_t ops) {
  sc_->advance(
      cpu::MemorySystem::compute(ops, cluster_->config().platform.ops_per_ns));
}

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg), engine_(cfg.nodes * cfg.ranks_per_node) {
  IBP_CHECK(cfg_.nodes >= 1 && cfg_.ranks_per_node >= 1);
  IBP_CHECK(cfg_.placement_policy == "paper-default",
            "unknown placement policy '"
                << cfg_.placement_policy
                << "': the only policy is paper-default; for the "
                   "small-page baseline set hugepage_library = false");
  const int nranks = cfg_.nodes * cfg_.ranks_per_node;

  Rng seeder(cfg_.seed);
  for (int n = 0; n < cfg_.nodes; ++n)
    nodes_.push_back(std::make_unique<Node>(cfg_, n, seeder.next_u64()));

  if (!cfg_.fault.empty()) {
    fault_ = std::make_unique<fault::FaultInjector>(cfg_.fault, cfg_.seed);
    if (cfg_.enable_tracing) {
      // Fault/retry events land on the owning node's tracer lane.
      fault_->set_observer([this](const char* kind, NodeId node, TimePs at) {
        tracer_.mark(node, "fault", kind, at);
      });
    }
    for (auto& nd : nodes_) nd->adapter.set_fault_injector(fault_.get());
  }

  if (cfg_.request_trace.enabled)
    reqtrace_ = std::make_unique<telemetry::RequestTracer>(
        cfg_.request_trace, &metrics_, tracer());

  if (cfg_.fabric_pod_nodes > 0) {
    fabric_ = std::make_unique<hca::Fabric>(
        cfg_.fabric_core_links, cfg_.fabric_hop_latency,
        // Arbitration quantum = one MTU at the platform link rate.
        static_cast<TimePs>(static_cast<double>(cfg_.platform.adapter.mtu) /
                            cfg_.platform.adapter.link_bw_bytes_per_ns *
                            1e3) +
            cfg_.platform.adapter.pkt_overhead);
    for (int n = 0; n < cfg_.nodes; ++n)
      nodes_[static_cast<std::size_t>(n)]->adapter.attach_fabric(
          fabric_.get(), n / cfg_.fabric_pod_nodes);
  }

  for (int r = 0; r < nranks; ++r)
    ranks_.push_back(std::make_unique<RankState>(
        *nodes_[static_cast<std::size_t>(r / cfg_.ranks_per_node)], cfg_, r));

  // Wiring. Inter-node pairs get an RC QP pair; same-node pairs get a
  // shared-memory channel per direction. Each adapter numbers its QPs
  // 1..N in this wiring order (the numbers qpkill directives name).
  shm_.resize(static_cast<std::size_t>(nranks));
  for (auto& row : shm_) row.resize(static_cast<std::size_t>(nranks));
  ShmConfig shm_cfg{cfg_.platform.shm_bw_bytes_per_ns, cfg_.platform.shm_latency};

  for (int a = 0; a < nranks; ++a) {
    RankState& ra = *ranks_[static_cast<std::size_t>(a)];
    ra.qp_to.assign(static_cast<std::size_t>(nranks), nullptr);
    ra.shm_out.assign(static_cast<std::size_t>(nranks), nullptr);
    ra.shm_in.assign(static_cast<std::size_t>(nranks), nullptr);
  }
  for (int a = 0; a < nranks; ++a) {
    RankState& ra = *ranks_[static_cast<std::size_t>(a)];
    for (int b = a + 1; b < nranks; ++b) {
      RankState& rb = *ranks_[static_cast<std::size_t>(b)];
      if (ra.node == rb.node) {
        shm_[a][b] = std::make_unique<ShmChannel>(shm_cfg);
        shm_[b][a] = std::make_unique<ShmChannel>(shm_cfg);
        ra.shm_out[static_cast<std::size_t>(b)] = shm_[a][b].get();
        rb.shm_in[static_cast<std::size_t>(a)] = shm_[a][b].get();
        rb.shm_out[static_cast<std::size_t>(a)] = shm_[b][a].get();
        ra.shm_in[static_cast<std::size_t>(b)] = shm_[b][a].get();
      } else {
        hca::QueuePair& qa =
            ra.node->adapter.create_qp(&ra.send_cq, &ra.recv_cq);
        hca::QueuePair& qb =
            rb.node->adapter.create_qp(&rb.send_cq, &rb.recv_cq);
        qa.set_attrs(cfg_.driver.qp);
        qb.set_attrs(cfg_.driver.qp);
        qa.connect(&qb);
        qb.connect(&qa);
        ra.qp_to[static_cast<std::size_t>(b)] = &qa;
        rb.qp_to[static_cast<std::size_t>(a)] = &qb;
      }
    }
  }
  check_qp_kills(cfg_.fault, nodes_);

  register_probes();
  if (sim::Tracer* t = tracer()) {
    t->set_process_name("ibplace simulated cluster");
    for (int r = 0; r < nranks; ++r)
      t->set_thread_name(r, "rank " + std::to_string(r));
  }
  install_sampler();
}

void Cluster::register_probes() {
  auto probe = [&](std::string_view name, std::function<double()> fn) {
    probes_.push_back(metrics_.probe(name, std::move(fn)));
  };

  // Adapter counters, summed across the cluster's HCAs.
  for (const auto& ndp : nodes_) {
    const Node* nd = ndp.get();
    const auto s = [nd]() -> const hca::AdapterStats& {
      return nd->adapter.stats();
    };
    probe("hca.sends_posted", [s] { return double(s().sends_posted); });
    probe("hca.recvs_posted", [s] { return double(s().recvs_posted); });
    probe("hca.rdma_writes_posted",
          [s] { return double(s().rdma_writes_posted); });
    probe("hca.rdma_reads_posted",
          [s] { return double(s().rdma_reads_posted); });
    probe("hca.bytes_tx", [s] { return double(s().bytes_tx); });
    probe("hca.att_hits", [s] { return double(s().att_hits); });
    probe("hca.att_misses", [s] { return double(s().att_misses); });
    probe("hca.mr_registered", [s] { return double(s().mr_registered); });
    probe("hca.mr_deregistered", [s] { return double(s().mr_deregistered); });
    probe("hca.pages_pinned", [s] { return double(s().pages_pinned); });
    probe("hca.translations_shipped",
          [s] { return double(s().translations_shipped); });
    probe("hca.reg_time_us", [s] { return ps_to_us(s().reg_time_total); });
    probe("hca.pkts_dropped", [s] { return double(s().pkts_dropped); });
    probe("hca.retransmits", [s] { return double(s().retransmits); });
    probe("hca.rnr_naks", [s] { return double(s().rnr_naks); });
    probe("hca.qp_errors", [s] { return double(s().qp_errors); });
  }

  // Per-rank CPU and allocator counters, summed across ranks.
  for (const auto& rkp : ranks_) {
    const RankState* rs = rkp.get();
    probe("cpu.dtlb_hits", [rs] { return double(rs->tlb.stats().hits()); });
    probe("cpu.dtlb_misses",
          [rs] { return double(rs->tlb.stats().misses()); });
    probe("cpu.dtlb_misses_small",
          [rs] { return double(rs->tlb.stats().misses_small); });
    probe("cpu.dtlb_misses_huge",
          [rs] { return double(rs->tlb.stats().misses_huge); });
    probe("cpu.stream_bytes",
          [rs] { return double(rs->memsys.stats().stream_bytes); });
    probe("cpu.random_accesses",
          [rs] { return double(rs->memsys.stats().random_accesses); });
    probe("cpu.prefetch_ramps",
          [rs] { return double(rs->memsys.stats().prefetch_ramps); });

    probe("hugepage.huge_allocs",
          [rs] { return double(rs->lib.stats().huge_allocs); });
    probe("hugepage.libc_allocs",
          [rs] { return double(rs->lib.stats().libc_allocs); });
    probe("hugepage.fallback_allocs",
          [rs] { return double(rs->lib.stats().fallback_allocs); });
    hugepage::Library* lib = &rkp->lib;
    probe("hugepage.heap_bytes_mapped",
          [lib] { return double(lib->huge_heap().stats().bytes_mapped); });
    probe("hugepage.heap_bytes_live_peak",
          [lib] { return double(lib->huge_heap().stats().bytes_live_peak); });
  }

  if (fault_ != nullptr) {
    const fault::FaultInjector* fi = fault_.get();
    probe("fault.packets_judged",
          [fi] { return double(fi->stats().packets_judged); });
    probe("fault.drops", [fi] { return double(fi->stats().packets_dropped); });
    probe("fault.corrupts",
          [fi] { return double(fi->stats().packets_corrupted); });
    probe("fault.qp_errors_fired",
          [fi] { return double(fi->stats().qp_errors_fired); });
  }
}

void Cluster::install_sampler() {
  if (!cfg_.enable_tracing) return;
  // Counter tracks: on each 100 us boundary of the engine's virtual-time
  // frontier, emit every metric whose value changed since its last
  // sample (tracks begin at their first non-zero value).
  auto last = std::make_shared<std::vector<double>>();
  engine_.set_sampler(us(100), [this, last](TimePs t) {
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i >= last->size()) last->resize(metrics_.size(), 0.0);
      const double v = metrics_.value_at(i);
      if (v == (*last)[i]) continue;
      (*last)[i] = v;
      tracer_.counter(std::string(metrics_.name(i)), t, v);
    }
  });
}

void Cluster::run(const std::function<void(RankEnv&)>& fn) {
  engine_.run([this, &fn](sim::Context& sc) {
    RankEnv env(*this, sc, rank(sc.rank()));
    fn(env);
  });
}

}  // namespace ibp::core
