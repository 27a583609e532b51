#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "ibp/common/rng.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/fabric/fabric.hpp"
#include "ibp/loadgen/loadgen.hpp"
#include "ibp/rpc/rpc.hpp"
#include "ibp/telemetry/reqtrace.hpp"
#include "ibp/workloads/imb.hpp"
#include "ibp/workloads/nas.hpp"

namespace perfbench {

using namespace ibp;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"nas", "imb-reg",
                                                 "rpc-threads",
                                                 "serve-failover"};
  return names;
}

const char* stage_hist_name(std::size_t i) {
  if (i < telemetry::kStageCount)
    return telemetry::stage_name(static_cast<telemetry::Stage>(i));
  return "lock_arbitration";
}

namespace {

double ps_to_ms(TimePs t) { return static_cast<double>(t) / 1e9; }

/// A seed for one consumer (cluster, generator, fault plan) of the run
/// seed, so the streams stay independent of one another.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = Rng(seed ^ (salt * 0x9e3779b97f4a7c15ull)).next_u64();
  return s != 0 ? s : 1;
}

/// Shared per-pass plumbing: timed cluster construction, registry deltas
/// around each measured run, spans when traced.
class Pass {
 public:
  Pass(PassResult& out, bool traced)
      : out_(&out), traced_(traced),
        root_(traced ? out.spans.begin("pass", -1, -1, 0.0) : -1) {}

  bool traced() const { return traced_; }
  SpanLog& spans() { return out_->spans; }

  std::unique_ptr<core::Cluster> build(const core::ClusterConfig& cfg) {
    const int id = traced_ ? spans().begin("core.cluster_build", root_, -1, 0)
                           : -1;
    RegionTimer t;
    auto c = std::make_unique<core::Cluster>(cfg);
    const Region r = t.stop();
    out_->setup_s += r.wall_s;
    out_->setup_usage += r.usage;
    if (traced_) spans().end(id, 0);
    return c;
  }

  /// Run `fn` (which drives `c`) under a span named `name` and fold the
  /// registry movement it caused into the pass totals.
  template <typename Fn>
  void measured(core::Cluster& c, const std::string& name, Fn&& fn) {
    const telemetry::MetricsSnapshot before = c.metrics().snapshot();
    const int id = traced_ ? spans().begin(name, root_, -1, 0) : -1;
    current_ = id;
    fn();
    if (traced_) spans().end(id, ps_to_ms(c.makespan()));
    current_ = -1;
    const telemetry::MetricsDelta delta =
        telemetry::diff(before, c.metrics().snapshot());
    for (const auto& e : delta.entries) {
      const std::string key(e.name);
      out_->reg_sum[key] += e.delta();
      double& m = out_->reg_max[key];
      m = std::max(m, e.delta());
    }
    if (const telemetry::RequestTracer* rt = c.request_tracer()) {
      for (std::size_t s = 0; s < telemetry::kStageCount; ++s)
        out_->stages[s].merge(rt->stage_hist(static_cast<telemetry::Stage>(s)));
      out_->stages[telemetry::kStageCount].merge(rt->arbitration_hist());
    }
  }

  /// The span of the run in progress (parent for in-run spans).
  int current() const { return current_; }

  void virt(const std::string& name, double v) {
    out_->virt.emplace_back(name, v);
  }
  void fingerprint(const std::string& what) {
    out_->fingerprint += what;
    out_->fingerprint += ';';
  }
  /// Record `what` as a broken invariant unless `ok`; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (!ok) out_->broken.push_back(what);
    return ok;
  }

  void finish() {
    if (traced_) spans().end(root_, 0);
  }

 private:
  PassResult* out_;
  bool traced_;
  int root_;
  int current_ = -1;
};

/// Span recorder for one layer call made inside a rank program.
class RankSpan {
 public:
  RankSpan(Pass& p, const char* name, core::RankEnv& env)
      : pass_(&p), env_(&env),
        id_(p.traced() ? p.spans().begin(name, p.current(), env.rank(),
                                         ps_to_ms(env.now()))
                       : -1) {}
  ~RankSpan() {
    if (id_ >= 0) pass_->spans().end(id_, ps_to_ms(env_->now()));
  }
  RankSpan(const RankSpan&) = delete;
  RankSpan& operator=(const RankSpan&) = delete;

 private:
  Pass* pass_;
  core::RankEnv* env_;
  int id_;
};

/// Spans between consecutive hook calls on rank 0 (the hooks fire at the
/// end of each NAS iteration or IMB size). `first_open` starts the first
/// span at construction, for hooks whose first interval begins with the
/// call; otherwise the first interval is unobservable and skipped.
class HookSpans {
 public:
  HookSpans(Pass& p, core::Cluster& c, bool first_open)
      : pass_(&p), cluster_(&c) {
    if (first_open) open();
  }
  void mark(const std::string& name) {
    close(name);
    open();
  }
  /// End the open interval under `name`; after the last hook this is the
  /// run's tail (verification, final barrier).
  void close(const std::string& name) {
    if (open_ < 0) return;
    pass_->spans().at(open_).name = name;
    pass_->spans().end(open_, ps_to_ms(cluster_->rank_time(0)));
    open_ = -1;
  }

 private:
  void open() {
    open_ = pass_->spans().begin("(open)", pass_->current(), 0,
                                 ps_to_ms(cluster_->rank_time(0)));
  }
  Pass* pass_;
  core::Cluster* cluster_;
  int open_ = -1;
};

// -- nas ---------------------------------------------------------------------

void run_nas(Pass& p, PassResult& out, std::uint64_t seed) {
  double makespan = 0, comm = 0;
  int unverified = 0;
  for (const char* kernel : {"cg", "ep", "is", "lu", "mg"}) {
    core::ClusterConfig cfg;
    cfg.platform = platform::opteron_pcie_infinihost();
    cfg.nodes = 2;
    cfg.ranks_per_node = 4;
    cfg.hugepage_library = true;
    cfg.placement_policy = "paper-default";
    cfg.seed = derive(seed, 1);
    auto cluster = p.build(cfg);
    workloads::NasResult r;
    p.measured(*cluster, std::string("workloads.run_nas.") + kernel, [&] {
      workloads::NasScale s;
      std::unique_ptr<HookSpans> hooks;
      if (p.traced()) {
        hooks = std::make_unique<HookSpans>(p, *cluster, false);
        s.iter_hook = [&hooks](int) { hooks->mark("workloads.nas_iter"); };
      }
      r = workloads::run_nas(kernel, *cluster, s);
      if (hooks) hooks->close("workloads.nas_finish");
    });
    makespan += ps_to_ms(cluster->makespan());
    comm += ps_to_ms(r.comm_avg);
    p.virt(std::string("workloads.kernel_virt_ms.") + kernel,
           ps_to_ms(r.total));
    char fom[64];
    std::snprintf(fom, sizeof fom, "%s=%.17g", kernel, r.figure_of_merit);
    p.fingerprint(fom);
    if (!p.check(r.verified, std::string("nas ") + kernel + " did not verify"))
      ++unverified;
  }
  for (const char* k : {"mpi.eager_sent", "mpi.rndv_copy_sent",
                        "mpi.rndv_rdma_sent", "mpi.shm_sent", "mpi.ud_sent",
                        "mpi.rdma_eager_sent"})
    out.ops += static_cast<std::uint64_t>(out.reg_sum[k]);
  p.virt("virt_makespan_ms", makespan);
  p.virt("virt_comm_ms", comm);
  p.virt("error_rate", unverified / 5.0);
}

// -- imb-reg -----------------------------------------------------------------

void run_imb(Pass& p, PassResult& out, std::uint64_t seed) {
  double makespan = 0, bw16m = 0;
  std::size_t sizes = 0, bad = 0;
  for (bool huge : {false, true}) {
    core::ClusterConfig cfg;
    cfg.platform = platform::opteron_pcie_infinihost();
    cfg.nodes = 2;
    cfg.ranks_per_node = 1;
    cfg.hugepage_library = huge;
    cfg.lazy_deregistration = false;
    cfg.seed = derive(seed, 2);
    auto cluster = p.build(cfg);
    workloads::ImbConfig ic;
    ic.sizes = workloads::imb_default_sizes();
    std::vector<workloads::ImbPoint> pts;
    const char* tag = huge ? "huge" : "small";
    p.measured(*cluster, std::string("workloads.run_sendrecv.") + tag, [&] {
      std::unique_ptr<HookSpans> hooks;
      if (p.traced()) {
        hooks = std::make_unique<HookSpans>(p, *cluster, true);
        ic.phase_hook = [&hooks](std::size_t, std::uint64_t bytes) {
          hooks->mark("workloads.imb_size." + std::to_string(bytes));
        };
      }
      pts = workloads::run_sendrecv(*cluster, ic);
      if (hooks) hooks->close("workloads.imb_finish");
    });
    makespan += ps_to_ms(cluster->makespan());
    // IMB counts both directions; each direction is bounded by the link.
    const double link_mbps =
        cfg.platform.adapter.link_bw_bytes_per_ns * 1e3;
    for (std::size_t i = 0; i < ic.sizes.size(); ++i) {
      const bool done = i < pts.size() && pts[i].bytes == ic.sizes[i] &&
                        pts[i].avg_time > 0;
      const double per_dir = done ? pts[i].mbytes_per_sec / 2.0 : 0.0;
      ++sizes;
      if (!p.check(done && per_dir > 0.0 && per_dir < link_mbps,
                   std::string("imb ") + tag + " size " +
                       std::to_string(ic.sizes[i]) +
                       " incomplete or above the link rate"))
        ++bad;
      if (done) {
        char f[64];
        std::snprintf(f, sizeof f, "%s%llu=%llu", tag,
                      static_cast<unsigned long long>(pts[i].bytes),
                      static_cast<unsigned long long>(pts[i].avg_time));
        p.fingerprint(f);
      }
    }
    out.ops += ic.sizes.size() *
               static_cast<std::uint64_t>(ic.iterations + ic.warmup);
    if (huge && !pts.empty()) bw16m = pts.back().mbytes_per_sec;
  }
  p.virt("virt_makespan_ms", makespan);
  p.virt("virt_bw_mbps", bw16m);
  p.virt("error_rate", ratio(static_cast<double>(bad),
                             static_cast<double>(sizes)));
}

// -- closed-loop helpers -----------------------------------------------------

void add_gen(PassResult& out, const loadgen::GenResult& g) {
  out.gen["issued"] += static_cast<double>(g.issued);
  out.gen["ok"] += static_cast<double>(g.ok);
  out.gen["shed"] += static_cast<double>(g.shed);
  out.gen["timed_out"] += static_cast<double>(g.timed_out);
  out.gen["rejected"] += static_cast<double>(g.rejected);
  out.gen["lost_latency"] += static_cast<double>(g.lost_latency);
}

/// Latency and rate of the Ok completions of one closed loop (fleet).
void report_latency(Pass& p, const LogHistogram& lat, std::uint64_t ok,
                    TimePs span) {
  p.virt("virt_p50_us", lat.p50() / 1000.0);
  p.virt("virt_p99_us", lat.p99() / 1000.0);
  p.virt("virt_latency_samples", static_cast<double>(lat.count()));
  p.virt("virt_rps", span > 0 ? static_cast<double>(ok) * 1e12 /
                                    static_cast<double>(span)
                              : 0.0);
  p.check(tail_quantile(lat.count()) >= 0.99,
          "fewer than 1000 latency samples: p99 unsupported");
}

void check_accounting(Pass& p, const loadgen::GenResult& g,
                      const std::string& who) {
  p.check(g.issued == g.ok + g.shed + g.timed_out + g.rejected,
          who + ": issued != ok + shed + timed_out + rejected");
}

void hash_gen(Pass& p, const loadgen::GenResult& g) {
  char h[40];
  std::snprintf(h, sizeof h, "%016llx",
                static_cast<unsigned long long>(g.trace_hash));
  p.fingerprint(h);
}

// -- rpc-threads -------------------------------------------------------------

constexpr std::uint32_t kClients = 4;
constexpr std::uint64_t kThreadRequests = 4800;

void run_rpc_threads(Pass& p, PassResult& out, std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = 1 + kClients;
  cfg.ranks_per_node = 1;
  cfg.seed = derive(seed, 3);
  cfg.request_trace.enabled = p.traced();
  auto cluster = p.build(cfg);
  const std::uint64_t gen_seed = derive(seed, 4);
  loadgen::GenResult gens[kClients];
  p.measured(*cluster, "cluster.run", [&] {
    cluster->run([&](core::RankEnv& env) {
      mpi::CommConfig mc;
      mc.sge_gather = true;
      mpi::Comm comm(env, mc);
      rpc::RpcConfig rc;
      rc.max_payload = 256;
      rc.service_base = ns(200);
      rc.service_per_byte_ps = 0;
      rc.server_workers = 8;
      rc.share_mode = hca::ShareMode::PerThreadQp;
      if (env.rank() == 0) {
        rc.batching = false;
        std::vector<int> clients;
        for (std::uint32_t i = 1; i <= kClients; ++i)
          clients.push_back(static_cast<int>(i));
        rpc::RpcServer server(comm, clients, rc);
        RankSpan s(p, "rpc.serve", env);
        server.serve();
        return;
      }
      rpc::RpcClient client(comm, 0, rc);
      loadgen::Workload w;
      w.request_bytes = 128;
      loadgen::ClosedLoopConfig cc;
      cc.workers = 8;
      cc.requests = kThreadRequests / kClients;
      cc.warmup = kThreadRequests / (4 * kClients);
      cc.seed = gen_seed + static_cast<std::uint64_t>(env.rank());
      cc.tracked_workers = true;
      {
        RankSpan s(p, "loadgen.run_closed_loop", env);
        gens[env.rank() - 1] = loadgen::run_closed_loop(client, w, cc);
      }
      RankSpan s(p, "rpc.close", env);
      client.close();
    });
  });
  LogHistogram lat;
  std::uint64_t ok = 0, issued = 0;
  TimePs span = 0;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    const loadgen::GenResult& g = gens[i];
    check_accounting(p, g, "client " + std::to_string(i + 1));
    hash_gen(p, g);
    add_gen(out, g);
    lat.merge(g.latency_ns);
    ok += g.ok;
    issued += g.issued;
    span = std::max(span, g.span);
  }
  out.ops += ok;
  p.virt("virt_makespan_ms", ps_to_ms(cluster->makespan()));
  report_latency(p, lat, ok, span);
  p.virt("error_rate", ratio(static_cast<double>(issued - ok),
                             static_cast<double>(issued)));
}

// -- serve-failover ----------------------------------------------------------

constexpr std::uint32_t kServers = 4;
constexpr int kVictim = 2;
constexpr std::uint64_t kFailoverRequests = 1600;

fabric::FabricConfig failover_fabric() {
  fabric::FabricConfig fc;
  fc.stripe_threshold = 8 * kKiB;
  fc.stripe_width = 3;
  fc.fail_after = 2;
  fc.rpc.request_timeout = us(4000);
  fc.rpc.max_retries = 1;
  fc.probe_backoff = us(1000);
  fc.probe_backoff_max = us(8000);
  fc.degrade_outstanding = 4;
  return fc;
}

struct FailoverRun {
  loadgen::GenResult gen;
  fabric::FabricClientStats fab;
  TimePs makespan = 0;
};

FailoverRun failover_run(Pass& p, PassResult& out, std::uint64_t seed,
                         const fault::FaultPlan& plan, TimePs window,
                         const char* name) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = kServers + 1;
  cfg.ranks_per_node = 1;
  cfg.fault = plan;
  cfg.seed = derive(seed, 5);
  cfg.request_trace.enabled = p.traced();
  auto cluster = p.build(cfg);
  FailoverRun r;
  p.measured(*cluster, name, [&] {
    cluster->run([&](core::RankEnv& env) {
      mpi::CommConfig mc;
      mc.sge_gather = true;
      mc.recovery = mpi::CommConfig::Recovery::Repost;
      mpi::Comm comm(env, mc);
      const fabric::FabricConfig fc = failover_fabric();
      if (env.rank() != 0) {
        fabric::FabricServer server(comm, {0}, fc);
        RankSpan s(p, "fabric.serve", env);
        server.serve();
        return;
      }
      std::vector<int> ranks;
      for (std::uint32_t s = 1; s <= kServers; ++s)
        ranks.push_back(static_cast<int>(s));
      fabric::FabricClient client(comm, ranks, fc);
      loadgen::Workload w;
      w.request_bytes = 64;
      w.response_bytes = 256;
      w.tenants = 8;
      w.bulk_fraction = 0.25;
      w.bulk_response_bytes = 32 * kKiB;
      loadgen::ClosedLoopConfig cc;
      cc.workers = 4;
      cc.requests = kFailoverRequests;
      cc.seed = derive(seed, 6);
      cc.window = window;
      {
        RankSpan s(p, "loadgen.run_closed_loop", env);
        r.gen = loadgen::run_closed_loop(client, w, cc);
      }
      r.fab = client.stats();
      RankSpan s(p, "fabric.close", env);
      client.close();
    });
  });
  r.makespan = cluster->makespan();
  add_gen(out, r.gen);
  out.ops += r.gen.ok;
  hash_gen(p, r.gen);
  check_accounting(p, r.gen, name);
  return r;
}

/// Post-failover vs pre-crash goodput from the windowed Ok counts, as
/// bench/ext_failover_sweep computes it: pre = full windows before the
/// crash (from the first completion), post = windows after detection
/// could have completed, final partial window excluded.
double recovered_ratio(const loadgen::GenResult& g, TimePs crash_at,
                       TimePs window) {
  const auto& ok = g.window_ok;
  if (ok.size() < 3 || window == 0 || crash_at <= g.start) return 0.0;
  const fabric::FabricConfig fc = failover_fabric();
  const TimePs crash_rel = crash_at - g.start;
  const TimePs detected = crash_rel + fc.fail_after * fc.rpc.request_timeout;
  const std::size_t crash_w = static_cast<std::size_t>(crash_rel / window);
  const std::size_t post_w = static_cast<std::size_t>(detected / window) + 1;
  std::size_t first = 0;
  while (first < ok.size() && ok[first] == 0) ++first;
  double pre = 0, post = 0;
  std::size_t npre = 0, npost = 0;
  for (std::size_t i = first; i < ok.size(); ++i) {
    if (i < crash_w) {
      pre += static_cast<double>(ok[i]);
      ++npre;
    } else if (i >= post_w && i + 1 < ok.size()) {
      post += static_cast<double>(ok[i]);
      ++npost;
    }
  }
  if (npre == 0 || npost == 0 || pre <= 0.0) return 0.0;
  return (post / static_cast<double>(npost)) /
         (pre / static_cast<double>(npre));
}

void run_failover(Pass& p, PassResult& out, std::uint64_t seed) {
  // The fault-free run paces the plan: crash at ~30 % of its span,
  // goodput windows of 1/16 of it, on the fault DSL's microsecond grid.
  const FailoverRun base =
      failover_run(p, out, seed, {}, 0, "cluster.run.baseline");
  p.check(base.fab.failovers == 0 && base.gen.timed_out == 0,
          "baseline: failover or loss without a fault");
  const TimePs span = base.gen.span;
  const TimePs window = us(std::max<std::uint64_t>(span / 16 / us(1), 1));
  const TimePs crash_at = us(std::max<std::uint64_t>(
      (base.gen.start + span * 30 / 100) / us(1), 1));
  fault::FaultPlan plan;
  plan.crashes.push_back({kVictim, crash_at});
  plan.seed = derive(seed, 7);
  const FailoverRun crash =
      failover_run(p, out, seed, plan, window, "cluster.run.crash");
  p.check(crash.gen.lost_latency == 0, "crash: lost Latency-class requests");
  p.check(crash.fab.failovers == 1,
          "crash: " + std::to_string(crash.fab.failovers) +
              " failovers, want exactly 1");
  p.virt("virt_makespan_ms", ps_to_ms(base.makespan + crash.makespan));
  report_latency(p, crash.gen.latency_ns, crash.gen.ok, crash.gen.span);
  p.virt("virt_goodput_recovery",
         recovered_ratio(crash.gen, crash_at, window));
  p.virt("error_rate",
         ratio(static_cast<double>(crash.gen.issued - crash.gen.ok),
               static_cast<double>(crash.gen.issued)));
}

}  // namespace

PassResult run_pass(const std::string& workload, std::uint64_t seed,
                    bool traced) {
  PassResult out;
  const RegionTimer whole;
  {
    Pass p(out, traced);
    if (workload == "nas") {
      run_nas(p, out, seed);
    } else if (workload == "imb-reg") {
      run_imb(p, out, seed);
    } else if (workload == "rpc-threads") {
      run_rpc_threads(p, out, seed);
    } else if (workload == "serve-failover") {
      run_failover(p, out, seed);
    } else {
      IBP_FAIL("unknown workload '" << workload << "'");
    }
    p.finish();
  }
  const Region all = whole.stop();
  out.run.wall_s = all.wall_s - out.setup_s;
  out.run.usage = all.usage - out.setup_usage;
  out.run.usage.max_rss_kib = all.usage.max_rss_kib;
  return out;
}

}  // namespace perfbench
