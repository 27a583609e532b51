#include "metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

namespace {

template <typename F>
double median_of(const std::vector<PassResult>& ps, F f) {
  std::vector<double> v;
  for (const PassResult& p : ps) v.push_back(f(p));
  return median(std::move(v));
}

const double* find_virt(const PassResult& p, const std::string& name) {
  for (const auto& [n, v] : p.virt)
    if (n == name) return &v;
  return nullptr;
}

double virt_of(const PassResult& p, const std::string& name) {
  const double* v = find_virt(p, name);
  return v ? *v : 0.0;
}

double lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Summed host duration of the spans called `name`.
double span_total(const PassResult& p, const std::string& name) {
  double t = 0.0;
  for (const Span& s : p.spans.spans())
    if (s.name == name) t += s.host_s();
  return t;
}

/// Host time covered by the union of the spans called `name` (spans on
/// different ranks overlap in host time).
double span_union(const PassResult& p, const std::string& name) {
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : p.spans.spans())
    if (s.name == name) iv.emplace_back(s.host_start_s, s.host_end_s);
  std::sort(iv.begin(), iv.end());
  double total = 0.0, lo = 0.0, hi = 0.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += hi - lo;
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

/// A per-pass host wall time `f(p)` converted to reference seconds.
template <typename F>
auto ref(F f) {
  return [f](const PassResult& p) { return f(p) * p.to_ref(); };
}

/// A per-pass host CPU time `f(p)` converted to reference seconds.
template <typename F>
auto cpu_ref(F f) {
  return [f](const PassResult& p) { return f(p) * p.cpu_to_ref(); };
}

const char* const kKernels[] = {"cg", "ep", "is", "lu", "mg"};

}  // namespace

Report end_to_end_report(const std::vector<PassResult>& plain) {
  Report r;
  const PassResult& p0 = plain.front();
  const std::string n = " (median of " + std::to_string(plain.size()) +
                        " passes)";
  const auto raw = [&](auto f) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " (reference s; raw median %.4g)",
                  median_of(plain, f));
    return std::string(buf) + n;
  };
  const auto wall = [](const PassResult& p) { return p.run.wall_s; };
  const auto cpu = [](const PassResult& p) { return p.run.usage.cpu_s(); };
  const auto setup = [](const PassResult& p) { return p.setup_s; };
  r.json = {
      {"wall_s", "s", median_of(plain, ref(wall)), raw(wall)},
      {"cpu_s", "s", median_of(plain, cpu_ref(cpu)), raw(cpu)},
      {"setup_s", "s", median_of(plain, ref(setup)), raw(setup)},
      {"peak_rss_mib", "MiB",
       static_cast<double>(Usage::now().max_rss_kib) / 1024.0,
       " (whole process)"},
      {"ops_per_s", "op/s",
       median_of(plain,
                 [](const PassResult& p) {
                   return static_cast<double>(p.ops) /
                          (p.run.wall_s * p.to_ref());
                 }),
       " (per reference s; " + std::to_string(p0.ops) + " ops per pass)"},
  };
  struct Row {
    const char* name;
    const char* unit;
  };
  for (const Row& row : {Row{"virt_makespan_ms", "ms"},
                         Row{"error_rate", "ratio"},
                         Row{"virt_comm_ms", "ms"},
                         Row{"virt_bw_mbps", "MB/s"},
                         Row{"virt_p50_us", "us"},
                         Row{"virt_p99_us", "us"},
                         Row{"virt_rps", "req/s"},
                         Row{"virt_goodput_recovery", "ratio"}}) {
    const double* v = find_virt(p0, row.name);
    if (v == nullptr) continue;
    std::string note;
    if (std::string(row.name).rfind("virt_p", 0) == 0)
      note = " (" +
             std::to_string(static_cast<long long>(
                 virt_of(p0, "virt_latency_samples"))) +
             " Ok samples)";
    r.extra.push_back({row.name, row.unit, *v, note});
  }
  return r;
}

Report per_layer_report(const std::vector<PassResult>& plain,
                        const std::vector<PassResult>& traced) {
  Report r;
  const PassResult& t0 = traced.front();
  auto add = [&](std::string name, std::string unit, double v,
                 std::string note = "") {
    r.json.push_back({std::move(name), std::move(unit), v, std::move(note)});
  };
  auto reg = [&](const std::string& k) { return lookup(t0.reg_sum, k); };
  auto reg_peak = [&](const std::string& k) { return lookup(t0.reg_max, k); };
  auto host = [&](auto f) { return median_of(traced, f); };

  // Host times below are in reference seconds (see kProbeNominalS).
  add("host.probe_s", "s",
      host([](const PassResult& p) { return p.probe_s; }),
      " (raw; the host-speed probe beside each pass)");
  add("host.raw_wall_s", "s",
      host([](const PassResult& p) { return p.run.wall_s; }), " (raw)");

  // sim / mem: the process's own scheduling and paging over the run.
  const double ops = static_cast<double>(t0.ops);
  add("sim.ctx_switches", "count", host([](const PassResult& p) {
        return static_cast<double>(p.run.usage.ctx_switches());
      }));
  add("sim.ctx_switches_per_op", "switch/op", host([&](const PassResult& p) {
        return ratio(static_cast<double>(p.run.usage.ctx_switches()), ops);
      }), " (base: " + std::to_string(t0.ops) + " ops)");
  add("sim.sys_s", "s",
      host(cpu_ref([](const PassResult& p) { return p.run.usage.sys_s; })));
  add("mem.minor_faults", "count", host([](const PassResult& p) {
        return static_cast<double>(p.run.usage.minor_faults);
      }));
  add("core.cluster_build_s", "s",
      host(ref([](const PassResult& p) { return p.setup_s; })));

  // workloads: host spans around run_nas / run_sendrecv and the hooks.
  for (const char* k : kKernels) {
    const std::string span = std::string("workloads.run_nas.") + k;
    add(std::string("workloads.kernel_host_s.") + k, "s",
        host(ref([&](const PassResult& p) { return span_total(p, span); })));
  }
  for (const char* k : kKernels)
    add(std::string("workloads.kernel_virt_ms.") + k, "ms",
        virt_of(t0, std::string("workloads.kernel_virt_ms.") + k));
  std::vector<double> iters;
  for (const PassResult& p : traced)
    for (const Span& s : p.spans.spans())
      if (s.name == "workloads.nas_iter")
        iters.push_back(s.host_s() * p.to_ref() * 1e3);
  const double tail = tail_quantile(iters.size());
  const std::string iters_n = std::to_string(iters.size()) + " iterations)";
  add("workloads.iter_host_ms.p50", "ms", quantile(iters, 0.5),
      " (" + iters_n);
  add("workloads.iter_host_ms.tail", "ms", quantile(iters, tail),
      " (p" + std::to_string(static_cast<int>(tail * 100)) + ", " + iters_n);
  for (const char* k : {"small", "huge"}) {
    const std::string span = std::string("workloads.run_sendrecv.") + k;
    add(std::string("workloads.imb_host_s.") + k, "s",
        host(ref([&](const PassResult& p) { return span_total(p, span); })));
  }

  // mpi
  double msgs = 0.0;
  for (const char* k : {"mpi.eager_sent", "mpi.rndv_copy_sent",
                        "mpi.rndv_rdma_sent", "mpi.shm_sent", "mpi.ud_sent",
                        "mpi.rdma_eager_sent"})
    msgs += reg(k);
  add("mpi.msgs", "count", msgs);
  for (const char* k : {"mpi.eager_sent", "mpi.rndv_copy_sent",
                        "mpi.rndv_rdma_sent", "mpi.shm_sent",
                        "mpi.unexpected_arrivals"})
    add(k, "count", reg(k));
  add("mpi.time_us_total", "us", reg("mpi.time_us_total"));
  for (const char* k : {"mpi.gather_sends", "mpi.sge_splits",
                        "mpi.retransmits", "mpi.recoveries"})
    add(k, "count", reg(k));

  // hca (+verbs)
  add("hca.sends_posted", "count", reg("hca.sends_posted"));
  add("hca.recvs_posted", "count", reg("hca.recvs_posted"));
  add("hca.bytes_tx", "B", reg("hca.bytes_tx"));
  const double att = reg("hca.att_hits") + reg("hca.att_misses");
  add("hca.att_hit_ratio", "ratio", ratio(reg("hca.att_hits"), att),
      " (base: " + std::to_string(static_cast<long long>(att)) +
          " lookups)");
  add("hca.pages_pinned", "count", reg("hca.pages_pinned"));
  add("hca.translations_shipped", "count", reg("hca.translations_shipped"));
  add("hca.reg_time_us", "us", reg("hca.reg_time_us"));
  add("hca.qp_contention_ps", "ps", reg("hca.qp_contention_ps"));
  add("hca.cq_poll_contention_ps", "count", reg("hca.cq_poll_contention_ps"),
      " (contended CQ polls)");
  add("hca.retransmits", "count", reg("hca.retransmits"));
  add("hca.qp_errors", "count", reg("hca.qp_errors"));

  // regcache
  const double lookups = reg("regcache.hits") + reg("regcache.misses");
  add("regcache.hit_ratio", "ratio", ratio(reg("regcache.hits"), lookups),
      " (base: " + std::to_string(static_cast<long long>(lookups)) +
          " lookups)");
  add("regcache.misses", "count", reg("regcache.misses"));
  add("regcache.evictions", "count", reg("regcache.evictions"));
  add("regcache.pinned_bytes_peak", "B", reg_peak("regcache.pinned_bytes_peak"),
      " (largest run)");

  // hugepage, cpu, placement
  for (const char* k : {"hugepage.huge_allocs", "hugepage.libc_allocs",
                        "hugepage.fallback_allocs"})
    add(k, "count", reg(k));
  add("hugepage.heap_bytes_mapped", "B", reg("hugepage.heap_bytes_mapped"));
  add("cpu.dtlb_misses_small", "count", reg("cpu.dtlb_misses_small"));
  add("cpu.dtlb_misses_huge", "count", reg("cpu.dtlb_misses_huge"));
  add("cpu.stream_bytes", "B", reg("cpu.stream_bytes"));
  add("cpu.random_accesses", "count", reg("cpu.random_accesses"));
  add("cpu.prefetch_ramps", "count", reg("cpu.prefetch_ramps"));
  for (const char* k : {"placement.plan_decisions", "placement.huge_backed",
                        "placement.small_backed", "placement.sge_plans"})
    add(k, "count", reg(k));

  // rpc
  add("rpc.requests", "count", reg("rpc.requests"));
  add("rpc.completed", "count", reg("rpc.completed"));
  add("rpc.batch_fill", "req/batch",
      ratio(reg("rpc.batched_requests"), reg("rpc.batches")),
      " (base: " + std::to_string(static_cast<long long>(
                       reg("rpc.batches"))) + " batches)");
  add("rpc.resp_batches", "count", reg("rpc.resp_batches"));
  add("rpc.queue_peak", "count", reg_peak("rpc.queue_peak"), " (largest run)");
  for (const char* k : {"rpc.credit_stalls", "rpc.shed_total", "rpc.retries",
                        "rpc.duplicates"})
    add(k, "count", reg(k));
  for (std::size_t s = 0; s < kStageHists; ++s) {
    const ibp::LogHistogram& h = t0.stages[s];
    const std::string pre = std::string("rpc.stage.") + stage_hist_name(s);
    const double q = tail_quantile(h.count());
    const std::string note = " (p" + std::to_string(static_cast<int>(q * 100)) +
                             ", " + std::to_string(h.count()) + " samples)";
    add(pre + ".p50_us", "us", h.p50() / 1000.0);
    add(pre + ".tail_us", "us", q > 0 ? h.quantile(q) / 1000.0 : 0.0, note);
  }

  // loadgen
  add("loadgen.run_host_s", "s", host(ref([](const PassResult& p) {
        return span_union(p, "loadgen.run_closed_loop");
      })));
  for (const char* k :
       {"issued", "ok", "shed", "timed_out", "rejected", "lost_latency"})
    add(std::string("loadgen.") + k, "count", lookup(t0.gen, k));

  // fabric, fault
  for (const char* k : {"fabric.stripes", "fabric.segments",
                        "fabric.adaptive_skips", "fabric.link_credit_stalls",
                        "fabric.failovers", "fabric.rerouted",
                        "fabric.degraded_shed"})
    add(k, "count", reg(k));
  add("fabric.recovery_time_us", "us", reg("fabric.recovery_time_ps") / 1e6);
  add("fault.packets_judged", "count", reg("fault.packets_judged"));
  add("fault.drops", "count", reg("fault.drops"));

  // telemetry: what tracing cost, traced vs untraced wall time.
  const auto wall = ref([](const PassResult& p) { return p.run.wall_s; });
  const double plain_wall = median_of(plain, wall);
  add("telemetry.trace_overhead_pct", "%",
      (median_of(traced, wall) - plain_wall) / plain_wall * 100.0,
      " (" + std::to_string(traced.size()) + " traced vs " +
          std::to_string(plain.size()) + " untraced passes)");

  // The workload's virtual-time headline metrics (0 where not applicable).
  for (const auto& [name, unit] :
       std::vector<std::pair<const char*, const char*>>{
           {"virt_makespan_ms", "ms"},
           {"virt_comm_ms", "ms"},
           {"virt_bw_mbps", "MB/s"},
           {"virt_p50_us", "us"},
           {"virt_p99_us", "us"},
           {"virt_latency_samples", "count"},
           {"virt_rps", "req/s"},
           {"virt_goodput_recovery", "ratio"},
           {"error_rate", "ratio"}})
    add(name, unit, virt_of(t0, name));
  return r;
}

void print_table(const Report& r, const char* title) {
  std::printf("%s\n", title);
  for (const auto* rows : {&r.json, &r.extra})
    for (const Metric& m : *rows)
      std::printf("  %-40s %16.6g %-10s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
}

void print_self_times(const std::vector<PassResult>& traced) {
  std::map<std::string, std::vector<double>> per_name;
  for (const PassResult& p : traced) {
    const auto& spans = p.spans.spans();
    const std::vector<double> self = self_times(spans);
    std::map<std::string, double> sum;
    for (std::size_t i = 0; i < spans.size(); ++i)
      sum[spans[i].name] += self[i];
    for (const auto& [name, s] : sum) per_name[name].push_back(s);
  }
  std::printf("host self time per span (median over %zu traced passes)\n",
              traced.size());
  for (const auto& [name, v] : per_name)
    std::printf("  %-40s %12.6f s\n", name.c_str(), median(v));
}

}  // namespace perfbench
