// ibplace — command-line driver for the simulator.
//
//   ibplace info                         platform parameter dump
//   ibplace imb <mode> [opts]            sendrecv | pingpong | exchange
//   ibplace nas <kernel> [opts]          cg|ep|is|lu|mg|ft, both placements
//   ibplace reg [opts]                   registration cost sweep
//   ibplace rpc <open|closed> [opts]     RPC serving layer under load
//   ibplace fabric [opts]                sharded fabric, striped bulk reads
//   ibplace trace-report <file>          stage breakdown of a request trace
//
// Common options:
//   --platform=opteron|xeon|systemp   (default opteron)
//   --nodes=N --rpn=R                 topology (default 2x4; imb and
//                                     rpc 2x1)
//   --hugepages=0|1                   preload the hugepage library
//   --lazy=0|1                        lazy deregistration (default 1)
//   --patched=0|1                     driver hugepage passthrough (default 1)
//   --rndv-read=0|1                   RDMA-read rendezvous (default 0;
//                                     imb/rpc/fabric)
//   --iters=N  --scale=N              (integer flags reject anything but
//                                     a whole decimal number)
//   --fault=SPEC                      inline fault plan (see fault.hpp)
//   --fault-file=PATH                 fault plan from a file
//   --recovery=failfast|repost        MPI policy on error completions
//   --metrics-out=PATH                final metrics snapshot as JSON
//   --trace-out=PATH                  Chrome trace JSON (spans, counter
//                                     tracks, flow events)
//   --metrics-filter=PREFIX           restrict --metrics-out to a
//                                     namespace prefix (e.g. mpi.)
//   --json=PATH                       rpc/fabric result summary as JSON
//                                     (one schema family across both)
//   --request-trace-out=PATH          enable per-request tracing and write
//                                     the exemplar/stage JSONL stream
//                                     (read it back with trace-report)
//
// Fabric options (ibplace fabric):
//   --servers=N                       server ranks behind the client
//   --stripe=W                        stripe width (links per bulk read)
//   --shard-map=hash|range|affinity   tenant -> server strategy
//
// Everything is deterministic; outputs are stable across runs — fault
// plans included (the injector draws from its own seeded RNG streams).

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ibp/common/table.hpp"
#include "ibp/fabric/fabric.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/loadgen/loadgen.hpp"
#include "ibp/rpc/rpc.hpp"
#include "ibp/telemetry/reqtrace.hpp"
#include "ibp/telemetry/sink.hpp"
#include "ibp/workloads/imb.hpp"
#include "ibp/workloads/nas.hpp"

using namespace ibp;

namespace {

struct Options {
  std::string platform = "opteron";
  int nodes = 2;
  int rpn = 4;
  bool hugepages = false;
  bool lazy = true;
  bool patched = true;
  bool rndv_read = false;
  int iters = 10;
  int scale = 1;
  std::string fault;       // inline fault-plan spec
  std::string fault_file;  // fault-plan file (appended to `fault`)
  std::string recovery = "failfast";
  std::string metrics_out;     // final metrics snapshot (JSON)
  std::string trace_out;       // Chrome trace JSON
  std::string metrics_filter;  // metric-name prefix for --metrics-out
  std::string json_out;        // rpc/fabric result summary (JSON)
  std::string request_trace_out;  // per-request trace JSONL (enables hub)
  int servers = 4;             // fabric: server ranks
  int stripe = 4;              // fabric: stripe width
  int fail_after = -1;         // fabric: consecutive losses before a link
                               // is declared dead (-1 = auto: 2 when the
                               // fault plan has crash directives, else off)
  std::string shard_map = "hash";  // fabric: tenant->server strategy
  int threads = 0;                 // rpc: server worker tracks (0 = inline)
  hca::ShareMode share_mode = hca::ShareMode::SharedLocked;  // rpc: QP/CQ
                                                             // sharing
  bool rdma_eager = false;  // rpc/fabric: one-sided ring channels
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: ibplace <info|imb|nas|reg|rpc|fabric> [args] "
               "[--options]\n"
               "  ibplace info [--platform=P]\n"
               "  ibplace imb <sendrecv|pingpong|exchange> [--options]\n"
               "  ibplace nas <cg|ep|is|lu|mg|ft> [--options]\n"
               "  ibplace reg [--platform=P]\n"
               "  ibplace rpc <open|closed> [--options]\n"
               "  ibplace fabric [--servers=N --stripe=W "
               "--shard-map=hash|range|affinity\n"
               "                  --fail-after=K]\n"
               "  ibplace trace-report <trace.jsonl>\n"
               "options: --platform=opteron|xeon|systemp --nodes=N --rpn=R\n"
               "         (default 2x4; imb and rpc 2x1)\n"
               "         --hugepages=0|1 --lazy=0|1 --patched=0|1\n"
               "         --rndv-read=0|1 (imb/rpc/fabric)\n"
               "         --iters=N --scale=N\n"
               "         --fault=SPEC --fault-file=PATH\n"
               "         --recovery=failfast|repost\n"
               "         --rdma-eager=0|1 (rpc/fabric)\n"
               "         --metrics-out=PATH --trace-out=PATH\n"
               "         --metrics-filter=PREFIX --json=PATH\n"
               "         --request-trace-out=PATH\n"
               "fault SPEC: ';'-separated directives, e.g.\n"
               "  drop=0-1:0.01 | corrupt=*-*:0.001:50-200 |\n"
               "  storm=1:100-400 | qpkill=0:2:250 | qpkill=1:*:300 |\n"
               "  crash=2:1500 | recover=2:4000 | seed=7\n"
               "  (times in us; '*' = any node / open-ended window;\n"
               "   qpkill QPs are numbered 1..N per node in wiring order,\n"
               "   '*' = the first QP on the node to act after AT)\n");
  std::exit(2);
}

bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

/// A NAME=0|1 flag; any other value (e.g. "true") is a usage error that
/// names the flag instead of silently reading as off.
bool parse_bool_flag(const char* arg, const char* name, bool* out) {
  std::string v;
  if (!parse_flag(arg, name, &v)) return false;
  if (v != "0" && v != "1")
    usage((std::string(name) + " must be 0 or 1, got '" + v + "'").c_str());
  *out = v == "1";
  return true;
}

/// A NAME=<int> flag; a value that is not a whole decimal int (e.g.
/// "1e6" or "two") is a usage error that names the flag instead of
/// reading as its numeric prefix or as 0.
bool parse_int_flag(const char* arg, const char* name, int* out) {
  std::string v;
  if (!parse_flag(arg, name, &v)) return false;
  const char* end = v.data() + v.size();
  const auto [stop, ec] = std::from_chars(v.data(), end, *out);
  if (ec != std::errc() || stop != end)
    usage((std::string(name) + " must be an integer, got '" + v + "'")
              .c_str());
  return true;
}

Options parse_options(int argc, char** argv, int first, int default_rpn) {
  Options o;
  o.rpn = default_rpn;
  for (int i = first; i < argc; ++i) {
    if (parse_bool_flag(argv[i], "--hugepages", &o.hugepages) ||
        parse_bool_flag(argv[i], "--lazy", &o.lazy) ||
        parse_bool_flag(argv[i], "--patched", &o.patched) ||
        parse_bool_flag(argv[i], "--rndv-read", &o.rndv_read) ||
        parse_bool_flag(argv[i], "--rdma-eager", &o.rdma_eager) ||
        parse_int_flag(argv[i], "--nodes", &o.nodes) ||
        parse_int_flag(argv[i], "--rpn", &o.rpn) ||
        parse_int_flag(argv[i], "--iters", &o.iters) ||
        parse_int_flag(argv[i], "--scale", &o.scale) ||
        parse_int_flag(argv[i], "--fail-after", &o.fail_after) ||
        parse_int_flag(argv[i], "--servers", &o.servers) ||
        parse_int_flag(argv[i], "--stripe", &o.stripe) ||
        parse_int_flag(argv[i], "--threads", &o.threads))
      continue;
    std::string v;
    if (parse_flag(argv[i], "--platform", &v)) {
      o.platform = v;
    } else if (parse_flag(argv[i], "--fault", &v)) {
      o.fault = v;
    } else if (parse_flag(argv[i], "--fault-file", &v)) {
      o.fault_file = v;
    } else if (parse_flag(argv[i], "--recovery", &v)) {
      o.recovery = v;
    } else if (parse_flag(argv[i], "--metrics-out", &v)) {
      o.metrics_out = v;
    } else if (parse_flag(argv[i], "--trace-out", &v)) {
      o.trace_out = v;
    } else if (parse_flag(argv[i], "--metrics-filter", &v)) {
      o.metrics_filter = v;
    } else if (parse_flag(argv[i], "--json", &v)) {
      o.json_out = v;
    } else if (parse_flag(argv[i], "--request-trace-out", &v)) {
      o.request_trace_out = v;
    } else if (parse_flag(argv[i], "--shard-map", &v)) {
      o.shard_map = v;
    } else if (parse_flag(argv[i], "--share-mode", &v)) {
      if (!hca::share_mode_from_name(v, &o.share_mode))
        usage(("unknown share mode '" + v +
               "' (known: shared-locked, per-thread-qp, dispatcher)")
                  .c_str());
    } else {
      usage(("unknown option " + std::string(argv[i])).c_str());
    }
  }
  if (o.nodes < 1 || o.rpn < 1 || o.iters < 1 || o.scale < 1)
    usage("topology/iteration options must be positive");
  if (o.threads < 0 || o.threads > 64)
    usage("--threads must be 0..64");
  if (o.recovery != "failfast" && o.recovery != "repost")
    usage("--recovery must be failfast or repost");
  return o;
}

core::ClusterConfig cluster_config(const Options& o) {
  core::ClusterConfig cfg;
  cfg.platform = platform::by_name(o.platform);
  cfg.nodes = o.nodes;
  cfg.ranks_per_node = o.rpn;
  cfg.hugepage_library = o.hugepages;
  cfg.lazy_deregistration = o.lazy;
  cfg.driver.hugepage_passthrough = o.patched;
  std::string spec = o.fault;
  if (!o.fault_file.empty()) {
    std::ifstream in(o.fault_file);
    if (!in) usage(("cannot open fault file " + o.fault_file).c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!spec.empty()) spec += ';';
    spec += ss.str();
  }
  if (!spec.empty()) cfg.fault = fault::parse_fault_plan(spec);
  cfg.enable_tracing = !o.trace_out.empty();
  if (!o.request_trace_out.empty()) cfg.request_trace.enabled = true;
  return cfg;
}

/// Write --metrics-out / --trace-out files for a finished run.
void write_telemetry_outputs(core::Cluster& cluster, const Options& o) {
  if (!o.request_trace_out.empty()) {
    std::ofstream out(o.request_trace_out);
    if (!out) usage(("cannot open " + o.request_trace_out).c_str());
    telemetry::RequestTracer* hub = cluster.request_tracer();
    if (hub != nullptr) hub->write_jsonl(out);
  }
  if (!o.metrics_out.empty()) {
    std::ofstream out(o.metrics_out);
    if (!out) usage(("cannot open " + o.metrics_out).c_str());
    telemetry::write_metrics_json(cluster.metrics().snapshot(),
                                  o.metrics_filter, out);
  }
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    if (!out) usage(("cannot open " + o.trace_out).c_str());
    cluster.tracer()->write_json(out);
  }
}

/// One-line transport-reliability summary after a faulted run.
void print_fault_summary(core::Cluster& cluster) {
  fault::FaultInjector* inj = cluster.fault();
  if (inj == nullptr) return;
  std::uint64_t retrans = 0, rnr = 0, qperr = 0, storm = 0;
  for (int n = 0; n < cluster.nodes(); ++n) {
    const hca::AdapterStats& s = cluster.node(n).adapter.stats();
    retrans += s.retransmits;
    rnr += s.rnr_naks;
    qperr += s.qp_errors;
    storm += s.storm_att_misses;
  }
  const fault::FaultStats& fs = inj->stats();
  std::printf("\nfault plan: %s\n", fault::describe(inj->plan()).c_str());
  std::printf("faults: %llu/%llu packets dropped, %llu corrupted; "
              "%llu retransmits, %llu RNR rounds, %llu QP errors, "
              "%llu storm ATT misses\n",
              static_cast<unsigned long long>(fs.packets_dropped),
              static_cast<unsigned long long>(fs.packets_judged),
              static_cast<unsigned long long>(fs.packets_corrupted),
              static_cast<unsigned long long>(retrans),
              static_cast<unsigned long long>(rnr),
              static_cast<unsigned long long>(qperr),
              static_cast<unsigned long long>(storm));
}

int cmd_info(const Options& o) {
  const auto p = platform::by_name(o.platform);
  std::printf("platform %s\n", p.name.c_str());
  TextTable t({"parameter", "value"});
  t.add_row("tbr frequency [MHz]", p.tbr_hz / 1e6);
  t.add_row("compute [ops/ns]", p.ops_per_ns);
  t.add_row("TLB 4K entries", static_cast<std::uint64_t>(p.tlb.small_entries));
  t.add_row("TLB 2M entries", static_cast<std::uint64_t>(p.tlb.huge_entries));
  t.add_row("DRAM stream [B/ns]", p.mem.stream_bw_bytes_per_ns);
  t.add_row("link [B/ns]", p.adapter.link_bw_bytes_per_ns);
  t.add_row("ATT entries", p.adapter.att_entries);
  t.add_row("ATT miss [ns]", ps_to_ns(p.adapter.att_miss));
  t.add_row("post base [ns]", ps_to_ns(p.adapter.post_base));
  t.add_row("pin/page [ns]", ps_to_ns(p.adapter.pin_per_page));
  t.print();
  return 0;
}

int cmd_imb(const std::string& mode, const Options& o) {
  Options opt = o;
  core::ClusterConfig cfg = cluster_config(opt);
  core::Cluster cluster(cfg);
  workloads::ImbConfig icfg;
  icfg.sizes = workloads::imb_default_sizes();
  icfg.iterations = opt.iters;
  icfg.comm.rndv_read = opt.rndv_read;
  icfg.comm.recovery = opt.recovery == "repost"
                           ? mpi::CommConfig::Recovery::Repost
                           : mpi::CommConfig::Recovery::FailFast;

  std::vector<workloads::ImbPoint> pts;
  if (mode == "sendrecv") {
    pts = workloads::run_sendrecv(cluster, icfg);
  } else if (mode == "pingpong") {
    pts = workloads::run_pingpong(cluster, icfg);
  } else if (mode == "exchange") {
    pts = workloads::run_exchange(cluster, icfg);
  } else {
    usage(("unknown imb mode " + mode).c_str());
  }

  std::printf("IMB %s  platform=%s %dx%d hugepages=%d lazy=%d patched=%d\n\n",
              mode.c_str(), opt.platform.c_str(), opt.nodes, opt.rpn,
              opt.hugepages, opt.lazy, opt.patched);
  TextTable t({"bytes", "t [us]", "MB/s"});
  for (const auto& p : pts)
    t.add_row(p.bytes, ps_to_us(p.avg_time), p.mbytes_per_sec);
  t.print();
  print_fault_summary(cluster);
  write_telemetry_outputs(cluster, opt);
  return 0;
}

int cmd_nas(const std::string& kernel, const Options& o) {
  std::printf("NAS %s  platform=%s %dx%d scale=%d (both placements)\n\n",
              kernel.c_str(), o.platform.c_str(), o.nodes, o.rpn, o.scale);
  workloads::NasResult r[2];
  // The hugepage cluster outlives the loop so --metrics-out/--trace-out
  // can snapshot the run the table's improvement line is about.
  std::optional<core::Cluster> telemetry_cluster;
  for (int huge = 0; huge < 2; ++huge) {
    Options opt = o;
    opt.hugepages = huge != 0;
    core::Cluster& cluster = telemetry_cluster.emplace(cluster_config(opt));
    r[huge] = workloads::run_nas(kernel, cluster,
                                 workloads::NasScale{o.scale, {}});
  }
  TextTable t({"placement", "total [ms]", "comm [ms]", "other [ms]",
               "TLB misses", "verified"});
  const char* names[2] = {"small pages", "hugepages"};
  for (int i = 0; i < 2; ++i)
    t.add_row(names[i], static_cast<double>(r[i].total) / 1e9,
              static_cast<double>(r[i].comm_avg) / 1e9,
              static_cast<double>(r[i].other_avg) / 1e9, r[i].tlb_misses,
              r[i].verified ? "yes" : "NO");
  t.print();
  std::printf("\nimprovement: comm %+.1f %%, overall %+.1f %%\n",
              (1.0 - static_cast<double>(r[1].comm_avg) /
                         static_cast<double>(r[0].comm_avg)) * 100.0,
              (1.0 - static_cast<double>(r[1].total) /
                         static_cast<double>(r[0].total)) * 100.0);
  write_telemetry_outputs(*telemetry_cluster, o);
  return r[0].verified && r[1].verified ? 0 : 1;
}

int cmd_reg(const Options& o) {
  std::printf("registration cost  platform=%s patched=%d\n\n",
              o.platform.c_str(), o.patched);
  TextTable t({"bytes", "4K pages [us]", "hugepages [us]", "ratio %"});
  // Last sweep cluster kept for --metrics-out/--trace-out; the table is
  // computed exactly as before, telemetry observes without perturbing.
  std::optional<core::Cluster> telemetry_cluster;
  for (std::uint64_t bytes = 256 * kKiB; bytes <= 64 * kMiB; bytes *= 4) {
    TimePs cost[2];
    for (int huge = 0; huge < 2; ++huge) {
      core::ClusterConfig cfg = cluster_config(o);
      cfg.nodes = 1;
      cfg.ranks_per_node = 1;
      cfg.hugepages_per_node = 2048;
      core::Cluster& cluster = telemetry_cluster.emplace(cfg);
      TimePs dt = 0;
      cluster.run([&](core::RankEnv& env) {
        auto& m = env.space().map(bytes, huge ? mem::PageKind::Huge
                                              : mem::PageKind::Small);
        const TimePs t0 = env.now();
        env.verbs().reg_mr(m.va_base, bytes);
        dt = env.now() - t0;
      });
      cost[huge] = dt;
    }
    t.add_row(bytes, ps_to_us(cost[0]), ps_to_us(cost[1]),
              100.0 * static_cast<double>(cost[1]) /
                  static_cast<double>(cost[0]));
  }
  t.print();
  write_telemetry_outputs(*telemetry_cluster, o);
  return 0;
}

/// One load-generator run against a fresh 2-rank cluster. The cluster is
/// kept alive in `keep` so telemetry outputs can snapshot the last run.
loadgen::GenResult run_rpc_once(const Options& o, bool open, bool batching,
                                std::uint32_t workers,
                                std::uint64_t requests, double* req_per_wr,
                                rpc::ClientStats* client_stats,
                                std::optional<core::Cluster>& keep) {
  core::Cluster& cluster = keep.emplace(cluster_config(o));
  loadgen::GenResult gen;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mc.rndv_read = o.rndv_read;
    mc.rdma_eager = o.rdma_eager;
    mc.recovery = o.recovery == "repost" ? mpi::CommConfig::Recovery::Repost
                                         : mpi::CommConfig::Recovery::FailFast;
    mpi::Comm comm(env, mc);
    rpc::RpcConfig rc;
    rc.rdma_response = o.rdma_eager;
    rc.batching = batching;
    rc.max_payload = 256;
    rc.server_workers = static_cast<std::uint32_t>(o.threads);
    rc.share_mode = o.share_mode;
    if (open) {
      rc.service_base = ns(200);  // transport-bound
      rc.service_per_byte_ps = 0;
    } else {
      rc.server_queue_cap = 8;  // small admission queue: shed early
    }
    if (env.rank() == 0) {
      rpc::RpcServer server(comm, {1}, rc);
      server.serve();
      return;
    }
    rpc::RpcClient client(comm, 0, rc);
    loadgen::Workload w;
    w.request_bytes = 128;
    if (open) {
      loadgen::OpenLoopConfig oc;
      oc.rate_rps = 8e6;
      oc.requests = requests;
      oc.warmup = requests / 2;
      oc.seed = 7;
      gen = loadgen::run_open_loop(client, w, oc);
    } else {
      loadgen::ClosedLoopConfig cc;
      cc.workers = workers;
      cc.requests = requests;
      cc.warmup = requests / 4;
      cc.seed = 11;
      gen = loadgen::run_closed_loop(client, w, cc);
    }
    const rpc::ClientStats& cs = client.stats();
    *req_per_wr = cs.batches != 0
                      ? static_cast<double>(cs.batched_requests) /
                            static_cast<double>(cs.batches)
                      : 0.0;
    *client_stats = cs;
    client.close();
  });
  return gen;
}

/// One record in the shared rpc/fabric JSON schema family (the same
/// keys ext_rpc_loadgen and ext_fabric_scale emit, so dashboards parse
/// CLI and bench output with one reader).
void json_gen_record(std::ofstream& out, const char* key,
                     const loadgen::GenResult& gen,
                     const rpc::ClientStats& cs, double shed_total,
                     const char* indent) {
  char hash[32];
  std::snprintf(hash, sizeof(hash), "0x%016llx",
                static_cast<unsigned long long>(gen.trace_hash));
  out << indent << "\"" << key << "\": {\"issued\": " << gen.issued
      << ", \"ok\": " << gen.ok << ", \"shed\": " << gen.shed
      << ", \"rejected\": " << gen.rejected << ",\n"
      << indent << "  \"achieved_rps\": "
      << static_cast<std::uint64_t>(gen.achieved_rps())
      << ", \"p50_us\": " << gen.latency_ns.p50() / 1000.0
      << ", \"p95_us\": " << gen.latency_ns.p95() / 1000.0
      << ", \"p99_us\": " << gen.latency_ns.p99() / 1000.0 << ",\n"
      << indent << "  \"shed_total\": "
      << static_cast<std::uint64_t>(shed_total)
      << ", \"credit_stalls\": " << cs.credit_stalls
      << ", \"retries\": " << cs.retries
      << ", \"trace_hash\": \"" << hash << "\"}";
}

int cmd_rpc(const std::string& mode, const Options& o) {
  if (mode != "open" && mode != "closed")
    usage(("unknown rpc mode " + mode).c_str());
  if (o.nodes * o.rpn != 2)
    usage("rpc needs a 2-rank topology (one server, one client)");
  const bool open = mode == "open";
  std::printf("RPC %s loop  platform=%s %dx%d", mode.c_str(),
              o.platform.c_str(), o.nodes, o.rpn);
  if (o.threads > 0)
    std::printf(" threads=%d share=%s", o.threads,
                hca::share_mode_name(o.share_mode));
  if (o.rdma_eager) std::printf(" rdma-eager=on");
  std::printf("\n\n");

  std::optional<core::Cluster> last;
  TextTable t({"config", "ok", "shed", "rejected", "req/s", "p50 [us]",
               "p99 [us]", "req/WR"});
  const auto add_row = [&](const char* label,
                           const loadgen::GenResult& gen, double rpw) {
    t.add_row(label, gen.ok, gen.shed, gen.rejected,
              gen.achieved_rps(), gen.latency_ns.p50() / 1000.0,
              gen.latency_ns.p99() / 1000.0, rpw);
  };
  loadgen::GenResult gen[2];
  rpc::ClientStats cs[2];
  double rpw[2] = {0.0, 0.0};
  double shed_total[2] = {0.0, 0.0};
  const char* labels[2];
  if (open) {
    const std::uint64_t n = 1500 * static_cast<std::uint64_t>(o.scale);
    gen[0] = run_rpc_once(o, true, true, 0, n, &rpw[0], &cs[0], last);
    shed_total[0] = last->metrics().value("rpc.shed_total");
    gen[1] = run_rpc_once(o, true, false, 0, n, &rpw[1], &cs[1], last);
    shed_total[1] = last->metrics().value("rpc.shed_total");
    labels[0] = "batched";
    labels[1] = "unbatched";
  } else {
    const std::uint64_t n = 1200 * static_cast<std::uint64_t>(o.scale);
    gen[0] = run_rpc_once(o, false, true, 2, n, &rpw[0], &cs[0], last);
    shed_total[0] = last->metrics().value("rpc.shed_total");
    gen[1] = run_rpc_once(o, false, true, 32, n, &rpw[1], &cs[1], last);
    shed_total[1] = last->metrics().value("rpc.shed_total");
    labels[0] = "2 workers";
    labels[1] = "32 workers";
  }
  add_row(labels[0], gen[0], rpw[0]);
  add_row(labels[1], gen[1], rpw[1]);
  t.print();
  if (open) {
    std::printf("\nbatching speedup: %.2fx\n",
                gen[1].achieved_rps() > 0
                    ? gen[0].achieved_rps() / gen[1].achieved_rps()
                    : 0.0);
  } else {
    std::printf("\naccepted p99 under overload: %.2fx uncontended\n",
                gen[0].latency_ns.p99() > 0
                    ? gen[1].latency_ns.p99() / gen[0].latency_ns.p99()
                    : 0.0);
  }
  if (!o.json_out.empty()) {
    std::ofstream out(o.json_out);
    if (!out) usage(("cannot open " + o.json_out).c_str());
    out << "{\n  \"tool\": \"ibplace rpc\",\n  \"mode\": \"" << mode
        << "\",\n";
    json_gen_record(out, open ? "batched" : "uncontended", gen[0], cs[0],
                    shed_total[0], "  ");
    out << ",\n";
    json_gen_record(out, open ? "unbatched" : "overload", gen[1], cs[1],
                    shed_total[1], "  ");
    out << "\n}\n";
  }
  print_fault_summary(*last);
  write_telemetry_outputs(*last, o);
  return 0;
}

int cmd_fabric(const Options& o) {
  if (o.servers < 1 || o.servers > 64) usage("--servers must be 1..64");
  if (o.stripe < 1 || o.stripe > o.servers)
    usage("--stripe must be 1..servers");
  const auto strategy = fabric::shard_strategy_from_name(o.shard_map);
  if (!strategy.has_value())
    usage("--shard-map must be hash, range, or affinity");

  std::printf(
      "fabric closed loop  platform=%s servers=%d stripe=%d shard=%s%s\n\n",
      o.platform.c_str(), o.servers, o.stripe, o.shard_map.c_str(),
      o.rdma_eager ? " rdma-eager=on" : "");

  core::ClusterConfig cfg = cluster_config(o);
  cfg.nodes = o.servers + 1;  // rank 0 is the client
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);

  // Health monitor: explicit --fail-after wins; otherwise it arms itself
  // exactly when the fault plan can kill a server (a crashed server
  // black-holes requests, so without failover the closed loop hangs).
  const std::uint32_t fail_after =
      o.fail_after >= 0 ? static_cast<std::uint32_t>(o.fail_after)
                        : (cfg.fault.crashes.empty() ? 0u : 2u);

  constexpr std::uint32_t kBulkBytes = 64 * kKiB;
  loadgen::GenResult gen;
  fabric::FabricClientStats fs;
  rpc::ClientStats cs;
  std::uint64_t digest = 0;
  std::uint32_t epoch = 0;
  TimePs recovery_ps = 0;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mc.rndv_read = o.rndv_read;
    mc.rdma_eager = o.rdma_eager;
    mc.recovery = o.recovery == "repost" ? mpi::CommConfig::Recovery::Repost
                                         : mpi::CommConfig::Recovery::FailFast;
    mpi::Comm comm(env, mc);
    fabric::FabricConfig fc;
    fc.rpc.rdma_response = o.rdma_eager;
    fc.stripe_width = static_cast<std::uint32_t>(o.stripe);
    fc.shard_strategy = *strategy;
    if (fail_after > 0) {
      fc.fail_after = fail_after;
      fc.rpc.request_timeout = us(4000);
      fc.rpc.max_retries = 1;
    }
    if (env.rank() != 0) {
      fabric::FabricServer server(comm, {0}, fc);
      server.serve();
      return;
    }
    std::vector<int> ranks;
    for (int s = 1; s <= o.servers; ++s) ranks.push_back(s);
    fabric::FabricClient client(comm, ranks, fc);
    digest = client.shard_map().digest();
    loadgen::Workload w;
    w.request_bytes = 64;
    w.tenants = 8;
    w.bulk_fraction = 1.0;
    w.bulk_response_bytes = kBulkBytes;
    loadgen::ClosedLoopConfig cc;
    cc.workers = 4;
    cc.requests = 160 * static_cast<std::uint64_t>(o.scale);
    cc.warmup = cc.requests / 4;
    cc.seed = 13;
    gen = loadgen::run_closed_loop(client, w, cc);
    fs = client.stats();
    cs = client.link_stats();
    epoch = client.shard_map().epoch();
    recovery_ps = client.recovery_time();
    client.close();
  });
  const double shed_total = cluster.metrics().value("rpc.shed_total");
  const double mbps = gen.span > 0
                          ? static_cast<double>(fs.reassembled_bytes) * 1e12 /
                                static_cast<double>(gen.span) / 1e6
                          : 0.0;

  TextTable t({"ok", "shed", "rejected", "MB/s", "req/s", "p50 [us]",
               "p99 [us]", "stripes", "segments"});
  t.add_row(gen.ok, gen.shed, gen.rejected, mbps, gen.achieved_rps(),
            gen.latency_ns.p50() / 1000.0, gen.latency_ns.p99() / 1000.0,
            fs.stripes, fs.segments);
  t.print();
  std::printf("\nshard map: %s epoch %u digest 0x%016llx  "
              "adaptive skips %llu\n",
              o.shard_map.c_str(), epoch,
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(fs.adaptive_skips));
  if (fail_after > 0)
    std::printf("failover: failovers %llu rerouted %llu lost %llu "
                "probes %llu readmissions %llu recovery %.1f us\n",
                static_cast<unsigned long long>(fs.failovers),
                static_cast<unsigned long long>(fs.rerouted),
                static_cast<unsigned long long>(gen.timed_out),
                static_cast<unsigned long long>(fs.probes),
                static_cast<unsigned long long>(fs.readmissions),
                static_cast<double>(recovery_ps) / 1e6);

  if (!o.json_out.empty()) {
    std::ofstream out(o.json_out);
    if (!out) usage(("cannot open " + o.json_out).c_str());
    char dg[32];
    std::snprintf(dg, sizeof(dg), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    out << "{\n  \"tool\": \"ibplace fabric\",\n  \"servers\": " << o.servers
        << ", \"width\": " << o.stripe << ", \"bulk_bytes\": " << kBulkBytes
        << ",\n  \"shard_map\": {\"strategy\": \"" << o.shard_map
        << "\", \"epoch\": " << epoch << ", \"digest\": \"" << dg
        << "\"},\n";
    json_gen_record(out, "closed", gen, cs, shed_total, "  ");
    out << ",\n  \"bulk_mbps\": " << static_cast<std::uint64_t>(mbps)
        << ", \"stripes\": " << fs.stripes
        << ", \"segments\": " << fs.segments
        << ", \"reassembled_bytes\": " << fs.reassembled_bytes
        << ", \"adaptive_skips\": " << fs.adaptive_skips;
    if (fail_after > 0)
      out << ",\n  \"failover\": {\"fail_after\": " << fail_after
          << ", \"failovers\": " << fs.failovers
          << ", \"rerouted\": " << fs.rerouted
          << ", \"lost\": " << gen.timed_out
          << ", \"probes\": " << fs.probes
          << ", \"readmissions\": " << fs.readmissions
          << ", \"recovery_us\": " << recovery_ps / 1000000 << "}";
    out << "\n}\n";
  }
  print_fault_summary(cluster);
  write_telemetry_outputs(cluster, o);
  return 0;
}

/// Minimal field extraction over the hub's own JSONL output. The writer
/// uses fixed `"key": value` formatting, so plain string search is exact
/// for this reader (it is not a general JSON parser).
double jsonl_num(const std::string& line, const std::string& key,
                 std::size_t from = 0) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t p = line.find(pat, from);
  return p == std::string::npos ? 0.0 : std::atof(line.c_str() + p + pat.size());
}

/// Per-stage queueing-vs-service-vs-transfer breakdown of a
/// --request-trace-out stream.
int cmd_trace_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open " + path).c_str());
  std::string line, stages_line, slowest_line;
  std::uint64_t requests = 0, exemplars = 0;
  double slowest_ps = -1.0;
  while (std::getline(in, line)) {
    if (line.find("\"type\": \"meta\"") != std::string::npos) {
      requests = static_cast<std::uint64_t>(jsonl_num(line, "requests"));
    } else if (line.find("\"type\": \"request\"") != std::string::npos) {
      ++exemplars;
      const double lat = jsonl_num(line, "latency_ps");
      if (lat > slowest_ps) {
        slowest_ps = lat;
        slowest_line = line;
      }
    } else if (line.find("\"type\": \"stages\"") != std::string::npos) {
      stages_line = line;
    }
  }
  if (stages_line.empty())
    usage(("no stage summary in " + path +
           " (is it a --request-trace-out file?)").c_str());

  std::printf("trace report: %s\n", path.c_str());
  std::printf("requests: %llu   exemplars kept: %llu\n\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(exemplars));

  TextTable t({"stage", "count", "mean [us]", "p50 [us]", "p90 [us]",
               "p99 [us]", "max [us]"});
  const auto hist_row = [&](const char* label, const std::string& src,
                            std::size_t from) {
    t.add_row(label,
              static_cast<std::uint64_t>(jsonl_num(src, "count", from)),
              jsonl_num(src, "mean_us", from), jsonl_num(src, "p50_us", from),
              jsonl_num(src, "p90_us", from), jsonl_num(src, "p99_us", from),
              jsonl_num(src, "max_us", from));
  };
  // Walk the stage objects in order; each opens with {"stage": "<name>".
  double stage_weighted_us = 0.0;
  const std::string open = "{\"stage\": \"";
  std::size_t p = stages_line.find("\"stages\": [");
  while (p != std::string::npos &&
         (p = stages_line.find(open, p)) != std::string::npos) {
    const std::size_t name0 = p + open.size();
    const std::size_t name1 = stages_line.find('"', name0);
    const std::string name = stages_line.substr(name0, name1 - name0);
    hist_row(name.c_str(), stages_line, name1);
    stage_weighted_us += jsonl_num(stages_line, "count", name1) *
                         jsonl_num(stages_line, "mean_us", name1);
    p = name1;
  }
  hist_row("lock_arbitration", stages_line,
           stages_line.find("\"arbitration\": {"));
  hist_row("end-to-end", stages_line, stages_line.find("\"e2e\": {"));
  t.print();

  const std::size_t e2e = stages_line.find("\"e2e\": {");
  const double e2e_weighted_us = jsonl_num(stages_line, "count", e2e) *
                                 jsonl_num(stages_line, "mean_us", e2e);
  const double delta =
      e2e_weighted_us > 0.0
          ? (stage_weighted_us - e2e_weighted_us) / e2e_weighted_us * 100.0
          : 0.0;
  std::printf("\nbreakdown: stage total %.1f us vs end-to-end %.1f us "
              "(delta %+.2f %%)\n",
              stage_weighted_us, e2e_weighted_us, delta);

  if (!slowest_line.empty()) {
    std::printf("slowest exemplar: trace %llu, %.1f us:",
                static_cast<unsigned long long>(
                    jsonl_num(slowest_line, "trace")),
                slowest_ps / 1e6);
    std::size_t s = slowest_line.find("\"spans\": [");
    while (s != std::string::npos &&
           (s = slowest_line.find(open, s)) != std::string::npos) {
      const std::size_t n0 = s + open.size();
      const std::size_t n1 = slowest_line.find('"', n0);
      std::printf(" %s=%.1fus",
                  slowest_line.substr(n0, n1 - n0).c_str(),
                  jsonl_num(slowest_line, "dur_ps", n1) / 1e6);
      s = n1;
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  // imb and rpc run one rank per node unless --rpn says otherwise.
  const int rpn = cmd == "imb" || cmd == "rpc" ? 1 : 4;
  try {
    if (cmd == "info") return cmd_info(parse_options(argc, argv, 2, rpn));
    if (cmd == "reg") return cmd_reg(parse_options(argc, argv, 2, rpn));
    if (cmd == "imb") {
      if (argc < 3) usage("imb needs a mode");
      return cmd_imb(argv[2], parse_options(argc, argv, 3, rpn));
    }
    if (cmd == "nas") {
      if (argc < 3) usage("nas needs a kernel");
      return cmd_nas(argv[2], parse_options(argc, argv, 3, rpn));
    }
    if (cmd == "rpc") {
      if (argc < 3) usage("rpc needs a mode (open|closed)");
      return cmd_rpc(argv[2], parse_options(argc, argv, 3, rpn));
    }
    if (cmd == "fabric") return cmd_fabric(parse_options(argc, argv, 2, rpn));
    if (cmd == "trace-report") {
      if (argc < 3) usage("trace-report needs a trace JSONL file");
      return cmd_trace_report(argv[2]);
    }
  } catch (const SimError& e) {
    std::fprintf(stderr, "simulation error: %s\n", e.what());
    return 1;
  }
  usage(("unknown command " + cmd).c_str());
}
