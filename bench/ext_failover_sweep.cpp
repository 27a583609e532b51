// EXT-FAILOVER — extension: fabric failure recovery under a seeded
// server kill.
//
// A 4-server fabric carries closed-loop mixed traffic (latency-class
// echoes plus striped bulk reads) while a fault plan crashes one server
// rank mid-run. The client's health monitor has to notice (consecutive
// request timeouts), bump the shard map to an epoch excluding the dead
// server, adopt the orphaned in-flight work onto the survivors, and —
// in the brownout scenario — readmit the server once a probe answers.
//
// Three scenarios, one assertion set:
//   * baseline — health monitor armed, fault-free: the goodput yardstick
//     (and a false-positive check: zero failovers, zero timeouts),
//   * crash    — one of four servers killed permanently at ~30% of the
//     baseline span: goodput in the post-failover windows must recover
//     to >= 70% of the pre-fault average, no accepted Latency-class
//     request may be lost, and the recovery time is bounded,
//   * brownout — the same kill plus a recover directive at ~65%: the
//     probe path must readmit the server (epoch returns tenants home).
//
// The crash/recover times and the goodput window width derive from the
// measured baseline span, so the scenario adapts to the platform while
// staying fully deterministic: identical seeds produce byte-identical
// output, and the failover_sweep_golden ctest pins --short --json.
//
// Optional arguments:
//   --short       fewer requests (the ctest golden mode)
//   --json=PATH   also write results as JSON

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ibp/fabric/fabric.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/loadgen/loadgen.hpp"

using namespace ibp;

namespace {

constexpr std::uint32_t kServers = 4;
constexpr std::uint32_t kBulkBytes = 32 * kKiB;  // striped (threshold 8K)
constexpr int kVictim = 2;  // server rank (== node id) the plan kills
constexpr double kRecoverFloor = 0.70;   // post/pre goodput ratio bound
constexpr std::uint64_t kRecoveryBoundUs = 5000;  // virtual recovery time

struct ScenarioOut {
  std::string name;
  loadgen::GenResult gen;
  fabric::FabricClientStats fab;
  TimePs recovery_ps = 0;
  std::uint32_t epoch = 0;
  std::uint64_t discarded = 0;  // requests the crashed server black-holed
  std::uint64_t link_retries = 0;
};

fabric::FabricConfig fabric_config() {
  fabric::FabricConfig fc;
  fc.stripe_threshold = 8 * kKiB;
  fc.stripe_width = 3;
  // Health monitor: two consecutive request timeouts declare a server
  // dead. The timeout must clear the worst fault-free latency — which
  // here is the first-touch registration of the slot rings on each link
  // (~2.6 us p99 grows to ~2.6 ms on the very first requests) — or the
  // monitor false-positives (the baseline scenario asserts it never
  // fires fault-free).
  fc.fail_after = 2;
  fc.rpc.request_timeout = us(4000);
  fc.rpc.max_retries = 1;
  fc.probe_backoff = us(1000);
  fc.probe_backoff_max = us(8000);
  fc.degrade_outstanding = 4;  // shed bulk only under a real backlog
  return fc;
}

ScenarioOut run_scenario(const std::string& name, const fault::FaultPlan& plan,
                         std::uint64_t requests, TimePs window) {
  core::ClusterConfig cfg;
  cfg.platform = platform::opteron_pcie_infinihost();
  cfg.nodes = kServers + 1;  // rank 0 is the client
  cfg.ranks_per_node = 1;
  cfg.fault = plan;
  core::Cluster cluster(cfg);

  ScenarioOut out;
  out.name = name;
  std::vector<std::uint64_t> discarded(cfg.nodes, 0);
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig mc;
    mc.sge_gather = true;
    mc.recovery = mpi::CommConfig::Recovery::Repost;
    mpi::Comm comm(env, mc);
    const fabric::FabricConfig fc = fabric_config();
    if (env.rank() != 0) {
      fabric::FabricServer server(comm, {0}, fc);
      server.serve();
      discarded[static_cast<std::size_t>(env.rank())] =
          server.stats().discarded;
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
    w.bulk_response_bytes = kBulkBytes;
    loadgen::ClosedLoopConfig cc;
    cc.workers = 4;
    cc.requests = requests;
    cc.seed = 13;
    cc.window = window;
    out.gen = loadgen::run_closed_loop(client, w, cc);
    out.fab = client.stats();
    out.recovery_ps = client.recovery_time();
    out.epoch = client.shard_map().epoch();
    out.link_retries = client.link_stats().retries;
    client.close();
  });
  for (std::uint64_t d : discarded) out.discarded += d;
  return out;
}

/// Post-failover vs pre-fault goodput, from the windowed ok counts.
/// Pre = average of the full windows before the crash (skipping the
/// startup windows before the first completion, which are registration
/// transient, not steady state). Post = average of the windows after
/// detection could have completed (crash + fail_after * request_timeout
/// — during that span work aimed at the corpse is still waiting out its
/// deadline, which is the outage, not the recovery), final partial
/// window excluded. 0 when either side has no window.
double recovered_ratio(const ScenarioOut& s, TimePs crash_at, TimePs window) {
  const auto& ok = s.gen.window_ok;
  if (ok.size() < 3 || window == 0 || crash_at <= s.gen.start) return 0.0;
  const fabric::FabricConfig fc = fabric_config();
  // Window indices are relative to the generator's measurement start;
  // the fault plan speaks absolute virtual time.
  const TimePs crash_rel = crash_at - s.gen.start;
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

void print_scenario(const ScenarioOut& s) {
  std::printf(
      "  %-9s %5llu ok  %3llu shed  %3llu lost  %2llu discarded  "
      "epoch %u  failovers %llu  rerouted %llu  readmits %llu  "
      "recovery %.1f us\n",
      s.name.c_str(), static_cast<unsigned long long>(s.gen.ok),
      static_cast<unsigned long long>(s.gen.shed),
      static_cast<unsigned long long>(s.gen.timed_out),
      static_cast<unsigned long long>(s.discarded), s.epoch,
      static_cast<unsigned long long>(s.fab.failovers),
      static_cast<unsigned long long>(s.fab.rerouted),
      static_cast<unsigned long long>(s.fab.readmissions),
      static_cast<double>(s.recovery_ps) / 1e6);
}

void json_scenario(std::ofstream& out, const ScenarioOut& s, double ratio) {
  char hash[32];
  std::snprintf(hash, sizeof(hash), "0x%016llx",
                static_cast<unsigned long long>(s.gen.trace_hash));
  out << "    {\"scenario\": \"" << s.name
      << "\", \"issued\": " << s.gen.issued << ", \"ok\": " << s.gen.ok
      << ", \"shed\": " << s.gen.shed << ", \"lost\": " << s.gen.timed_out
      << ", \"lost_latency\": " << s.gen.lost_latency
      << ", \"rejected\": " << s.gen.rejected << ",\n"
      << "     \"span_us\": " << s.gen.span / 1000000
      << ", \"p50_us\": " << s.gen.latency_ns.p50() / 1000.0
      << ", \"p99_us\": " << s.gen.latency_ns.p99() / 1000.0
      << ", \"epoch\": " << s.epoch
      << ", \"failovers\": " << s.fab.failovers
      << ", \"rerouted\": " << s.fab.rerouted
      << ", \"probes\": " << s.fab.probes
      << ", \"readmissions\": " << s.fab.readmissions << ",\n"
      << "     \"degraded_shed\": " << s.fab.degraded_shed
      << ", \"server_discarded\": " << s.discarded
      << ", \"link_retries\": " << s.link_retries
      << ", \"recovery_us\": " << s.recovery_ps / 1000000
      << ", \"recovered_ratio\": " << ratio << ",\n     \"window_ok\": [";
  for (std::size_t i = 0; i < s.gen.window_ok.size(); ++i)
    out << (i ? ", " : "") << s.gen.window_ok[i];
  out << "], \"window_lost\": [";
  for (std::size_t i = 0; i < s.gen.window_lost.size(); ++i)
    out << (i ? ", " : "") << s.gen.window_lost[i];
  out << "],\n     \"trace_hash\": \"" << hash << "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  const std::uint64_t requests = short_mode ? 600 : 1600;

  std::printf(
      "EXT-FAILOVER — health-monitored epoch handoff, %u servers, "
      "kill rank %d\n\n",
      kServers, kVictim);

  // Baseline paces the fault plan: crash at ~30% of the fault-free span,
  // recover at ~65%, goodput windows at 1/16 of it (all rounded to the
  // microsecond grid the fault DSL speaks).
  const fault::FaultPlan none;
  ScenarioOut base = run_scenario("baseline", none, requests, us(1));
  const TimePs span = base.gen.span;
  const TimePs window = us(std::max<std::uint64_t>(span / 16 / us(1), 1));
  const TimePs crash_at =
      us(std::max<std::uint64_t>((base.gen.start + span * 30 / 100) / us(1),
                                 1));
  const TimePs recover_at =
      us(std::max<std::uint64_t>((base.gen.start + span * 65 / 100) / us(1),
                                 2));
  // Re-run the baseline on the final window grid so its JSON is
  // comparable with the fault scenarios'.
  base = run_scenario("baseline", none, requests, window);

  fault::FaultPlan crash;
  crash.crashes.push_back({kVictim, crash_at});
  const ScenarioOut killed = run_scenario("crash", crash, requests, window);

  fault::FaultPlan brown = crash;
  brown.recoveries.push_back({kVictim, recover_at});
  const ScenarioOut browned = run_scenario("brownout", brown, requests,
                                           window);

  print_scenario(base);
  print_scenario(killed);
  print_scenario(browned);

  const double ratio = recovered_ratio(killed, crash_at, window);
  const double bratio = recovered_ratio(browned, crash_at, window);
  std::printf(
      "\n  crash at %.0f us, window %.0f us: goodput recovered to "
      "%.0f%% of pre-fault (brownout %.0f%%)\n",
      static_cast<double>(crash_at) / 1e6,
      static_cast<double>(window) / 1e6, ratio * 100.0, bratio * 100.0);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_failover_sweep\",\n  \"servers\": "
        << kServers << ",\n  \"victim\": " << kVictim
        << ",\n  \"requests\": " << requests
        << ",\n  \"crash_at_us\": " << crash_at / 1000000
        << ",\n  \"recover_at_us\": " << recover_at / 1000000
        << ",\n  \"window_us\": " << window / 1000000
        << ",\n  \"scenarios\": [\n";
    json_scenario(out, base, 0.0);
    out << ",\n";
    json_scenario(out, killed, ratio);
    out << ",\n";
    json_scenario(out, browned, bratio);
    out << "\n  ]\n}\n";
  }

  int rc = 0;
  if (base.fab.failovers != 0 || base.gen.timed_out != 0) {
    std::fprintf(stderr,
                 "FAIL: baseline false positive (failovers %llu, lost "
                 "%llu)\n",
                 static_cast<unsigned long long>(base.fab.failovers),
                 static_cast<unsigned long long>(base.gen.timed_out));
    rc = 1;
  }
  if (killed.fab.failovers != 1) {
    std::fprintf(stderr, "FAIL: crash scenario declared %llu deaths != 1\n",
                 static_cast<unsigned long long>(killed.fab.failovers));
    rc = 1;
  }
  if (killed.gen.lost_latency != 0 || browned.gen.lost_latency != 0) {
    std::fprintf(stderr,
                 "FAIL: lost Latency-class requests (crash %llu, brownout "
                 "%llu)\n",
                 static_cast<unsigned long long>(killed.gen.lost_latency),
                 static_cast<unsigned long long>(browned.gen.lost_latency));
    rc = 1;
  }
  if (killed.recovery_ps == 0 ||
      killed.recovery_ps / 1000000 > kRecoveryBoundUs) {
    std::fprintf(stderr, "FAIL: recovery time %.1f us outside (0, %llu]\n",
                 static_cast<double>(killed.recovery_ps) / 1e6,
                 static_cast<unsigned long long>(kRecoveryBoundUs));
    rc = 1;
  }
  if (ratio < kRecoverFloor) {
    std::fprintf(stderr, "FAIL: goodput recovered to %.0f%% < %.0f%%\n",
                 ratio * 100.0, kRecoverFloor * 100.0);
    rc = 1;
  }
  if (browned.fab.readmissions != 1 || browned.epoch != 2) {
    std::fprintf(stderr,
                 "FAIL: brownout readmissions %llu (want 1), epoch %u "
                 "(want 2)\n",
                 static_cast<unsigned long long>(browned.fab.readmissions),
                 browned.epoch);
    rc = 1;
  }
  return rc;
}
