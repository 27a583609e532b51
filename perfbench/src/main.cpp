// perfbench_harness — runs one benchmark workload in this process, pinned
// to one core, and prints its metrics.
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//                     [--commit C] [--spans-out PATH]
//   perfbench_harness --self-test
//
// Untraced (--trace 0): repeat whole passes of the workload for S seconds
// (at least three) and report the end-to-end metrics as medians over the
// passes. Traced (--trace 1): alternate untraced and traced passes and
// report the per-layer metrics, the tracing overhead, and the spans'
// self time. Every pass must reproduce the first pass's virtual-time
// results exactly, traced or not. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is nonzero
// when an invariant broke.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "measure.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
int self_test();
}

using namespace perfbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "W --seed N --seconds S --trace 0|1 [--commit C] "
               "[--spans-out PATH] | --self-test\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--commit") {
      o.commit = v;
    } else if (a == "--spans-out") {
      o.spans_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : workload_names()) known |= w == o.workload;
  if (!known) usage(("unknown workload '" + o.workload + "'").c_str());
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

/// Host metrics from an unoptimised or sanitizer build measure a
/// different program; the harness refuses to report them.
const char* build_refusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  return nullptr;
#endif
}

/// Pin the process to the highest-numbered core it may run on, before
/// any cluster (and so any engine thread) exists; threads inherit it.
int pin_one_core() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int core = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) core = c;
  if (core < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(core, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? core : -1;
}

std::string quoted(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

/// Broken invariants across passes, including any pass whose
/// deterministic results differ from the first pass's.
std::vector<std::string> check_passes(const std::vector<PassResult>& all) {
  std::vector<std::string> broken;
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (const std::string& b : all[i].broken)
      broken.push_back("pass " + std::to_string(i) + ": " + b);
    if (i == 0) continue;
    if (all[i].virt != all[0].virt)
      broken.push_back("pass " + std::to_string(i) +
                       ": virtual-time results differ from pass 0");
    if (all[i].fingerprint != all[0].fingerprint)
      broken.push_back("pass " + std::to_string(i) +
                       ": checksums or request-trace hashes differ");
    if (all[i].ops != all[0].ops || all[i].gen != all[0].gen)
      broken.push_back("pass " + std::to_string(i) +
                       ": operation counts differ from pass 0");
  }
  return broken;
}

void write_spans(const std::string& path, const std::string& meta,
                 const std::vector<PassResult>& traced) {
  std::ofstream out(path);
  out << "{\"meta\": " << meta << ",\n \"passes\": [";
  for (std::size_t p = 0; p < traced.size(); ++p) {
    const auto& spans = traced[p].spans.spans();
    const std::vector<double> self = self_times(spans);
    out << (p ? ",\n  [" : "\n  [");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i ? ",\n   " : "\n   ") << "{\"id\": " << i
          << ", \"name\": " << quoted(s.name) << ", \"parent\": " << s.parent
          << ", \"rank\": " << s.rank
          << ", \"host_start_s\": " << json_number(s.host_start_s)
          << ", \"host_end_s\": " << json_number(s.host_end_s)
          << ", \"host_self_s\": " << json_number(self[i])
          << ", \"virt_start_ms\": " << json_number(s.virt_start_ms)
          << ", \"virt_end_ms\": " << json_number(s.virt_end_ms) << "}";
    }
    out << "]";
  }
  out << "\n ]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena: with the default per-thread arenas, which engine
  // lane lands in which arena depends on host scheduling, and peak RSS
  // wanders by tens of percent between identical runs.
  mallopt(M_ARENA_MAX, 1);
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0)
    return self_test();
  const Options opt = parse(argc, argv);
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "perfbench_harness: refusing to report host "
                         "metrics from an %s\n", why);
    return 3;
  }
  const int core = pin_one_core();
  if (core < 0) {
    std::fprintf(stderr, "perfbench_harness: cannot pin to one core\n");
    return 3;
  }

  // Passes until the time is up: at least three untraced ones, or two
  // untraced/traced pairs; never start a pass that would likely overrun
  // the hard cap. The host-speed probe runs between passes.
  constexpr double kHardCapS = 140.0;
  const double t0 = host_now_s();
  std::vector<PassResult> plain, traced;
  Region probe = reference_probe();
  auto pass = [&](bool with_trace) {
    PassResult r = run_pass(opt.workload, opt.seed, with_trace);
    const Region next = reference_probe();
    r.probe_s = (probe.wall_s + next.wall_s) / 2.0;
    r.probe_cpu_s = (probe.usage.cpu_s() + next.usage.cpu_s()) / 2.0;
    probe = next;
    return r;
  };
  double longest = 0.0;
  for (;;) {
    const double elapsed = host_now_s() - t0;
    const bool enough = opt.trace ? traced.size() >= 2 : plain.size() >= 3;
    if (enough && elapsed >= opt.seconds) break;
    if (!plain.empty() && elapsed + longest > kHardCapS) break;
    const double ts = host_now_s();
    plain.push_back(pass(false));
    if (opt.trace) traced.push_back(pass(true));
    longest = std::max(longest, host_now_s() - ts);
  }

  std::vector<std::string> broken = check_passes(plain);
  for (const std::string& b : check_passes(traced)) broken.push_back(b);
  if (!traced.empty()) {
    if (traced[0].virt != plain[0].virt)
      broken.push_back("traced virtual-time results differ from untraced");
    if (traced[0].fingerprint != plain[0].fingerprint ||
        traced[0].gen != plain[0].gen)
      broken.push_back("traced checksums or counts differ from untraced");
    for (std::size_t i = 1; i < traced.size(); ++i)
      if (traced[i].reg_sum != traced[0].reg_sum)
        broken.push_back("traced pass " + std::to_string(i) +
                         ": registry deltas differ from traced pass 0");
  }

  char meta[512];
  std::snprintf(meta, sizeof meta,
                "{\"workload\": \"%s\", \"seed\": %llu, \"pinned_core\": %d, "
                "\"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": "
                "\"%s\", \"commit\": %s, \"passes\": %zu, "
                "\"traced_passes\": %zu}",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), core,
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
                __VERSION__, quoted(opt.commit).c_str(), plain.size(),
                traced.size());

  const Report rep = opt.trace ? per_layer_report(plain, traced)
                               : end_to_end_report(plain);
  print_table(rep, opt.trace ? "per-layer metrics (traced run)"
                             : "end-to-end metrics (untraced run)");
  if (opt.trace) {
    print_self_times(traced);
    if (!opt.spans_out.empty()) write_spans(opt.spans_out, meta, traced);
  }
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const PassResult& p = plain[i];
    std::printf("pass %zu: wall %.4f s (%.4f ref s), cpu %.4f s (%.4f ref "
                "s), setup %.4f s, probe %.4f s wall %.4f s cpu", i,
                p.run.wall_s, p.run.wall_s * p.to_ref(), p.run.usage.cpu_s(),
                p.run.usage.cpu_s() * p.cpu_to_ref(), p.setup_s, p.probe_s,
                p.probe_cpu_s);
    if (i < traced.size())
      std::printf("; traced wall %.4f s (%.4f ref s)", traced[i].run.wall_s,
                  traced[i].run.wall_s * traced[i].to_ref());
    std::printf("\n");
  }
  for (const std::string& b : broken)
    std::printf("BROKEN: %s\n", b.c_str());
  std::printf("meta: %s\n", meta);

  std::uint64_t attempted = 0;
  for (const PassResult& p : plain) attempted += p.ops;
  for (const PassResult& p : traced) attempted += p.ops;
  std::string line = "{\"correct\": ";
  line += broken.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(broken.size());
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : rep.json) {
    line += first ? "" : ", ";
    first = false;
    line += quoted(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return broken.empty() ? 0 : 1;
}
