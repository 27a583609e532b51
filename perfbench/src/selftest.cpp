// The harness's own arithmetic on synthetic input: span self time, the
// tail-percentile rule, ratios with a base, and the getrusage plumbing.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("self-test FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

Span span(const char* name, int parent, double start, double end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.host_start_s = start;
  s.host_end_s = end;
  return s;
}

void test_self_time() {
  // root [0, 10] with children [1, 3] and [2, 5] (overlapping) and
  // [8, 12] (running past the root); [2, 5] has a child [2, 4].
  std::vector<Span> s = {span("root", -1, 0, 10), span("a", 0, 1, 3),
                         span("b", 0, 2, 5),      span("c", 0, 8, 12),
                         span("b1", 2, 2, 4)};
  const std::vector<double> self = self_times(s);
  expect(near(self[0], 10 - 4 - 2), "root self = duration - child union");
  expect(near(self[1], 2), "leaf self = duration");
  expect(near(self[2], 3 - 2), "nested child subtracted from its parent");
  expect(near(self[3], 4), "unclipped leaf");
  expect(near(self[4], 2), "grandchild leaf");
  // Children that do not overlap the parent subtract nothing.
  s = {span("root", -1, 5, 6), span("x", 0, 0, 1)};
  expect(near(self_times(s)[0], 1), "disjoint child subtracts nothing");
}

void test_tail_rule() {
  expect(tail_quantile(1000) == 0.99, "1000 samples support p99");
  expect(tail_quantile(999) == 0.95, "999 samples fall back to p95");
  expect(tail_quantile(200) == 0.95, "200 samples support p95");
  expect(tail_quantile(199) == 0.90, "199 samples fall back to p90");
  expect(tail_quantile(20) == 0.50, "20 samples support only p50");
  expect(tail_quantile(19) == 0.0, "19 samples support no percentile");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(quantile(v, 0.99) == 99, "nearest-rank p99 of 1..100");
  expect(quantile(v, 0.5) == 50, "nearest-rank p50 of 1..100");
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 2, 3}) == 2.5, "even median");
  expect(median({}) == 0, "empty median");
}

void test_ratio() {
  expect(ratio(3, 4) == 0.75, "ratio with a base");
  expect(ratio(5, 0) == 0, "ratio with an empty base is 0");
}

void test_usage() {
  Usage before;
  before.user_s = 1.0;
  before.sys_s = 0.5;
  before.minor_faults = 10;
  before.vol_switches = 3;
  before.invol_switches = 4;
  before.max_rss_kib = 100;
  Usage after = before;
  after.user_s = 3.0;
  after.sys_s = 0.75;
  after.minor_faults = 25;
  after.vol_switches = 10;
  after.invol_switches = 5;
  after.max_rss_kib = 300;
  const Usage d = after - before;
  expect(near(d.cpu_s(), 2.25), "cpu delta is user + sys");
  expect(d.minor_faults == 15, "minor-fault delta");
  expect(d.ctx_switches() == 8, "context-switch delta sums both kinds");
  expect(d.max_rss_kib == 300, "peak RSS keeps the later mark");
  Usage acc;
  acc += d;
  acc += d;
  expect(acc.ctx_switches() == 16 && acc.max_rss_kib == 300,
         "accumulated deltas");

  // The live plumbing: touching fresh memory shows up as minor faults.
  const RegionTimer t;
  constexpr std::size_t kBytes = 16u << 20;
  std::unique_ptr<char[]> mem(new char[kBytes]);
  std::memset(mem.get(), 1, kBytes);
  volatile char sink = mem[kBytes - 1];
  (void)sink;
  const Region r = t.stop();
  expect(r.usage.minor_faults > 0, "touching 16 MiB takes minor faults");
  expect(r.wall_s > 0 && r.usage.cpu_s() >= 0, "wall and cpu deltas");
}

void test_json_number() {
  expect(json_number(0.1) == "0.1", "shortest round-trip text");
  expect(std::strtod(json_number(1.0 / 3.0).c_str(), nullptr) == 1.0 / 3.0,
         "every digit kept");
  expect(json_number(std::nan("")) == "null", "non-finite is null");
}

}  // namespace

int self_test() {
  test_self_time();
  test_tail_rule();
  test_ratio();
  test_usage();
  test_json_number();
  std::printf("self-test: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
