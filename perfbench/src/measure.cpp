#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

namespace perfbench {

double host_now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

namespace {
double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = tv_s(ru.ru_utime);
  u.sys_s = tv_s(ru.ru_stime);
  u.minor_faults = ru.ru_minflt;
  u.vol_switches = ru.ru_nvcsw;
  u.invol_switches = ru.ru_nivcsw;
  u.max_rss_kib = ru.ru_maxrss;
  return u;
}

Usage operator-(const Usage& after, const Usage& before) {
  Usage d;
  d.user_s = after.user_s - before.user_s;
  d.sys_s = after.sys_s - before.sys_s;
  d.minor_faults = after.minor_faults - before.minor_faults;
  d.vol_switches = after.vol_switches - before.vol_switches;
  d.invol_switches = after.invol_switches - before.invol_switches;
  d.max_rss_kib = after.max_rss_kib;
  return d;
}

Usage& operator+=(Usage& acc, const Usage& d) {
  acc.user_s += d.user_s;
  acc.sys_s += d.sys_s;
  acc.minor_faults += d.minor_faults;
  acc.vol_switches += d.vol_switches;
  acc.invol_switches += d.invol_switches;
  acc.max_rss_kib = std::max(acc.max_rss_kib, d.max_rss_kib);
  return acc;
}

Region reference_probe() {
  const RegionTimer timer;
  {  // Handoffs: strict alternation between two threads.
    constexpr int kRounds = 8000;
    std::mutex m;
    std::condition_variable cv;
    bool peer_turn = false;
    std::thread peer([&] {
      for (int i = 0; i < kRounds; ++i) {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return peer_turn; });
        peer_turn = false;
        cv.notify_all();
      }
    });
    for (int i = 0; i < kRounds; ++i) {
      std::unique_lock<std::mutex> lk(m);
      peer_turn = true;
      cv.notify_all();
      cv.wait(lk, [&] { return !peer_turn; });
    }
    peer.join();
  }
  // Random reads, streaming copies and arithmetic over two private 2 MiB
  // buffers (small, so the probe never sets the process's peak RSS).
  constexpr std::size_t kWords = 256u << 10;
  std::vector<std::uint64_t> a(kWords, 1), b(kWords, 2);
  std::uint64_t x = 0x9e3779b97f4a7c15ull, sum = 0;
  for (int i = 0; i < 3'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    sum += a[(x >> 24) % kWords];
  }
  for (int i = 0; i < 32; ++i) {
    std::memcpy(b.data(), a.data(), kWords * sizeof(std::uint64_t));
    a[static_cast<std::size_t>(i)] += b[kWords - 1 - static_cast<std::size_t>(i)];
  }
  for (int i = 0; i < 20'000'000; ++i) x ^= (x << 13) ^ (x >> 7) ^ sum;
  volatile std::uint64_t sink = x + a[0];
  (void)sink;
  return timer.stop();
}

int SpanLog::begin(std::string name, int parent, int rank, double virt_ms) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.rank = rank;
  s.virt_start_ms = virt_ms;
  s.host_start_s = host_now_s();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id, double virt_ms) {
  Span& s = at(id);
  s.host_end_s = host_now_s();
  s.virt_end_ms = virt_ms;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.host_start_s, s.host_end_s});
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.host_start_s);
      hi = std::min(hi, s.host_end_s);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = s.host_s() - covered;
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

double tail_quantile(std::uint64_t n) {
  for (double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    // Samples strictly above the nearest-rank position ceil(q * n).
    const auto at = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (n >= at + 10) return q;
  }
  return 0.0;
}

double ratio(double num, double base) { return base > 0.0 ? num / base : 0.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace perfbench
