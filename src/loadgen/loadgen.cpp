#include "ibp/loadgen/loadgen.hpp"

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/rng.hpp"
#include "ibp/common/waker.hpp"
#include "ibp/core/cluster.hpp"

namespace ibp::loadgen {

namespace {

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 0x100000001b3ull;
  }
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::vector<std::uint8_t> make_payload(const Workload& w,
                                       std::uint64_t seed) {
  std::vector<std::uint8_t> p(w.request_bytes);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<std::uint8_t>(seed * 131 + i * 7 + 1);
  return p;
}

std::uint32_t response_size(const Workload& w, rpc::Class cls) {
  return cls == rpc::Class::Bulk && w.bulk_response_bytes != 0
             ? w.bulk_response_bytes
             : w.response_bytes;
}

/// Mute the request-tracing hub for the duration of a warmup sub-run, so
/// tail exemplars and stage histograms describe steady state only. No-op
/// (and bit-inert) when tracing is disabled.
template <typename Client>
class WarmupMute {
 public:
  explicit WarmupMute(Client& client)
      : hub_(client.comm().env().cluster().request_tracer()) {
    if (hub_ != nullptr) hub_->set_muted(true);
  }
  ~WarmupMute() {
    if (hub_ != nullptr) hub_->set_muted(false);
  }

 private:
  telemetry::RequestTracer* hub_;
};

void record(GenResult& res, const rpc::Completion& c) {
  fnv_mix(res.trace_hash, c.id);
  fnv_mix(res.trace_hash, static_cast<std::uint64_t>(c.status));
  fnv_mix(res.trace_hash, static_cast<std::uint64_t>(c.latency));
  if (c.status == rpc::Status::Ok) {
    ++res.ok;
    res.latency_ns.add(static_cast<std::uint64_t>(c.latency / 1000));
  } else if (c.status == rpc::Status::TimedOut) {
    ++res.timed_out;
  } else {
    ++res.shed;
  }
}

/// Bucket a completion into its goodput window (window == 0: off).
void bucket(GenResult& res, const rpc::Completion& c, TimePs window,
            TimePs start, TimePs now) {
  if (window == 0) return;
  const auto w = static_cast<std::size_t>((now - start) / window);
  if (res.window_ok.size() <= w) {
    res.window_ok.resize(w + 1, 0);
    res.window_lost.resize(w + 1, 0);
  }
  if (c.status == rpc::Status::Ok) ++res.window_ok[w];
  else if (c.status == rpc::Status::TimedOut) ++res.window_lost[w];
}

// The drivers are client-type generic: FabricClient mirrors RpcClient's
// submit/poll/take_completions/drain surface (and its config() returns
// the per-link RpcConfig), so one implementation drives both the
// single-server path and the sharded fleet.

template <typename Client>
GenResult open_loop(Client& client, const Workload& w,
                    const OpenLoopConfig& cfg) {
  IBP_CHECK(cfg.rate_rps > 0.0, "open loop needs a positive rate");
  if (cfg.warmup > 0) {
    OpenLoopConfig wcfg = cfg;
    wcfg.requests = cfg.warmup;
    wcfg.warmup = 0;
    const WarmupMute<Client> mute(client);
    (void)open_loop(client, w, wcfg);  // drains before returning
  }
  core::RankEnv& env = client.comm().env();
  sim::Context& sc = env.sim();
  Rng rng(cfg.seed);
  GenResult res;
  res.trace_hash = kFnvBasis;
  const std::vector<std::uint8_t> payload = make_payload(w, cfg.seed);

  const TimePs start = env.now();
  // Arrival schedule marches forward in virtual time independent of
  // completions; when the client rank is behind (an earlier submit or
  // poll blocked it), sleep_until is a no-op and the backlog drains at
  // full speed — open-loop semantics, no coordinated omission.
  double next = static_cast<double>(start);
  for (std::uint64_t i = 0; i < cfg.requests; ++i) {
    sc.sleep_until(static_cast<TimePs>(next));
    const rpc::Class cls = rng.next_double() < w.bulk_fraction
                               ? rpc::Class::Bulk
                               : rpc::Class::Latency;
    const std::uint32_t tenant =
        w.tenants > 1 ? static_cast<std::uint32_t>(rng.next_below(w.tenants))
                      : 0;
    ++res.issued;
    if (client.submit(payload, response_size(w, cls), cls, tenant) == 0)
      ++res.rejected;
    client.poll();
    for (const rpc::Completion& c : client.take_completions())
      record(res, c);
    const double u = rng.next_double();
    next += -std::log1p(-u) / cfg.rate_rps * 1e12;  // Poisson interarrival
  }
  client.drain();
  for (const rpc::Completion& c : client.take_completions()) record(res, c);
  res.span = env.now() - start;
  res.start = start;
  return res;
}

template <typename Client>
GenResult closed_loop(Client& client, const Workload& w,
                      const ClosedLoopConfig& cfg) {
  IBP_CHECK(cfg.workers > 0, "closed loop needs at least one worker");
  if (cfg.warmup > 0) {
    ClosedLoopConfig wcfg = cfg;
    wcfg.requests = cfg.warmup;
    wcfg.warmup = 0;
    const WarmupMute<Client> mute(client);
    (void)closed_loop(client, w, wcfg);  // drains before returning
  }
  core::RankEnv& env = client.comm().env();
  sim::Context& sc = env.sim();
  Rng rng(cfg.seed);
  GenResult res;
  res.trace_hash = kFnvBasis;
  const std::vector<std::uint8_t> payload = make_payload(w, cfg.seed);

  std::vector<std::uint64_t> budget(cfg.workers,
                                    cfg.requests / cfg.workers);
  for (std::uint64_t i = 0; i < cfg.requests % cfg.workers; ++i)
    ++budget[i];

  const TimePs start = env.now();
  // Workers are state machines sharing the one client rank: ready set
  // ordered by (wake time, worker), outstanding ids mapped back to the
  // worker that issued them.
  std::set<std::pair<TimePs, std::uint32_t>> ready;
  std::map<std::uint64_t, std::pair<std::uint32_t, rpc::Class>> owner;
  for (std::uint32_t wk = 0; wk < cfg.workers; ++wk)
    if (budget[wk] > 0) ready.insert({start, wk});

  const auto submit_one = [&](std::uint32_t wk) {
    const rpc::Class cls = rng.next_double() < w.bulk_fraction
                               ? rpc::Class::Bulk
                               : rpc::Class::Latency;
    const std::uint32_t tenant =
        w.tenants > 1 ? static_cast<std::uint32_t>(rng.next_below(w.tenants))
                      : 0;
    ++res.issued;
    --budget[wk];
    const std::uint64_t id =
        client.submit(payload, response_size(w, cls), cls, tenant);
    if (id == 0) {
      // Local queue full: the worker backs off one flush window and
      // retries (closed-loop workers never abandon their budget).
      ++res.rejected;
      ++budget[wk];
      ready.insert({env.now() + client.config().flush_timeout, wk});
    } else {
      owner.emplace(id, std::make_pair(wk, cls));
    }
  };

  while (!ready.empty() || !owner.empty()) {
    // Launch every worker whose wake time has arrived.
    while (!ready.empty() && ready.begin()->first <= env.now()) {
      const std::uint32_t wk = ready.begin()->second;
      ready.erase(ready.begin());
      submit_one(wk);
    }
    if (owner.empty()) {
      if (ready.empty()) break;
      sc.sleep_until(ready.begin()->first);
      continue;
    }
    client.wait_some();
    for (const rpc::Completion& c : client.take_completions()) {
      record(res, c);
      bucket(res, c, cfg.window, start, env.now());
      const auto it = owner.find(c.id);
      IBP_CHECK(it != owner.end(), "completion for unknown worker");
      const auto [wk, cls] = it->second;
      if (c.status == rpc::Status::TimedOut && cls == rpc::Class::Latency)
        ++res.lost_latency;
      owner.erase(it);
      if (budget[wk] > 0) ready.insert({env.now() + cfg.think, wk});
    }
  }
  client.drain();
  res.span = env.now() - start;
  res.start = start;
  return res;
}

/// Closed loop with honest workers: each worker is a sim track running
/// its own submit -> wait -> think cycle, so worker concurrency is real
/// virtual-time overlap instead of a multiplexed state machine. The
/// calling track runs the client's poll loop (RpcClient state is shared
/// by all tracks of the rank; the engine serializes them in global
/// virtual-time order, so no locking is needed — only the discipline
/// that blocking ingest stays on this one track).
GenResult closed_loop_tracked(rpc::RpcClient& client, const Workload& w,
                              const ClosedLoopConfig& cfg) {
  IBP_CHECK(cfg.workers > 0, "closed loop needs at least one worker");
  if (cfg.warmup > 0) {
    ClosedLoopConfig wcfg = cfg;
    wcfg.requests = cfg.warmup;
    wcfg.warmup = 0;
    const WarmupMute<rpc::RpcClient> mute(client);
    (void)closed_loop_tracked(client, w, wcfg);  // drains before returning
  }
  core::RankEnv& env = client.comm().env();
  sim::Context& sc = env.sim();
  Rng rng(cfg.seed);
  GenResult res;
  res.trace_hash = kFnvBasis;
  const std::vector<std::uint8_t> payload = make_payload(w, cfg.seed);

  std::vector<std::uint64_t> budget(cfg.workers,
                                    cfg.requests / cfg.workers);
  for (std::uint64_t i = 0; i < cfg.requests % cfg.workers; ++i)
    ++budget[i];

  const TimePs start = env.now();
  std::uint32_t live = 0;
  // Earliest unacknowledged submit/finish signal; reset only by the poll
  // loop, its one waiter, while it runs.
  TimePs worker_event = 0;
  Waker worker_signal;
  const auto signal = [&] {
    if (worker_event != 0) return;
    worker_event = env.now();
    worker_signal.wake();
  };
  // The id each worker waits on, and its latency once the poll loop took
  // the record: taking it must not move the waiting worker's ready time.
  struct Waiting {
    std::uint64_t id = 0;
    std::optional<TimePs> latency;
  };
  std::vector<Waiting> waiting(cfg.workers);
  const auto take = [&] {
    for (const rpc::Completion& c : client.take_completions()) {
      for (Waiting& wt : waiting)
        if (wt.id == c.id) wt.latency = c.latency;
      record(res, c);
    }
  };

  const auto worker_fn = [&](std::uint32_t wk, sim::Context& wsc) {
    while (budget[wk] > 0) {
      const rpc::Class cls = rng.next_double() < w.bulk_fraction
                                 ? rpc::Class::Bulk
                                 : rpc::Class::Latency;
      const std::uint32_t tenant =
          w.tenants > 1
              ? static_cast<std::uint32_t>(rng.next_below(w.tenants))
              : 0;
      ++res.issued;
      const TimePs t0 = env.now();
      const std::uint64_t id =
          client.submit(payload, response_size(w, cls), cls, tenant);
      if (id == 0) {
        // Local queue full: back off one flush window and retry
        // (closed-loop workers never abandon their budget).
        ++res.rejected;
        wsc.advance(client.config().flush_timeout);
        continue;
      }
      --budget[wk];
      waiting[wk].id = id;
      signal();
      wsc.wait("loadgen worker", {&client.completion_waker()},
               [&client, &wt = waiting[wk], t0]() -> std::optional<TimePs> {
                 if (const rpc::Completion* c = client.find_completion(wt.id))
                   return t0 + c->latency;
                 if (wt.latency) return t0 + *wt.latency;
                 return std::nullopt;
               });
      waiting[wk] = {};
      if (cfg.think > 0) wsc.advance(cfg.think);
    }
    --live;
    signal();
  };

  std::vector<sim::TrackId> tracks;
  tracks.reserve(cfg.workers);
  for (std::uint32_t wk = 0; wk < cfg.workers; ++wk) {
    if (budget[wk] == 0) continue;
    ++live;
    tracks.push_back(sc.spawn_track(
        [&, wk](sim::Context& wsc) { worker_fn(wk, wsc); }));
  }

  // Poll loop: this track owns every blocking ingest. It wakes when a
  // response can arrive or when a worker signals (a fresh submit that
  // may need flushing, or its own exit).
  while (live > 0) {
    take();
    worker_event = 0;
    if (client.outstanding() > 0) {
      client.wait_some();
      continue;
    }
    sc.wait("loadgen poll", {&worker_signal}, [&]() -> std::optional<TimePs> {
      if (worker_event != 0) return worker_event;
      return std::nullopt;
    });
  }
  for (const sim::TrackId t : tracks) sc.join_track(t);
  take();
  client.drain();
  res.span = env.now() - start;
  res.start = start;
  return res;
}

}  // namespace

GenResult run_open_loop(rpc::RpcClient& client, const Workload& w,
                        const OpenLoopConfig& cfg) {
  return open_loop(client, w, cfg);
}

GenResult run_open_loop(fabric::FabricClient& client, const Workload& w,
                        const OpenLoopConfig& cfg) {
  return open_loop(client, w, cfg);
}

GenResult run_closed_loop(rpc::RpcClient& client, const Workload& w,
                          const ClosedLoopConfig& cfg) {
  if (cfg.tracked_workers) return closed_loop_tracked(client, w, cfg);
  return closed_loop(client, w, cfg);
}

GenResult run_closed_loop(fabric::FabricClient& client, const Workload& w,
                          const ClosedLoopConfig& cfg) {
  IBP_CHECK(!cfg.tracked_workers,
            "tracked workers need a single-link RpcClient");
  return closed_loop(client, w, cfg);
}

}  // namespace ibp::loadgen
