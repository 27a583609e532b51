#include "ibp/fabric/fabric.hpp"

#include <algorithm>
#include <cstring>

#include "ibp/common/check.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/telemetry/reqtrace.hpp"

namespace ibp::fabric {

namespace {

std::uint64_t mix64(std::uint64_t v) {
  v ^= v >> 33;
  v *= 0xff51afd7ed558ccdull;
  v ^= v >> 33;
  v *= 0xc4ceb9fe1a85ec53ull;
  v ^= v >> 33;
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardMap

const char* shard_strategy_name(ShardStrategy s) {
  switch (s) {
    case ShardStrategy::Hash: return "hash";
    case ShardStrategy::Range: return "range";
    case ShardStrategy::Affinity: return "affinity";
  }
  IBP_FAIL("bad shard strategy");
}

std::optional<ShardStrategy> shard_strategy_from_name(std::string_view name) {
  for (ShardStrategy s : {ShardStrategy::Hash, ShardStrategy::Range,
                          ShardStrategy::Affinity}) {
    if (name == shard_strategy_name(s)) return s;
  }
  return std::nullopt;
}

ShardMap::ShardMap(std::uint32_t servers, ShardStrategy strategy,
                   std::uint64_t seed, std::uint32_t epoch)
    : servers_(servers), strategy_(strategy), seed_(seed), epoch_(epoch) {
  IBP_CHECK(servers_ > 0, "shard map needs at least one server");
}

std::uint32_t ShardMap::base_home(std::uint32_t tenant) const {
  if (servers_ == 1) return 0;
  switch (strategy_) {
    case ShardStrategy::Hash:
      return static_cast<std::uint32_t>(mix64(tenant ^ seed_) % servers_);
    case ShardStrategy::Range:
      // Contiguous tenant ranges over the low 16 bits of the id space.
      return static_cast<std::uint32_t>(
          (std::uint64_t{tenant & 0xFFFF} * servers_) >> 16);
    case ShardStrategy::Affinity:
      // Tenant groups (high bits) land together, so a tenant's
      // neighbours share its server — cache affinity across requests.
      return static_cast<std::uint32_t>(mix64((tenant >> 4) ^ seed_) %
                                        servers_);
  }
  IBP_FAIL("bad shard strategy");
}

std::uint32_t ShardMap::home(std::uint32_t tenant) const {
  const std::uint32_t base = base_home(tenant);
  if (excluded_.empty() || !excluded_[base]) return base;
  // Displaced tenants rehash over the survivors. The probe key keeps
  // whole affinity groups (and range slots) together, and depends only
  // on the exclusion mask — not on the order exclusions happened — so
  // every endpoint computes the same map, and a readmit restores the
  // base homes exactly.
  const std::uint64_t key = strategy_ == ShardStrategy::Affinity
                                ? (tenant >> 4)
                                : strategy_ == ShardStrategy::Range
                                      ? (tenant & 0xFFFF)
                                      : tenant;
  for (std::uint32_t attempt = 1; attempt <= 8 * servers_; ++attempt) {
    const auto cand = static_cast<std::uint32_t>(
        mix64(key ^ seed_ ^ (std::uint64_t{attempt} << 40)) % servers_);
    if (!excluded_[cand]) return cand;
  }
  // Astronomically unlikely with any server alive; scan as a backstop.
  for (std::uint32_t i = 1; i <= servers_; ++i) {
    const std::uint32_t cand = (base + i) % servers_;
    if (!excluded_[cand]) return cand;
  }
  IBP_FAIL("shard map has no alive server");
}

void ShardMap::exclude(std::uint32_t server) {
  IBP_CHECK(server < servers_, "exclude: no such server");
  IBP_CHECK(!excluded(server), "exclude: server already excluded");
  IBP_CHECK(alive() > 1, "exclude: cannot lose the last alive server");
  if (excluded_.empty()) excluded_.assign(servers_, false);
  excluded_[server] = true;
  ++epoch_;
}

void ShardMap::readmit(std::uint32_t server) {
  IBP_CHECK(server < servers_, "readmit: no such server");
  IBP_CHECK(excluded(server), "readmit: server is not excluded");
  excluded_[server] = false;
  ++epoch_;
}

std::uint32_t ShardMap::alive() const {
  std::uint32_t n = servers_;
  for (std::size_t s = 0; s < excluded_.size(); ++s)
    if (excluded_[s]) --n;
  return n;
}

std::uint64_t ShardMap::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  fold(servers_);
  fold(static_cast<std::uint64_t>(strategy_));
  fold(epoch_);
  // The exclusion mask folds only once allocated, keeping pre-failover
  // digests (and the committed goldens that embed them) stable.
  for (std::size_t s = 0; s < excluded_.size(); ++s)
    if (excluded_[s]) fold(0x10000 | s);
  for (std::uint32_t t = 0; t < 256; ++t) fold(home(t));
  return h;
}

const char* link_health_name(LinkHealth h) {
  switch (h) {
    case LinkHealth::Healthy: return "healthy";
    case LinkHealth::Suspect: return "suspect";
    case LinkHealth::Dead: return "dead";
    case LinkHealth::Readmitted: return "readmitted";
  }
  IBP_FAIL("bad link health");
}

// ---------------------------------------------------------------------------
// FabricClient

FabricClient::FabricClient(mpi::Comm& comm, std::vector<int> servers,
                           FabricConfig cfg)
    : comm_(&comm),
      servers_(std::move(servers)),
      cfg_(cfg),
      hub_(comm.env().cluster().request_tracer()),
      map_(static_cast<std::uint32_t>(servers_.size()), cfg.shard_strategy,
           cfg.shard_seed, cfg.shard_epoch) {
  IBP_CHECK(!servers_.empty(), "fabric client needs at least one server");
  IBP_CHECK(cfg_.stripe_width > 0, "stripe width must be positive");
  if (failover_armed()) {
    // The health monitor's lease is the link-level request timeout:
    // without one a dead server produces no signal at all.
    IBP_CHECK(cfg_.rpc.request_timeout != 0,
              "fail_after needs rpc.request_timeout");
    cfg_.rpc.fail_timed_out = true;
    const std::size_t n = servers_.size();
    health_.assign(n, LinkHealth::Healthy);
    losses_.assign(n, 0);
    next_probe_.assign(n, 0);
    probe_backoff_.assign(n, 0);
  }
  links_.reserve(servers_.size());
  for (int s : servers_)
    links_.push_back(std::make_unique<rpc::RpcClient>(comm, s, cfg_.rpc));
  const std::span<Waker* const> request = comm.request_wakers();
  block_wakers_.assign(request.begin(), request.end());
  for (const auto& l : links_)
    if (Waker* w = l->ring_waker()) block_wakers_.push_back(w);
  register_metrics();
}

FabricClient::~FabricClient() {
  for (auto& p : probes_) p.release();
}

std::uint64_t FabricClient::outstanding() const { return sub_.size(); }

rpc::ClientStats FabricClient::link_stats() const {
  rpc::ClientStats sum;
  for (const auto& l : links_) {
    const rpc::ClientStats& s = l->stats();
    sum.submitted += s.submitted;
    sum.rejected += s.rejected;
    sum.batches += s.batches;
    sum.batched_requests += s.batched_requests;
    sum.completed += s.completed;
    sum.shed += s.shed;
    sum.large_responses += s.large_responses;
    sum.credit_stalls += s.credit_stalls;
    sum.retries += s.retries;
    sum.duplicates += s.duplicates;
  }
  return sum;
}

std::uint64_t FabricClient::submit(std::span<const std::uint8_t> payload,
                                   std::uint32_t response_cap, rpc::Class cls,
                                   std::uint32_t tenant) {
  IBP_CHECK(!closed_, "submit on closed fabric client");
  if (links_.size() > 1 || response_cap > cfg_.stripe_threshold) pump();
  if (failover_armed() && cls == rpc::Class::Bulk &&
      cfg_.degrade_outstanding > 0 && degraded()) {
    // Short-handed: shed Bulk before it crowds Latency off the
    // survivors. The caller sees an ordinary Overloaded completion.
    std::uint64_t backlog = 0;
    for (const auto& l : links_) backlog += l->outstanding();
    if (backlog >= cfg_.degrade_outstanding) {
      ++stats_.submitted;
      ++stats_.degraded_shed;
      rpc::Completion c;
      c.id = done_.issue();
      c.status = rpc::Status::Overloaded;
      const std::uint64_t fid = c.id;
      emit(std::move(c));
      return fid;
    }
  }
  if (response_cap > cfg_.stripe_threshold) {
    ++stats_.submitted;
    return submit_striped(response_cap, cls, tenant);
  }
  // Passthrough: the tenant's home shard serves the request verbatim.
  const std::uint32_t link = map_.home(tenant);
  const std::uint64_t sid =
      links_[link]->submit(payload, response_cap, cls, tenant);
  ++stats_.submitted;
  if (sid == 0) {
    ++stats_.rejected;
    return 0;
  }
  const std::uint64_t fid = done_.issue();
  ++stats_.passthrough;
  sub_.emplace(std::make_pair(link, sid), SubKey{fid, 0, false});
  if (failover_armed()) {
    PendingReq pr;
    pr.payload.assign(payload.begin(), payload.end());
    pr.response_cap = response_cap;
    pr.cls = cls;
    pr.tenant = tenant;
    pr.t0 = comm_->env().now();
    pending_.emplace(fid, std::move(pr));
  }
  return fid;
}

std::uint32_t FabricClient::segment_bytes() const {
  std::uint64_t seg = cfg_.segment_bytes;
  // The chunk the hugepage library carves with.
  if (seg == 0) seg = comm_->env().lib().chunk();
  seg = std::clamp<std::uint64_t>(seg, 256, cfg_.rpc.max_payload);
  return static_cast<std::uint32_t>(seg);
}

std::uint32_t FabricClient::pick_link(std::uint32_t start,
                                      std::uint32_t rotation,
                                      std::uint32_t width) {
  const std::uint32_t n = nlinks();
  const auto dead = [this](std::uint32_t cand) {
    return failover_armed() && health_[cand] == LinkHealth::Dead;
  };
  std::uint32_t rr = (start + rotation) % n;
  if (dead(rr)) {
    // The rotation slot's server is gone: walk the whole ring for the
    // next alive link (the fan-out set may be entirely dead).
    for (std::uint32_t i = 1; i < n; ++i) {
      const std::uint32_t cand = (rr + i) % n;
      if (!dead(cand)) {
        rr = cand;
        break;
      }
    }
    IBP_CHECK(!dead(rr), "no alive link to pick");
  }
  if (width <= 1) return rr;
  // Least-outstanding link of the fan-out set [start, start+width);
  // rotation breaks ties deterministically so an idle fleet still
  // round-robins.
  std::uint32_t best = rr;
  std::uint64_t best_load = links_[rr]->outstanding();
  for (std::uint32_t i = 0; i < width; ++i) {
    const std::uint32_t cand = (start + i) % n;
    if (dead(cand)) continue;
    if (links_[cand]->outstanding() < best_load) {
      best = cand;
      best_load = links_[cand]->outstanding();
    }
  }
  if (best != rr) ++stats_.adaptive_skips;
  return best;
}

std::uint64_t FabricClient::submit_striped(std::uint32_t response_cap,
                                           rpc::Class cls,
                                           std::uint32_t tenant) {
  core::RankEnv& env = comm_->env();
  while (stripes_.size() >= cfg_.reassembly_window) {
    // Reassembly window full: block until something completes.
    pump();
    if (stripes_.size() < cfg_.reassembly_window) break;
    block_step();
  }
  const std::uint32_t width =
      std::min<std::uint32_t>(cfg_.stripe_width, nlinks());
  const std::uint32_t seg_bytes = segment_bytes();
  const std::uint64_t nseg64 =
      (response_cap + seg_bytes - 1) / std::uint64_t{seg_bytes};
  IBP_CHECK(nseg64 <= 0xFFFF, "stripe would exceed 65535 segments");
  const std::uint16_t nseg = static_cast<std::uint16_t>(nseg64);

  const std::uint64_t fid = done_.issue();
  Stripe st;
  st.total = response_cap;
  st.seg_bytes = seg_bytes;
  st.seg_count = nseg;
  st.remaining = nseg;
  st.tenant = tenant;
  st.cls = cls;
  st.buf = env.alloc(response_cap);
  st.t0 = env.now();
  if (failover_armed()) st.attempts.assign(nseg, 1);
  if (hub_ != nullptr && hub_->active())
    // The fabric-level record; each stripe segment's rpc record becomes
    // a child of it below.
    st.trace = hub_->begin(comm_->rank(), tenant,
                           static_cast<std::uint8_t>(cls), st.t0);
  stripes_.emplace(fid, st).first->second.bytes.resize(response_cap);
  ++stats_.stripes;

  const std::uint32_t start = map_.home(tenant);
  std::uint8_t hdr[sizeof(StripeHeader)];
  for (std::uint16_t i = 0; i < nseg; ++i) {
    StripeHeader sh;
    sh.fabric_id = fid;
    sh.total_len = response_cap;
    sh.seg_off = static_cast<std::uint32_t>(i) * seg_bytes;
    sh.seg_len = std::min<std::uint32_t>(seg_bytes, response_cap - sh.seg_off);
    sh.seg_index = i;
    sh.seg_count = nseg;
    std::memcpy(hdr, &sh, sizeof(sh));
    std::uint32_t link = pick_link(start, i, width);
    std::uint64_t sid;
    while ((sid = links_[link]->submit({hdr, sizeof(hdr)}, sh.seg_len, cls,
                                       tenant, rpc::kFlagStripe)) == 0) {
      // Link queue full: make progress until it accepts (striped submits
      // never reject — the stripe is already partially on the wire).
      if (failover_armed()) {
        // The chosen link may be declared dead while we block; re-pick
        // from the (possibly bumped) shard map afterwards.
        failover_block();
        link = pick_link(map_.home(tenant), i, width);
      } else {
        links_[link]->flush();
        links_[link]->poll();
        if (links_[link]->outstanding() > 0) links_[link]->wait_some();
        pump();
      }
    }
    sub_.emplace(std::make_pair(link, sid), SubKey{fid, i, true});
    ++stats_.segments;
    if (st.trace != 0)
      hub_->adopt(hub_->wire_trace(comm_->rank(), servers_[link], sid),
                  st.trace, i);
  }
  if (st.trace != 0)
    // All segments on the wire: the fan-out stage ends; the stripe now
    // waits for its last segment.
    hub_->stage_mark(st.trace, telemetry::Stage::Fanout, comm_->rank(),
                     env.now());
  return fid;
}

void FabricClient::pump() {
  for (auto& l : links_) l->poll();
  // Routing can synchronously produce more completions while the health
  // monitor is armed (declaring a server dead abandons its link, which
  // fails everything inflight there locally), so drain to a fixed point.
  // Disarmed, the second sweep finds nothing and the op sequence is
  // unchanged (take_completions costs no virtual time).
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::uint32_t i = 0; i < links_.size(); ++i) {
      for (rpc::Completion& c : links_[i]->take_completions()) {
        route(i, std::move(c));
        progressed = true;
      }
    }
    if (failover_armed()) pump_failover();
  }
}

void FabricClient::route(std::uint32_t link, rpc::Completion&& c) {
  const auto it = sub_.find({link, c.id});
  IBP_CHECK(it != sub_.end(), "completion for unknown sub-request");
  const SubKey key = it->second;
  sub_.erase(it);
  if (failover_armed()) {
    if (key.probe) {
      on_probe(link, c.status);
      return;
    }
    if (c.status == rpc::Status::TimedOut) {
      on_timeout(link, key);
      return;
    }
    note_link_alive(link);
    if (!recovered_) {
      // First answered request since the death: service is restored.
      recovery_ps_ = comm_->env().now() - death_t_;
      recovered_ = true;
    }
  }
  if (!key.striped) {
    if (failover_armed()) {
      const auto pit = pending_.find(key.fabric_id);
      if (pit != pending_.end()) {
        if (pit->second.attempts > 1)
          // End-to-end latency spans every failover hop, not just the
          // last re-issue.
          c.latency = comm_->env().now() - pit->second.t0;
        pending_.erase(pit);
      }
    }
    c.id = key.fabric_id;
    emit(std::move(c));
    return;
  }
  const auto sit = stripes_.find(key.fabric_id);
  IBP_CHECK(sit != stripes_.end(), "segment for unknown stripe");
  Stripe& st = sit->second;
  if (c.status != rpc::Status::Ok) {
    st.status = c.status;  // one shed segment sheds the stripe
  } else {
    const std::uint32_t off = key.seg_index * st.seg_bytes;
    const std::uint32_t len =
        std::min<std::uint32_t>(st.seg_bytes, st.total - off);
    IBP_CHECK(c.payload.size() == len, "segment length mismatch");
    std::memcpy(st.bytes.data() + off, c.payload.data(), len);
  }
  IBP_CHECK(st.remaining > 0, "stripe over-completed");
  if (--st.remaining == 0) finalize(key.fabric_id, st);
}

void FabricClient::finalize(std::uint64_t fid, Stripe& st) {
  core::RankEnv& env = comm_->env();
  if (st.trace != 0)
    // The last segment just arrived; everything from here to completion
    // is reassembly work.
    hub_->stage_mark(st.trace, telemetry::Stage::StripeWait, comm_->rank(),
                     env.now());
  rpc::Completion fc;
  fc.id = fid;
  fc.status = st.status;
  if (st.status == rpc::Status::Ok) {
    // The application reads the assembled response once.
    fc.payload = std::move(st.bytes);
    env.touch_stream(st.buf, st.total);
    stats_.reassembled_bytes += st.total;
  }
  fc.latency = env.now() - st.t0;
  if (st.trace != 0) {
    hub_->stage_mark(st.trace, telemetry::Stage::Reassembly, comm_->rank(),
                     env.now());
    hub_->end(st.trace, static_cast<std::uint8_t>(fc.status), env.now());
  }
  env.dealloc(st.buf);
  stripes_.erase(fid);
  emit(std::move(fc));
}

void FabricClient::emit(rpc::Completion&& c) {
  if (c.status == rpc::Status::Ok) {
    lat_.add(static_cast<std::uint64_t>(c.latency / 1000));  // ps -> ns
  } else if (c.status == rpc::Status::TimedOut) {
    ++stats_.timed_out;
  } else {
    ++stats_.shed;
  }
  ++stats_.completed;
  done_.complete(std::move(c));
}

// ---------------------------------------------------------------------------
// Failure recovery (every entry point below is unreachable unless
// cfg_.fail_after > 0; the legacy paths never call them)

bool FabricClient::degraded() const {
  for (LinkHealth h : health_)
    if (h == LinkHealth::Dead) return true;
  return false;
}

void FabricClient::note_link_alive(std::uint32_t link) {
  losses_[link] = 0;
  if (health_[link] == LinkHealth::Suspect ||
      health_[link] == LinkHealth::Readmitted)
    health_[link] = LinkHealth::Healthy;
}

void FabricClient::on_timeout(std::uint32_t link, const SubKey& key) {
  if (health_[link] != LinkHealth::Dead) {
    health_[link] = LinkHealth::Suspect;
    if (++losses_[link] >= cfg_.fail_after) declare_dead(link);
  }
  // The orphaned work re-issues through pump_failover, against the
  // (possibly epoch-bumped) shard map.
  if (key.striped)
    retry_seg_.emplace_back(key.fabric_id, key.seg_index);
  else
    retry_pass_.push_back(key.fabric_id);
}

void FabricClient::declare_dead(std::uint32_t link) {
  if (health_[link] == LinkHealth::Dead) return;
  if (map_.alive() <= 1)
    // Nowhere to fail over to: keep the last server Suspect and let
    // per-request reroute budgets time the work out instead.
    return;
  health_[link] = LinkHealth::Dead;
  map_.exclude(link);
  ++stats_.failovers;
  if (recovered_) {
    death_t_ = comm_->env().now();
    recovered_ = false;
  }
  // Fail everything still inflight on the link locally, right now. The
  // TimedOut completions surface on the enclosing pump sweep and requeue
  // through on_timeout — adopting the orphaned in-flight stripes.
  links_[link]->abandon();
  if (cfg_.readmit && !probes_muted_) {
    probe_backoff_[link] = cfg_.probe_backoff;
    next_probe_[link] = comm_->env().now() + cfg_.probe_backoff;
  }
}

void FabricClient::on_probe(std::uint32_t link, rpc::Status status) {
  if (status != rpc::Status::TimedOut) {
    // The server answered: the brownout is over. Readmission restores
    // the displaced tenants' base homes exactly (ShardMap contract).
    health_[link] = LinkHealth::Readmitted;
    losses_[link] = 0;
    next_probe_[link] = 0;
    map_.readmit(link);
    ++stats_.readmissions;
    return;
  }
  probe_backoff_[link] =
      std::min<TimePs>(probe_backoff_[link] * 2, cfg_.probe_backoff_max);
  if (!probes_muted_)
    next_probe_[link] = comm_->env().now() + probe_backoff_[link];
}

void FabricClient::pump_failover() {
  // Due re-admission probes first: a recovered server should rejoin the
  // map before more reroutes pile onto the survivors.
  if (cfg_.readmit && !probes_muted_) {
    const TimePs now = comm_->env().now();
    for (std::uint32_t i = 0; i < links_.size(); ++i) {
      if (health_[i] != LinkHealth::Dead) continue;
      if (next_probe_[i] == 0 || now < next_probe_[i]) continue;
      next_probe_[i] = 0;
      const std::uint64_t sid =
          links_[i]->submit({}, 0, rpc::Class::Latency, 0);
      if (sid == 0) {  // link queue full; try again next pump
        next_probe_[i] = now + probe_backoff_[i];
        continue;
      }
      sub_.emplace(std::make_pair(i, sid), SubKey{0, 0, false, true});
      ++stats_.probes;
      links_[i]->flush();
    }
  }
  while (!retry_pass_.empty()) {
    if (!reroute_passthrough(retry_pass_.front())) return;
    retry_pass_.pop_front();
  }
  while (!retry_seg_.empty()) {
    const auto [fid, seg] = retry_seg_.front();
    if (!reroute_segment(fid, seg)) return;
    retry_seg_.pop_front();
  }
}

bool FabricClient::reroute_passthrough(std::uint64_t fid) {
  const auto it = pending_.find(fid);
  IBP_CHECK(it != pending_.end(), "reroute for unknown request");
  PendingReq& pr = it->second;
  if (pr.attempts > cfg_.reroute_cap) {
    // Out of failover budget: the request is lost for good.
    rpc::Completion c;
    c.id = fid;
    c.status = rpc::Status::TimedOut;
    c.latency = comm_->env().now() - pr.t0;
    pending_.erase(it);
    emit(std::move(c));
    return true;
  }
  const std::uint32_t link = map_.home(pr.tenant);
  const std::uint64_t sid =
      links_[link]->submit(pr.payload, pr.response_cap, pr.cls, pr.tenant);
  if (sid == 0) return false;
  ++pr.attempts;
  ++stats_.rerouted;
  sub_.emplace(std::make_pair(link, sid), SubKey{fid, 0, false});
  if (hub_ != nullptr && hub_->active()) {
    // The failover hop lands on the re-issued rpc record — the one the
    // surviving server will serve.
    const std::uint64_t tr =
        hub_->wire_trace(comm_->rank(), servers_[link], sid);
    if (tr != 0) hub_->failover(tr);
  }
  return true;
}

bool FabricClient::reroute_segment(std::uint64_t fid, std::uint16_t seg) {
  const auto sit = stripes_.find(fid);
  IBP_CHECK(sit != stripes_.end(), "reroute for unknown stripe");
  Stripe& st = sit->second;
  if (st.attempts[seg] > cfg_.reroute_cap) {
    st.status = rpc::Status::TimedOut;  // one lost segment loses the stripe
    IBP_CHECK(st.remaining > 0, "stripe over-completed");
    if (--st.remaining == 0) finalize(fid, st);
    return true;
  }
  StripeHeader sh;
  sh.fabric_id = fid;
  sh.total_len = st.total;
  sh.seg_off = static_cast<std::uint32_t>(seg) * st.seg_bytes;
  sh.seg_len = std::min<std::uint32_t>(st.seg_bytes, st.total - sh.seg_off);
  sh.seg_index = seg;
  sh.seg_count = st.seg_count;
  std::uint8_t hdr[sizeof(StripeHeader)];
  std::memcpy(hdr, &sh, sizeof(sh));
  const std::uint32_t width =
      std::min<std::uint32_t>(cfg_.stripe_width, nlinks());
  const std::uint32_t link = pick_link(map_.home(st.tenant), seg, width);
  const std::uint64_t sid = links_[link]->submit(
      {hdr, sizeof(hdr)}, sh.seg_len, st.cls, st.tenant, rpc::kFlagStripe);
  if (sid == 0) return false;
  ++st.attempts[seg];
  ++stats_.rerouted;
  sub_.emplace(std::make_pair(link, sid), SubKey{fid, seg, true});
  if (st.trace != 0) {
    hub_->adopt(hub_->wire_trace(comm_->rank(), servers_[link], sid),
                st.trace, seg);
    hub_->failover(st.trace);
  }
  return true;
}

void FabricClient::failover_block() {
  for (auto& l : links_) l->flush();
  const auto ready = [this]() -> std::optional<TimePs> {
    std::optional<TimePs> best;
    const auto upd = [&best](std::optional<TimePs> t) {
      if (t && (!best || *t < *best)) best = t;
    };
    for (const auto& l : links_) {
      if (l->response_req() != nullptr && l->response_req()->done())
        upd(l->response_req()->done_at);
      upd(l->next_ring_visible());
      upd(l->next_deadline());
    }
    upd(comm_->earliest_event_time());
    if (cfg_.readmit && !probes_muted_)
      for (TimePs p : next_probe_)
        if (p != 0) upd(p);
    return best;
  };
  comm_->env().sim().wait("fabric failover", block_wakers_, ready);
  pump();
}

void FabricClient::block_any() {
  std::vector<mpi::Req> reqs;
  bool ring = false;
  for (auto& l : links_) {
    l->flush();
    if (l->response_req() != nullptr) reqs.push_back(l->response_req());
    ring = ring || l->ring_enabled();
  }
  if (ring) {
    // Ring responses land in client memory without completing any recv,
    // so a waitany on response receives alone would sleep through them.
    // Block on the composite instead: a finished recv, a ring record
    // becoming visible, or any transport event.
    const auto ready = [this]() -> std::optional<TimePs> {
      std::optional<TimePs> best;
      const auto upd = [&best](std::optional<TimePs> t) {
        if (t && (!best || *t < *best)) best = t;
      };
      for (const auto& l : links_) {
        if (l->response_req() != nullptr && l->response_req()->done())
          upd(l->response_req()->done_at);
        upd(l->next_ring_visible());
      }
      upd(comm_->earliest_event_time());
      return best;
    };
    comm_->env().sim().wait("fabric any link", block_wakers_, ready);
    pump();
    return;
  }
  IBP_CHECK(!reqs.empty(), "blocking with no link awaiting a response");
  comm_->waitany(reqs);
  pump();
}

void FabricClient::block_step(std::uint64_t id) {
  if (failover_armed()) {
    // Never block inside the transport: a dead server produces no
    // completion to wake on, so sleep against deadlines instead.
    failover_block();
    return;
  }
  if (links_.size() == 1) {
    // Single link: let the link block exactly as a bare RpcClient would.
    // Even an empty CQ poll costs virtual time, so the passthrough path
    // must not add progress calls of its own.
    for (rpc::Completion& c : links_[0]->take_completions())
      route(0, std::move(c));
    if (id == 0 ? !done_.empty() : done_.find(id) != nullptr) return;
    links_[0]->wait_some();
    for (rpc::Completion& c : links_[0]->take_completions())
      route(0, std::move(c));
    return;
  }
  block_any();
}

void FabricClient::poll() {
  if (closed_) return;
  pump();
}

rpc::Completion FabricClient::wait(std::uint64_t id) {
  done_.check_waitable(id, "fabric");
  while (done_.find(id) == nullptr) {
    if (links_.size() > 1) {
      pump();
      if (done_.find(id) != nullptr) break;
    }
    block_step(id);
  }
  return done_.take(id);
}

void FabricClient::wait_some() {
  // An untaken completion satisfies the caller even with nothing on the
  // wire (a degradation shed completes at submit, wire-free).
  IBP_CHECK(!done_.empty() || outstanding() > 0,
            "wait_some with nothing outstanding");
  while (done_.empty()) {
    if (links_.size() > 1) {
      pump();
      if (!done_.empty()) return;
    }
    block_step();
  }
}

void FabricClient::drain() {
  if (failover_armed()) {
    // Probes must stop re-arming or a permanently dead server would
    // keep the drain alive forever.
    probes_muted_ = true;
    while (!sub_.empty() || !retry_pass_.empty() || !retry_seg_.empty()) {
      pump();
      if (sub_.empty() && retry_pass_.empty() && retry_seg_.empty()) break;
      failover_block();
    }
    for (auto& l : links_) l->drain();
    probes_muted_ = false;
    return;
  }
  if (links_.size() == 1) {
    // One link drain, mirroring a bare RpcClient drain call for call.
    do {
      links_[0]->drain();
      for (rpc::Completion& c : links_[0]->take_completions())
        route(0, std::move(c));
    } while (!sub_.empty());
    return;
  }
  while (!sub_.empty()) {
    pump();
    if (sub_.empty()) break;
    block_any();
  }
  for (auto& l : links_) l->drain();
}

void FabricClient::close() {
  if (closed_) return;
  drain();
  for (auto& l : links_) l->close();
  closed_ = true;
}

void FabricClient::register_metrics() {
  auto& m = comm_->env().cluster().metrics();
  probes_.push_back(
      m.probe("fabric.requests", [this] { return double(stats_.submitted); }));
  probes_.push_back(
      m.probe("fabric.stripes", [this] { return double(stats_.stripes); }));
  probes_.push_back(
      m.probe("fabric.segments", [this] { return double(stats_.segments); }));
  probes_.push_back(m.probe("fabric.reassembled_bytes", [this] {
    return double(stats_.reassembled_bytes);
  }));
  probes_.push_back(m.probe("fabric.adaptive_skips", [this] {
    return double(stats_.adaptive_skips);
  }));
  probes_.push_back(m.probe("fabric.link_credit_stalls", [this] {
    return double(link_stats().credit_stalls);
  }));
  // Failure-recovery plane. All flat zero (and the epoch at its seed
  // value) unless the health monitor is armed and a server dies.
  probes_.push_back(
      m.probe("fabric.epoch", [this] { return double(map_.epoch()); }));
  probes_.push_back(
      m.probe("fabric.failovers", [this] { return double(stats_.failovers); }));
  probes_.push_back(
      m.probe("fabric.rerouted", [this] { return double(stats_.rerouted); }));
  probes_.push_back(m.probe("fabric.degraded_shed", [this] {
    return double(stats_.degraded_shed);
  }));
  probes_.push_back(m.probe("fabric.readmissions", [this] {
    return double(stats_.readmissions);
  }));
  probes_.push_back(m.probe("fabric.recovery_time_ps", [this] {
    return double(recovery_ps_);
  }));
  // Fabric-level latency quantiles, rank-qualified like the rpc client's
  // (percentiles must not sum across ranks).
  const std::string pre = "fabric.r" + std::to_string(comm_->rank()) + ".";
  for (auto& p : telemetry::histogram_probes(m, pre + "latency", &lat_))
    probes_.push_back(std::move(p));
}

// ---------------------------------------------------------------------------
// FabricServer

FabricServer::FabricServer(mpi::Comm& comm, std::vector<int> clients,
                           FabricConfig cfg, rpc::Handler app)
    : comm_(&comm), cfg_(cfg), app_(std::move(app)) {
  if (!app_) app_ = rpc::default_handler();
  rpc::Handler wrapped = [this](const rpc::RequestView& rq, std::uint8_t* out,
                                std::uint32_t cap) {
    if ((rq.flags & rpc::kFlagStripe) != 0) return serve_stripe(rq, out, cap);
    return app_(rq, out, cap);
  };
  server_ = std::make_unique<rpc::RpcServer>(comm, std::move(clients),
                                             cfg_.rpc, std::move(wrapped));
  register_metrics();
}

FabricServer::~FabricServer() {
  for (auto& p : probes_) p.release();
  if (shard_ != 0) comm_->env().dealloc(shard_);
}

void FabricServer::ensure_shard() {
  if (shard_ != 0) return;
  IBP_CHECK(cfg_.shard_bytes >= cfg_.rpc.max_payload,
            "shard arena smaller than one segment");
  shard_ = comm_->env().alloc(cfg_.shard_bytes);
}

std::uint32_t FabricServer::serve_stripe(const rpc::RequestView& rq,
                                         std::uint8_t* out,
                                         std::uint32_t cap) {
  IBP_CHECK(rq.payload_len >= sizeof(StripeHeader),
            "striped request without stripe header");
  StripeHeader sh;
  std::memcpy(&sh, rq.payload, sizeof(sh));
  IBP_CHECK(sh.seg_len <= cap, "segment exceeds response capacity");
  ensure_shard();
  core::RankEnv& env = comm_->env();
  // Read the segment's source bytes from the resident shard arena — the
  // placement-sensitive cost striping spreads across server ranks.
  const std::uint64_t span =
      std::min<std::uint64_t>(sh.seg_len, cfg_.shard_bytes);
  const std::uint64_t off =
      cfg_.shard_bytes > span ? sh.seg_off % (cfg_.shard_bytes - span) : 0;
  env.touch_stream(shard_ + off, span);
  // The application's per-byte serving work (storage read, checksum) —
  // the cost striping parallelises across shard ranks.
  env.sim().advance(static_cast<TimePs>(sh.seg_len) * cfg_.serve_per_byte_ps);
  for (std::uint32_t i = 0; i < sh.seg_len; ++i)
    out[i] = stripe_byte(sh.fabric_id, rq.tenant, sh.seg_off + i);
  ++striped_segments_;
  shard_bytes_read_ += span;
  return sh.seg_len;
}

void FabricServer::register_metrics() {
  auto& m = comm_->env().cluster().metrics();
  probes_.push_back(m.probe("fabric.striped_segments", [this] {
    return double(striped_segments_);
  }));
  probes_.push_back(m.probe("fabric.shard_bytes_read", [this] {
    return double(shard_bytes_read_);
  }));
  // Per-rank congestion signal: the shard's accepted-but-unserved queue
  // depth, sampled by the telemetry plane (summing across ranks would
  // hide the hot shard, hence the rank-qualified name).
  const std::string pre = "fabric.r" + std::to_string(comm_->rank()) + ".";
  probes_.push_back(m.probe(pre + "queue_depth", [this] {
    return double(server_->queue_depth());
  }));
}

}  // namespace ibp::fabric
