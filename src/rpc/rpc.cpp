#include "ibp/rpc/rpc.hpp"

#include <algorithm>
#include <utility>

#include "ibp/common/check.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/telemetry/reqtrace.hpp"

namespace ibp::rpc {

namespace {

void store_header(core::RankEnv& env, VirtAddr va, const WireHeader& h) {
  std::memcpy(env.host_ptr<std::uint8_t>(va, sizeof(WireHeader)), &h,
              sizeof(WireHeader));
}

WireHeader load_header(core::RankEnv& env, VirtAddr va) {
  WireHeader h;
  std::memcpy(&h, env.host_ptr<std::uint8_t>(va, sizeof(WireHeader)),
              sizeof(WireHeader));
  return h;
}

/// Ring geometry for the response fast path: every response record
/// ([WireHeader | payload]) must fit, and the slab must leave the
/// credit-slack headroom ringchan::check_config demands. Both endpoints
/// derive it from the same RpcConfig, so descriptors always agree.
ringchan::RingConfig response_ring_cfg(const RpcConfig& cfg) {
  ringchan::RingConfig rc;
  rc.max_record =
      static_cast<std::uint32_t>(sizeof(WireHeader)) + cfg.max_payload;
  rc.slab_bytes = cfg.response_ring_bytes;
  const std::uint64_t rec = ringchan::record_bytes(rc.max_record);
  while (rc.slab_bytes - rc.slab_bytes / rc.credit_div < rec)
    rc.slab_bytes *= 2;
  return rc;
}

}  // namespace

Handler default_handler() {
  return [](const RequestView& rq, std::uint8_t* out, std::uint32_t cap) {
    // Echo, padded or truncated to the size the request asked for.
    const std::uint32_t want =
        rq.response_cap != 0 ? rq.response_cap : rq.payload_len;
    const std::uint32_t n = std::min(want, cap);
    const std::uint32_t c = std::min(rq.payload_len, n);
    // An empty request or response may come with null pointers, which
    // memcpy and memset must not be given even for zero bytes.
    if (c != 0) std::memcpy(out, rq.payload, c);
    if (n != c) std::memset(out + c, 0, n - c);
    return n;
  };
}

// ---------------------------------------------------------------------------
// Handover

bool Handover::open(std::uint64_t id) const {
  return std::binary_search(open_.begin(), open_.end(), id);
}

bool Handover::completed(std::uint64_t id) const {
  return id != 0 && id < next_id_ && !open(id);
}

void Handover::complete(Completion c) {
  const auto it = std::lower_bound(open_.begin(), open_.end(), c.id);
  IBP_CHECK(it != open_.end() && *it == c.id,
            "completion for request id " << c.id << ", which is not open");
  open_.erase(it);
  untaken_.push_back(std::move(c));
  waker_.wake();
}

const Completion* Handover::find(std::uint64_t id) const {
  for (const Completion& c : untaken_)
    if (c.id == id) return &c;
  return nullptr;
}

void Handover::check_waitable(std::uint64_t id, const char* client) const {
  IBP_CHECK(open(id) || find(id) != nullptr,
            "wait on " << client << " id " << id << ", which this client "
                       << (id == 0 ? "returns for a rejected submit"
                                   : "never issued or already handed over"));
}

Completion Handover::take(std::uint64_t id) {
  const auto it =
      std::find_if(untaken_.begin(), untaken_.end(),
                   [id](const Completion& c) { return c.id == id; });
  IBP_CHECK(it != untaken_.end(), "no untaken record for request id " << id);
  Completion c = std::move(*it);
  untaken_.erase(it);
  return c;
}

std::vector<Completion> Handover::take_all() {
  return std::exchange(untaken_, {});
}

// ---------------------------------------------------------------------------
// RpcClient

RpcClient::RpcClient(mpi::Comm& comm, int server, RpcConfig cfg)
    : comm_(&comm),
      server_(server),
      cfg_(cfg),
      hub_(comm.env().cluster().request_tracer()) {
  slot_bytes_ = sizeof(WireHeader) + cfg_.max_payload;
  IBP_CHECK(cfg_.max_batch_bytes >= slot_bytes_,
            "max_batch_bytes must hold one full request record");
  IBP_CHECK(cfg_.max_batch_bytes <= comm.config().eager_threshold,
            "request batches must fit the eager path");
  IBP_CHECK(cfg_.credits > 0 && cfg_.max_batch_requests > 0,
            "degenerate rpc config");
  nslots_ = cfg_.client_queue_cap + cfg_.credits + 4;
  core::RankEnv& env = comm_->env();
  ring_ = env.alloc(static_cast<std::uint64_t>(nslots_) * slot_bytes_);
  rsp_cap_ = std::max<std::uint64_t>(cfg_.max_batch_bytes, slot_bytes_);
  rspbuf_ = env.alloc(rsp_cap_);
  free_slots_.reserve(nslots_);
  for (std::uint32_t s = nslots_; s > 0; --s) free_slots_.push_back(s - 1);
  register_metrics();
  if (cfg_.rdma_response) {
    // One-sided response fast path: allocate the receiver half and tell
    // the server where to write with a kFlagRing control record — the
    // first record on the request stream, so the server connects its
    // sender half before any response is generated. The server answers
    // with its credit-word descriptor, parsed in parse_one() whichever
    // path it arrives on.
    IBP_CHECK(cfg_.max_payload >= sizeof(ringchan::RingDescriptor),
              "max_payload too small for the ring handshake record");
    ring_rx_ = std::make_unique<ringchan::RingReceiver>(
        env, response_ring_cfg(cfg_));
    const ringchan::RingDescriptor rd = ring_rx_->descriptor();
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    WireHeader h;
    h.payload = sizeof(rd);
    h.flags = kFlagRing;
    const VirtAddr va = slot_va(slot);
    store_header(env, va, h);
    std::memcpy(
        env.host_ptr<std::uint8_t>(va + sizeof(WireHeader), sizeof(rd)), &rd,
        sizeof(rd));
    env.touch_stream(va, sizeof(WireHeader) + sizeof(rd));
    comm_->wait(comm_->isend_gather({{va, sizeof(WireHeader) + sizeof(rd)}},
                                    server_, kReqTag));
    free_slots_.push_back(slot);
  }
  const std::span<Waker* const> request = comm_->request_wakers();
  block_wakers_.assign(request.begin(), request.end());
  block_wakers_.push_back(&deadline_waker_);
  if (Waker* w = ring_waker()) block_wakers_.push_back(w);
}

RpcClient::~RpcClient() {
  for (auto& p : probes_) p.release();
  core::RankEnv& env = comm_->env();
  env.dealloc(rspbuf_);
  env.dealloc(ring_);
}

VirtAddr RpcClient::slot_va(std::uint32_t slot) const {
  return ring_ + static_cast<std::uint64_t>(slot) * slot_bytes_;
}

std::uint64_t RpcClient::submit(std::span<const std::uint8_t> payload,
                                std::uint32_t response_cap, Class cls,
                                std::uint32_t tenant, std::uint16_t flags) {
  IBP_CHECK(!closed_, "submit on closed rpc client");
  IBP_CHECK(payload.size() <= cfg_.max_payload,
            "request payload exceeds RpcConfig::max_payload");
  reclaim_batches();
  const std::uint64_t depth = queued_[0].size() + queued_[1].size();
  if (depth >= cfg_.client_queue_cap || free_slots_.empty()) {
    ++stats_.rejected;
    return 0;
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();

  core::RankEnv& env = comm_->env();
  const bool traced = hub_ != nullptr && hub_->active();
  WireHeader h;
  h.id = done_.issue();
  h.payload = static_cast<std::uint32_t>(payload.size());
  h.response_cap = response_cap;
  h.tenant = tenant;
  h.cls = static_cast<std::uint8_t>(cls);
  h.flags = flags;
  if (traced) h.flags |= kFlagTraced;
  const VirtAddr va = slot_va(slot);
  store_header(env, va, h);
  if (!payload.empty())
    std::memcpy(env.host_ptr<std::uint8_t>(va + sizeof(WireHeader),
                                           payload.size()),
                payload.data(), payload.size());
  const std::uint64_t wire = sizeof(WireHeader) + payload.size();
  env.touch_stream(va, wire);  // the application writes the request

  if (traced) {
    // Record opened at the queue-push time (the latency zero point);
    // the wire binding lets both endpoints resolve it by rpc id.
    const std::uint64_t tr =
        hub_->begin(comm_->rank(), tenant, h.cls, env.now());
    hub_->bind_wire(tr, comm_->rank(), server_, h.id);
  }
  queued_[h.cls].push_back({h.id, slot, wire, env.now(), false});
  queued_bytes_ += wire;
  ++stats_.submitted;
  maybe_flush(false);
  return h.id;
}

void RpcClient::reclaim_batches() {
  // test() can advance virtual time (transport progress), during which
  // another track of this rank may append to sent_ — so never hold a
  // reference across it, and make concurrent entry a no-op (the track
  // already inside finishes the scan).
  if (reclaiming_) return;
  reclaiming_ = true;
  std::size_t i = 0;
  while (i < sent_.size()) {
    const mpi::Req req = sent_[i].req;  // keep alive across realloc
    if (comm_->test(req)) {
      for (std::uint32_t s : sent_[i].slots) free_slots_.push_back(s);
      sent_.erase(sent_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  reclaiming_ = false;
}

void RpcClient::maybe_flush(bool force) {
  core::RankEnv& env = comm_->env();
  const std::uint32_t nmax = cfg_.batching ? cfg_.max_batch_requests : 1;
  for (;;) {
    const std::uint64_t nq = queued_[0].size() + queued_[1].size();
    if (nq == 0) return;
    TimePs oldest = ~TimePs{0};
    for (const auto& q : queued_)
      if (!q.empty()) oldest = std::min(oldest, q.front().t);
    const bool due = force || !cfg_.batching ||
                     nq >= cfg_.max_batch_requests ||
                     queued_bytes_ >= cfg_.max_batch_bytes ||
                     env.now() >= oldest + cfg_.flush_timeout;
    if (!due) return;
    if (inflight_.size() >= cfg_.credits) {
      ++stats_.credit_stalls;
      return;  // responses must free credits first
    }
    const std::uint64_t room = cfg_.credits - inflight_.size();

    std::vector<mpi::Seg> segs;
    std::vector<std::uint32_t> slots;
    std::vector<std::uint64_t> fresh_traces;
    std::uint64_t bytes = 0;
    while (segs.size() < nmax && segs.size() < room) {
      // The front of the latency queue, or else of the bulk queue.
      std::deque<Pending>& q = queued_[queued_[0].empty() ? 1 : 0];
      if (q.empty()) break;
      if (!segs.empty() && bytes + q.front().wire > cfg_.max_batch_bytes)
        break;
      const Pending p = q.front();
      q.pop_front();
      queued_bytes_ -= p.wire;
      if (p.retry && inflight_.find(p.id) == inflight_.end()) {
        // The original answered while this retransmit sat queued.
        free_slots_.push_back(p.slot);
        continue;
      }
      segs.push_back({slot_va(p.slot), p.wire});
      slots.push_back(p.slot);
      bytes += p.wire;
      auto [it, fresh] = inflight_.try_emplace(p.id);
      Inflight& inf = it->second;
      if (fresh) {
        const WireHeader h = load_header(env, slot_va(p.slot));
        inf.t0 = p.t;
        inf.tenant = h.tenant;
        inf.cls = h.cls;
        inf.response_cap = h.response_cap;
        inf.flags = h.flags;
        if (cfg_.request_timeout != 0 && h.payload != 0) {
          const auto* pp = env.host_ptr<std::uint8_t>(
              slot_va(p.slot) + sizeof(WireHeader), h.payload);
          inf.payload.assign(pp, pp + h.payload);
        }
        if (hub_ != nullptr && (h.flags & kFlagTraced) != 0) {
          inf.trace = hub_->wire_trace(comm_->rank(), server_, p.id);
          if (inf.trace != 0) fresh_traces.push_back(inf.trace);
        }
      }
      ++inf.attempts;
      if (cfg_.request_timeout != 0) {
        inf.deadline =
            env.now() + (cfg_.request_timeout
                         << std::min<std::uint32_t>(inf.attempts - 1, 10));
        deadline_waker_.wake();
      }
    }
    if (segs.empty()) return;
    flushed_records_ += segs.size();
    SentBatch b;
    b.req = comm_->isend_gather(segs, server_, kReqTag);
    // Batch posted: close the client-queue span; the wire time until
    // server admission is the net_request stage.
    for (const std::uint64_t tr : fresh_traces)
      hub_->stage_mark(tr, telemetry::Stage::ClientQueue, comm_->rank(),
                       env.now());
    b.slots = std::move(slots);
    sent_.push_back(std::move(b));
    ++stats_.batches;
    stats_.batched_requests += segs.size();
    ensure_rsp_posted();
  }
}

void RpcClient::check_timeouts() {
  if (cfg_.request_timeout == 0) return;
  core::RankEnv& env = comm_->env();
  const TimePs now = env.now();
  std::vector<std::uint64_t> expired;
  for (auto& [id, inf] : inflight_) {
    if (inf.deadline == 0 || now < inf.deadline) continue;
    if (inf.attempts > cfg_.max_retries) {
      if (cfg_.fail_timed_out) {
        expired.push_back(id);  // completes TimedOut below the loop
      } else {
        inf.deadline = 0;  // out of retries; the transport will deliver
      }
      continue;
    }
    if (free_slots_.empty()) return;  // retry on the next poll instead
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    WireHeader h;
    h.id = id;
    h.payload = static_cast<std::uint32_t>(inf.payload.size());
    h.response_cap = inf.response_cap;
    h.tenant = inf.tenant;
    h.cls = inf.cls;
    h.flags = inf.flags;
    const VirtAddr va = slot_va(slot);
    store_header(env, va, h);
    if (!inf.payload.empty())
      std::memcpy(env.host_ptr<std::uint8_t>(va + sizeof(WireHeader),
                                             inf.payload.size()),
                  inf.payload.data(), inf.payload.size());
    const std::uint64_t wire = sizeof(WireHeader) + inf.payload.size();
    env.touch_stream(va, wire);
    queued_[inf.cls & 1].push_back({id, slot, wire, inf.t0, true});
    queued_bytes_ += wire;
    inf.deadline = 0;  // re-armed with backoff when the retransmit flushes
    ++stats_.retries;
    if (hub_ != nullptr) hub_->retry(inf.trace);
  }
  for (std::uint64_t id : expired) expire(id);
}

void RpcClient::expire(std::uint64_t id) {
  core::RankEnv& env = comm_->env();
  const auto it = inflight_.find(id);
  IBP_CHECK(it != inflight_.end(), "expiring a request not inflight");
  Inflight& inf = it->second;
  Completion c;
  c.id = id;
  c.status = Status::TimedOut;
  c.latency = env.now() - inf.t0;
  // The server will never answer the flushed copies; forgive them so
  // drain() does not wait for response records that cannot arrive. A
  // late response (the server was merely slow) still lands safely in the
  // duplicate path — the id stays completed.
  expired_records_ += inf.attempts;
  if (inf.trace != 0) {
    hub_->stage_mark(inf.trace, telemetry::Stage::NetResponse, comm_->rank(),
                     env.now());
    hub_->end(inf.trace, static_cast<std::uint8_t>(Status::TimedOut),
              env.now());
  }
  inflight_.erase(it);
  ++stats_.timed_out;
  ++stats_.completed;
  done_.complete(std::move(c));
}

void RpcClient::abandon() {
  IBP_CHECK(cfg_.fail_timed_out,
            "abandon() requires RpcConfig::fail_timed_out");
  core::RankEnv& env = comm_->env();
  // Queued-but-unsent requests first: retransmit copies just drop (their
  // inflight entry is expired below), fresh requests complete TimedOut
  // without ever touching the wire.
  for (auto& q : queued_) {
    while (!q.empty()) {
      const Pending p = std::move(q.front());
      q.pop_front();
      queued_bytes_ -= p.wire;
      free_slots_.push_back(p.slot);
      if (p.retry) continue;
      const WireHeader h = load_header(env, slot_va(p.slot));
      Completion c;
      c.id = p.id;
      c.status = Status::TimedOut;
      c.latency = env.now() - p.t;
      if (hub_ != nullptr && (h.flags & kFlagTraced) != 0) {
        const std::uint64_t tr =
            hub_->wire_trace(comm_->rank(), server_, p.id);
        if (tr != 0) {
          hub_->stage_mark(tr, telemetry::Stage::NetResponse, comm_->rank(),
                           env.now());
          hub_->end(tr, static_cast<std::uint8_t>(Status::TimedOut),
                    env.now());
        }
      }
      ++stats_.timed_out;
      ++stats_.completed;
      done_.complete(std::move(c));
    }
  }
  while (!inflight_.empty()) expire(inflight_.begin()->first);
}

std::optional<TimePs> RpcClient::next_deadline() const {
  if (cfg_.request_timeout == 0) return std::nullopt;
  std::optional<TimePs> best;
  for (const auto& [id, inf] : inflight_) {
    if (inf.deadline != 0 && (!best || inf.deadline < *best))
      best = inf.deadline;
  }
  return best;
}

void RpcClient::ensure_rsp_posted() {
  // Post while any wire record still owes a response — inflight requests,
  // plus duplicate responses a retransmit provoked. Expired records are
  // forgiven: their server is presumed gone and will not answer.
  if (rsp_req_ == nullptr &&
      (!inflight_.empty() ||
       parsed_records_ + expired_records_ < flushed_records_))
    rsp_req_ = comm_->irecv(rspbuf_, rsp_cap_, server_, kRspTag);
}

bool RpcClient::try_ingest(bool blocking) {
  ensure_rsp_posted();
  if (ring_rx_ == nullptr) {
    if (rsp_req_ == nullptr) return false;
    if (blocking) {
      comm_->wait(rsp_req_);
    } else if (!comm_->test(rsp_req_)) {
      return false;
    }
    const std::uint64_t len = rsp_req_->received;
    rsp_req_.reset();
    parse_responses(len);
    ensure_rsp_posted();
    return true;
  }
  // Ring fast path armed: responses may arrive one-sided (ring memory
  // turning visible) or two-sided (fallback batches). Blocking inside
  // the transport would miss the former, so block on whichever event is
  // earliest and re-sweep.
  for (;;) {
    bool got = try_ring_ingest();
    if (rsp_req_ != nullptr && comm_->test(rsp_req_)) {
      const std::uint64_t len = rsp_req_->received;
      rsp_req_.reset();
      parse_responses(len);
      ensure_rsp_posted();
      got = true;
    }
    if (got || !blocking) return got;
    const auto ready = [this]() -> std::optional<TimePs> {
      std::optional<TimePs> best;
      if (rsp_req_ != nullptr && rsp_req_->done()) best = rsp_req_->done_at;
      const std::optional<TimePs> vis = ring_rx_->next_visible();
      if (vis && (!best || *vis < *best)) best = vis;
      const std::optional<TimePs> ev = comm_->earliest_event_time();
      if (ev && (!best || *ev < *best)) best = ev;
      return best;
    };
    comm_->env().sim().wait("rpc response", block_wakers_, ready);
  }
}

bool RpcClient::try_ring_ingest() {
  if (ring_rx_ == nullptr) return false;
  ring_recs_.clear();
  ring_rx_->poll(comm_->env().now(), ring_recs_);
  for (const ringchan::RingReceiver::Record& rec : ring_recs_) {
    parse_one(rec.payload);
    ring_rx_->release(rec);
    ++stats_.ring_completions;
  }
  if (ring_rx_->credit_due()) {
    comm_->post_one_sided(server_, ring_rx_->make_credit_wr());
    ++stats_.ring_credit_returns;
  }
  return !ring_recs_.empty();
}

void RpcClient::parse_responses(std::uint64_t len) {
  core::RankEnv& env = comm_->env();
  std::uint64_t off = 0;
  while (off < len) {
    const WireHeader h = load_header(env, rspbuf_ + off);
    parse_one(rspbuf_ + off);
    off += sizeof(WireHeader) + h.payload;
    IBP_CHECK(off <= len, "malformed response batch");
  }
}

void RpcClient::parse_one(VirtAddr rec) {
  core::RankEnv& env = comm_->env();
  const WireHeader h = load_header(env, rec);
  const VirtAddr body = rec + sizeof(WireHeader);
  if ((h.flags & kFlagRing) != 0) {
    // Control response: the server's credit-word descriptor. Not an
    // application record — no drain accounting, no completion.
    ringchan::CreditDescriptor cd;
    IBP_CHECK(h.payload == sizeof(cd), "malformed ring control response");
    std::memcpy(&cd, env.host_ptr<std::uint8_t>(body, sizeof(cd)),
                sizeof(cd));
    ring_rx_->connect_credit(cd);
    return;
  }
  ++parsed_records_;

  auto it = inflight_.find(h.id);
  if (it == inflight_.end()) {
    // A retransmit raced the original response; this copy is the
    // duplicate. Drop it (draining any out-of-band body so the
    // server's send completes).
    IBP_CHECK(done_.completed(h.id),
              "response for unknown request id " << h.id);
    ++stats_.duplicates;
    if ((h.flags & kFlagLarge) != 0) {
      const std::uint64_t blen = h.response_cap;
      const VirtAddr buf = env.alloc(std::max<std::uint64_t>(blen, 64));
      comm_->recv(buf, blen, server_, large_tag(h.id));
      env.dealloc(buf);
    }
    return;
  }
  const TimePs t0 = it->second.t0;
  const std::uint64_t trace = it->second.trace;
  inflight_.erase(it);
  Completion c;
  c.id = h.id;
  c.status = static_cast<Status>(h.status);
  c.latency = env.now() - t0;

  if ((h.flags & kFlagLarge) != 0) {
    // Body travels out-of-band on its own tag; sized above the slot
    // cap it takes the rendezvous path.
    const std::uint64_t blen = h.response_cap;
    const VirtAddr buf = env.alloc(std::max<std::uint64_t>(blen, 64));
    comm_->recv(buf, blen, server_, large_tag(h.id));
    const auto* p = env.host_ptr<std::uint8_t>(buf, blen);
    c.payload.assign(p, p + blen);
    env.touch_stream(buf, blen);  // the application reads the response
    env.dealloc(buf);
    c.latency = env.now() - t0;  // body transfer counts toward latency
    ++stats_.large_responses;
  } else if (h.payload != 0) {
    const auto* p = env.host_ptr<std::uint8_t>(body, h.payload);
    c.payload.assign(p, p + h.payload);
  }

  if (trace != 0) {
    hub_->stage_mark(trace, telemetry::Stage::NetResponse, comm_->rank(),
                     env.now());
    hub_->end(trace, h.status, env.now());
  }
  if (c.status == Status::Ok) {
    lat_.add(static_cast<std::uint64_t>(c.latency / 1000));  // ps -> ns
  } else {
    ++stats_.shed;
  }
  ++stats_.completed;
  done_.complete(std::move(c));
}

void RpcClient::poll() {
  if (closed_) return;
  reclaim_batches();
  check_timeouts();
  maybe_flush(false);
  while (try_ingest(false)) {
  }
}

void RpcClient::progress_block() {
  // Block until the next thing that can change client state: a response
  // arrival, any transport event, or the earliest retransmit/expiry
  // deadline. Never blocks inside the transport itself, so timeouts keep
  // firing against a server that will never answer (fail_timed_out).
  ensure_rsp_posted();
  const auto ready = [this]() -> std::optional<TimePs> {
    std::optional<TimePs> best;
    if (rsp_req_ != nullptr && rsp_req_->done()) best = rsp_req_->done_at;
    if (ring_rx_ != nullptr) {
      const std::optional<TimePs> vis = ring_rx_->next_visible();
      if (vis && (!best || *vis < *best)) best = vis;
    }
    const std::optional<TimePs> ev = comm_->earliest_event_time();
    if (ev && (!best || *ev < *best)) best = ev;
    const std::optional<TimePs> dl = next_deadline();
    if (dl && (!best || *dl < *best)) best = dl;
    return best;
  };
  comm_->env().sim().wait("rpc progress", block_wakers_, ready);
  while (try_ingest(false)) {
  }
}

Completion RpcClient::wait(std::uint64_t id) {
  done_.check_waitable(id, "rpc");
  while (done_.find(id) == nullptr) {
    reclaim_batches();
    check_timeouts();
    maybe_flush(true);
    if (cfg_.fail_timed_out) {
      if (done_.find(id) != nullptr) break;
      progress_block();
      continue;
    }
    try_ingest(true);
  }
  return done_.take(id);
}

void RpcClient::wait_some() {
  IBP_CHECK(outstanding() > 0, "wait_some with nothing outstanding");
  while (done_.empty()) {
    reclaim_batches();
    check_timeouts();
    maybe_flush(true);
    if (cfg_.fail_timed_out) {
      if (!done_.empty()) break;
      progress_block();
      continue;
    }
    try_ingest(true);
  }
}

void RpcClient::flush() {
  reclaim_batches();
  check_timeouts();
  maybe_flush(true);
}

void RpcClient::drain() {
  if (cfg_.fail_timed_out) {
    // Failure-aware drain: wait for queued and inflight requests only —
    // every one of them resolves (response or local TimedOut expiry).
    // Response records still owed by the wire (duplicate copies a dead
    // server discarded) are not waited for; the receive stays posted so
    // a straggler from a merely-slow server still has a landing buffer.
    for (;;) {
      reclaim_batches();
      check_timeouts();
      maybe_flush(true);
      while (try_ingest(false)) {
      }
      if (queued_[0].empty() && queued_[1].empty() && inflight_.empty())
        break;
      progress_block();
    }
    for (auto& b : sent_) {
      comm_->wait(b.req);
      for (std::uint32_t s : b.slots) free_slots_.push_back(s);
    }
    sent_.clear();
    return;
  }
  while (!queued_[0].empty() || !queued_[1].empty() || !inflight_.empty() ||
         parsed_records_ + expired_records_ < flushed_records_) {
    reclaim_batches();
    check_timeouts();
    maybe_flush(true);
    if (!inflight_.empty() ||
        parsed_records_ + expired_records_ < flushed_records_)
      try_ingest(true);
  }
  for (auto& b : sent_) {
    comm_->wait(b.req);
    for (std::uint32_t s : b.slots) free_slots_.push_back(s);
  }
  sent_.clear();
}

void RpcClient::close() {
  if (closed_) return;
  drain();
  core::RankEnv& env = comm_->env();
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  WireHeader h;
  h.flags = kFlagClose;
  store_header(env, slot_va(slot), h);
  comm_->wait(comm_->isend_gather({{slot_va(slot), sizeof(WireHeader)}},
                                  server_, kReqTag));
  free_slots_.push_back(slot);
  closed_ = true;
}

void RpcClient::register_metrics() {
  auto& m = comm_->env().cluster().metrics();
  probes_.push_back(
      m.probe("rpc.requests", [this] { return double(stats_.submitted); }));
  probes_.push_back(
      m.probe("rpc.rejected", [this] { return double(stats_.rejected); }));
  probes_.push_back(
      m.probe("rpc.batches", [this] { return double(stats_.batches); }));
  probes_.push_back(m.probe("rpc.batched_requests", [this] {
    return double(stats_.batched_requests);
  }));
  probes_.push_back(
      m.probe("rpc.completed", [this] { return double(stats_.completed); }));
  probes_.push_back(m.probe("rpc.credit_stalls", [this] {
    return double(stats_.credit_stalls);
  }));
  probes_.push_back(
      m.probe("rpc.retries", [this] { return double(stats_.retries); }));
  probes_.push_back(
      m.probe("rpc.duplicates", [this] { return double(stats_.duplicates); }));
  // Percentiles are per-rank metrics (summing percentiles across ranks
  // would be meaningless), hence the rank-qualified names.
  const std::string pre = "rpc.r" + std::to_string(comm_->rank()) + ".";
  probes_.push_back(
      m.probe(pre + "p50_us", [this] { return lat_.p50() / 1000.0; }));
  probes_.push_back(
      m.probe(pre + "p95_us", [this] { return lat_.p95() / 1000.0; }));
  probes_.push_back(
      m.probe(pre + "p99_us", [this] { return lat_.p99() / 1000.0; }));
  probes_.push_back(
      m.probe(pre + "samples", [this] { return double(lat_.count()); }));
  // Full quantile family (p50/p90/p99/max) under the histogram-probe
  // convention, so --metrics-out snapshots carry the same percentiles
  // loadgen --json reports.
  for (auto& p : telemetry::histogram_probes(m, pre + "latency", &lat_))
    probes_.push_back(std::move(p));
  if (cfg_.rdma_response) {
    // Registered only with the tier on, keeping default metric
    // snapshots byte-identical.
    probes_.push_back(m.probe("rpc.ring_completions", [this] {
      return double(stats_.ring_completions);
    }));
    probes_.push_back(m.probe("rpc.ring_credit_returns", [this] {
      return double(stats_.ring_credit_returns);
    }));
  }
}

// ---------------------------------------------------------------------------
// RpcServer

RpcServer::RpcServer(mpi::Comm& comm, std::vector<int> clients, RpcConfig cfg,
                     Handler handler)
    : comm_(&comm),
      clients_(std::move(clients)),
      cfg_(cfg),
      handler_(std::move(handler)),
      hub_(comm.env().cluster().request_tracer()) {
  IBP_CHECK(!clients_.empty(), "rpc server needs at least one client");
  slot_bytes_ = sizeof(WireHeader) + cfg_.max_payload;
  recv_cap_ = std::max<std::uint64_t>(cfg_.max_batch_bytes, slot_bytes_);
  IBP_CHECK(recv_cap_ <= comm.config().eager_threshold,
            "rpc batches must fit the eager path");
  if (!handler_) handler_ = default_handler();
  core::RankEnv& env = comm_->env();
  recv_region_ = env.alloc(recv_cap_ * clients_.size());
  n_rsp_slots_ = cfg_.server_queue_cap + 2 * cfg_.max_batch_requests + 8;
  lanes_.emplace_back();
  make_lane(lanes_[0]);
  rreqs_.resize(clients_.size());
  open_.assign(clients_.size(), true);
  open_clients_ = static_cast<std::uint32_t>(clients_.size());
  for (std::uint32_t i = 0; i < clients_.size(); ++i) post_recv(i);
  if (cfg_.rdma_response) ring_tx_.resize(clients_.size());
  register_metrics();
}

RpcServer::~RpcServer() {
  for (auto& p : probes_) p.release();
  core::RankEnv& env = comm_->env();
  for (auto it = lanes_.rbegin(); it != lanes_.rend(); ++it)
    env.dealloc(it->ring);
  env.dealloc(recv_region_);
}

void RpcServer::make_lane(RspLane& lane) {
  core::RankEnv& env = comm_->env();
  lane.ring = env.alloc(static_cast<std::uint64_t>(n_rsp_slots_) * slot_bytes_);
  lane.free_slots.reserve(n_rsp_slots_);
  for (std::uint32_t s = n_rsp_slots_; s > 0; --s)
    lane.free_slots.push_back(s - 1);
  lane.pending.resize(clients_.size());
  lane.pending_bytes.assign(clients_.size(), 0);
}

void RpcServer::drop_lane(RspLane& lane) {
  IBP_CHECK(lane.sent.empty(), "dropping a lane with inflight batches");
  comm_->env().dealloc(lane.ring);
}

RpcServer::RspLane& RpcServer::worker_lane(std::uint32_t w) {
  // PerThreadQp gives each worker its own slot ring (lanes_[1 + w]);
  // every other mode shares lane 0.
  if (cfg_.share_mode == hca::ShareMode::PerThreadQp &&
      lanes_.size() > 1 + w)
    return lanes_[1 + w];
  return lanes_[0];
}

VirtAddr RpcServer::rsp_slot_va(const RspLane& lane,
                                std::uint32_t slot) const {
  return lane.ring + static_cast<std::uint64_t>(slot) * slot_bytes_;
}

VirtAddr RpcServer::recv_va(std::uint32_t client) const {
  return recv_region_ + static_cast<std::uint64_t>(client) * recv_cap_;
}

void RpcServer::post_recv(std::uint32_t client) {
  rreqs_[client] =
      comm_->irecv(recv_va(client), recv_cap_, clients_[client], kReqTag);
}

bool RpcServer::crashed_now() const {
  core::RankEnv& env = comm_->env();
  fault::FaultInjector* inj = env.cluster().fault();
  if (inj == nullptr || !inj->has_crashes()) return false;
  return inj->server_crashed(env.node(), env.now());
}

void RpcServer::ingest() {
  for (std::uint32_t i = 0; i < clients_.size(); ++i) {
    while (rreqs_[i] != nullptr && comm_->test(rreqs_[i])) {
      const std::uint64_t len = rreqs_[i]->received;
      rreqs_[i].reset();
      parse_batch(i, len);
    }
  }
}

void RpcServer::parse_batch(std::uint32_t client, std::uint64_t len) {
  core::RankEnv& env = comm_->env();
  ++stats_.batches_in;
  const bool crashed = crashed_now();
  std::uint64_t off = 0;
  while (off < len) {
    const WireHeader h = load_header(env, recv_va(client) + off);
    const VirtAddr body = recv_va(client) + off + sizeof(WireHeader);
    off += sizeof(WireHeader) + h.payload;
    IBP_CHECK(off <= len, "malformed request batch");

    if ((h.flags & kFlagClose) != 0) {
      IBP_CHECK(open_[client], "double close from client");
      open_[client] = false;
      --open_clients_;
      ++stats_.closes;
      continue;
    }
    if ((h.flags & kFlagRing) != 0) {
      // Ring handshake: the payload is the client's response-ring
      // descriptor. Connect a sender half and answer with the credit
      // word the client RDMA-writes its consumed-up-to counter into.
      // Control records bypass admission and the request stats.
      ringchan::RingDescriptor rd;
      IBP_CHECK(!ring_tx_.empty() && h.payload == sizeof(rd),
                "malformed ring handshake record");
      std::memcpy(&rd, env.host_ptr<std::uint8_t>(body, sizeof(rd)),
                  sizeof(rd));
      auto tx =
          std::make_unique<ringchan::RingSender>(env, response_ring_cfg(cfg_));
      tx->connect(rd);
      const ringchan::CreditDescriptor cd = tx->credit_descriptor();
      ring_tx_[client] = std::move(tx);
      WireHeader rsp;
      rsp.payload = sizeof(cd);
      rsp.flags = kFlagRing;
      enqueue_response(lanes_[0], client, rsp,
                       reinterpret_cast<const std::uint8_t*>(&cd));
      continue;
    }
    ++stats_.requests_in;
    stats_.bytes_in += sizeof(WireHeader) + h.payload;
    if (crashed) {
      // The process is gone; the adapter below keeps completing wire
      // transfers but nothing consumes them. Silently discard — no
      // response, no shed — exactly the black hole a failed peer is.
      ++stats_.discarded;
      continue;
    }
    std::uint64_t trace = 0;
    if (hub_ != nullptr && (h.flags & kFlagTraced) != 0) {
      // Server admission: the net_request stage ends here whether the
      // request is accepted or shed (a retransmitted copy resolves to
      // the same record; its duplicate mark is ignored).
      trace = hub_->wire_trace(clients_[client], comm_->rank(), h.id);
      hub_->stage_mark(trace, telemetry::Stage::NetRequest, comm_->rank(),
                       env.now());
    }
    if (queued_ >= cfg_.server_queue_cap) {
      shed(client, h);
      continue;
    }
    Item it;
    it.client = client;
    it.id = h.id;
    it.tenant = h.tenant;
    it.cls = static_cast<Class>(h.cls);
    it.response_cap = h.response_cap;
    it.flags = h.flags;
    it.t = env.now();
    it.trace = trace;
    if (h.payload != 0) {
      const auto* p = env.host_ptr<std::uint8_t>(body, h.payload);
      it.payload.assign(p, p + h.payload);
    }
    queues_[h.cls & 1][h.tenant].push_back(std::move(it));
    admission_.wake();
    ++queued_;
    ++stats_.accepted;
    stats_.queue_peak = std::max(stats_.queue_peak, queued_);
  }
  if (open_[client]) post_recv(client);
}

void RpcServer::shed(std::uint32_t client, const WireHeader& hdr) {
  ++stats_.shed;
  WireHeader rsp;
  rsp.id = hdr.id;
  rsp.tenant = hdr.tenant;
  rsp.cls = hdr.cls;
  rsp.status = static_cast<std::uint8_t>(Status::Overloaded);
  rsp.flags = hdr.flags & kFlagTraced;  // echo the trace-context bit
  enqueue_response(lanes_[0], client, rsp, nullptr);
}

bool RpcServer::pop_next(Item& out) {
  for (int cls = 0; cls < 2; ++cls) {
    auto& qs = queues_[cls];
    if (qs.empty()) continue;
    // Round-robin over tenants: first tenant at or after the cursor,
    // wrapping to the smallest.
    auto it = qs.lower_bound(rr_cursor_[cls]);
    if (it == qs.end()) it = qs.begin();
    out = std::move(it->second.front());
    it->second.pop_front();
    rr_cursor_[cls] = it->first + 1;
    if (it->second.empty()) qs.erase(it);
    --queued_;
    admission_.wake();
    return true;
  }
  return false;
}

void RpcServer::serve_one() {
  Item it;
  if (!pop_next(it)) return;
  if (crashed_now()) {
    // Accepted before the crash, never served: the queue died with the
    // process.
    ++stats_.discarded;
    return;
  }
  serve_item(it, scratch_, lanes_[0], /*via_dispatcher=*/false);
}

void RpcServer::serve_item(const Item& it, std::vector<std::uint8_t>& scratch,
                           RspLane& lane, bool via_dispatcher) {
  core::RankEnv& env = comm_->env();
  const hca::AdapterStats& adapter = env.state().node->adapter.stats();
  const TimePs arb0 = it.trace != 0 ? adapter.qp_contention_ps : 0;
  if (it.trace != 0)
    hub_->stage_mark(it.trace, telemetry::Stage::ServerQueue, comm_->rank(),
                     env.now());
  env.sim().advance(cfg_.service_base +
                    static_cast<TimePs>(it.payload.size()) *
                        cfg_.service_per_byte_ps);
  RequestView view;
  view.tenant = it.tenant;
  view.cls = it.cls;
  view.flags = it.flags;
  view.payload = it.payload.data();
  view.payload_len = static_cast<std::uint32_t>(it.payload.size());
  view.response_cap = it.response_cap;
  const std::uint32_t cap = std::max<std::uint32_t>(
      {it.response_cap, view.payload_len, 1});
  if (scratch.size() < cap) scratch.resize(cap);
  const std::uint32_t rlen = handler_(view, scratch.data(), cap);
  IBP_CHECK(rlen <= cap, "handler overflowed its response buffer");
  ++stats_.served;
  if (it.trace != 0)
    hub_->stage_mark(it.trace, telemetry::Stage::Service, comm_->rank(),
                     env.now());

  WireHeader rsp;
  rsp.id = it.id;
  rsp.tenant = it.tenant;
  rsp.cls = static_cast<std::uint8_t>(it.cls);
  rsp.status = static_cast<std::uint8_t>(Status::Ok);
  rsp.flags = it.flags & kFlagTraced;  // echo the trace-context bit
  if (rlen <= cfg_.max_payload) {
    rsp.payload = rlen;
    if (via_dispatcher) {
      // Hand the finished response to the dispatcher track, which owns
      // the posting path in ShareMode::Dispatcher. The hand-off pays the
      // queue write + wakeup; in exchange the dispatcher aggregates
      // responses from every worker into larger batches.
      env.sim().advance(cfg_.dispatcher_handoff);
      Handoff h;
      h.client = it.client;
      h.hdr = rsp;
      h.t = env.now();
      h.body.assign(scratch.data(), scratch.data() + rlen);
      handoffs_.push_back(std::move(h));
      worker_signal_.wake();
    } else {
      enqueue_response(lane, it.client, rsp, scratch.data());
    }
  } else {
    // Body goes out-of-band: the in-batch record only announces it, the
    // payload takes the eager/rendezvous split on its own tag from its
    // own buffer (the path the paper prices registration on when it
    // exceeds the rendezvous threshold).
    rsp.response_cap = rlen;
    rsp.flags |= kFlagLarge;
    if (via_dispatcher) {
      env.sim().advance(cfg_.dispatcher_handoff);
      Handoff h;
      h.client = it.client;
      h.hdr = rsp;
      h.t = env.now();
      handoffs_.push_back(std::move(h));
      worker_signal_.wake();
    } else {
      enqueue_response(lane, it.client, rsp, nullptr);
    }
    const VirtAddr buf = env.alloc(std::max<std::uint64_t>(rlen, 64));
    std::memcpy(env.host_ptr<std::uint8_t>(buf, rlen), scratch.data(), rlen);
    env.touch_stream(buf, rlen);  // the application writes the response
    LargeSend ls;
    ls.req = comm_->isend(buf, rlen, clients_[it.client], large_tag(it.id));
    ls.buf = buf;
    large_.push_back(std::move(ls));
    ++stats_.large_responses;
  }
  if (it.trace != 0)
    // Share-mode lock arbitration charged to this rank's adapter while
    // the request was in service (response posting included).
    hub_->add_arbitration(it.trace, adapter.qp_contention_ps - arb0);
}

std::uint32_t RpcServer::take_rsp_slot(RspLane& lane) {
  if (lane.free_slots.empty()) reclaim_sent();
  while (lane.free_slots.empty()) {
    flush_all(true);
    if (!lane.sent.empty()) {
      // Copy the Req: wait() blocks, and another track may reallocate
      // lane.sent (or reclaim this very batch) in the meantime.
      const mpi::Req req = lane.sent.front().req;
      comm_->wait(req);
    }
    reclaim_sent();
  }
  const std::uint32_t s = lane.free_slots.back();
  lane.free_slots.pop_back();
  return s;
}

bool RpcServer::try_ring_response(std::uint32_t client, const WireHeader& hdr,
                                  const std::uint8_t* payload) {
  if (ring_tx_.empty() || ring_tx_[client] == nullptr) return false;
  // Crashed: fall through to the batched path, whose pending queue
  // discards responses exactly like a dead process's send queue would.
  if (crashed_now()) return false;
  core::RankEnv& env = comm_->env();
  ringchan::RingSender& tx = *ring_tx_[client];
  const std::uint32_t wire =
      static_cast<std::uint32_t>(sizeof(WireHeader)) + hdr.payload;
  if (!tx.can_send(wire)) {
    tx.poll_credit(env.now());
    if (!tx.can_send(wire)) {
      ++stats_.ring_fallbacks;
      return false;
    }
  }
  IBP_CHECK(hdr.payload == 0 || payload != nullptr,
            "response record without body");
  std::uint8_t hb[sizeof(WireHeader)];
  std::memcpy(hb, &hdr, sizeof(WireHeader));
  auto wrs = tx.prepare(hb, sizeof(WireHeader), payload, hdr.payload);
  for (hca::SendWr& wr : wrs)
    ring_writes_.push_back(
        comm_->post_one_sided(clients_[client], std::move(wr), true));
  ++stats_.responses;
  ++stats_.ring_responses;
  return true;
}

void RpcServer::enqueue_response(RspLane& lane, std::uint32_t client,
                                 const WireHeader& hdr,
                                 const std::uint8_t* payload) {
  if (try_ring_response(client, hdr, payload)) return;
  core::RankEnv& env = comm_->env();
  const std::uint32_t slot = take_rsp_slot(lane);
  const VirtAddr va = rsp_slot_va(lane, slot);
  store_header(env, va, hdr);
  if (hdr.payload != 0) {
    IBP_CHECK(payload != nullptr, "response record without body");
    std::memcpy(env.host_ptr<std::uint8_t>(va + sizeof(WireHeader),
                                           hdr.payload),
                payload, hdr.payload);
  }
  const std::uint64_t wire = sizeof(WireHeader) + hdr.payload;
  env.touch_stream(va, wire);
  lane.pending[client].push_back({slot, wire});
  lane.pending_bytes[client] += wire;
  ++stats_.responses;
  flush_client(lane, client, false);
}

void RpcServer::flush_client(RspLane& lane, std::uint32_t client, bool force) {
  const std::uint32_t nmax = cfg_.batching ? cfg_.max_batch_requests : 1;
  auto& pend = lane.pending[client];
  if (!pend.empty() && crashed_now()) {
    // Responses still in the process's send queue die with it. Whatever
    // was already handed to the adapter (lane.sent) completes normally.
    for (const RspRec& r : pend) lane.free_slots.push_back(r.slot);
    stats_.discarded += pend.size();
    lane.pending_bytes[client] = 0;
    pend.clear();
    return;
  }
  for (;;) {
    if (pend.empty()) return;
    const bool due = force || !cfg_.batching || pend.size() >= nmax ||
                     lane.pending_bytes[client] >= cfg_.max_batch_bytes;
    if (!due) return;
    std::vector<mpi::Seg> segs;
    std::vector<std::uint32_t> slots;
    std::uint64_t bytes = 0;
    while (!pend.empty() && segs.size() < nmax) {
      const RspRec& r = pend.front();
      if (!segs.empty() && bytes + r.wire > cfg_.max_batch_bytes) break;
      segs.push_back({rsp_slot_va(lane, r.slot), r.wire});
      slots.push_back(r.slot);
      bytes += r.wire;
      lane.pending_bytes[client] -= r.wire;
      pend.pop_front();
    }
    SentBatch b;
    b.req = comm_->isend_gather(segs, clients_[client], kRspTag);
    b.slots = std::move(slots);
    lane.sent.push_back(std::move(b));
    ++stats_.resp_batches;
  }
}

void RpcServer::flush_all(bool force) {
  for (auto& lane : lanes_)
    for (std::uint32_t i = 0; i < clients_.size(); ++i)
      flush_client(lane, i, force);
}

void RpcServer::reclaim_sent() {
  // test() can advance virtual time (transport progress), during which
  // a worker track may append to a lane's sent vector or to large_ —
  // so never hold references across it, and make concurrent entry a
  // no-op (the track already inside finishes the scan).
  if (reclaiming_) return;
  reclaiming_ = true;
  for (auto& lane : lanes_) {
    std::size_t i = 0;
    while (i < lane.sent.size()) {
      const mpi::Req req = lane.sent[i].req;  // keep alive across realloc
      if (comm_->test(req)) {
        for (std::uint32_t s : lane.sent[i].slots)
          lane.free_slots.push_back(s);
        lane.sent.erase(lane.sent.begin() +
                        static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  std::size_t i = 0;
  while (i < large_.size()) {
    const mpi::Req req = large_[i].req;
    if (comm_->test(req)) {
      comm_->env().dealloc(large_[i].buf);
      large_.erase(large_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  i = 0;
  while (i < ring_writes_.size()) {
    const mpi::Req req = ring_writes_[i];
    if (comm_->test(req)) {
      ring_writes_.erase(ring_writes_.begin() +
                         static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  reclaiming_ = false;
}

std::optional<TimePs> RpcServer::earliest_work() const {
  std::optional<TimePs> best;
  for (int cls = 0; cls < 2; ++cls) {
    for (const auto& [tenant, q] : queues_[cls]) {
      if (q.empty()) continue;
      // Items within one tenant queue arrive in accept order, so the
      // front is that queue's earliest.
      if (!best || q.front().t < *best) best = q.front().t;
    }
  }
  return best;
}

void RpcServer::signal_dispatcher(TimePs t) {
  if (worker_event_ != 0) return;
  worker_event_ = t;
  worker_signal_.wake();
}

void RpcServer::drain_handoffs() {
  // Hand-offs are pushed in nondecreasing virtual time (the engine admits
  // lanes in global time order), so draining front-to-back preserves the
  // workers' completion order.
  while (!handoffs_.empty()) {
    Handoff h = std::move(handoffs_.front());
    handoffs_.pop_front();
    enqueue_response(lanes_[0], h.client, h.hdr,
                     h.body.empty() ? nullptr : h.body.data());
  }
}

void RpcServer::serve() {
  if (cfg_.server_workers == 0) {
    serve_inline();
  } else {
    serve_pooled();
  }
  flush_all(true);
  for (auto& lane : lanes_) {
    for (auto& b : lane.sent) {
      comm_->wait(b.req);
      for (std::uint32_t s : b.slots) lane.free_slots.push_back(s);
    }
    lane.sent.clear();
  }
  for (auto& l : large_) {
    comm_->wait(l.req);
    comm_->env().dealloc(l.buf);
  }
  large_.clear();
  // One-sided response writes must retire before teardown: an error CQE
  // arriving after serve() returns would never be replayed, and the
  // client would wait on a record that was silently lost.
  for (auto& r : ring_writes_) comm_->wait(r);
  ring_writes_.clear();
  while (lanes_.size() > 1) {
    drop_lane(lanes_.back());
    lanes_.pop_back();
  }
}

void RpcServer::serve_inline() {
  while (open_clients_ > 0 || queued_ > 0) {
    ingest();
    if (queued_ == 0) {
      // Quiesce: nothing to serve — push out every pending response
      // before blocking, or the clients those responses unblock could
      // never send the next request.
      flush_all(true);
      reclaim_sent();
      if (open_clients_ == 0) break;
      // Block for the next message from any still-open client.
      std::vector<mpi::Req> live;
      std::vector<std::uint32_t> who;
      for (std::uint32_t i = 0; i < clients_.size(); ++i) {
        if (rreqs_[i] != nullptr) {
          live.push_back(rreqs_[i]);
          who.push_back(i);
        }
      }
      IBP_CHECK(!live.empty(), "open clients but no posted receives");
      const std::size_t idx = comm_->waitany(live);
      const std::uint32_t client = who[idx];
      const std::uint64_t len = rreqs_[client]->received;
      rreqs_[client].reset();
      parse_batch(client, len);
      continue;
    }
    serve_one();
  }
}

void RpcServer::serve_pooled() {
  core::RankEnv& env = comm_->env();
  env.verbs().set_share_mode(cfg_.share_mode);
  const std::uint32_t nw = cfg_.server_workers;
  wscratch_.assign(nw, {});
  if (cfg_.share_mode == hca::ShareMode::PerThreadQp) {
    // Per-worker response rings: uncontended posting lanes, at the price
    // of a placement-visible footprint multiplied by the worker count.
    lanes_.resize(1 + nw);
    for (std::uint32_t w = 0; w < nw; ++w) make_lane(lanes_[1 + w]);
  }
  stopping_ = false;
  admission_.wake();
  busy_workers_ = 0;
  worker_event_ = 0;
  std::vector<sim::TrackId> tracks;
  tracks.reserve(nw);
  for (std::uint32_t w = 0; w < nw; ++w)
    tracks.push_back(env.sim().spawn_track(
        [this, w](sim::Context& sc) { worker_main(sc, w); }));
  // The dispatcher's wait: the transport's request Wakers (events and the
  // request receives a worker's progress may complete) and the workers'.
  std::vector<Waker*> wakers(comm_->request_wakers().begin(),
                             comm_->request_wakers().end());
  wakers.push_back(&worker_signal_);

  // Dispatcher loop: this track ingests and parses request batches (the
  // admission queue feeds the worker tracks), posts handed-off responses
  // (ShareMode::Dispatcher), and reclaims completed batches. It blocks on
  // the earliest of: a pending hand-off, a worker-completion signal, or
  // the next transport event.
  for (;;) {
    ingest();
    drain_handoffs();
    reclaim_sent();
    worker_event_ = 0;
    if (queued_ == 0 && busy_workers_ == 0) {
      // Quiesce: every accepted request is served and acknowledged into
      // a response queue — force out partial batches so clients waiting
      // on credits can progress. While workers are busy, partial batches
      // keep accumulating instead (the Dispatcher mode's aggregation
      // advantage).
      flush_all(true);
      reclaim_sent();
      if (open_clients_ == 0 && handoffs_.empty()) break;
    }
    const auto ready = [this]() -> std::optional<TimePs> {
      if (!handoffs_.empty()) return handoffs_.front().t;
      if (worker_event_ != 0) return worker_event_;
      std::optional<TimePs> best = comm_->earliest_event_time();
      // A request batch whose completing event a *worker's* progress
      // drained (while blocked inside the transport) is invisible to
      // earliest_event_time: the receive is already done. Watch the
      // posted receives themselves so the batch still gets parsed.
      for (const mpi::Req& r : rreqs_) {
        if (r != nullptr && r->done() && (!best || r->done_at < *best))
          best = r->done_at;
      }
      return best;
    };
    env.sim().wait("rpc dispatcher", wakers, ready);
  }
  stopping_ = true;
  stop_time_ = env.now();
  admission_.wake();
  for (sim::TrackId t : tracks) env.sim().join_track(t);
}

void RpcServer::worker_main(sim::Context& sc, std::uint32_t w) {
  RspLane& lane = worker_lane(w);
  for (;;) {
    sc.wait("rpc worker", {&admission_}, [this]() -> std::optional<TimePs> {
      if (stopping_) return stop_time_;
      return earliest_work();
    });
    Item it;
    if (!pop_next(it)) {
      if (stopping_) break;
      continue;  // a lower-id worker won the race for this item
    }
    if (crashed_now()) {
      ++stats_.discarded;
      signal_dispatcher(sc.now());
      continue;
    }
    ++busy_workers_;
    serve_item(it, wscratch_[w], lane,
               cfg_.share_mode == hca::ShareMode::Dispatcher);
    --busy_workers_;
    // About to idle with no more queued work: push out this worker's
    // partial batches — a real worker thread does not sit on finished
    // responses. Under SharedLocked every such post arbitrates for the
    // shared QP (the cost the share-mode sweep measures); per-thread
    // lanes post uncontended. Dispatcher-mode workers own no lane.
    if (queued_ == 0 && cfg_.share_mode != hca::ShareMode::Dispatcher) {
      for (std::uint32_t c = 0; c < clients_.size(); ++c)
        flush_client(lane, c, true);
    }
    // Wake the dispatcher at the earliest completion it has not yet
    // acknowledged (virtual times are nondecreasing across lanes, so the
    // first unacknowledged signal is the earliest).
    signal_dispatcher(sc.now());
  }
}

void RpcServer::register_metrics() {
  auto& m = comm_->env().cluster().metrics();
  probes_.push_back(
      m.probe("rpc.batches_in", [this] { return double(stats_.batches_in); }));
  probes_.push_back(m.probe("rpc.requests_in", [this] {
    return double(stats_.requests_in);
  }));
  probes_.push_back(
      m.probe("rpc.accepted", [this] { return double(stats_.accepted); }));
  probes_.push_back(
      m.probe("rpc.shed", [this] { return double(stats_.shed); }));
  // Fleet-facing alias: benches report shed under the fabric schema
  // family name as well, summed across every server rank.
  probes_.push_back(
      m.probe("rpc.shed_total", [this] { return double(stats_.shed); }));
  probes_.push_back(
      m.probe("rpc.served", [this] { return double(stats_.served); }));
  probes_.push_back(
      m.probe("rpc.responses", [this] { return double(stats_.responses); }));
  probes_.push_back(m.probe("rpc.resp_batches", [this] {
    return double(stats_.resp_batches);
  }));
  probes_.push_back(m.probe("rpc.large_responses", [this] {
    return double(stats_.large_responses);
  }));
  probes_.push_back(
      m.probe("rpc.queue_peak", [this] { return double(stats_.queue_peak); }));
  probes_.push_back(
      m.probe("rpc.closes", [this] { return double(stats_.closes); }));
  if (cfg_.rdma_response) {
    probes_.push_back(m.probe("rpc.ring_responses", [this] {
      return double(stats_.ring_responses);
    }));
    probes_.push_back(m.probe("rpc.ring_fallbacks", [this] {
      return double(stats_.ring_fallbacks);
    }));
  }
  if (cfg_.server_workers > 0) {
    // Arbitration counters exist only for multi-threaded servers so that
    // single-threaded runs keep their metric snapshots byte-identical.
    const hca::Adapter* ad = &comm_->env().state().node->adapter;
    probes_.push_back(m.probe("hca.qp_contention_ps", [ad] {
      return double(ad->stats().qp_contention_ps);
    }));
    probes_.push_back(m.probe("hca.cq_poll_contention_ps", [ad] {
      return double(ad->stats().cq_poll_contention);
    }));
  }
}

}  // namespace ibp::rpc
