#include "ibp/mpi/comm.hpp"

#include <algorithm>
#include <cstring>

namespace ibp::mpi {

namespace {

/// Tag reserved for the ring-channel descriptor handshake. Above the
/// collective tag band (0x4000xxxx) and exchanged before any user
/// traffic exists, so it cannot collide.
constexpr int kRingHelloTag = 0x52494e47;

/// Smallest power of two >= n.
int ceil_pow2(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

Comm::Comm(core::RankEnv& env, CommConfig cfg) : env_(&env), cfg_(cfg) {
  IBP_CHECK(cfg_.eager_threshold <= cfg_.rndv_copy_max,
            "eager threshold must not exceed the rendezvous-copy ceiling");
  IBP_CHECK(cfg_.rndv_copy_max + kHeaderBytes <= cfg_.slot_bytes,
            "bounce slots too small for the rendezvous-copy ceiling");

  const int n = size();
  peer_idx_.assign(static_cast<std::size_t>(n), ~0ull);
  core::RankState& st = env_->state();
  for (int p = 0; p < n; ++p) {
    if (st.qp_to[static_cast<std::size_t>(p)] != nullptr) {
      peer_idx_[static_cast<std::size_t>(p)] = ib_peers_.size();
      ib_peers_.push_back(p);
    }
  }

  if (!ib_peers_.empty()) {
    send_region_ = env_->alloc(cfg_.send_slots * cfg_.slot_bytes);
    recv_region_ =
        env_->alloc(ib_peers_.size() * cfg_.recv_slots * cfg_.slot_bytes);
    send_mr_ =
        env_->verbs().reg_mr(send_region_, cfg_.send_slots * cfg_.slot_bytes);
    recv_mr_ = env_->verbs().reg_mr(
        recv_region_, ib_peers_.size() * cfg_.recv_slots * cfg_.slot_bytes);

    for (std::size_t i = 0; i < ib_peers_.size(); ++i) {
      auto qp = env_->verbs().wrap_qp(
          *st.qp_to[static_cast<std::size_t>(ib_peers_[i])]);
      for (std::uint32_t s = 0; s < cfg_.recv_slots; ++s) {
        hca::RecvWr wr;
        wr.wr_id = i * cfg_.recv_slots + s;
        wr.sges = {{recv_slot_va(static_cast<int>(i), static_cast<int>(s)),
                    static_cast<std::uint32_t>(cfg_.slot_bytes),
                    recv_mr_.lkey}};
        env_->verbs().post_recv(qp, wr);
      }
    }
  }

  free_send_slots_.resize(cfg_.send_slots);
  for (std::uint32_t s = 0; s < cfg_.send_slots; ++s)
    free_send_slots_[s] = static_cast<int>(s);
  send_seq_.assign(static_cast<std::size_t>(n), 0);
  expect_seq_.assign(static_cast<std::size_t>(n), 0);

  register_metrics();

  collect_wakers();
  if (cfg_.rdma_eager && !ib_peers_.empty()) setup_rings();
}

void Comm::collect_wakers() {
  core::RankState& st = env_->state();
  wakers_ = {&st.send_cq.waker(), &st.recv_cq.waker()};
  for (core::ShmChannel* ch : st.shm_in)
    if (ch != nullptr) wakers_.push_back(&ch->waker());
  for (const auto& rx : ring_rx_) wakers_.push_back(&rx->waker());
  for (const auto& tx : ring_tx_) wakers_.push_back(&tx->credit_waker());
  wakers_.push_back(&request_waker_);
}

void Comm::setup_rings() {
  ring_rx_.reserve(ib_peers_.size());
  ring_tx_.reserve(ib_peers_.size());
  for (std::size_t i = 0; i < ib_peers_.size(); ++i) {
    ring_rx_.push_back(
        std::make_unique<ringchan::RingReceiver>(*env_, cfg_.ring));
    ring_tx_.push_back(
        std::make_unique<ringchan::RingSender>(*env_, cfg_.ring));
  }
  collect_wakers();
  // Descriptor handshake: swap ChannelHello blobs with every IB peer
  // over the two-sided eager path (the rings are unusable — and
  // try_ring_send declines — until both halves are connected).
  constexpr std::uint64_t kHello = sizeof(ringchan::ChannelHello);
  const VirtAddr sbuf = env_->alloc(kHello * ib_peers_.size());
  const VirtAddr rbuf = env_->alloc(kHello * ib_peers_.size());
  std::vector<Req> reqs;
  reqs.reserve(ib_peers_.size() * 2);
  for (std::size_t i = 0; i < ib_peers_.size(); ++i) {
    ringchan::ChannelHello hello;
    hello.ring = ring_rx_[i]->descriptor();
    hello.credit = ring_tx_[i]->credit_descriptor();
    const VirtAddr s = sbuf + i * kHello;
    std::memcpy(env_->host_ptr<std::uint8_t>(s, kHello), &hello, kHello);
    reqs.push_back(
        irecv(rbuf + i * kHello, kHello, ib_peers_[i], kRingHelloTag));
    reqs.push_back(isend(s, kHello, ib_peers_[i], kRingHelloTag));
  }
  waitall(reqs);
  for (std::size_t i = 0; i < ib_peers_.size(); ++i) {
    ringchan::ChannelHello hello;
    std::memcpy(&hello, env_->host_ptr<std::uint8_t>(rbuf + i * kHello, kHello),
                kHello);
    ring_tx_[i]->connect(hello.ring);
    ring_rx_[i]->connect_credit(hello.credit);
  }
  env_->dealloc(rbuf);
  env_->dealloc(sbuf);
}

void Comm::register_metrics() {
  telemetry::MetricsRegistry& m = env_->cluster().metrics();
  auto probe = [&](std::string_view name, std::function<double()> fn) {
    probes_.push_back(m.probe(name, std::move(fn)));
  };
  probe("mpi.eager_sent", [this] { return double(stats_.eager_sent); });
  probe("mpi.eager_bytes", [this] { return double(stats_.eager_bytes); });
  probe("mpi.rndv_copy_sent",
        [this] { return double(stats_.rndv_copy_sent); });
  probe("mpi.rndv_copy_bytes",
        [this] { return double(stats_.rndv_copy_bytes); });
  probe("mpi.rndv_rdma_sent",
        [this] { return double(stats_.rndv_rdma_sent); });
  probe("mpi.rndv_rdma_bytes",
        [this] { return double(stats_.rndv_rdma_bytes); });
  probe("mpi.rendezvous_bytes", [this] {
    return double(stats_.rndv_copy_bytes + stats_.rndv_rdma_bytes);
  });
  probe("mpi.shm_sent", [this] { return double(stats_.shm_sent); });
  probe("mpi.shm_bytes", [this] { return double(stats_.shm_bytes); });
  probe("mpi.unexpected_arrivals",
        [this] { return double(stats_.unexpected_arrivals); });
  probe("mpi.gather_sends", [this] { return double(stats_.gather_sends); });
  probe("mpi.sge_splits", [this] { return double(stats_.sge_splits); });
  if (cfg_.rdma_eager) {
    // Ring-tier probes are registered only when the tier is on, so the
    // metrics namespace (and every golden that snapshots it) is
    // untouched in the default configuration.
    probe("mpi.rdma_eager_sent",
          [this] { return double(stats_.rdma_eager_sent); });
    probe("mpi.rdma_eager_bytes",
          [this] { return double(stats_.rdma_eager_bytes); });
    probe("mpi.rdma_eager_fallbacks",
          [this] { return double(stats_.rdma_eager_fallbacks); });
    probe("mpi.rdma_credit_returns",
          [this] { return double(stats_.rdma_credit_returns); });
  }
  probe("mpi.reordered", [this] { return double(stats_.reordered); });
  probe("mpi.recoveries", [this] { return double(stats_.recoveries); });
  // stats() refreshes the QP-derived reliability fields on each read.
  probe("mpi.retransmits", [this] { return double(stats().retransmits); });
  probe("mpi.rnr_naks", [this] { return double(stats().rnr_naks); });
}

Comm::~Comm() {
  telemetry::MetricsRegistry& m = env_->cluster().metrics();
  for (const auto& [op, t] : prof_.by_op())
    m.add(std::string("mpi.time_us.").append(op), ps_to_us(t));
  m.add("mpi.time_us_total", ps_to_us(prof_.total()));
}

bool Comm::same_node(int peer) const {
  return env_->state().qp_to[static_cast<std::size_t>(peer)] == nullptr;
}

std::uint64_t Comm::peer_index(int peer) const {
  const std::uint64_t i = peer_idx_[static_cast<std::size_t>(peer)];
  IBP_CHECK(i != ~0ull, "rank " << peer << " is not an IB peer");
  return i;
}

VirtAddr Comm::send_slot_va(int slot) const {
  return send_region_ + static_cast<std::uint64_t>(slot) * cfg_.slot_bytes;
}

VirtAddr Comm::recv_slot_va(int peer_index, int slot) const {
  return recv_region_ +
         (static_cast<std::uint64_t>(peer_index) * cfg_.recv_slots +
          static_cast<std::uint64_t>(slot)) *
             cfg_.slot_bytes;
}

TimePs Comm::flat_copy_cost(std::uint64_t len) const {
  const double bw =
      env_->cluster().config().platform.mem.stream_bw_bytes_per_ns;
  return static_cast<TimePs>(static_cast<double>(len) / bw * 1e3);
}

Comm::Path Comm::route(std::uint64_t len, int peer,
                       std::size_t pieces) const {
  const bool eager = len <= cfg_.eager_threshold;
  const bool ib = peer != rank() && !same_node(peer);
  if (pieces > 0)
    // §7: the NIC gathers a segment list that fits the eager path over
    // the HCA, even a single piece; otherwise the CPU packs it.
    return eager && ib && cfg_.sge_gather ? Path::Gather : Path::Pack;
  if (peer == rank()) return Path::Self;
  if (!ib) return Path::Shm;
  if (eager) return cfg_.rdma_eager ? Path::Ring : Path::Eager;
  if (len <= cfg_.rndv_copy_max) return Path::RndvCopy;
  return cfg_.rndv_read ? Path::RndvRead : Path::RndvWrite;
}

int Comm::take_send_slot() {
  for (;;) {
    if (!free_send_slots_.empty()) {
      const int s = free_send_slots_.back();
      free_send_slots_.pop_back();
      request_waker_.wake();
      return s;
    }
    const auto ready = [this]() -> std::optional<TimePs> {
      // A slot freed by another track's progress is ready at the time
      // its send CQE was drained (the freeing event itself is gone).
      if (!free_send_slots_.empty()) return send_slot_free_t_;
      return earliest_event();
    };
    env_->sim().wait("mpi send slot", request_wakers(), ready);
    progress_once();
  }
}

void Comm::release_send_slot(int slot) {
  free_send_slots_.push_back(slot);
  send_slot_free_t_ = env_->now();
  request_waker_.wake();
}

void Comm::finish(const Req& r) {
  r->finish(env_->now());
  request_waker_.wake();
}

// ---------------------------------------------------------------------------
// Transport

void Comm::transport_send(int peer, const Header& hdr_in,
                          std::span<const std::uint8_t> payload,
                          SendAction action) {
  IBP_CHECK(peer != rank(), "transport_send to self");
  Header hdr = hdr_in;
  hdr.seq = send_seq_[static_cast<std::size_t>(peer)]++;
  if (sim::Tracer* tr = env_->cluster().tracer())
    tr->flow_begin(rank(), "flow", "msg", env_->now(),
                   flow_id(rank(), peer, hdr.seq));
  if (same_node(peer)) {
    std::vector<std::uint8_t> blob(kHeaderBytes + payload.size());
    store_header(blob.data(), hdr);
    std::copy(payload.begin(), payload.end(), blob.begin() + kHeaderBytes);
    core::ShmChannel* ch =
        env_->state().shm_out[static_cast<std::size_t>(peer)];
    env_->sim().advance(ch->push(std::move(blob), env_->now()));
    // No CQE on the shm path: the handoff is complete once copied in.
    IBP_CHECK(!action.rdma_fin, "rendezvous RDMA is IB-only");
    if (action.req) finish(action.req);
    return;
  }

  const int slot = take_send_slot();
  auto sp =
      env_->space().host_span(send_slot_va(slot), kHeaderBytes + payload.size());
  store_header(sp.data(), hdr);
  if (!payload.empty()) {
    std::copy(payload.begin(), payload.end(), sp.begin() + kHeaderBytes);
    env_->sim().advance(flat_copy_cost(payload.size()));
  }

  hca::SendWr wr;
  wr.wr_id = next_wr_id_++;
  wr.opcode = hca::Opcode::Send;
  wr.sges = {{send_slot_va(slot),
              static_cast<std::uint32_t>(kHeaderBytes + payload.size()),
              send_mr_.lkey}};
  action.slot = slot;
  action.wr = wr;  // the bounce slot stays held, so the WR is replayable
  action.dest = peer;
  send_actions_.emplace(wr.wr_id, std::move(action));
  auto qp = env_->verbs().wrap_qp(
      *env_->state().qp_to[static_cast<std::size_t>(peer)]);
  env_->verbs().post_send(qp, wr);
}

void Comm::transport_send_sges(int peer, const Header& hdr_in,
                               const std::vector<Seg>& segs,
                               SendAction action) {
  IBP_CHECK(!same_node(peer), "SGE gather sends are IB-only");
  IBP_CHECK(env_->rcache().lazy(),
            "SGE gather sends need a lazy registration cache "
            "(gathered buffers must stay registered until the CQE)");
  Header hdr = hdr_in;
  hdr.seq = send_seq_[static_cast<std::size_t>(peer)]++;
  if (sim::Tracer* tr = env_->cluster().tracer())
    tr->flow_begin(rank(), "flow", "msg", env_->now(),
                   flow_id(rank(), peer, hdr.seq));
  const int slot = take_send_slot();
  auto sp = env_->space().host_span(send_slot_va(slot), kHeaderBytes);
  store_header(sp.data(), hdr);

  hca::SendWr wr;
  wr.wr_id = next_wr_id_++;
  wr.opcode = hca::Opcode::Send;
  wr.sges.push_back({send_slot_va(slot),
                     static_cast<std::uint32_t>(kHeaderBytes),
                     send_mr_.lkey});
  for (const Seg& s : segs) {
    if (s.len == 0) continue;
    const verbs::Mr mr = env_->rcache().acquire(s.addr, s.len);
    wr.sges.push_back(
        {s.addr, static_cast<std::uint32_t>(s.len), mr.lkey});
  }
  action.slot = slot;
  action.wr = wr;  // gathered buffers stay registered (lazy cache), so
  action.dest = peer;  // the WR is replayable
  send_actions_.emplace(wr.wr_id, std::move(action));
  auto qp = env_->verbs().wrap_qp(
      *env_->state().qp_to[static_cast<std::size_t>(peer)]);
  env_->verbs().post_send(qp, wr);
}

Req Comm::post_one_sided(int peer, hca::SendWr wr, bool tracked) {
  wr.wr_id = next_wr_id_++;
  SendAction action;
  action.wr = wr;  // ring staging bytes persist until credited: replayable
  action.dest = peer;
  Req r;
  if (tracked) {
    r = std::make_shared<Request>();
    r->kind = Request::Kind::Send;
    action.req = r;
  }
  send_actions_.emplace(wr.wr_id, action);
  auto qp = env_->verbs().wrap_qp(
      *env_->state().qp_to[static_cast<std::size_t>(peer)]);
  env_->verbs().post_send(qp, wr);
  return r;
}

bool Comm::try_ring_send(int dst, Header& hdr, VirtAddr buf,
                         std::uint64_t len) {
  if (ring_tx_.empty()) return false;
  ringchan::RingSender& tx = *ring_tx_[peer_index(dst)];
  if (!tx.connected()) return false;
  const std::uint64_t total = kHeaderBytes + len;
  if (total > cfg_.ring.max_record) return false;
  if (!tx.can_send(static_cast<std::uint32_t>(total))) {
    // Out of credit: sweep any credit writeback already visible before
    // giving up — but never block; the two-sided path is always open.
    tx.poll_credit(env_->now());
    if (!tx.can_send(static_cast<std::uint32_t>(total))) {
      ++stats_.rdma_eager_fallbacks;
      return false;
    }
  }
  hdr.seq = send_seq_[static_cast<std::size_t>(dst)]++;
  if (sim::Tracer* tr = env_->cluster().tracer())
    tr->flow_begin(rank(), "flow", "msg", env_->now(),
                   flow_id(rank(), dst, hdr.seq));
  ++stats_.rdma_eager_sent;
  stats_.rdma_eager_bytes += len;
  if (len) env_->touch_stream(buf, len);
  std::uint8_t hbytes[kHeaderBytes];
  store_header(hbytes, hdr);
  const std::uint8_t* p =
      len ? env_->space().host_span(buf, len).data() : nullptr;
  auto wrs = tx.prepare(hbytes, static_cast<std::uint32_t>(kHeaderBytes), p,
                        static_cast<std::uint32_t>(len));
  for (hca::SendWr& wr : wrs) post_one_sided(dst, std::move(wr));
  return true;
}

void Comm::poll_rings(bool* again) {
  // Reentrancy guard: a handler reached from ingest() below may call
  // back into progress_once(); a nested ring sweep would release
  // records out of oldest-first order.
  if (ring_rx_.empty() || ring_polling_) return;
  ring_polling_ = true;
  std::vector<ringchan::RingReceiver::Record> recs;
  for (std::size_t i = 0; i < ring_rx_.size(); ++i) {
    ringchan::RingReceiver& rx = *ring_rx_[i];
    recs.clear();
    rx.poll(env_->now(), recs);
    for (const auto& rec : recs) {
      auto bytes = env_->space().host_span(rec.payload, rec.len);
      const Header hdr = load_header(bytes.data());
      ingest(hdr, bytes.subspan(kHeaderBytes));
      rx.release(rec);
      *again = true;
    }
    if (rx.credit_due()) {
      post_one_sided(ib_peers_[i], rx.make_credit_wr());
      ++stats_.rdma_credit_returns;
    }
    ring_tx_[i]->poll_credit(env_->now());
  }
  ring_polling_ = false;
}

// ---------------------------------------------------------------------------
// Point-to-point

Req Comm::isend(VirtAddr buf, std::uint64_t len, int dst, int tag) {
  ProfScope prof(this, "isend");
  IBP_CHECK(dst >= 0 && dst < size(), "bad destination rank " << dst);
  auto r = std::make_shared<Request>();
  r->kind = Request::Kind::Send;
  r->id = next_req_id_++;
  r->buf = buf;
  r->len = len;
  r->peer = dst;
  r->tag = tag;

  Header hdr;
  hdr.src = rank();
  hdr.tag = tag;
  hdr.size = len;
  hdr.req = r->id;
  const auto payload = [&] {
    return len ? env_->space().host_span(buf, len)
               : std::span<const std::uint8_t>{};
  };

  const Path path = route(len, dst);
  if (path == Path::Self) {
    // Self message: loop straight through the matching engine.
    hdr.kind = static_cast<std::uint32_t>(MsgKind::Eager);
    handle_msg(hdr, payload());
    finish(r);
    return r;
  }

  if (path == Path::Shm) {
    // Shared memory carries any size in one copy-in/copy-out hop.
    hdr.kind = static_cast<std::uint32_t>(MsgKind::Eager);
    ++stats_.shm_sent;
    stats_.shm_bytes += len;
    if (len) env_->touch_stream(buf, len);
    transport_send(dst, hdr, payload(), {});
    finish(r);
    return r;
  }

  if (path == Path::Ring || path == Path::Eager) {
    hdr.kind = static_cast<std::uint32_t>(MsgKind::Eager);
    if (path == Path::Ring && try_ring_send(dst, hdr, buf, len)) {
      // Ring writes complete locally once the record is staged.
      finish(r);
      return r;
    }
    ++stats_.eager_sent;
    stats_.eager_bytes += len;
    if (len) env_->touch_stream(buf, len);
    transport_send(dst, hdr, payload(), {});
    // Eager sends complete locally once the payload left the user buffer.
    finish(r);
    return r;
  }

  // Rendezvous. The RTS names the flavour; with the read flavour it also
  // advertises the (already registered) send buffer for the receiver to
  // pull.
  hdr.kind = static_cast<std::uint32_t>(MsgKind::Rts);
  if (path == Path::RndvCopy) {
    ++stats_.rndv_copy_sent;
    stats_.rndv_copy_bytes += len;
    hdr.rndv = static_cast<std::uint32_t>(Rndv::Copy);
  } else {
    ++stats_.rndv_rdma_sent;
    stats_.rndv_rdma_bytes += len;
    hdr.rndv = static_cast<std::uint32_t>(
        path == Path::RndvRead ? Rndv::Read : Rndv::Write);
  }
  if (path == Path::RndvRead) {
    const verbs::Mr mr = env_->rcache().acquire(buf, len);
    r->mr = mr;
    r->holds_mr = true;
    hdr.raddr = buf;
    hdr.rkey = mr.rkey;
  }
  rndv_send_.emplace(r->id, r);
  r->state = Request::State::RtsSent;
  transport_send(dst, hdr, {}, {});
  return r;
}

Req Comm::isend_gather(const std::vector<Seg>& segs, int dst, int tag) {
  ProfScope prof(this, "isend_gather");
  std::uint64_t total = 0;
  for (const Seg& s : segs) total += s.len;
  IBP_CHECK(total <= cfg_.eager_threshold,
            "gathered sends use the eager path (total " << total << ")");

  if (route(total, dst, segs.size()) != Path::Gather) {
    // Pack-and-send fallback: copy the pieces through a staging buffer.
    const VirtAddr stage = env_->alloc(std::max<std::uint64_t>(total, 64));
    pack(segs, stage);
    Req r = isend(stage, total, dst, tag);
    wait(r);  // staging buffer is freed below, so finish the handoff
    env_->dealloc(stage);
    return r;
  }

  auto r = std::make_shared<Request>();
  r->kind = Request::Kind::Send;
  r->id = next_req_id_++;
  r->len = total;
  r->peer = dst;
  r->tag = tag;

  Header hdr;
  hdr.kind = static_cast<std::uint32_t>(MsgKind::Eager);
  hdr.src = rank();
  hdr.tag = tag;
  hdr.size = total;
  hdr.req = r->id;

  // Honour the SGE budget (header SGE included): a gather with more
  // pieces keeps the first kMaxSges - 2 direct and packs the tail into
  // one staged segment, so the WR never exceeds the cap.
  std::vector<Seg> pieces;
  pieces.reserve(segs.size());
  for (const Seg& s : segs)
    if (s.len != 0) pieces.push_back(s);
  VirtAddr stage = 0;
  if (pieces.size() + 1 > kMaxSges) {
    ++stats_.sge_splits;
    const std::size_t keep = kMaxSges - 2;
    std::uint64_t tail_bytes = 0;
    for (std::size_t i = keep; i < pieces.size(); ++i)
      tail_bytes += pieces[i].len;
    stage = env_->alloc(std::max<std::uint64_t>(tail_bytes, 64));
    const std::vector<Seg> tail(
        pieces.begin() + static_cast<std::ptrdiff_t>(keep), pieces.end());
    pack(tail, stage);
    pieces.resize(keep);
    pieces.push_back({stage, tail_bytes});
  }

  SendAction action;
  action.req = r;  // gathered user buffers are reusable at the CQE
  action.stage_buf = stage;
  ++stats_.gather_sends;
  transport_send_sges(dst, hdr, pieces, std::move(action));
  return r;
}

Req Comm::irecv(VirtAddr buf, std::uint64_t cap, int src, int tag) {
  ProfScope prof(this, "irecv");
  auto r = std::make_shared<Request>();
  r->kind = Request::Kind::Recv;
  r->buf = buf;
  r->len = cap;
  r->peer = src;
  r->tag = tag;

  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!match(r, it->hdr.src, it->hdr.tag)) continue;
    const Unexpected u = std::move(*it);
    unexpected_.erase(it);
    if (u.hdr.kind == static_cast<std::uint32_t>(MsgKind::Eager)) {
      complete_eager_recv(r, u.hdr, u.payload);
    } else {
      IBP_CHECK(u.hdr.kind == static_cast<std::uint32_t>(MsgKind::Rts));
      start_rndv_recv(r, u.hdr);
    }
    return r;
  }
  posted_.push_back(r);
  return r;
}

void Comm::wait(const Req& r) {
  ProfScope prof(this, "wait");
  progress_once();
  while (!r->done()) {
    // Multi-track rank: another track's progress may complete `r` while
    // this one is blocked — the completing event is then already drained,
    // so wait for done() itself, resuming at the recorded completion time.
    const auto ready = [this, &r]() -> std::optional<TimePs> {
      if (r->done()) return r->done_at;
      return earliest_event();
    };
    env_->sim().wait("mpi wait", request_wakers(), ready);
    progress_once();
  }
}

void Comm::waitall(std::span<const Req> rs) {
  ProfScope prof(this, "waitall");
  for (const Req& r : rs) wait(r);
}

bool Comm::test(const Req& r) {
  ProfScope prof(this, "test");
  progress_once();
  return r->done();
}

void Comm::send(VirtAddr buf, std::uint64_t len, int dst, int tag) {
  ProfScope prof(this, "send");
  wait(isend(buf, len, dst, tag));
}

RecvStatus Comm::recv(VirtAddr buf, std::uint64_t cap, int src, int tag) {
  ProfScope prof(this, "recv");
  Req r = irecv(buf, cap, src, tag);
  wait(r);
  return {r->actual_src, r->actual_tag, r->received};
}

RecvStatus Comm::sendrecv(VirtAddr sbuf, std::uint64_t slen, int dst,
                          int stag, VirtAddr rbuf, std::uint64_t rcap,
                          int src, int rtag) {
  ProfScope prof(this, "sendrecv");
  Req rr = irecv(rbuf, rcap, src, rtag);
  Req sr = isend(sbuf, slen, dst, stag);
  wait(sr);
  wait(rr);
  return {rr->actual_src, rr->actual_tag, rr->received};
}

std::size_t Comm::waitany(std::span<const Req> rs) {
  ProfScope prof(this, "waitany");
  IBP_CHECK(!rs.empty(), "waitany on empty request set");
  for (;;) {
    progress_once();
    for (std::size_t i = 0; i < rs.size(); ++i)
      if (rs[i]->done()) return i;
    const auto ready = [this, rs]() -> std::optional<TimePs> {
      std::optional<TimePs> best;
      for (const Req& r : rs)
        if (r->done() && (!best || r->done_at < *best)) best = r->done_at;
      if (best) return best;  // completed by another track's progress
      return earliest_event();
    };
    env_->sim().wait("mpi waitany", request_wakers(), ready);
    progress_once();
  }
}

std::vector<Seg> Comm::type_segments(VirtAddr base, const Datatype& type) {
  std::vector<Seg> segs;
  segs.reserve(type.count);
  for (std::uint64_t b = 0; b < type.count; ++b)
    segs.push_back({base + b * type.stride, type.block_len});
  return segs;
}

void Comm::send_typed(VirtAddr base, const Datatype& type, int dst,
                      int tag) {
  ProfScope prof(this, "send_typed");
  if (type.is_contiguous()) {
    send(base, type.size(), dst, tag);
    return;
  }
  const auto segs = type_segments(base, type);
  if (route(type.size(), dst, segs.size()) == Path::Gather) {
    // §7: the NIC walks the datatype via its scatter/gather list.
    wait(isend_gather(segs, dst, tag));
    return;
  }
  const VirtAddr stage = env_->alloc(std::max<std::uint64_t>(type.size(), 64));
  pack(segs, stage);
  send(stage, type.size(), dst, tag);
  env_->dealloc(stage);
}

RecvStatus Comm::recv_typed(VirtAddr base, const Datatype& type, int src,
                            int tag) {
  ProfScope prof(this, "recv_typed");
  if (type.is_contiguous()) return recv(base, type.size(), src, tag);
  const VirtAddr stage = env_->alloc(std::max<std::uint64_t>(type.size(), 64));
  const RecvStatus st = recv(stage, type.size(), src, tag);
  unpack(stage, type_segments(base, type));
  env_->dealloc(stage);
  return st;
}

void Comm::pack(const std::vector<Seg>& segs, VirtAddr dst) {
  ProfScope prof(this, "pack");
  VirtAddr out = dst;
  for (const Seg& s : segs) {
    if (s.len == 0) continue;
    auto from = env_->space().host_span(s.addr, s.len);
    auto to = env_->space().host_span(out, s.len);
    std::copy(from.begin(), from.end(), to.begin());
    env_->touch_stream(s.addr, s.len);
    env_->sim().advance(flat_copy_cost(s.len));
    out += s.len;
  }
}

void Comm::unpack(VirtAddr src, const std::vector<Seg>& segs) {
  ProfScope prof(this, "unpack");
  VirtAddr in = src;
  for (const Seg& s : segs) {
    if (s.len == 0) continue;
    auto from = env_->space().host_span(in, s.len);
    auto to = env_->space().host_span(s.addr, s.len);
    std::copy(from.begin(), from.end(), to.begin());
    env_->touch_stream(s.addr, s.len);
    env_->sim().advance(flat_copy_cost(s.len));
    in += s.len;
  }
}

// ---------------------------------------------------------------------------
// Progress engine

std::optional<TimePs> Comm::earliest_event() const {
  std::optional<TimePs> best;
  auto consider = [&best](std::optional<TimePs> t) {
    if (t && (!best || *t < *best)) best = t;
  };
  core::RankState& st = env_->state();
  consider(st.send_cq.next_ready());
  consider(st.recv_cq.next_ready());
  for (int p = 0; p < env_->nranks(); ++p) {
    core::ShmChannel* ch = st.shm_in[static_cast<std::size_t>(p)];
    if (ch != nullptr) consider(ch->next_ready());
  }
  // Ring channels progress on memory visibility, not CQEs: the next
  // pending record write (receive side) or credit writeback (send side).
  for (const auto& rx : ring_rx_) consider(rx->next_visible());
  for (const auto& tx : ring_tx_) consider(tx->next_credit_visible());
  return best;
}

void Comm::progress_once() {
  bool again = true;
  while (again) {
    again = false;

    while (auto c = env_->verbs().poll_send()) {
      handle_send_cqe(*c);
      again = true;
    }

    while (auto c = env_->verbs().poll_recv()) {
      if (c->status != hca::WcStatus::Success) {
        handle_recv_error(*c);
        again = true;
        continue;
      }
      const std::uint64_t pi = c->wr_id / cfg_.recv_slots;
      const std::uint64_t slot = c->wr_id % cfg_.recv_slots;
      const VirtAddr va =
          recv_slot_va(static_cast<int>(pi), static_cast<int>(slot));
      auto bytes = env_->space().host_span(va, c->byte_len);
      const Header hdr = load_header(bytes.data());
      ingest(hdr, bytes.subspan(kHeaderBytes));

      // Recycle the slot.
      hca::RecvWr wr;
      wr.wr_id = c->wr_id;
      wr.sges = {{va, static_cast<std::uint32_t>(cfg_.slot_bytes),
                  recv_mr_.lkey}};
      auto qp = env_->verbs().wrap_qp(
          *env_->state()
               .qp_to[static_cast<std::size_t>(ib_peers_[pi])]);
      env_->verbs().post_recv(qp, wr);
      again = true;
    }

    poll_rings(&again);

    core::RankState& st = env_->state();
    for (int p = 0; p < env_->nranks(); ++p) {
      core::ShmChannel* ch = st.shm_in[static_cast<std::size_t>(p)];
      if (ch == nullptr) continue;
      while (auto m = ch->pop(env_->now())) {
        const Header hdr = load_header(m->data.data());
        ingest(hdr, std::span<const std::uint8_t>(m->data).subspan(
                        kHeaderBytes));
        again = true;
      }
    }
  }
}

void Comm::ingest(const Header& hdr,
                  std::span<const std::uint8_t> payload) {
  const auto src = static_cast<std::size_t>(hdr.src);
  if (sim::Tracer* tr = env_->cluster().tracer())
    tr->flow_end(rank(), "flow", "msg", env_->now(),
                 flow_id(hdr.src, rank(), hdr.seq));
  if (hdr.seq != expect_seq_[src]) {
    // Early arrival (a faster transport overtook an earlier message):
    // stash it until its predecessors are in.
    ++stats_.reordered;
    reorder_.emplace(std::make_pair(hdr.src, hdr.seq),
                     Unexpected{hdr, {payload.begin(), payload.end()}});
    return;
  }
  handle_msg(hdr, payload);
  ++expect_seq_[src];
  for (;;) {
    auto it = reorder_.find({hdr.src, expect_seq_[src]});
    if (it == reorder_.end()) break;
    const Unexpected u = std::move(it->second);
    reorder_.erase(it);
    handle_msg(u.hdr, u.payload);
    ++expect_seq_[src];
  }
}

void Comm::handle_msg(const Header& hdr,
                      std::span<const std::uint8_t> payload) {
  switch (static_cast<MsgKind>(hdr.kind)) {
    case MsgKind::Eager: {
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (match(*it, hdr.src, hdr.tag)) {
          Req r = *it;
          posted_.erase(it);
          complete_eager_recv(r, hdr, payload);
          return;
        }
      }
      ++stats_.unexpected_arrivals;
      unexpected_.push_back(
          Unexpected{hdr, {payload.begin(), payload.end()}});
      return;
    }
    case MsgKind::Rts: {
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (match(*it, hdr.src, hdr.tag)) {
          Req r = *it;
          posted_.erase(it);
          start_rndv_recv(r, hdr);
          return;
        }
      }
      ++stats_.unexpected_arrivals;
      unexpected_.push_back(Unexpected{hdr, {}});
      return;
    }
    case MsgKind::Cts: {
      auto it = rndv_send_.find(hdr.req);
      IBP_CHECK(it != rndv_send_.end(), "CTS for unknown send request");
      Req r = it->second;
      rndv_send_.erase(it);
      if (hdr.raddr == 0) {
        // Medium path: ship the payload in-band.
        Header data;
        data.kind = static_cast<std::uint32_t>(MsgKind::RndvData);
        data.src = rank();
        data.tag = r->tag;
        data.size = r->len;
        data.req = r->id;
        env_->touch_stream(r->buf, r->len);
        SendAction action;
        action.req = r;
        r->state = Request::State::Writing;
        transport_send(r->peer, data,
                       env_->space().host_span(r->buf, r->len),
                       std::move(action));
      } else {
        // Large path: register the send buffer and RDMA-write the payload.
        const verbs::Mr mr = env_->rcache().acquire(r->buf, r->len);
        hca::SendWr wr;
        wr.wr_id = next_wr_id_++;
        wr.opcode = hca::Opcode::RdmaWrite;
        wr.sges = {{r->buf, static_cast<std::uint32_t>(r->len), mr.lkey}};
        wr.remote_addr = hdr.raddr;
        wr.rkey = hdr.rkey;
        SendAction action;
        action.req = r;
        action.rdma_fin = true;
        action.wr = wr;
        action.dest = r->peer;
        r->mr = mr;
        r->holds_mr = true;
        send_actions_.emplace(wr.wr_id, std::move(action));
        r->state = Request::State::Writing;
        auto qp = env_->verbs().wrap_qp(
            *env_->state().qp_to[static_cast<std::size_t>(r->peer)]);
        env_->verbs().post_send(qp, wr);
      }
      return;
    }
    case MsgKind::RndvData: {
      auto it = rndv_recv_.find({hdr.src, hdr.req});
      IBP_CHECK(it != rndv_recv_.end(), "RndvData for unknown recv");
      Req r = it->second;
      rndv_recv_.erase(it);
      complete_eager_recv(r, hdr, payload);
      return;
    }
    case MsgKind::Fin: {
      // Write protocol: the sender notifies the receiver, keyed by
      // (sender rank, sender request id).
      auto it = rndv_recv_.find({hdr.src, hdr.req});
      IBP_CHECK(it != rndv_recv_.end(), "FIN for unknown recv");
      Req r = it->second;
      rndv_recv_.erase(it);
      if (r->holds_mr) {
        env_->rcache().release(r->mr);
        r->holds_mr = false;
      }
      r->received = hdr.size;
      r->actual_src = hdr.src;
      r->actual_tag = hdr.tag;
      finish(r);
      return;
    }
    case MsgKind::FinRead: {
      // Read protocol: the receiver notifies the sender, keyed by our own
      // request id (a separate kind — a write-FIN from the same rank with
      // a colliding id must not match here).
      auto sit = rndv_send_.find(hdr.req);
      IBP_CHECK(sit != rndv_send_.end(), "read-FIN for unknown send");
      Req r = sit->second;
      rndv_send_.erase(sit);
      if (r->holds_mr) {
        env_->rcache().release(r->mr);
        r->holds_mr = false;
      }
      finish(r);
      return;
    }
  }
  IBP_FAIL("unhandled message kind " << hdr.kind);
}

void Comm::handle_send_cqe(const hca::Cqe& cqe) {
  auto it = send_actions_.find(cqe.wr_id);
  IBP_CHECK(it != send_actions_.end(), "send CQE with no action");
  SendAction action = std::move(it->second);
  send_actions_.erase(it);

  if (cqe.status != hca::WcStatus::Success) {
    IBP_CHECK(cfg_.recovery == CommConfig::Recovery::Repost &&
                  action.dest >= 0 &&
                  action.attempts < cfg_.max_send_retries,
              "transport send to rank "
                  << action.dest << " failed ("
                  << hca::wc_status_name(cqe.status) << ") after "
                  << action.attempts << " replay(s)");
    // Recycle the errored QP and replay the stored WR. The bounce slot
    // (or registered user buffer) is still held, so the payload is
    // intact; the recovery delay lets the peer — whose own QP end also
    // errored — drain its flushed completions and repost receives before
    // the replay arrives.
    ++action.attempts;
    recover_qp(action.dest);
    env_->sim().advance(cfg_.recovery_delay);
    hca::SendWr wr = action.wr;
    wr.wr_id = next_wr_id_++;
    const int dest = action.dest;
    send_actions_.emplace(wr.wr_id, std::move(action));
    auto qp = env_->verbs().wrap_qp(
        *env_->state().qp_to[static_cast<std::size_t>(dest)]);
    env_->verbs().post_send(qp, wr);
    return;
  }

  if (action.slot >= 0) release_send_slot(action.slot);
  if (action.stage_buf != 0) env_->dealloc(action.stage_buf);
  if (action.read_fin) {
    // The pull finished: the payload is in place; tell the sender its
    // buffer is reusable and complete the receive.
    Req r = action.req;
    if (r->holds_mr) {
      env_->rcache().release(r->mr);
      r->holds_mr = false;
    }
    Header fin;
    fin.kind = static_cast<std::uint32_t>(MsgKind::FinRead);
    fin.src = rank();
    fin.tag = r->actual_tag;
    fin.size = action.msg_size;
    fin.req = action.peer_req;
    r->received = action.msg_size;
    finish(r);
    transport_send(action.peer_rank, fin, {}, {});
    return;
  }
  if (action.rdma_fin) {
    if (action.req->holds_mr) {
      // Figure 5 "deactivated" mode deregisters once the write completed.
      env_->rcache().release(action.req->mr);
      action.req->holds_mr = false;
    }
    Header fin;
    fin.kind = static_cast<std::uint32_t>(MsgKind::Fin);
    fin.src = rank();
    fin.tag = action.req->tag;
    fin.size = action.req->len;
    fin.req = action.req->id;
    const int dst = action.req->peer;
    finish(action.req);
    transport_send(dst, fin, {}, {});
  } else if (action.req) {
    finish(action.req);
  }
}

void Comm::handle_recv_error(const hca::Cqe& cqe) {
  const std::uint64_t pi = cqe.wr_id / cfg_.recv_slots;
  const std::uint64_t slot = cqe.wr_id % cfg_.recv_slots;
  const int peer = ib_peers_[pi];
  // A message longer than the bounce slot is a configuration mismatch,
  // not a transient fault: a repost would only truncate it again.
  IBP_CHECK(cqe.status != hca::WcStatus::LocalLengthError,
            "rank " << peer << " sent a " << cqe.byte_len
                    << "-byte message into rank " << rank() << "'s "
                    << cfg_.slot_bytes
                    << "-byte receive slots: the ranks' CommConfigs disagree "
                       "(a sender's eager_threshold or rndv_copy_max "
                       "exceeds the receiver's slot_bytes)");
  IBP_CHECK(cfg_.recovery == CommConfig::Recovery::Repost,
            "transport receive completed in error ("
                << hca::wc_status_name(cqe.status) << ")");
  // A QP error flushed this preposted bounce slot: recycle the QP and
  // put the slot back. Messages that arrived while the QP was down were
  // either queued by the HCA (they match the reposted receives) or
  // errored back to the sender, which replays them.
  recover_qp(peer);
  hca::RecvWr wr;
  wr.wr_id = cqe.wr_id;
  wr.sges = {{recv_slot_va(static_cast<int>(pi), static_cast<int>(slot)),
              static_cast<std::uint32_t>(cfg_.slot_bytes), recv_mr_.lkey}};
  auto qp = env_->verbs().wrap_qp(
      *env_->state().qp_to[static_cast<std::size_t>(peer)]);
  env_->verbs().post_recv(qp, wr);
}

void Comm::recover_qp(int peer) {
  hca::QueuePair* qp = env_->state().qp_to[static_cast<std::size_t>(peer)];
  if (qp == nullptr || qp->state() != hca::QpState::Error) return;
  qp->reset();
  ++stats_.recoveries;
}

const CommStats& Comm::stats() const {
  stats_.retransmits = 0;
  stats_.rnr_naks = 0;
  core::RankState& st = env_->state();
  auto add = [this](const hca::QueuePair* qp) {
    if (qp == nullptr) return;
    stats_.retransmits += qp->qp_stats().retransmits;
    stats_.rnr_naks += qp->qp_stats().rnr_naks;
  };
  for (const hca::QueuePair* qp : st.qp_to) add(qp);
  return stats_;
}

void Comm::complete_eager_recv(const Req& r, const Header& hdr,
                               std::span<const std::uint8_t> payload) {
  IBP_CHECK(hdr.size == payload.size(), "payload length mismatch");
  IBP_CHECK(payload.size() <= r->len,
            "message (" << payload.size() << " B) truncates receive buffer ("
                        << r->len << " B)");
  if (!payload.empty()) {
    auto dst = env_->space().host_span(r->buf, payload.size());
    std::copy(payload.begin(), payload.end(), dst.begin());
    env_->touch_stream(r->buf, payload.size());
    env_->sim().advance(flat_copy_cost(payload.size()));
  }
  r->received = payload.size();
  r->actual_src = hdr.src;
  r->actual_tag = hdr.tag;
  finish(r);
}

void Comm::start_rndv_recv(const Req& r, const Header& hdr) {
  IBP_CHECK(hdr.size <= r->len, "rendezvous message truncates buffer");

  const auto flavour = static_cast<Rndv>(hdr.rndv);
  if (flavour == Rndv::Read) {
    // Read protocol: pull the advertised sender buffer directly.
    const verbs::Mr mr = env_->rcache().acquire(r->buf, hdr.size);
    r->mr = mr;
    r->holds_mr = true;
    r->actual_src = hdr.src;
    r->actual_tag = hdr.tag;
    hca::SendWr wr;
    wr.wr_id = next_wr_id_++;
    wr.opcode = hca::Opcode::RdmaRead;
    wr.sges = {{r->buf, static_cast<std::uint32_t>(hdr.size), mr.lkey}};
    wr.remote_addr = hdr.raddr;
    wr.rkey = hdr.rkey;
    SendAction action;
    action.req = r;
    action.read_fin = true;
    action.peer_req = hdr.req;
    action.peer_rank = hdr.src;
    action.msg_size = hdr.size;
    action.wr = wr;
    action.dest = hdr.src;
    send_actions_.emplace(wr.wr_id, std::move(action));
    r->state = Request::State::CtsSent;
    auto qp = env_->verbs().wrap_qp(
        *env_->state().qp_to[static_cast<std::size_t>(hdr.src)]);
    env_->verbs().post_send(qp, wr);
    return;
  }

  Header cts;
  cts.kind = static_cast<std::uint32_t>(MsgKind::Cts);
  cts.src = rank();
  cts.tag = hdr.tag;
  cts.size = hdr.size;
  cts.req = hdr.req;
  if (flavour == Rndv::Write) {
    const verbs::Mr mr = env_->rcache().acquire(r->buf, hdr.size);
    cts.raddr = r->buf;
    cts.rkey = mr.rkey;
    r->mr = mr;
    r->holds_mr = true;
  }
  r->state = Request::State::CtsSent;
  rndv_recv_.emplace(std::make_pair(hdr.src, hdr.req), r);
  transport_send(hdr.src, cts, {}, {});
}

// ---------------------------------------------------------------------------
// Collectives

void Comm::barrier() {
  ProfScope prof(this, "barrier");
  const int n = size();
  const int me = rank();
  const int ctag = 0x40000000 | static_cast<int>(coll_seq_++ & 0xFFFF);
  for (int k = 1; k < n; k <<= 1) {
    const int dst = (me + k) % n;
    const int src = (me - k + n) % n;
    sendrecv(0, 0, dst, ctag, 0, 0, src, ctag);
  }
}

void Comm::bcast(VirtAddr buf, std::uint64_t len, int root) {
  ProfScope prof(this, "bcast");
  const int n = size();
  const int me = rank();
  const int ctag = 0x40000000 | static_cast<int>(coll_seq_++ & 0xFFFF);
  const int rel = (me - root + n) % n;

  if (rel != 0) {
    const int parent_rel = rel & (rel - 1);
    recv(buf, len, (parent_rel + root) % n, ctag);
  }
  const int lowbit = rel == 0 ? ceil_pow2(n) : (rel & -rel);
  for (int mask = lowbit >> 1; mask > 0; mask >>= 1) {
    const int child_rel = rel + mask;
    if (child_rel < n) send(buf, len, (child_rel + root) % n, ctag);
  }
}

void Comm::gather(VirtAddr sendbuf, std::uint64_t len, VirtAddr recvbuf,
                  int root) {
  ProfScope prof(this, "gather");
  const int n = size();
  const int me = rank();
  const int ctag = 0x40000000 | static_cast<int>(coll_seq_++ & 0xFFFF);
  if (me == root) {
    for (int p = 0; p < n; ++p) {
      const VirtAddr dst = recvbuf + static_cast<std::uint64_t>(p) * len;
      if (p == me) {
        if (len) {
          auto from = env_->space().host_span(sendbuf, len);
          auto to = env_->space().host_span(dst, len);
          std::copy(from.begin(), from.end(), to.begin());
          env_->touch_stream(dst, len);
        }
      } else {
        recv(dst, len, p, ctag);
      }
    }
  } else {
    send(sendbuf, len, root, ctag);
  }
}

void Comm::gatherv(VirtAddr sendbuf, std::uint64_t len, VirtAddr recvbuf,
                   std::span<const std::uint64_t> counts,
                   std::span<const std::uint64_t> displs, int root) {
  ProfScope prof(this, "gatherv");
  const int n = size();
  const int me = rank();
  IBP_CHECK(counts.size() == static_cast<std::size_t>(n) &&
            displs.size() == static_cast<std::size_t>(n));
  const int ctag = 0x40000000 | static_cast<int>(coll_seq_++ & 0xFFFF);
  if (me == root) {
    for (int p = 0; p < n; ++p) {
      const VirtAddr dst = recvbuf + displs[static_cast<std::size_t>(p)];
      const std::uint64_t cnt = counts[static_cast<std::size_t>(p)];
      if (p == me) {
        IBP_CHECK(len == cnt, "root contribution size mismatch");
        if (cnt) {
          auto from = env_->space().host_span(sendbuf, cnt);
          auto to = env_->space().host_span(dst, cnt);
          std::copy(from.begin(), from.end(), to.begin());
          env_->touch_stream(dst, cnt);
        }
      } else {
        recv(dst, cnt, p, ctag);
      }
    }
  } else {
    send(sendbuf, len, root, ctag);
  }
}

void Comm::scatter(VirtAddr sendbuf, std::uint64_t len, VirtAddr recvbuf,
                   int root) {
  ProfScope prof(this, "scatter");
  const int n = size();
  const int me = rank();
  const int ctag = 0x40000000 | static_cast<int>(coll_seq_++ & 0xFFFF);
  if (me == root) {
    for (int p = 0; p < n; ++p) {
      const VirtAddr src = sendbuf + static_cast<std::uint64_t>(p) * len;
      if (p == me) {
        if (len) {
          auto from = env_->space().host_span(src, len);
          auto to = env_->space().host_span(recvbuf, len);
          std::copy(from.begin(), from.end(), to.begin());
          env_->touch_stream(recvbuf, len);
        }
      } else {
        send(src, len, p, ctag);
      }
    }
  } else {
    recv(recvbuf, len, root, ctag);
  }
}

void Comm::allgather(VirtAddr sendbuf, std::uint64_t len, VirtAddr recvbuf) {
  ProfScope prof(this, "allgather");
  const int n = size();
  const int me = rank();
  const int ctag = 0x40000000 | static_cast<int>(coll_seq_++ & 0xFFFF);

  // Own block into place.
  if (len) {
    auto from = env_->space().host_span(sendbuf, len);
    auto to = env_->space().host_span(
        recvbuf + static_cast<std::uint64_t>(me) * len, len);
    std::copy(from.begin(), from.end(), to.begin());
    env_->touch_stream(recvbuf + static_cast<std::uint64_t>(me) * len, len);
  }

  if ((n & (n - 1)) == 0) {
    // Recursive doubling (MPICH's power-of-two algorithm): at step k the
    // partner is me ^ 2^k and both sides swap the 2^k blocks they hold.
    for (int dist = 1; dist < n; dist <<= 1) {
      const int partner = me ^ dist;
      const int my_base = me & ~(dist - 1);
      const int their_base = partner & ~(dist - 1);
      sendrecv(recvbuf + static_cast<std::uint64_t>(my_base) * len,
               static_cast<std::uint64_t>(dist) * len, partner, ctag,
               recvbuf + static_cast<std::uint64_t>(their_base) * len,
               static_cast<std::uint64_t>(dist) * len, partner, ctag);
    }
    return;
  }

  // Ring fallback: at step s, send the block received at step s-1.
  const int right = (me + 1) % n;
  const int left = (me - 1 + n) % n;
  for (int s = 0; s < n - 1; ++s) {
    const int send_block = (me - s + n) % n;
    const int recv_block = (me - s - 1 + n) % n;
    sendrecv(recvbuf + static_cast<std::uint64_t>(send_block) * len, len,
             right, ctag,
             recvbuf + static_cast<std::uint64_t>(recv_block) * len, len,
             left, ctag);
  }
}

void Comm::alltoall(VirtAddr sendbuf, std::uint64_t len_per_rank,
                    VirtAddr recvbuf) {
  ProfScope prof(this, "alltoall");
  const int n = size();
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(n),
                                    len_per_rank);
  std::vector<std::uint64_t> displs(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p)
    displs[static_cast<std::size_t>(p)] =
        static_cast<std::uint64_t>(p) * len_per_rank;
  alltoallv(sendbuf, counts, displs, recvbuf, counts, displs);
}

void Comm::alltoallv(VirtAddr sendbuf, std::span<const std::uint64_t> scounts,
                     std::span<const std::uint64_t> sdispls, VirtAddr recvbuf,
                     std::span<const std::uint64_t> rcounts,
                     std::span<const std::uint64_t> rdispls) {
  ProfScope prof(this, "alltoallv");
  const int n = size();
  const int me = rank();
  IBP_CHECK(scounts.size() == static_cast<std::size_t>(n) &&
            rcounts.size() == static_cast<std::size_t>(n));
  const int ctag = 0x40000000 | static_cast<int>(coll_seq_++ & 0xFFFF);

  // Local block.
  const std::uint64_t self_len =
      std::min(scounts[static_cast<std::size_t>(me)],
               rcounts[static_cast<std::size_t>(me)]);
  if (self_len) {
    auto from = env_->space().host_span(
        sendbuf + sdispls[static_cast<std::size_t>(me)], self_len);
    auto to = env_->space().host_span(
        recvbuf + rdispls[static_cast<std::size_t>(me)], self_len);
    std::copy(from.begin(), from.end(), to.begin());
    env_->touch_stream(recvbuf + rdispls[static_cast<std::size_t>(me)],
                       self_len);
  }

  // Pairwise exchange, one partner per phase.
  for (int s = 1; s < n; ++s) {
    const int dst = (me + s) % n;
    const int src = (me - s + n) % n;
    sendrecv(sendbuf + sdispls[static_cast<std::size_t>(dst)],
             scounts[static_cast<std::size_t>(dst)], dst, ctag,
             recvbuf + rdispls[static_cast<std::size_t>(src)],
             rcounts[static_cast<std::size_t>(src)], src, ctag);
  }
}

}  // namespace ibp::mpi
