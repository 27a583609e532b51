#include "ibp/hca/adapter.hpp"

#include <algorithm>
#include <cstring>
#include <initializer_list>

namespace ibp::hca {

// ---------------------------------------------------------------------------
// Memory registration

Adapter::RegResult Adapter::reg_mr(mem::AddressSpace& space, VirtAddr addr,
                                   std::uint64_t len,
                                   std::uint64_t trans_page_size) {
  IBP_CHECK(len > 0, "cannot register an empty region");
  const mem::Mapping* m = space.find(addr, len);
  IBP_CHECK(m != nullptr, "reg_mr over unmapped range");
  const std::uint64_t os_page = m->page_size();
  IBP_CHECK(trans_page_size == kSmallPageSize || trans_page_size == os_page,
            "translation granularity must be 4 KB or the native page size");

  // Step 1 of the paper's registration pipeline: pin every OS page.
  const std::uint64_t npages = space.pin(addr, len);

  auto mr = std::make_unique<MemoryRegion>();
  mr->lkey = next_key_++;
  mr->addr = addr;
  mr->length = len;
  mr->space = &space;
  mr->os_page_size = os_page;
  mr->trans_page_size = trans_page_size;
  mr->npages = npages;
  // Steps 2+3: translate at the shipped granularity and push to the NIC.
  mr->ntrans = pages_spanned(addr, len, trans_page_size);

  const TimePs cost =
      cfg_.reg_base + npages * cfg_.pin_per_page +
      mr->ntrans * (cfg_.trans_build_per_entry + cfg_.trans_ship_per_entry);

  stats_.mr_registered += 1;
  stats_.pages_pinned += npages;
  stats_.translations_shipped += mr->ntrans;
  stats_.reg_time_total += cost;

  const MemoryRegion* raw = mr.get();
  mrs_.emplace(raw->lkey, std::move(mr));
  return {raw, cost};
}

TimePs Adapter::dereg_mr(std::uint32_t lkey) {
  auto it = mrs_.find(lkey);
  IBP_CHECK(it != mrs_.end(), "dereg of unknown lkey " << lkey);
  MemoryRegion& mr = *it->second;
  mr.space->unpin(mr.addr, mr.length);
  const TimePs cost = cfg_.dereg_base + mr.npages * cfg_.unpin_per_page;
  stats_.mr_deregistered += 1;
  mrs_.erase(it);
  return cost;
}

const MemoryRegion* Adapter::find_mr(std::uint32_t key) const {
  auto it = mrs_.find(key);
  return it == mrs_.end() ? nullptr : it->second.get();
}

QueuePair& Adapter::create_qp(CompletionQueue* send_cq,
                              CompletionQueue* recv_cq) {
  IBP_CHECK(send_cq != nullptr && recv_cq != nullptr);
  qps_.emplace_back(std::unique_ptr<QueuePair>(
      new QueuePair(this, qp_count() + 1, send_cq, recv_cq)));
  return *qps_.back();
}

// ---------------------------------------------------------------------------
// Cost helpers

std::vector<const MemoryRegion*> Adapter::validate_sges(
    const std::vector<Sge>& sges) {
  std::vector<const MemoryRegion*> mrs;
  mrs.reserve(sges.size());
  for (const auto& s : sges) {
    const MemoryRegion* mr = find_mr(s.lkey);
    IBP_CHECK(mr != nullptr, "SGE references unknown lkey " << s.lkey);
    IBP_CHECK(s.length == 0 || mr->contains(s.addr, s.length),
              "SGE outside its memory region");
    mrs.push_back(mr);
  }
  return mrs;
}

Adapter::DmaCost Adapter::dma_sge_cost(const MemoryRegion& mr, VirtAddr addr,
                                       std::uint32_t len, TimePs now) {
  DmaCost cost;
  if (len == 0) return cost;

  // Bus-line reads: a buffer shifted inside its line spans extra lines,
  // and reads straddling a burst boundary pay a reopen penalty. This is
  // the mechanism behind the paper's Figure 4 offset sensitivity.
  const std::uint64_t line = cfg_.bus_line;
  const std::uint64_t lines = (addr % line + len + line - 1) / line;
  cost.stream += lines * cfg_.dma_per_line;
  const std::uint64_t burst = cfg_.bus_burst;
  const std::uint64_t crossings = (addr + len - 1) / burst - addr / burst;
  cost.stalls += crossings * cfg_.burst_cross_penalty;

  // ATT: every distinct translation entry the transfer touches. During an
  // injected miss storm the cache is being thrashed by a competing agent:
  // every lookup is charged as a miss and bypasses the LRU (its resident
  // entries are stale by the time the storm passes anyway).
  const bool storm = fault_ != nullptr && fault_->att_storm_active(node_, now);
  const std::uint64_t first =
      (align_down(addr, mr.trans_page_size) -
       align_down(mr.addr, mr.trans_page_size)) /
      mr.trans_page_size;
  const std::uint64_t count = pages_spanned(addr, len, mr.trans_page_size);
  if (storm) {
    stats_.att_misses += count;
    stats_.storm_att_misses += count;
    cost.stalls += count * cfg_.att_miss;
    return cost;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(mr.lkey) << 32) | (first + i);
    if (att_.touch(key)) {
      ++stats_.att_hits;
      cost.stalls += cfg_.att_lookup;
    } else {
      ++stats_.att_misses;
      cost.stalls += cfg_.att_miss;
    }
  }
  return cost;
}

TimePs Adapter::wire_time(std::uint64_t bytes) const {
  const std::uint64_t packets = std::max<std::uint64_t>(
      1, div_ceil(bytes, cfg_.mtu));
  return static_cast<TimePs>(static_cast<double>(bytes) /
                             cfg_.link_bw_bytes_per_ns * 1e3) +
         packets * cfg_.pkt_overhead;
}

TimePs Adapter::mtu_time() const {
  return static_cast<TimePs>(static_cast<double>(cfg_.mtu) /
                             cfg_.link_bw_bytes_per_ns * 1e3) +
         cfg_.pkt_overhead;
}

namespace {
TimePs acquire_lane(TimePs ready, TimePs duration, bool ctrl, TimePs quantum,
                    TimePs& bulk_busy, TimePs& ctrl_busy) {
  if (ctrl) {
    TimePs start = std::max(ready, ctrl_busy);
    // VL arbitration: wait out at most one in-flight packet of bulk data.
    if (bulk_busy > start) start += quantum;
    ctrl_busy = start + duration;
    // Interleaved control traffic steals bulk bandwidth.
    if (bulk_busy > start) bulk_busy += duration;
    return start + duration;
  }
  const TimePs start = std::max(ready, bulk_busy);
  bulk_busy = start + duration;
  return bulk_busy;
}
}  // namespace

TimePs Adapter::acquire_tx(TimePs ready, TimePs duration, bool ctrl) {
  return acquire_lane(ready, duration, ctrl, mtu_time(), tx_bulk_busy_,
                      tx_ctrl_busy_);
}

TimePs Adapter::acquire_rx(TimePs first_byte, TimePs duration, bool ctrl) {
  return acquire_lane(first_byte, duration, ctrl, mtu_time(), rx_bulk_busy_,
                      rx_ctrl_busy_);
}

// ---------------------------------------------------------------------------
// QueuePair — reliability machinery
//
// All of this is inert unless a fault injector is attached to the posting
// adapter: a healthy fabric never consults the injector, so the legacy
// timing model (and every existing trace) is reproduced bit-exactly.

CqeType QueuePair::send_cqe_type(Opcode op) {
  switch (op) {
    case Opcode::Send: return CqeType::SendComplete;
    case Opcode::RdmaWrite: return CqeType::RdmaWriteComplete;
    case Opcode::RdmaRead: return CqeType::RdmaReadComplete;
    case Opcode::AtomicFetchAdd:
    case Opcode::AtomicCmpSwap: return CqeType::AtomicComplete;
  }
  return CqeType::SendComplete;
}

TimePs QueuePair::retransmit_backoff(std::uint32_t attempt) const {
  // Exponential backoff, capped at 16x the base timeout (IB's timeout
  // field is similarly bounded in practice).
  return attrs_.retransmit_timeout << std::min<std::uint32_t>(attempt, 4);
}

// Walk the packet train of one transfer through the injector. Every lost
// (dropped or ICRC-corrupted) packet costs the sender one timeout at the
// current backoff level plus a resend; a packet that stays lost after
// retry_cnt resends is fatal. The whole train is judged inside the posting
// rank's turn — consistent with the synchronous timing model, the lane
// stays reserved across the timeouts (an approximation that overcharges
// neighbours only while a link is actively lossy).
QueuePair::LossModel QueuePair::judge_packets(std::uint64_t npkts,
                                              TimePs start, NodeId src_node,
                                              NodeId dst_node) {
  LossModel out;
  fault::FaultInjector* inj = adapter_->fault_;
  if (inj == nullptr) return out;
  const TimePs pkt = adapter_->mtu_time();
  TimePs t = start;
  for (std::uint64_t i = 0; i < npkts; ++i) {
    for (std::uint32_t attempt = 0;; ++attempt) {
      const fault::PacketVerdict v = inj->judge_packet(src_node, dst_node, t);
      if (v == fault::PacketVerdict::Deliver) break;
      v == fault::PacketVerdict::Drop ? ++out.dropped : ++out.corrupted;
      if (attempt >= attrs_.retry_cnt) {
        out.fatal = true;
        out.fail_time = t + retransmit_backoff(attempt);
        return out;
      }
      const TimePs wait = retransmit_backoff(attempt) + pkt;
      out.extra += wait;
      t += wait;
      ++out.retransmits;
      inj->note("retransmit", src_node, t);
    }
    t += pkt;
  }
  return out;
}

void QueuePair::account_loss(const LossModel& loss) {
  qp_stats_.retransmits += loss.retransmits;
  qp_stats_.pkts_dropped += loss.dropped;
  qp_stats_.pkts_corrupted += loss.corrupted;
  AdapterStats& s = adapter_->stats_;
  s.retransmits += loss.retransmits;
  s.pkts_dropped += loss.dropped;
  s.pkts_corrupted += loss.corrupted;
}

void QueuePair::check_injected_error(TimePs now) {
  if (state_ == QpState::Ready && adapter_->fault_ != nullptr &&
      adapter_->fault_->qp_error_due(adapter_->node_, qp_num_, now))
    enter_error(now);
}

void QueuePair::enter_error(TimePs now) {
  if (state_ == QpState::Error) return;
  state_ = QpState::Error;
  ++adapter_->stats_.qp_errors;
  if (adapter_->fault_ != nullptr)
    adapter_->fault_->note("qp_error", adapter_->node_, now);
  const TimePs ready = now + adapter_->cfg_.cqe_write;
  for (const auto& pr : recv_queue_) {
    Cqe c;
    c.wr_id = pr.wr.wr_id;
    c.type = CqeType::RecvComplete;
    c.status = WcStatus::WorkRequestFlushed;
    c.qp_num = qp_num_;
    c.ready_time = ready;
    recv_cq_->push(c);
  }
  recv_queue_.clear();
  // Queued inbound messages whose senders track an RNR deadline keep that
  // deadline: a post-reset receive can still rescue them. Senders with an
  // unbounded RNR budget would wait on a dead QP forever — fail them like
  // an exhausted retry instead of hanging the engine.
  for (auto it = inbound_.begin(); it != inbound_.end();) {
    if (it->src_qp != nullptr && !it->rnr_cqe_scheduled) {
      Cqe c;
      c.wr_id = it->send_wr_id;
      c.type = CqeType::SendComplete;
      c.status = WcStatus::RetryExceeded;
      c.qp_num = it->src_qp->qp_num_;
      c.ready_time = ready;
      it->src_qp->send_cq_->push(c);
      it->src_qp->enter_error(now);
      it = inbound_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// QueuePair

namespace {
// Copies a WR's gather list, in SGE order, into one buffer of `bytes`.
std::vector<std::uint8_t> gather(const std::vector<Sge>& sges,
                                 const std::vector<const MemoryRegion*>& mrs,
                                 std::uint64_t bytes) {
  std::vector<std::uint8_t> out;
  out.reserve(bytes);
  for (std::size_t i = 0; i < sges.size(); ++i) {
    if (sges[i].length == 0) continue;
    auto src = mrs[i]->space->host_span(sges[i].addr, sges[i].length);
    out.insert(out.end(), src.begin(), src.end());
  }
  return out;
}
}  // namespace

TimePs QueuePair::post_send(const SendWr& wr, TimePs now) {
  check_injected_error(now);
  if (state_ == QpState::Error) {
    // Error-state QPs complete every new WR immediately as flushed.
    Cqe cqe;
    cqe.wr_id = wr.wr_id;
    cqe.type = send_cqe_type(wr.opcode);
    cqe.status = WcStatus::WorkRequestFlushed;
    cqe.qp_num = qp_num_;
    cqe.ready_time = now + adapter_->cfg_.cqe_write;
    send_cq_->push(cqe);
    return adapter_->cfg_.post_base;
  }
  IBP_CHECK(peer_ != nullptr, "post_send on an unconnected QP");
  if (wr.opcode == Opcode::RdmaRead) return post_rdma_read(wr, now);
  if (wr.opcode == Opcode::AtomicFetchAdd ||
      wr.opcode == Opcode::AtomicCmpSwap)
    return post_atomic(wr, now);
  Adapter& hca = *adapter_;
  const AdapterConfig& cfg = hca.cfg_;
  const auto mrs = hca.validate_sges(wr.sges);
  const std::uint64_t bytes = wr.total_length();
  const bool inline_post = wr.inline_data;
  IBP_CHECK(!inline_post || bytes <= cfg.inline_max,
            "inline WR of " << bytes << " bytes exceeds inline_max "
                            << cfg.inline_max);

  // CPU side: build the WQE, ring the doorbell. Roughly constant; each
  // extra SGE adds a small increment (paper §4: 128 SGEs ≈ 3× one SGE).
  // Inline data is copied into the WQE here, at a per-byte cost.
  const std::uint64_t nsges = std::max<std::size_t>(wr.sges.size(), 1);
  TimePs cpu_cost = cfg.post_base + (nsges - 1) * cfg.post_per_sge;
  if (inline_post) cpu_cost += bytes * cfg.post_inline_per_byte;

  // NIC side: fetch the WQE, set up one DMA descriptor per SGE, then
  // gather the payload. Payload gather pipelines with wire streaming, so
  // the transfer takes max(dma, wire). An inline WR carries its payload
  // in the WQE itself: no descriptors, no gather, no sender-side ATT.
  const TimePs nic_start = std::max(now + cpu_cost, nic_busy_until_);
  TimePs dma = 0;
  if (!inline_post)
    for (std::size_t i = 0; i < wr.sges.size(); ++i)
      dma += hca.dma_sge_cost(*mrs[i], wr.sges[i].addr, wr.sges[i].length,
                              nic_start)
                 .total();
  const TimePs nic_proc =
      cfg.wqe_fetch + (inline_post ? 0 : wr.sges.size() * cfg.dma_setup);

  // One-sided placement also runs the *remote* DMA engine (bus writes +
  // ATT traffic on the receiving adapter); it pipelines with the wire the
  // same way the local gather does.
  TimePs remote_dma = 0;
  Adapter& rhca = *peer_->adapter_;
  const MemoryRegion* rmr = nullptr;
  if (wr.opcode == Opcode::RdmaWrite) {
    rmr = rhca.find_mr(wr.rkey);
    IBP_CHECK(rmr != nullptr, "RDMA write with unknown rkey " << wr.rkey);
    IBP_CHECK(bytes == 0 || rmr->contains(wr.remote_addr, bytes),
              "RDMA write outside the remote region");
    if (bytes != 0)
      remote_dma = rhca.dma_sge_cost(*rmr, wr.remote_addr,
                                     static_cast<std::uint32_t>(bytes),
                                     nic_start)
                       .total();
  }

  // Multi-packet transfers pipeline payload gather, wire streaming and
  // remote placement; a single-packet message runs them back to back.
  TimePs transfer =
      bytes > cfg.mtu
          ? std::max({dma, hca.wire_time(bytes), remote_dma})
          : dma + hca.wire_time(bytes) + remote_dma;

  // RC reliability: judge the packet train against the fault plan. Lost
  // packets stretch the transfer by their timeout + resend; an exhausted
  // per-packet retry budget fails the WR and errors the QP instead of
  // delivering anything.
  const bool reliable = hca.fault_ != nullptr;
  if (reliable) {
    const std::uint64_t npkts =
        std::max<std::uint64_t>(1, div_ceil(bytes, cfg.mtu));
    const LossModel loss =
        judge_packets(npkts, nic_start + nic_proc, hca.node_, rhca.node_);
    account_loss(loss);
    if (loss.fatal) {
      nic_busy_until_ = loss.fail_time;
      Cqe cqe;
      cqe.wr_id = wr.wr_id;
      cqe.type = send_cqe_type(wr.opcode);
      cqe.status = WcStatus::RetryExceeded;
      cqe.qp_num = qp_num_;
      cqe.ready_time = loss.fail_time + cfg.cqe_write;
      send_cq_->push(cqe);
      enter_error(loss.fail_time);
      return cpu_cost;
    }
    transfer += loss.extra;
  }

  const bool ctrl = bytes <= cfg.mtu;
  const TimePs tx_end = hca.acquire_tx(nic_start + nic_proc, transfer, ctrl);
  nic_busy_until_ = tx_end;

  StagedMsg msg;
  msg.has_imm = wr.has_imm;
  msg.imm = wr.imm;

  TimePs leaf_out = tx_end;
  TimePs extra_latency = cfg.wire_latency;
  if (hca.fabric_ != nullptr && hca.fabric_ == rhca.fabric_ &&
      hca.pod_ != rhca.pod_) {
    // Cross-pod: the transfer also occupies a shared core link.
    leaf_out = hca.fabric_->traverse(tx_end - transfer, transfer, ctrl);
    extra_latency += hca.fabric_->hop_latency();
  }
  const TimePs first_byte = leaf_out - transfer + extra_latency;
  const TimePs arrival = rhca.acquire_rx(first_byte, transfer, ctrl);
  msg.arrival = arrival;

  hca.stats_.bytes_tx += bytes;

  // Reliable Send completions are ACK-gated: the CQE is generated at match
  // time (try_match), after any RNR backoff the receiver imposes.
  const bool defer_cqe = reliable && wr.opcode == Opcode::Send;
  if (defer_cqe) {
    msg.src_qp = this;
    msg.send_wr_id = wr.wr_id;
    // Retries fire at arrival + k*rnr_timeout for k = 1..rnr_retry; a
    // receive posted by the last retry rescues the message.
    if (attrs_.rnr_retry < 7)  // 7 = retry forever (IB convention)
      msg.rnr_deadline = msg.arrival + static_cast<TimePs>(attrs_.rnr_retry) *
                                           attrs_.rnr_timeout;
  }

  if (wr.opcode == Opcode::Send) {
    // Only a two-sided Send stages its payload: it waits in the peer's
    // inbound queue for a posted receive, and the sender may reuse its
    // buffer once it polls the completion.
    msg.data = gather(wr.sges, mrs, bytes);
    hca.stats_.sends_posted += 1;
    peer_->deliver(std::move(msg));
  } else {
    // A one-sided write places its payload straight into the target, as if
    // every source were read before any byte lands: one memmove for a
    // single SGE, while several SGEs are gathered first.
    hca.stats_.rdma_writes_posted += 1;
    if (bytes != 0) {
      auto placed = rmr->space->host_span(wr.remote_addr, bytes);
      if (wr.sges.size() == 1) {
        auto src = mrs[0]->space->host_span(wr.sges[0].addr, bytes);
        std::memmove(placed.data(), src.data(), bytes);
      } else {
        const auto staged = gather(wr.sges, mrs, bytes);
        std::copy(staged.begin(), staged.end(), placed.begin());
      }
    }
    // A monitored target learns when the write becomes visible in virtual
    // time (fatally lost writes return above: no bytes, no event).
    if (rmr->monitor != nullptr)
      rmr->monitor->push({wr.remote_addr, static_cast<std::uint32_t>(bytes),
                          wr.has_imm, wr.imm, msg.arrival});
    if (wr.has_imm) {
      // Write-with-immediate: the payload is already placed; a posted
      // receive at the peer is consumed to surface the immediate.
      msg.write_imm = true;
      msg.write_len = static_cast<std::uint32_t>(bytes);
      peer_->deliver(std::move(msg));
    }
  }

  // The send completion is visible after the remote HCA acknowledged.
  if (!defer_cqe) {
    Cqe cqe;
    cqe.wr_id = wr.wr_id;
    cqe.type = wr.opcode == Opcode::Send ? CqeType::SendComplete
                                         : CqeType::RdmaWriteComplete;
    cqe.byte_len = static_cast<std::uint32_t>(bytes);
    cqe.qp_num = qp_num_;
    cqe.ready_time = msg.arrival + cfg.ack_latency + cfg.cqe_write;
    send_cq_->push(cqe);
  }

  return cpu_cost;
}

TimePs QueuePair::post_rdma_read(const SendWr& wr, TimePs now) {
  Adapter& hca = *adapter_;
  const AdapterConfig& cfg = hca.cfg_;
  Adapter& rhca = *peer_->adapter_;
  const auto mrs = hca.validate_sges(wr.sges);  // local *destination* SGEs
  const std::uint64_t bytes = wr.total_length();

  const MemoryRegion* rmr = rhca.find_mr(wr.rkey);
  IBP_CHECK(rmr != nullptr, "RDMA read with unknown rkey " << wr.rkey);
  IBP_CHECK(bytes == 0 || rmr->contains(wr.remote_addr, bytes),
            "RDMA read outside the remote region");

  const std::uint64_t nsges = std::max<std::size_t>(wr.sges.size(), 1);
  const TimePs cpu_cost = cfg.post_base + (nsges - 1) * cfg.post_per_sge;
  const TimePs nic_start = std::max(now + cpu_cost, nic_busy_until_);
  const TimePs nic_proc = cfg.wqe_fetch + wr.sges.size() * cfg.dma_setup;

  // 1. The read *request* travels as one control packet. A lost request is
  //    retried by the requester like any lost data packet.
  const bool reliable = hca.fault_ != nullptr;
  TimePs req_send = nic_start + nic_proc;
  if (reliable) {
    const LossModel loss =
        judge_packets(1, req_send, hca.node_, rhca.node_);
    account_loss(loss);
    if (loss.fatal) {
      nic_busy_until_ = loss.fail_time;
      Cqe cqe;
      cqe.wr_id = wr.wr_id;
      cqe.type = CqeType::RdmaReadComplete;
      cqe.status = WcStatus::RetryExceeded;
      cqe.qp_num = qp_num_;
      cqe.ready_time = loss.fail_time + cfg.cqe_write;
      send_cq_->push(cqe);
      enter_error(loss.fail_time);
      return cpu_cost;
    }
    req_send += loss.extra;
  }
  const TimePs req_dur = hca.wire_time(0);
  const TimePs req_end = hca.acquire_tx(req_send, req_dur, /*ctrl=*/true);
  const TimePs req_arrival =
      rhca.acquire_rx(req_end - req_dur + cfg.wire_latency, req_dur, true);

  // 2. The remote HCA reads its memory and streams the response; the
  //    local HCA places the data. Remote source gather, wire and local
  //    scatter pipeline for multi-packet responses.
  TimePs remote_dma = 0;
  if (bytes != 0)
    remote_dma = rhca.dma_sge_cost(*rmr, wr.remote_addr,
                                   static_cast<std::uint32_t>(bytes),
                                   req_arrival)
                     .total();
  TimePs local_dma = 0;
  for (std::size_t i = 0; i < wr.sges.size(); ++i)
    local_dma += hca.dma_sge_cost(*mrs[i], wr.sges[i].addr, wr.sges[i].length,
                                  req_arrival)
                     .total();

  const bool ctrl = bytes <= cfg.mtu;
  TimePs transfer =
      bytes > cfg.mtu
          ? std::max({remote_dma, hca.wire_time(bytes), local_dma})
          : remote_dma + hca.wire_time(bytes) + local_dma;

  // Response packets cross the reverse link; the requester times out and
  // re-requests the missing stretch, so losses charge *this* QP's budget.
  if (reliable) {
    const std::uint64_t npkts =
        std::max<std::uint64_t>(1, div_ceil(bytes, cfg.mtu));
    const LossModel loss = judge_packets(
        npkts, req_arrival + rhca.cfg_.wqe_fetch, rhca.node_, hca.node_);
    account_loss(loss);
    if (loss.fatal) {
      nic_busy_until_ = req_end;
      Cqe cqe;
      cqe.wr_id = wr.wr_id;
      cqe.type = CqeType::RdmaReadComplete;
      cqe.status = WcStatus::RetryExceeded;
      cqe.qp_num = qp_num_;
      cqe.ready_time = loss.fail_time + cfg.cqe_write;
      send_cq_->push(cqe);
      enter_error(loss.fail_time);
      return cpu_cost;
    }
    transfer += loss.extra;
  }

  // The response consumes the remote transmit and local receive lanes.
  const TimePs resp_end = rhca.acquire_tx(
      req_arrival + rhca.cfg_.wqe_fetch, transfer, ctrl);
  const TimePs arrival = hca.acquire_rx(
      resp_end - transfer + cfg.wire_latency, transfer, ctrl);

  // Move the bytes (remote source -> local destination SGEs).
  if (bytes != 0) {
    auto src = rmr->space->host_span(wr.remote_addr, bytes);
    std::uint64_t off = 0;
    for (std::size_t i = 0; i < wr.sges.size(); ++i) {
      const auto& sge = wr.sges[i];
      if (sge.length == 0) continue;
      auto dst = mrs[i]->space->host_span(sge.addr, sge.length);
      std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(off), sge.length,
                  dst.begin());
      off += sge.length;
    }
  }

  rhca.stats_.bytes_tx += bytes;
  hca.stats_.rdma_reads_posted += 1;
  nic_busy_until_ = req_end;

  // The read response *is* the completion; no extra ACK round.
  Cqe cqe;
  cqe.wr_id = wr.wr_id;
  cqe.type = CqeType::RdmaReadComplete;
  cqe.byte_len = static_cast<std::uint32_t>(bytes);
  cqe.qp_num = qp_num_;
  cqe.ready_time = arrival + cfg.cqe_write;
  send_cq_->push(cqe);
  return cpu_cost;
}

TimePs QueuePair::post_atomic(const SendWr& wr, TimePs now) {
  Adapter& hca = *adapter_;
  const AdapterConfig& cfg = hca.cfg_;
  Adapter& rhca = *peer_->adapter_;
  // The single local SGE receives the 8-byte original value.
  IBP_CHECK(wr.sges.size() == 1 && wr.sges[0].length == 8,
            "atomics return exactly 8 bytes");
  const auto mrs = hca.validate_sges(wr.sges);
  IBP_CHECK(wr.remote_addr % 8 == 0, "atomic target must be 8-byte aligned");
  const MemoryRegion* rmr = rhca.find_mr(wr.rkey);
  IBP_CHECK(rmr != nullptr, "atomic with unknown rkey " << wr.rkey);
  IBP_CHECK(rmr->contains(wr.remote_addr, 8),
            "atomic outside the remote region");

  const TimePs cpu_cost = cfg.post_base;
  const TimePs nic_start = std::max(now + cpu_cost, nic_busy_until_);
  const TimePs nic_proc = cfg.wqe_fetch + cfg.dma_setup;

  // Request packet out, read-modify-write at the remote HCA, 8-byte
  // response back — all control-class traffic.
  const TimePs req_dur = hca.wire_time(8);
  const TimePs req_end = hca.acquire_tx(nic_start + nic_proc, req_dur, true);
  const TimePs req_arrival =
      rhca.acquire_rx(req_end - req_dur + cfg.wire_latency, req_dur, true);
  const TimePs exec_done =
      req_arrival + rhca.cfg_.atomic_exec +
      rhca.dma_sge_cost(*rmr, wr.remote_addr, 8, req_arrival).total();
  const TimePs resp_end = rhca.acquire_tx(exec_done, req_dur, true);
  const TimePs arrival =
      hca.acquire_rx(resp_end - req_dur + cfg.wire_latency, req_dur, true);

  // Execute the read-modify-write (virtual-time-ordered, hence atomic).
  auto target = rmr->space->host_span(wr.remote_addr, 8);
  std::uint64_t old_val;
  std::memcpy(&old_val, target.data(), 8);
  std::uint64_t new_val = old_val;
  if (wr.opcode == Opcode::AtomicFetchAdd) {
    new_val = old_val + wr.atomic_arg;
  } else if (old_val == wr.atomic_compare) {
    new_val = wr.atomic_arg;
  }
  std::memcpy(target.data(), &new_val, 8);
  auto result = mrs[0]->space->host_span(wr.sges[0].addr, 8);
  std::memcpy(result.data(), &old_val, 8);

  hca.stats_.atomics_posted += 1;
  nic_busy_until_ = req_end;

  Cqe cqe;
  cqe.wr_id = wr.wr_id;
  cqe.type = CqeType::AtomicComplete;
  cqe.byte_len = 8;
  cqe.qp_num = qp_num_;
  cqe.ready_time = arrival + cfg.cqe_write;
  send_cq_->push(cqe);
  return cpu_cost;
}

TimePs QueuePair::post_recv(const RecvWr& wr, TimePs now) {
  check_injected_error(now);
  Adapter& hca = *adapter_;
  const AdapterConfig& cfg = hca.cfg_;
  if (state_ == QpState::Error) {
    Cqe cqe;
    cqe.wr_id = wr.wr_id;
    cqe.type = CqeType::RecvComplete;
    cqe.status = WcStatus::WorkRequestFlushed;
    cqe.qp_num = qp_num_;
    cqe.ready_time = now + cfg.cqe_write;
    recv_cq_->push(cqe);
    return cfg.post_recv_base;
  }
  hca.validate_sges(wr.sges);
  hca.stats_.recvs_posted += 1;

  const std::uint64_t nsges = std::max<std::size_t>(wr.sges.size(), 1);
  const TimePs cpu_cost = cfg.post_recv_base + (nsges - 1) * cfg.post_per_sge;

  recv_queue_.push_back(PostedRecv{wr, now + cpu_cost});
  try_match();
  return cpu_cost;
}

void QueuePair::deliver(StagedMsg msg) {
  // A passive receiver still notices an injected one-shot error when
  // traffic reaches it.
  check_injected_error(msg.arrival);
  if (state_ == QpState::Error) {
    if (msg.src_qp != nullptr) {
      // The receiver NAKs everything in the error state; the sender's
      // retries can never succeed.
      Cqe cqe;
      cqe.wr_id = msg.send_wr_id;
      cqe.type = CqeType::SendComplete;
      cqe.status = WcStatus::RetryExceeded;
      cqe.qp_num = msg.src_qp->qp_num_;
      cqe.ready_time = msg.arrival + adapter_->cfg_.cqe_write;
      msg.src_qp->send_cq_->push(cqe);
      msg.src_qp->enter_error(msg.arrival);
    }
    return;  // no deferred sender CQE (e.g. write-with-immediate): dropped
  }
  if (msg.src_qp != nullptr && recv_queue_.empty() && msg.rnr_deadline != 0) {
    // No receive posted: the receiver returns RNR NAKs until one shows up.
    // Schedule the sender's exhaustion CQE at the deadline now — a receive
    // posted in time cancels it (the engine runs ranks in virtual-time
    // order, so any rescuing post_recv executes before the sender's clock
    // can reach the deadline).
    Cqe cqe;
    cqe.wr_id = msg.send_wr_id;
    cqe.type = CqeType::SendComplete;
    cqe.status = WcStatus::RnrRetryExceeded;
    cqe.qp_num = msg.src_qp->qp_num_;
    cqe.ready_time = msg.rnr_deadline;
    msg.src_qp->send_cq_->push(cqe);
    msg.rnr_cqe_scheduled = true;
  }
  inbound_.push_back(std::move(msg));
  try_match();
}

void QueuePair::try_match() {
  Adapter& hca = *adapter_;
  const AdapterConfig& cfg = hca.cfg_;
  while (!inbound_.empty() && !recv_queue_.empty()) {
    StagedMsg msg = std::move(inbound_.front());
    inbound_.pop_front();
    PostedRecv pr = std::move(recv_queue_.front());
    recv_queue_.pop_front();

    // Reliable delivery: resolve the RNR episode this message went
    // through, if any. `delivered` is when the (re)sent message finally
    // lands in a posted receive.
    TimePs delivered = std::max(msg.arrival, pr.post_time);
    if (msg.src_qp != nullptr) {
      if (msg.rnr_deadline != 0 && pr.post_time > msg.rnr_deadline) {
        // The receive came after the sender's last RNR retry: the
        // exhaustion CQE stands (or is created now), the message is gone,
        // and the receive stays posted for future traffic.
        if (!msg.rnr_cqe_scheduled) {
          Cqe cqe;
          cqe.wr_id = msg.send_wr_id;
          cqe.type = CqeType::SendComplete;
          cqe.status = WcStatus::RnrRetryExceeded;
          cqe.qp_num = msg.src_qp->qp_num_;
          cqe.ready_time = msg.rnr_deadline;
          msg.src_qp->send_cq_->push(cqe);
        }
        msg.src_qp->enter_error(msg.rnr_deadline);
        recv_queue_.push_front(std::move(pr));
        continue;
      }
      delivered = msg.arrival;
      if (pr.post_time > msg.arrival) {
        // One RNR NAK + resend per backoff round until the receive shows.
        const TimePs rnr = msg.src_qp->attrs_.rnr_timeout;
        const std::uint64_t rounds = div_ceil(pr.post_time - msg.arrival, rnr);
        delivered = msg.arrival + rounds * rnr;
        msg.src_qp->qp_stats_.rnr_naks += rounds;
        hca.stats_.rnr_naks += rounds;
        if (hca.fault_ != nullptr)
          hca.fault_->note("rnr_nak", hca.node_, pr.post_time);
      }
      if (msg.rnr_cqe_scheduled)
        msg.src_qp->send_cq_->cancel(msg.send_wr_id,
                                     WcStatus::RnrRetryExceeded);
    }

    Cqe cqe;
    cqe.wr_id = pr.wr.wr_id;
    cqe.type = CqeType::RecvComplete;
    cqe.qp_num = qp_num_;
    cqe.has_imm = msg.has_imm;
    cqe.imm = msg.imm;
    // Write-with-immediate placed its payload one-sided; the receive
    // reports the write length but scatters nothing (msg.data is empty).
    cqe.byte_len = msg.write_imm
                       ? msg.write_len
                       : static_cast<std::uint32_t>(msg.data.size());

    if (msg.data.size() > pr.wr.total_length()) {
      // Real RC would move the QP to error state; a per-WR error CQE keeps
      // the simulation testable without modelling QP teardown.
      cqe.status = WcStatus::LocalLengthError;
      cqe.ready_time = delivered + cfg.cqe_write;
      recv_cq_->push(cqe);
      if (msg.src_qp != nullptr) {
        // The receiver's HCA NAKs the oversized message.
        Cqe scqe;
        scqe.wr_id = msg.send_wr_id;
        scqe.type = CqeType::SendComplete;
        scqe.status = WcStatus::RemoteError;
        scqe.qp_num = msg.src_qp->qp_num_;
        scqe.ready_time = delivered + cfg.ack_latency + cfg.cqe_write;
        msg.src_qp->send_cq_->push(scqe);
      }
      continue;
    }

    // Scatter the payload. Placement overlaps with packet reception; what
    // remains visible is per-SGE setup plus receive-side ATT traffic.
    // Those stalls occupy the (per-adapter, shared) receive engine, so
    // concurrent inbound traffic from other QPs queues behind them.
    TimePs scatter = 0;
    std::uint64_t off = 0;
    for (const auto& s : pr.wr.sges) {
      if (off >= msg.data.size()) break;
      const std::uint64_t chunk =
          std::min<std::uint64_t>(s.length, msg.data.size() - off);
      if (chunk == 0) continue;
      const MemoryRegion* mr = hca.find_mr(s.lkey);
      IBP_CHECK(mr != nullptr);  // validated at post_recv
      auto dst = mr->space->host_span(s.addr, chunk);
      std::copy_n(msg.data.begin() + static_cast<std::ptrdiff_t>(off),
                  chunk, dst.begin());
      scatter += cfg.dma_setup +
                 hca.dma_sge_cost(*mr, s.addr,
                                  static_cast<std::uint32_t>(chunk), delivered)
                     .stalls;
      off += chunk;
    }

    cqe.ready_time = hca.acquire_rx(delivered, scatter,
                                    msg.data.size() <= cfg.mtu) +
                     cfg.cqe_write;
    recv_cq_->push(cqe);

    if (msg.src_qp != nullptr) {
      // ACK-gated sender completion, delayed by the RNR rounds above.
      const AdapterConfig& scfg = msg.src_qp->adapter_->cfg_;
      Cqe scqe;
      scqe.wr_id = msg.send_wr_id;
      scqe.type = CqeType::SendComplete;
      scqe.byte_len = static_cast<std::uint32_t>(msg.data.size());
      scqe.qp_num = msg.src_qp->qp_num_;
      scqe.ready_time = delivered + scfg.ack_latency + scfg.cqe_write;
      msg.src_qp->send_cq_->push(scqe);
    }
  }
}

}  // namespace ibp::hca
