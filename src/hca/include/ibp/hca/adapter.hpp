#pragma once

// Simulated InfiniBand host channel adapter (HCA).
//
// One Adapter models one physical HCA (per node): its memory-region table,
// its on-chip address-translation-table (ATT) cache, its DMA engine, and
// its link to the fabric. QueuePairs are reliable-connected (RC) endpoints
// created on an adapter and wired directly to a peer QP.
//
// Everything is computed synchronously inside the posting rank's turn:
// the adapter derives completion timestamps from its cost model and link /
// QP busy-tracking, moves payload bytes, and pushes CQEs that become
// pollable at their ready time. Because the engine executes ranks in
// global virtual-time order, writing receiver host memory at post time is
// safe for any program that reads only after observing the completion.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/lru.hpp"
#include "ibp/common/types.hpp"
#include "ibp/common/waker.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/hca/completion_queue.hpp"
#include "ibp/hca/config.hpp"
#include "ibp/hca/fabric.hpp"
#include "ibp/hca/types.hpp"
#include "ibp/mem/address_space.hpp"

namespace ibp::hca {

class Adapter;

/// Visibility gate for one-sided writes into a monitored memory region.
///
/// The simulation stages RDMA-write payload bytes into the target host
/// memory synchronously at post time, while the transfer's virtual arrival
/// is later. A two-sided receiver never notices (it reads only after its
/// completion), but a memory-*polling* receiver — a ring channel that
/// discovers records by inspecting ring bytes, with no posted receive —
/// would read the future. Attaching a WriteMonitor to the target MR closes
/// the gap: every successful inbound RDMA write records an event carrying
/// its virtual arrival time, and the poller consumes events only once
/// `now` has reached them, then reads the (already placed) real bytes.
///
/// A write that dies fatally in the fault injector (retry budget
/// exhausted) copies nothing and records nothing, so replaying the same
/// record at the same ring offset is idempotent.
///
/// Events are pushed by the *writing* rank's lane; lanes that poll the
/// monitor name waker() in their waits, and every push and take fires it.
class WriteMonitor {
 public:
  struct Event {
    VirtAddr addr = 0;
    std::uint32_t len = 0;
    bool has_imm = false;
    std::uint32_t imm = 0;
    TimePs visible_at = 0;  // transfer's virtual arrival at this adapter
  };

  /// Fires after every push and every take that removes events.
  Waker& waker() { return waker_; }

  /// Record one completed inbound write (insertion keeps visibility
  /// order; a single writer produces monotone arrivals already).
  void push(const Event& e) {
    auto it = events_.end();
    while (it != events_.begin() && (it - 1)->visible_at > e.visible_at) --it;
    events_.insert(it, e);
    waker_.wake();
  }

  /// Earliest pending visibility time, if any — feeds the owner's
  /// blocking-wait predicate so the engine can sleep until it.
  std::optional<TimePs> next_visible() const {
    if (events_.empty()) return std::nullopt;
    return events_.front().visible_at;
  }

  /// Pop every event visible at or before `now`, oldest first.
  std::vector<Event> take_visible(TimePs now) {
    std::vector<Event> out;
    while (!events_.empty() && events_.front().visible_at <= now) {
      out.push_back(events_.front());
      events_.pop_front();
    }
    if (!out.empty()) waker_.wake();
    return out;
  }

  std::size_t pending() const { return events_.size(); }

 private:
  std::deque<Event> events_;
  Waker waker_;
};

/// A registered memory region. lkey doubles as rkey.
struct MemoryRegion {
  std::uint32_t lkey = 0;
  VirtAddr addr = 0;
  std::uint64_t length = 0;
  mem::AddressSpace* space = nullptr;
  std::uint64_t os_page_size = 0;     // page size of the backing mapping
  std::uint64_t trans_page_size = 0;  // granularity shipped to the NIC
  std::uint64_t npages = 0;           // OS pages pinned
  std::uint64_t ntrans = 0;           // translation entries shipped
  WriteMonitor* monitor = nullptr;    // visibility gate for one-sided writes

  bool contains(VirtAddr a, std::uint64_t len) const {
    return a >= addr && len <= length && a - addr <= length - len;
  }
};

/// QP lifecycle, collapsed to the two states the model distinguishes.
/// (Real verbs walk RESET→INIT→RTR→RTS; connect() stands in for that.)
enum class QpState : std::uint8_t { Ready, Error };

class QueuePair {
 public:
  std::uint32_t qp_num() const { return qp_num_; }
  Adapter& adapter() { return *adapter_; }
  QpState state() const { return state_; }

  /// RC reliability attributes (modify_qp equivalent). Consulted only when
  /// the adapter has a fault injector attached.
  void set_attrs(const QpAttrs& attrs) { attrs_ = attrs; }
  const QpAttrs& attrs() const { return attrs_; }
  const QpStats& qp_stats() const { return qp_stats_; }

  /// Recycle an errored QP back to Ready (ERR→RESET→RTS shortcut).
  /// Receives flushed on the way into the error state stay flushed;
  /// inbound messages from still-retransmitting senders remain queued and
  /// match against receives posted after the reset.
  void reset() { state_ = QpState::Ready; }

  /// Wire this QP to its RC peer (both directions must be connected).
  void connect(QueuePair* peer) {
    IBP_CHECK(peer != nullptr && peer != this);
    peer_ = peer;
  }
  QueuePair* peer() { return peer_; }

  /// Post a send-side work request at virtual time `now`. Returns the
  /// CPU-side cost the caller must advance() by; all NIC/wire/completion
  /// timing is recorded in the CQs.
  TimePs post_send(const SendWr& wr, TimePs now);

  /// Post a receive work request at `now`; returns CPU-side cost.
  TimePs post_recv(const RecvWr& wr, TimePs now);

  CompletionQueue& send_cq() { return *send_cq_; }
  CompletionQueue& recv_cq() { return *recv_cq_; }

  /// Receive WRs currently waiting for inbound messages.
  std::size_t recv_queue_depth() const { return recv_queue_.size(); }
  /// Inbound messages waiting for a receive WR (RNR condition in real IB).
  std::size_t unmatched_inbound() const { return inbound_.size(); }

  /// Virtual-time lock state for SharedLocked multi-thread arbitration.
  ArbState& arb() { return arb_; }

 private:
  friend class Adapter;
  QueuePair(Adapter* adapter, std::uint32_t num, CompletionQueue* scq,
            CompletionQueue* rcq)
      : adapter_(adapter), qp_num_(num), send_cq_(scq), recv_cq_(rcq) {}

  /// A message bound for the peer's inbound queue. Only a two-sided Send
  /// stages its payload in `data`, since it waits there for a posted
  /// receive; a one-sided write places its payload directly at post time,
  /// and a write-with-immediate arrives here with `data` empty.
  struct StagedMsg {
    std::vector<std::uint8_t> data;
    TimePs arrival = 0;  // fully received at the peer HCA
    bool has_imm = false;
    std::uint32_t imm = 0;
    // Write-with-immediate: the payload was already placed one-sided; the
    // matched receive completes with the immediate and byte_len only —
    // nothing is scattered through its SGEs.
    bool write_imm = false;
    std::uint32_t write_len = 0;
    // Reliable (ACK-gated) delivery, set when the sending adapter has a
    // fault injector: the sender's CQE is generated at match time, after
    // any RNR backoff rounds.
    QueuePair* src_qp = nullptr;
    std::uint64_t send_wr_id = 0;
    TimePs rnr_deadline = 0;  // 0 = unbounded RNR retries
    // A provisional RnrRetryExceeded CQE sits in the sender's CQ at
    // rnr_deadline; cancelled if a receive rescues the message in time.
    bool rnr_cqe_scheduled = false;
  };

  struct PostedRecv {
    RecvWr wr;
    TimePs post_time = 0;
  };

  /// Packet-loss outcome of pushing `npkts` MTUs through the injector.
  struct LossModel {
    TimePs extra = 0;  // transfer time added by timeouts + resends
    std::uint64_t retransmits = 0;
    std::uint64_t dropped = 0;
    std::uint64_t corrupted = 0;
    bool fatal = false;     // some packet exhausted retry_cnt
    TimePs fail_time = 0;   // when the final timeout expired
  };

  TimePs post_rdma_read(const SendWr& wr, TimePs now);
  TimePs post_atomic(const SendWr& wr, TimePs now);
  void deliver(StagedMsg msg);
  void try_match();
  LossModel judge_packets(std::uint64_t npkts, TimePs start, NodeId src_node,
                          NodeId dst_node);
  TimePs retransmit_backoff(std::uint32_t attempt) const;
  void account_loss(const LossModel& loss);
  /// Fire a pending injected one-shot QP error, if any.
  void check_injected_error(TimePs now);
  /// Move to the error state: flush posted receives, fail senders whose
  /// queued messages can no longer complete.
  void enter_error(TimePs now);
  /// Completion type reported for a flushed/failed send-side WR.
  static CqeType send_cqe_type(Opcode op);

  Adapter* adapter_;
  std::uint32_t qp_num_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  QpState state_ = QpState::Ready;
  QpAttrs attrs_;
  QpStats qp_stats_;
  QueuePair* peer_ = nullptr;
  ArbState arb_;               // host-side QP lock (SharedLocked mode)
  TimePs nic_busy_until_ = 0;  // per-QP in-order WQE processing
  std::deque<PostedRecv> recv_queue_;
  std::deque<StagedMsg> inbound_;
};

class Adapter {
 public:
  Adapter(NodeId node, const AdapterConfig& cfg)
      : node_(node), cfg_(cfg), att_(cfg.att_entries) {}

  Adapter(const Adapter&) = delete;
  Adapter& operator=(const Adapter&) = delete;

  NodeId node() const { return node_; }
  const AdapterConfig& config() const { return cfg_; }

  /// Attach this adapter to a multi-stage fabric as a member of `pod`.
  /// Unattached adapters (or same-pod peers) see a single-switch fabric.
  void attach_fabric(Fabric* fabric, int pod) {
    fabric_ = fabric;
    pod_ = pod;
  }
  int pod() const { return pod_; }
  Fabric* fabric() { return fabric_; }
  const AdapterStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Device-level lock state for SharedLocked arbitration. One lock
  /// serializes every post and poll on the adapter regardless of which
  /// QP/CQ it lands on — the libibverbs thread-safe-context model, where
  /// the shared doorbell page and context lock are what threads fight
  /// over, not the individual queue.
  ArbState& device_arb() { return device_arb_; }

  /// Account lock-wait/cache-bounce time charged for a shared-QP post.
  void note_qp_contention(TimePs extra) { stats_.qp_contention_ps += extra; }
  /// Account one CQ poll that found the CQ lock busy (or bounced).
  void note_cq_contention(TimePs extra) {
    stats_.qp_contention_ps += extra;
    ++stats_.cq_poll_contention;
  }

  /// Attach the cluster's fault injector (nullptr detaches). With an
  /// injector attached, RC QPs run the full reliability protocol
  /// (per-packet loss judging, retransmission, RNR backoff, error state);
  /// without one, the legacy always-healthy fast path is taken unchanged.
  void set_fault_injector(fault::FaultInjector* inj) { fault_ = inj; }

  /// Register [addr, addr+len) of `space`. `trans_page_size` is the
  /// granularity of the translations shipped to the NIC — the stock driver
  /// passes 4 KB even for hugepage mappings; the paper's patched driver
  /// passes the native page size. Must not exceed the OS page size of the
  /// backing mapping. Returns the MR and the registration cost.
  struct RegResult {
    const MemoryRegion* mr;
    TimePs cost;
  };
  RegResult reg_mr(mem::AddressSpace& space, VirtAddr addr, std::uint64_t len,
                   std::uint64_t trans_page_size);

  /// Deregister; returns the deregistration cost.
  TimePs dereg_mr(std::uint32_t lkey);

  const MemoryRegion* find_mr(std::uint32_t key) const;

  /// Attach a write monitor to a registered region (nullptr detaches).
  /// Inbound RDMA writes landing in the region record visibility events.
  void set_write_monitor(std::uint32_t lkey, WriteMonitor* mon) {
    auto it = mrs_.find(lkey);
    IBP_CHECK(it != mrs_.end(), "write monitor on unknown lkey " << lkey);
    it->second->monitor = mon;
  }

  /// Create an RC QP. QP numbers count up from 1 per adapter, in creation
  /// order.
  QueuePair& create_qp(CompletionQueue* send_cq, CompletionQueue* recv_cq);
  std::uint32_t qp_count() const {
    return static_cast<std::uint32_t>(qps_.size());
  }

 private:
  friend class QueuePair;

  /// Validate that each SGE lies in a registered MR; returns the MRs.
  std::vector<const MemoryRegion*> validate_sges(const std::vector<Sge>& sges);

  /// DMA-engine cost of moving one SGE across the host bus, split into the
  /// streaming part (bus-line reads, which pipeline with the wire) and the
  /// stall part (ATT lookups/misses and burst-boundary penalties, which do
  /// not).
  struct DmaCost {
    TimePs stream = 0;
    TimePs stalls = 0;
    TimePs total() const { return stream + stalls; }
  };
  /// `now` lets an active ATT-miss storm turn every lookup into a miss.
  DmaCost dma_sge_cost(const MemoryRegion& mr, VirtAddr addr,
                       std::uint32_t len, TimePs now);

  /// Wire time for `bytes` on the link (streaming + packetization).
  TimePs wire_time(std::uint64_t bytes) const;

  /// Transmission time of one MTU (the link's arbitration quantum).
  TimePs mtu_time() const;

  /// Reserve the transmit link from `ready` for `duration`. Single-packet
  /// ("control-class") messages interleave with bulk transfers at MTU
  /// granularity — IB virtual-lane arbitration — so they wait at most one
  /// packet, not an entire in-flight message; bulk transfers queue FIFO
  /// and are stretched by interleaved control traffic. Returns the end
  /// time of the transfer.
  TimePs acquire_tx(TimePs ready, TimePs duration, bool ctrl);
  /// Same, for the receive side.
  TimePs acquire_rx(TimePs first_byte, TimePs duration, bool ctrl);

  NodeId node_;
  AdapterConfig cfg_;
  Fabric* fabric_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  int pod_ = 0;
  AdapterStats stats_;
  ArbState device_arb_;
  LruSet att_;  // key: (lkey << 32) | translation index
  std::uint32_t next_key_ = 1;
  TimePs tx_bulk_busy_ = 0;
  TimePs tx_ctrl_busy_ = 0;
  TimePs rx_bulk_busy_ = 0;
  TimePs rx_ctrl_busy_ = 0;
  std::unordered_map<std::uint32_t, std::unique_ptr<MemoryRegion>> mrs_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
};

}  // namespace ibp::hca
