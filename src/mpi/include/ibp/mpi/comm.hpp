#pragma once

// simpi — an MPI-like point-to-point and collective layer over the
// simulated InfiniBand verbs (inter-node) and shared memory (intra-node),
// modelled on MVAPICH2 0.9.8's CH3 channel as the paper used it:
//
//   * eager protocol through preposted bounce buffers up to 8 KB,
//   * rendezvous with in-band copy for (8 KB, 16 KB],
//   * rendezvous with RDMA write above 16 KB — the only path that
//     registers *user* buffers, which is why the paper "only sees memory
//     registration effects for those buffers" (§5.1),
//   * registration managed by a pin-down cache (lazy deregistration),
//     toggleable per the paper's Figure 5 experiment,
//   * optional scatter/gather eager sends (one WR, header SGE + user
//     SGEs) — the paper's §7 future-work feature, implemented here and
//     compared against pack-and-send in bench/abl_sge_mpi.
//
// One private function, Comm::route, turns a message's size, peer and
// piece count into its path from CommConfig alone; isend, isend_gather
// and send_typed branch on its answer. A rendezvous RTS names the
// flavour the sender chose, and the receiver follows it.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/types.hpp"
#include "ibp/common/waker.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/mpi/datatype.hpp"
#include "ibp/mpi/message.hpp"
#include "ibp/mpi/profiler.hpp"
#include "ibp/mpi/request.hpp"
#include "ibp/ringchan/ringchan.hpp"

namespace ibp::mpi {

struct CommConfig {
  std::uint64_t eager_threshold = 8 * kKiB;
  std::uint64_t rndv_copy_max = 16 * kKiB;
  std::uint32_t recv_slots = 32;  // preposted recvs per inter-node peer
  std::uint32_t send_slots = 64;  // shared send bounce pool
  std::uint64_t slot_bytes = 16 * kKiB + 64;
  /// Route eligible eager sends through one WR with scatter/gather
  /// elements instead of packing into the bounce buffer (§7).
  bool sge_gather = false;
  /// Large-message rendezvous flavour: RDMA-write (RTS/CTS/write/FIN, the
  /// MVAPICH default the paper used) or RDMA-read (the RTS carries the
  /// sender's rkey and the receiver pulls — one handshake hop fewer).
  bool rndv_read = false;
  /// One-sided ring channels (EXT-RDMA): eligible eager messages are
  /// framed into a persistent, receiver-owned ring slab the sender
  /// RDMA-writes — no preposted receive, no recv-CQ poll on the hot
  /// path; the receiver discovers arrivals by polling ring memory and
  /// returns credit by RDMA-writing its consumed-up-to counter into a
  /// sender-owned control word. Messages that exceed ring.max_record or
  /// find the ring out of credit fall back to the two-sided eager path
  /// (envelope order is restored by the per-source sequence numbers).
  bool rdma_eager = false;
  /// Per-peer ring geometry used when rdma_eager is on.
  ringchan::RingConfig ring;
  /// What to do when the transport reports an error completion (only
  /// possible with a cluster fault plan; a healthy fabric never errors).
  enum class Recovery : std::uint8_t {
    FailFast,  // abort the run — errors are bugs on a healthy fabric
    Repost,    // reset the QP, repost flushed receives, replay the send
  };
  Recovery recovery = Recovery::FailFast;
  /// Repost policy: bound on MPI-level replays of one work request.
  std::uint32_t max_send_retries = 4;
  /// Repost policy: virtual time charged per replay (models connection
  /// re-establishment; also lets the peer drain its own flushed
  /// completions and repost its receives before the replay arrives).
  TimePs recovery_delay = us(100);
};

/// One contiguous piece of a gathered send.
struct Seg {
  VirtAddr addr = 0;
  std::uint64_t len = 0;
};

enum class ReduceOp : std::uint8_t { Sum, Max, Min };

/// Per-protocol traffic counters (observability; cheap to keep).
struct CommStats {
  std::uint64_t eager_sent = 0;
  std::uint64_t eager_bytes = 0;
  std::uint64_t rndv_copy_sent = 0;
  std::uint64_t rndv_copy_bytes = 0;
  std::uint64_t rndv_rdma_sent = 0;
  std::uint64_t rndv_rdma_bytes = 0;
  std::uint64_t shm_sent = 0;
  std::uint64_t shm_bytes = 0;
  std::uint64_t unexpected_arrivals = 0;
  std::uint64_t gather_sends = 0;
  std::uint64_t sge_splits = 0;  // gathers split to honour kMaxSges
  std::uint64_t rdma_eager_sent = 0;   // messages placed via ring write
  std::uint64_t rdma_eager_bytes = 0;  // user payload bytes over the rings
  /// Ring-eligible sends pushed back to the two-sided path because the
  /// ring was out of credit at post time.
  std::uint64_t rdma_eager_fallbacks = 0;
  std::uint64_t rdma_credit_returns = 0;  // consumed-counter writebacks
  std::uint64_t reordered = 0;  // arrivals stashed for sequencing
  // Transport reliability (refreshed from the QP counters by stats()).
  std::uint64_t retransmits = 0;  // NIC-level packet retransmissions
  std::uint64_t rnr_naks = 0;     // receiver-not-ready backoff rounds
  std::uint64_t recoveries = 0;   // Repost-policy QP resets
};

class Window;

class Comm {
 public:
  /// Collective constructor: every rank must construct its Comm at the
  /// start of the rank program (buffers are allocated and registered,
  /// receives preposted).
  explicit Comm(core::RankEnv& env, CommConfig cfg = {});

  /// Flushes the profiler's per-op totals into the cluster metrics
  /// registry (mpi.time_us.<op>) and latches the traffic-counter probes.
  ~Comm();

  int rank() const { return env_->rank(); }
  int size() const { return env_->nranks(); }
  core::RankEnv& env() { return *env_; }
  Profiler& profiler() { return prof_; }
  const CommConfig& config() const { return cfg_; }

  // --- point to point -----------------------------------------------------
  Req isend(VirtAddr buf, std::uint64_t len, int dst, int tag);
  Req irecv(VirtAddr buf, std::uint64_t cap, int src, int tag);
  void wait(const Req& r);
  void waitall(std::span<const Req> rs);
  bool test(const Req& r);

  /// Wait for any request in `rs` to complete; returns its index.
  std::size_t waitany(std::span<const Req> rs);

  void send(VirtAddr buf, std::uint64_t len, int dst, int tag);
  RecvStatus recv(VirtAddr buf, std::uint64_t cap, int src, int tag);
  RecvStatus sendrecv(VirtAddr sbuf, std::uint64_t slen, int dst, int stag,
                      VirtAddr rbuf, std::uint64_t rcap, int src, int rtag);

  /// Gathered eager send: the message is the concatenation of `segs`
  /// (total must fit the eager path). With cfg.sge_gather the NIC gathers
  /// the pieces via SGEs, at most kMaxSges per work request; otherwise
  /// they are packed through the bounce buffer first.
  Req isend_gather(const std::vector<Seg>& segs, int dst, int tag);

  /// SGEs one gathered work request carries at most, header SGE
  /// included; isend_gather packs the pieces beyond it into one staged
  /// segment.
  static constexpr std::size_t kMaxSges = 128;

  /// MPI_Pack / MPI_Unpack equivalents (CPU copies, charged).
  void pack(const std::vector<Seg>& segs, VirtAddr dst);
  void unpack(VirtAddr src, const std::vector<Seg>& segs);

  /// Typed (non-contiguous) transfers, MPI_Type_vector-style. Small typed
  /// sends map onto one SGE-list work request when cfg.sge_gather is on
  /// (§7); larger ones pack through a staging buffer. recv_typed receives
  /// the packed stream and scatters it into the datatype's blocks.
  void send_typed(VirtAddr base, const Datatype& type, int dst, int tag);
  RecvStatus recv_typed(VirtAddr base, const Datatype& type, int src,
                        int tag);

  /// The SGE list a typed buffer denotes.
  static std::vector<Seg> type_segments(VirtAddr base, const Datatype& type);

  // --- collectives ----------------------------------------------------------
  void barrier();
  void bcast(VirtAddr buf, std::uint64_t len, int root);
  void gather(VirtAddr sendbuf, std::uint64_t len, VirtAddr recvbuf, int root);
  void gatherv(VirtAddr sendbuf, std::uint64_t len, VirtAddr recvbuf,
               std::span<const std::uint64_t> counts,
               std::span<const std::uint64_t> displs, int root);
  void scatter(VirtAddr sendbuf, std::uint64_t len, VirtAddr recvbuf,
               int root);
  void allgather(VirtAddr sendbuf, std::uint64_t len, VirtAddr recvbuf);
  void alltoall(VirtAddr sendbuf, std::uint64_t len_per_rank, VirtAddr recvbuf);
  void alltoallv(VirtAddr sendbuf, std::span<const std::uint64_t> scounts,
                 std::span<const std::uint64_t> sdispls, VirtAddr recvbuf,
                 std::span<const std::uint64_t> rcounts,
                 std::span<const std::uint64_t> rdispls);

  template <typename T>
  void allreduce(VirtAddr sendbuf, VirtAddr recvbuf, std::uint64_t count,
                 ReduceOp op);
  /// Element-wise reduce of n*count elements, rank r keeping block r.
  template <typename T>
  void reduce_scatter(VirtAddr sendbuf, VirtAddr recvbuf,
                      std::uint64_t count_per_rank, ReduceOp op);
  /// Inclusive prefix reduction: rank r receives op over ranks 0..r.
  template <typename T>
  void scan(VirtAddr sendbuf, VirtAddr recvbuf, std::uint64_t count,
            ReduceOp op);
  template <typename T>
  void reduce(VirtAddr sendbuf, VirtAddr recvbuf, std::uint64_t count,
              ReduceOp op, int root);

  // --- internals exposed for tests -----------------------------------------
  regcache::RegCache& rcache() { return env_->rcache(); }
  /// Traffic counters. The transport-reliability fields (retransmits,
  /// rnr_naks) are pulled from the rank's QP counters on each call.
  const CommStats& stats() const;

 private:
  friend class Window;  // one-sided ops post through the same engine

  struct Unexpected {
    Header hdr;
    std::vector<std::uint8_t> payload;
  };

  struct SendAction {
    int slot = -1;   // bounce slot to release on CQE
    Req req;         // request to complete on CQE
    bool rdma_fin = false;  // write rendezvous: on CQE send FIN, complete
    bool read_fin = false;  // read rendezvous: on CQE notify the sender
    std::uint64_t peer_req = 0;  // read_fin: the sender's request id
    std::int32_t peer_rank = -1;
    std::uint64_t msg_size = 0;
    hca::SendWr wr;          // stored for Repost-policy replays
    std::int32_t dest = -1;  // peer the RC WR targeted (-1: not replayable)
    std::uint32_t attempts = 0;  // replays consumed so far
    // Staging block holding the tail of a gather split by kMaxSges;
    // freed at the successful CQE (replays keep it intact).
    VirtAddr stage_buf = 0;
  };

  /// How one message travels.
  enum class Path : std::uint8_t {
    Self,       // to this rank: straight through the matching engine
    Shm,        // same node: one copy through shared memory, any size
    Ring,       // one-sided ring record (two-sided eager when refused)
    Eager,      // two-sided eager through a bounce slot
    Gather,     // eager; the NIC gathers the pieces from one SGE list
    Pack,       // the CPU packs the pieces, then sends the packed stream
    RndvCopy,   // rendezvous, payload in-band after the CTS
    RndvWrite,  // rendezvous, the sender RDMA-writes after the CTS
    RndvRead,   // rendezvous, the receiver RDMA-reads the sender's buffer
  };

  /// The one per-message protocol decision, from CommConfig alone: the
  /// path `len` bytes to `peer` take. `pieces` counts the segments of a
  /// gathered or typed send; 0 is one contiguous buffer.
  Path route(std::uint64_t len, int peer, std::size_t pieces = 0) const;

  // Transport helpers.
  bool same_node(int peer) const;
  int take_send_slot();
  void release_send_slot(int slot);
  void finish(const Req& r);  // completes `r` now
  VirtAddr send_slot_va(int slot) const;
  VirtAddr recv_slot_va(int peer_index, int slot) const;

  /// Send header+payload to `peer` over the right transport. `payload`
  /// may be empty. `action` describes what happens at the send CQE
  /// (ignored for shm). Charges posting/copy time.
  void transport_send(int peer, const Header& hdr,
                      std::span<const std::uint8_t> payload,
                      SendAction action);

  /// Gathered transport send via SGE list (inter-node only).
  void transport_send_sges(int peer, const Header& hdr,
                           const std::vector<Seg>& segs, SendAction action);

  // Progress engine.
  void progress_once();
  std::optional<TimePs> earliest_event() const;
  /// Refill wakers_ after the event sources change (rings set up).
  void collect_wakers();

  // One-sided ring channels (cfg.rdma_eager).
  void setup_rings();
  /// Frame [mpi header | payload] into the peer's ring and post the
  /// write(s). Returns false — without consuming a sequence number —
  /// when the ring is not usable (unconnected, record too large, out of
  /// credit), in which case the caller falls back to two-sided eager.
  bool try_ring_send(int dst, Header& hdr, VirtAddr buf, std::uint64_t len);
  /// Parse newly visible ring records, return due credit, sweep credit
  /// writebacks. Sets `*again` when any record was ingested.
  void poll_rings(bool* again);

 public:
  /// Earliest virtual time at which an unconsumed transport event (ready
  /// CQE, shm arrival) exists, or nullopt. Side-effect free, so callers
  /// can compose it into sim wait ready functions together with their
  /// own conditions (e.g. an RPC dispatcher sleeping for "next request
  /// batch OR a worker hand-off"); such a wait names request_wakers().
  std::optional<TimePs> earliest_event_time() const {
    return earliest_event();
  }

  /// What a wait on this Comm's events and requests names: the Waker of
  /// every source earliest_event_time() reads, and the Comm's request
  /// Waker, which fires when a request finishes and when a send slot is
  /// taken or freed. Another track's progress completes a request only
  /// after the poll that popped its event has yielded, so the completion
  /// fires a Waker of its own.
  std::span<Waker* const> request_wakers() const { return wakers_; }

  /// Post a one-sided work request on the RC QP to `peer` under this
  /// Comm's send-CQE bookkeeping: the WR is stored for Repost-policy
  /// replays, and a success CQE simply retires it. The referenced local
  /// memory must stay valid until the CQE (ring staging slabs qualify —
  /// their bytes survive until the slab space is credited back). Used by
  /// the rdma-eager tier and by the RPC response fast path. With
  /// `tracked`, returns a Request that finishes at the success CQE
  /// (surviving Repost replays) so the caller can drain its one-sided
  /// writes; untracked posts return null and retire silently.
  Req post_one_sided(int peer, hca::SendWr wr, bool tracked = false);

 private:
  /// Sequencing front-end: delivers in per-source order, stashing early
  /// arrivals (ring records and RC bounce messages may cross).
  void ingest(const Header& hdr, std::span<const std::uint8_t> payload);
  void handle_msg(const Header& hdr, std::span<const std::uint8_t> payload);
  void handle_send_cqe(const hca::Cqe& cqe);
  /// Repost-policy path for a flushed preposted receive.
  void handle_recv_error(const hca::Cqe& cqe);
  /// Reset the QP to `peer` if a fault errored it (counts a recovery).
  void recover_qp(int peer);
  void complete_eager_recv(const Req& r, const Header& hdr,
                           std::span<const std::uint8_t> payload);
  /// Answer a matched RTS with the flavour it names.
  void start_rndv_recv(const Req& r, const Header& hdr);
  bool match(const Req& r, std::int32_t src, std::int32_t tag) const {
    return (r->peer == kAnySource || r->peer == src) &&
           (r->tag == kAnyTag || r->tag == tag);
  }

  /// CPU copy cost of `len` bytes through a bounce buffer (flat model for
  /// the bounce side; the user-buffer side is charged placement-aware via
  /// MemorySystem::stream).
  TimePs flat_copy_cost(std::uint64_t len) const;

  std::uint64_t peer_index(int peer) const;  // dense index among IB peers

  /// Flow-event plumbing: a deterministic id shared by the send-side "s"
  /// and recv-side "f" records of one message (src, dst, seq).
  std::uint64_t flow_id(int src, int dst, std::uint32_t seq) const {
    return ((static_cast<std::uint64_t>(src) *
                 static_cast<std::uint64_t>(size()) +
             static_cast<std::uint64_t>(dst))
            << 32) |
           seq;
  }
  void register_metrics();

  template <typename T>
  static T apply_op(T a, T b, ReduceOp op) {
    switch (op) {
      case ReduceOp::Sum: return a + b;
      case ReduceOp::Max: return a > b ? a : b;
      case ReduceOp::Min: return a < b ? a : b;
    }
    IBP_FAIL("bad reduce op");
  }

  /// Accounts the outermost MPI call only, so collectives built on p2p
  /// are not double-counted in the profiler.
  struct ProfScope {
    Comm* c;
    const char* op;
    TimePs t0;
    ProfScope(Comm* comm, const char* name)
        : c(comm), op(name), t0(comm->env_->now()) {
      ++c->prof_depth_;
    }
    ~ProfScope() {
      if (--c->prof_depth_ == 0) {
        c->prof_.add(op, c->env_->now() - t0);
        if (sim::Tracer* tr = c->env_->cluster().tracer())
          tr->add(c->env_->rank(), "mpi", op, t0, c->env_->now() - t0);
      }
    }
  };

  core::RankEnv* env_;
  CommConfig cfg_;
  Profiler prof_;
  mutable CommStats stats_;  // stats() refreshes the QP-derived fields
  int prof_depth_ = 0;

  // Bounce buffers.
  VirtAddr send_region_ = 0;
  VirtAddr recv_region_ = 0;
  verbs::Mr send_mr_;
  verbs::Mr recv_mr_;
  std::vector<int> free_send_slots_;
  /// When the most recent slot was released (a blocked take_send_slot
  /// on another track resumes at this time; see Request::done_at).
  TimePs send_slot_free_t_ = 0;
  std::vector<int> ib_peers_;            // ranks reached via the HCA
  std::vector<std::uint64_t> peer_idx_;  // rank -> dense ib peer index

  // One-sided ring channels, dense-ib-peer indexed (empty unless
  // cfg.rdma_eager): ring_rx_[i] is the slab peer i writes into,
  // ring_tx_[i] the staging mirror + credit word for sends to peer i.
  std::vector<std::unique_ptr<ringchan::RingReceiver>> ring_rx_;
  std::vector<std::unique_ptr<ringchan::RingSender>> ring_tx_;
  bool ring_polling_ = false;  // reentrancy guard (progress re-entered
                               // from a handler keeps release order)
  Waker request_waker_;  // a request finished, a send slot changed hands
  std::vector<Waker*> wakers_;  // request_wakers()

  // Matching.
  std::deque<Req> posted_;
  std::deque<Unexpected> unexpected_;
  std::map<std::pair<int, std::uint64_t>, Req> rndv_recv_;  // (src, req id)
  std::map<std::uint64_t, Req> rndv_send_;                  // req id
  std::map<std::uint64_t, SendAction> send_actions_;        // wr_id
  std::uint64_t next_req_id_ = 1;
  std::uint64_t next_wr_id_ = 1;
  std::uint64_t coll_seq_ = 0;

  // Flow sequencing (per peer rank).
  std::vector<std::uint32_t> send_seq_;
  std::vector<std::uint32_t> expect_seq_;
  std::map<std::pair<int, std::uint32_t>, Unexpected> reorder_;

  // Traffic-counter probes into the cluster metrics registry; released
  // (final values latched) when this Comm dies.
  std::vector<telemetry::ProbeHandle> probes_;
};

// ---------------------------------------------------------------------------
// Typed collectives

template <typename T>
void Comm::reduce(VirtAddr sendbuf, VirtAddr recvbuf, std::uint64_t count,
                  ReduceOp op, int root) {
  ProfScope prof(this, "reduce");
  const int n = size();
  const int me = rank();
  const std::uint64_t bytes = count * sizeof(T);
  const int rel = (me - root + n) % n;
  const int ctag = 0x40000000 | static_cast<int>(coll_seq_++ & 0xFFFF);

  // Scratch buffer for incoming partial results.
  const VirtAddr tmp = env_->alloc(std::max<std::uint64_t>(bytes, 64));
  if (recvbuf != sendbuf) {
    auto* s = env_->host_ptr<T>(sendbuf, count);
    auto* d = env_->host_ptr<T>(recvbuf, count);
    for (std::uint64_t i = 0; i < count; ++i) d[i] = s[i];
    env_->touch_stream(recvbuf, bytes);
  }

  // Binomial tree: children send partial results up.
  for (int dist = 1; dist < n; dist <<= 1) {
    if (rel & dist) {
      const int parent = (rel - dist + root + n) % n;
      send(recvbuf, bytes, parent, ctag);
      break;
    }
    const int child_rel = rel + dist;
    if (child_rel < n) {
      const int child = (child_rel + root) % n;
      recv(tmp, bytes, child, ctag);
      auto* d = env_->host_ptr<T>(recvbuf, count);
      auto* s = env_->host_ptr<T>(tmp, count);
      for (std::uint64_t i = 0; i < count; ++i)
        d[i] = apply_op(d[i], s[i], op);
      env_->compute(count);
      env_->touch_stream(recvbuf, bytes);
    }
  }
  env_->dealloc(tmp);
}

template <typename T>
void Comm::allreduce(VirtAddr sendbuf, VirtAddr recvbuf, std::uint64_t count,
                     ReduceOp op) {
  ProfScope prof(this, "allreduce");
  reduce<T>(sendbuf, recvbuf, count, op, 0);
  bcast(recvbuf, count * sizeof(T), 0);
}

template <typename T>
void Comm::reduce_scatter(VirtAddr sendbuf, VirtAddr recvbuf,
                          std::uint64_t count_per_rank, ReduceOp op) {
  ProfScope prof(this, "reduce_scatter");
  const int n = size();
  const std::uint64_t total = count_per_rank * static_cast<std::uint64_t>(n);
  const VirtAddr tmp = env_->alloc(
      std::max<std::uint64_t>(total * sizeof(T), 64));
  reduce<T>(sendbuf, tmp, total, op, 0);
  scatter(tmp, count_per_rank * sizeof(T), recvbuf, 0);
  env_->dealloc(tmp);
}

template <typename T>
void Comm::scan(VirtAddr sendbuf, VirtAddr recvbuf, std::uint64_t count,
                ReduceOp op) {
  ProfScope prof(this, "scan");
  const int me = rank();
  const std::uint64_t bytes = count * sizeof(T);
  const int ctag = 0x40000000 | static_cast<int>(coll_seq_++ & 0xFFFF);

  // Linear pipeline: receive the prefix from the left, fold own
  // contribution, pass to the right.
  if (recvbuf != sendbuf) {
    auto* s = env_->host_ptr<T>(sendbuf, count);
    auto* d = env_->host_ptr<T>(recvbuf, count);
    for (std::uint64_t i = 0; i < count; ++i) d[i] = s[i];
    env_->touch_stream(recvbuf, bytes);
  }
  if (me > 0) {
    const VirtAddr tmp = env_->alloc(std::max<std::uint64_t>(bytes, 64));
    recv(tmp, bytes, me - 1, ctag);
    auto* d = env_->host_ptr<T>(recvbuf, count);
    auto* p = env_->host_ptr<T>(tmp, count);
    for (std::uint64_t i = 0; i < count; ++i) d[i] = apply_op(p[i], d[i], op);
    env_->compute(count);
    env_->touch_stream(recvbuf, bytes);
    env_->dealloc(tmp);
  }
  if (me + 1 < size()) send(recvbuf, bytes, me + 1, ctag);
}

}  // namespace ibp::mpi
