#pragma once

// ibp_rpc — a request/response serving layer over the simulated MPI
// transport, exercising the paper's data-placement machinery on a
// datacenter-style workload instead of HPC collectives:
//
//   * requests are framed with a fixed 24-byte wire header and carried
//     over the eager path; queued small requests coalesce into one
//     gather work request of at most mpi::Comm::kMaxSges SGEs — the §7
//     scatter/gather feature applied to RPC batching,
//   * request and response slot rings and out-of-band response bodies
//     are allocated through hugepage::Library, so they land on the
//     hugepage tier exactly when the paper's 32 KB threshold says so,
//   * flow control is credit-based (a client bounds its un-responded
//     requests), admission control sheds load at the server with an
//     explicit Overloaded status instead of queueing without bound, and
//     accepted requests drain through per-tenant two-class priority
//     queues (latency-sensitive ahead of bulk, tenants round-robin),
//   * responses that fit a slot ride the batched eager path; larger
//     ones take the rendezvous path on a per-request tag, exactly the
//     split the paper measures registration costs on.
//
// Everything runs in virtual time on one simulated rank per endpoint:
// RpcServer::serve() is the server rank's program; RpcClient is polled
// from the client rank's program (see ibp::loadgen for generators).

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ibp/common/stats.hpp"
#include "ibp/common/types.hpp"
#include "ibp/common/waker.hpp"
#include "ibp/hca/config.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/ringchan/ringchan.hpp"
#include "ibp/sim/engine.hpp"
#include "ibp/telemetry/registry.hpp"

namespace ibp::telemetry {
class RequestTracer;
}

namespace ibp::rpc {

/// Request priority class. Latency-sensitive requests flush ahead of
/// bulk at the client and are served ahead of bulk at the server.
enum class Class : std::uint8_t { Latency = 0, Bulk = 1 };

/// Response status.
enum class Status : std::uint8_t {
  Ok = 0,
  /// Admission control shed the request: the server's accepted-request
  /// queue was at RpcConfig::server_queue_cap, so instead of queueing
  /// without bound it answered immediately with this status.
  Overloaded = 1,
  /// The client gave up on the request: it exhausted its retransmission
  /// budget without a response (RpcConfig::fail_timed_out), or the link
  /// was abandoned after its server was declared dead (the fabric
  /// failover path). Local verdict — the server never answered.
  TimedOut = 2,
};

/// On-the-wire record header (request and response direction). A batch
/// is the concatenation of (WireHeader, payload) records.
struct WireHeader {
  std::uint64_t id = 0;            // client-assigned, echoed by responses
  std::uint32_t payload = 0;       // payload bytes following this header
  std::uint32_t response_cap = 0;  // request: response bytes the client
                                   // expects; large response: actual size
  std::uint32_t tenant = 0;
  std::uint8_t cls = 0;     // Class
  std::uint8_t status = 0;  // Status (response direction)
  std::uint16_t flags = 0;
};
static_assert(sizeof(WireHeader) == 24, "wire header is 24 bytes");

inline constexpr std::uint16_t kFlagClose = 1;  // client is done; no reply
inline constexpr std::uint16_t kFlagLarge = 2;  // response body follows on
                                                // its own tag (rendezvous)
inline constexpr std::uint16_t kFlagStripe = 4; // payload starts with a
                                                // fabric stripe sub-header
/// Reserved trace-context bit: the request belongs to the per-request
/// tracing stream (core::ClusterConfig::request_trace). Echoed on the
/// response and propagated through fabric stripe segments. The trace id
/// itself never travels — (src rank, dst rank, rpc id) resolves the
/// record through the hub's wire index — so the header stays 24 bytes
/// and timing is identical with tracing on or off.
inline constexpr std::uint16_t kFlagTraced = 8;
/// Ring-channel control record (RpcConfig::rdma_response). Request
/// direction: the payload is the client's response-ring descriptor
/// (ringchan::RingDescriptor). Response direction: the payload is the
/// server's credit-word descriptor (ringchan::CreditDescriptor). Control
/// records bypass admission, stats and the request/response drain
/// accounting.
inline constexpr std::uint16_t kFlagRing = 16;

inline constexpr int kReqTag = 0x21000000;
inline constexpr int kRspTag = 0x22000000;
/// Tag a large (rendezvous) response body travels on.
inline constexpr int large_tag(std::uint64_t id) {
  return 0x23000000 | static_cast<int>(id & 0xFFFFF);
}

struct RpcConfig {
  /// Coalesce queued requests into one gather WR. Off, every request is
  /// its own message (one header SGE + one payload SGE per WR).
  bool batching = true;
  std::uint32_t max_batch_requests = 16;
  /// Wire bytes (headers included) that force a flush. Must fit the
  /// eager path; mpi::Comm::kMaxSges further splits the WR.
  std::uint64_t max_batch_bytes = 4 * kKiB;
  /// Virtual-time age of the oldest queued request that forces a flush
  /// on the next poll, so a trickle of requests is not held hostage by
  /// the count/bytes thresholds.
  TimePs flush_timeout = us(5);
  /// Credit-based flow control: a client keeps at most this many
  /// un-responded requests on the wire; flushes wait for credits.
  std::uint32_t credits = 64;
  /// Client-side bound on queued-but-unsent requests. submit() beyond
  /// it rejects locally (ClientStats::rejected) — open-loop generators
  /// observe backpressure instead of buffering without bound.
  std::uint32_t client_queue_cap = 256;
  /// Server admission bound on accepted-but-unserved requests. Beyond
  /// it, requests are shed with Status::Overloaded.
  std::uint32_t server_queue_cap = 128;
  /// Per-request payload bound (slot capacity). Responses above it take
  /// the large path (rendezvous on a per-request tag).
  std::uint32_t max_payload = 2 * kKiB;
  /// Application service time: base + per-byte over the request payload.
  TimePs service_base = us(2);
  std::uint64_t service_per_byte_ps = 250;  // 250 ps/B = 4 GB/s
  /// Request timeout: an un-responded request older than this (measured
  /// from its flush, doubling on every attempt) is retransmitted, up to
  /// max_retries times. The transport never loses a message end-to-end
  /// (RC retransmission and Repost recovery sit below), so retries rescue
  /// tail latency under fault-injected delay; the duplicate response the
  /// original eventually produces is counted and dropped. 0 = no
  /// timeouts, the legacy behaviour.
  TimePs request_timeout = 0;
  std::uint32_t max_retries = 1;
  /// With request_timeout armed: a request that exhausts max_retries
  /// without a response completes locally with Status::TimedOut (credits
  /// freed, a late response dropped as a duplicate) instead of waiting
  /// for the transport forever. The failure-detection primitive the
  /// fabric health monitor builds on; off (the default) preserves the
  /// legacy wait-forever behaviour bit-exactly.
  bool fail_timed_out = false;
  /// Dispatcher-fed worker pool: with N > 0 the server rank spawns N sim
  /// tracks that pull parsed requests from the admission queue and run
  /// service + handler concurrently (in virtual time), while the calling
  /// track becomes a dispatcher doing ingest/parse/flush/reclaim. 0 (the
  /// default) serves inline on the calling track — the legacy behaviour,
  /// bit-exact with earlier runs.
  std::uint32_t server_workers = 0;
  /// How worker tracks share the server's QPs/CQs (see hca::ShareMode):
  /// SharedLocked charges lock + cache-bounce arbitration per post/poll,
  /// PerThreadQp gives each worker its own response slot ring (placement-
  /// visible footprint) and uncontended posts, Dispatcher funnels every
  /// response through the dispatcher track at dispatcher_handoff cost.
  hca::ShareMode share_mode = hca::ShareMode::SharedLocked;
  /// Hand-off cost per response pushed from a worker track to the
  /// dispatcher track (ShareMode::Dispatcher only): queue write + wakeup.
  TimePs dispatcher_handoff = ns(400);
  /// One-sided response fast path (EXT-RDMA): the client owns a
  /// ring slab (allocated through hugepage::Library) the server RDMA-writes
  /// response records into; the client discovers them by polling ring
  /// memory — no response batching, no posted receive on the hot path —
  /// and returns credit by RDMA-writing its consumed-up-to counter.
  /// Responses that find the ring out of credit fall back to the batched
  /// two-sided path. Off (the default) is bit-inert.
  bool rdma_response = false;
  /// Response-ring slab bytes per (client, server) pair when
  /// rdma_response is on (grown automatically if the largest response
  /// record would not leave credit slack).
  std::uint64_t response_ring_bytes = 64 * kKiB;
};

/// One completed request, as observed by the client.
struct Completion {
  std::uint64_t id = 0;
  Status status = Status::Ok;
  TimePs latency = 0;  // submit() to response parse, virtual time
  std::vector<std::uint8_t> payload;  // response bytes (empty when shed)
};

/// The completion hand-over RpcClient and fabric::FabricClient share. It
/// issues request ids and holds each finished request's record from the
/// moment the request completes until a caller takes it: a record is
/// handed over once, never kept. What outlives the take is per-id state
/// (the issue watermark and the ids still open), so completed() and the
/// late-duplicate check need no record.
class Handover {
 public:
  /// A fresh request id, open until complete(). Ids start at 1; 0 is what
  /// a rejected submit returns.
  std::uint64_t issue() {
    open_.push_back(next_id_);
    return next_id_++;
  }
  /// Close `c.id` and hold its record until it is taken.
  void complete(Completion c);
  /// Issued and complete, whether or not its record was taken.
  bool completed(std::uint64_t id) const;
  /// The untaken record for `id`, or nullptr.
  const Completion* find(std::uint64_t id) const;
  /// Fail, naming `id`, unless a wait on it can end: `id` is open or its
  /// record is untaken. `client` names the id space ("rpc", "fabric").
  void check_waitable(std::uint64_t id, const char* client) const;
  /// Move the untaken record for `id` out (find(id) must see it).
  Completion take(std::uint64_t id);
  /// Move every untaken record out, in completion order.
  std::vector<Completion> take_all();
  bool empty() const { return untaken_.empty(); }
  /// Fires whenever a record appears. A take fires nothing: whoever takes
  /// records that another lane's wait reads through find() hands that
  /// lane what it read, so its ready time survives the take.
  Waker& waker() { return waker_; }

 private:
  /// Issued and not complete yet.
  bool open(std::uint64_t id) const;

  std::uint64_t next_id_ = 1;
  std::vector<std::uint64_t> open_;  // issued, not complete; ascending
  std::vector<Completion> untaken_;  // complete, not taken; in that order
  Waker waker_;
};

struct ClientStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  // local queue full at submit()
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;  // completions with Status::Overloaded
  std::uint64_t large_responses = 0;
  std::uint64_t credit_stalls = 0;  // flushes deferred for want of credits
  std::uint64_t retries = 0;        // timed-out requests retransmitted
  std::uint64_t duplicates = 0;     // late responses dropped after a retry
  std::uint64_t timed_out = 0;      // requests failed with Status::TimedOut
  std::uint64_t ring_completions = 0;  // responses parsed from the ring
  std::uint64_t ring_credit_returns = 0;  // credit words RDMA-written back
};

struct ServerStats {
  std::uint64_t batches_in = 0;
  std::uint64_t requests_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t served = 0;
  std::uint64_t responses = 0;
  std::uint64_t resp_batches = 0;
  std::uint64_t large_responses = 0;
  std::uint64_t queue_peak = 0;
  std::uint64_t closes = 0;
  std::uint64_t discarded = 0;  // records dropped while crashed (no reply)
  std::uint64_t ring_responses = 0;   // responses RDMA-written into rings
  std::uint64_t ring_fallbacks = 0;   // ring out of credit -> batched path
};

/// What the server hands the application handler.
struct RequestView {
  std::uint32_t tenant = 0;
  Class cls = Class::Latency;
  const std::uint8_t* payload = nullptr;
  std::uint32_t payload_len = 0;
  std::uint32_t response_cap = 0;
  /// Request wire flags, passed through verbatim (kFlagStripe marks a
  /// fabric stripe sub-header at the start of the payload).
  std::uint16_t flags = 0;
};

/// Application handler: fill `out` (capacity `out_cap` = max(response_cap,
/// payload_len, 1)) and return the response length (<= out_cap). The
/// default handler echoes the payload, padded/truncated to response_cap
/// when the request asks for a specific response size.
using Handler = std::function<std::uint32_t(const RequestView&,
                                            std::uint8_t* out,
                                            std::uint32_t out_cap)>;

/// The handler RpcServer installs when given none: echo the payload,
/// padded or truncated to response_cap when the request asks for a
/// specific response size. Exposed so wrappers (ibp::fabric) can fall
/// through to the same behaviour.
Handler default_handler();

class RpcClient {
 public:
  RpcClient(mpi::Comm& comm, int server, RpcConfig cfg = {});
  ~RpcClient();

  /// Enqueue one request. Returns the request id, or 0 when the client
  /// queue is full (request rejected, counted in stats().rejected).
  /// `payload` may be empty; `response_cap` asks the server for a
  /// response of that size (0 = echo-sized). `flags` travel verbatim in
  /// the wire header (kFlagStripe marks fabric stripe framing).
  std::uint64_t submit(std::span<const std::uint8_t> payload,
                       std::uint32_t response_cap = 0,
                       Class cls = Class::Latency, std::uint32_t tenant = 0,
                       std::uint16_t flags = 0);

  /// Non-blocking progress: reclaim send slots, flush on thresholds or
  /// the flush_timeout deadline, ingest arrived response batches.
  void poll();

  /// Whether `id` completed, whether or not its record was taken.
  bool completed(std::uint64_t id) const { return done_.completed(id); }

  /// The untaken completion record for `id`, or nullptr while `id` is
  /// outstanding and once its record was taken. Non-blocking and
  /// side-effect free — usable from wait ready functions (tracked
  /// closed-loop workers watch their own ids while another track runs
  /// the poll loop), which name completion_waker().
  const Completion* find_completion(std::uint64_t id) const {
    return done_.find(id);
  }

  /// Fires whenever a completion record appears. A take fires nothing: a
  /// lane that takes records while another lane waits on one through
  /// find_completion() must hand the waiter the record's latency
  /// (ibp::loadgen's tracked workers do), so its ready time survives.
  Waker& completion_waker() { return done_.waker(); }

  /// Block (in virtual time) until `id` completes, then take its record:
  /// returned by value, it is no longer held (find_completion is null,
  /// take_completions skips it). Fails fast on an id this client never
  /// issued or has already handed over.
  Completion wait(std::uint64_t id);

  /// Block until at least one untaken completion record exists (requires
  /// work outstanding).
  void wait_some();

  /// Move every untaken completion record out, in completion order. The
  /// client keeps none of them.
  std::vector<Completion> take_completions() { return done_.take_all(); }

  /// Force-flush queued requests now (thresholds bypassed), reclaiming
  /// send slots and retransmitting timed-out requests first. Multi-link
  /// callers (ibp::fabric) use it before blocking on response arrival.
  void flush();

  /// Flush everything and wait for every outstanding response.
  void drain();

  /// drain(), then tell the server this client is finished. The client
  /// is unusable afterwards.
  void close();

  std::uint64_t outstanding() const {
    return inflight_.size() + queued_[0].size() + queued_[1].size();
  }
  const ClientStats& stats() const { return stats_; }
  /// Latency of Ok completions, nanosecond units.
  const LogHistogram& latency() const { return lat_; }
  const RpcConfig& config() const { return cfg_; }
  mpi::Comm& comm() const { return *comm_; }

  /// The posted response receive, or null when nothing is inflight.
  /// Exposed so a multi-link caller (ibp::fabric) can block on "any of my
  /// links answered" with one waitany instead of serialising on one link.
  const mpi::Req& response_req() const { return rsp_req_; }

  /// Fail every queued and inflight request locally with Status::TimedOut,
  /// right now — the fabric drain step after its health monitor declares
  /// this link's server dead. Requires fail_timed_out. The link stays
  /// usable (the transport is healthy; only the peer process is gone), so
  /// re-admission probes and close() still work.
  void abandon();

  /// Earliest armed retransmit/expiry deadline among inflight requests,
  /// or nullopt. Side-effect free — a multi-link caller's wait ready
  /// function uses it so link timeouts fire even when no transport event
  /// is pending (a dead server produces none).
  std::optional<TimePs> next_deadline() const;

  /// Whether the one-sided response ring is active on this link. A
  /// multi-link caller must then block with a composite wait
  /// (response_req + next_ring_visible + transport events) instead of
  /// waitany on response_req alone: ring responses never complete a recv.
  bool ring_enabled() const { return ring_rx_ != nullptr; }

  /// Virtual arrival time of the earliest ring record not yet visible,
  /// or nullopt (also when the tier is off). Side-effect free; a wait
  /// that reads it names ring_waker().
  std::optional<TimePs> next_ring_visible() const {
    return ring_rx_ != nullptr ? ring_rx_->next_visible() : std::nullopt;
  }
  /// The response ring's Waker, or null when the tier is off.
  Waker* ring_waker() {
    return ring_rx_ != nullptr ? &ring_rx_->waker() : nullptr;
  }

 private:
  struct Pending {
    std::uint64_t id = 0;
    std::uint32_t slot = 0;
    std::uint64_t wire = 0;  // header + payload bytes
    TimePs t = 0;            // submit time (latency zero point)
    bool retry = false;  // retransmission of an already-inflight id
  };
  struct Inflight {
    TimePs t0 = 0;        // submit time (latency zero point)
    TimePs deadline = 0;  // next timeout check (0 = not armed)
    std::uint32_t attempts = 0;
    std::uint32_t tenant = 0;
    std::uint8_t cls = 0;
    std::uint32_t response_cap = 0;
    std::uint16_t flags = 0;
    /// Request-trace id (0 = untraced), resolved from the hub's wire
    /// index at first flush and carried so the response parse can close
    /// the record without a lookup.
    std::uint64_t trace = 0;
    /// Copy kept for retransmission; only populated when
    /// cfg_.request_timeout is armed.
    std::vector<std::uint8_t> payload;
  };
  struct SentBatch {
    mpi::Req req;
    std::vector<std::uint32_t> slots;
  };

  VirtAddr slot_va(std::uint32_t slot) const;
  void reclaim_batches();
  /// Flush queued requests while thresholds (or `force`) say so and
  /// credits allow. Latency-class requests flush ahead of bulk.
  void maybe_flush(bool force);
  /// Retransmit inflight requests whose timeout deadline passed.
  void check_timeouts();
  /// Complete inflight request `id` locally with Status::TimedOut.
  void expire(std::uint64_t id);
  /// Block until a response arrival, transport event or timeout deadline
  /// (whichever is earliest), then ingest non-blockingly. The
  /// fail_timed_out replacement for blocking inside the transport.
  void progress_block();
  void ensure_rsp_posted();
  /// Ingest one arrived response batch; returns false if none arrived.
  bool try_ingest(bool blocking);
  void parse_responses(std::uint64_t len);
  /// Parse one response record at `rec` (header + body), shared between
  /// the batched two-sided path and the ring fast path so completion,
  /// duplicate, large-response and trace handling are identical.
  void parse_one(VirtAddr rec);
  /// Sweep the response ring: parse every visible record, release ring
  /// space and RDMA-write the credit word back when due. Returns true if
  /// anything was parsed.
  bool try_ring_ingest();
  void register_metrics();

  mpi::Comm* comm_;
  int server_;
  RpcConfig cfg_;
  /// Per-request tracing hub (null = tracing disabled, bit-inert).
  telemetry::RequestTracer* hub_ = nullptr;
  std::uint64_t slot_bytes_ = 0;
  std::uint32_t nslots_ = 0;
  VirtAddr ring_ = 0;    // request slot ring
  VirtAddr rspbuf_ = 0;  // response-batch landing buffer
  std::uint64_t rsp_cap_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::deque<Pending> queued_[2];  // unsent, by class
  std::uint64_t queued_bytes_ = 0;
  std::map<std::uint64_t, Inflight> inflight_;
  std::vector<SentBatch> sent_;
  bool reclaiming_ = false;  // reclaim_batches is not reentrant
  mpi::Req rsp_req_;  // posted iff inflight work may still answer
  /// Request records put on the wire / response records parsed. With
  /// retries armed these diverge by the duplicate responses still in
  /// flight; drain() waits until they match so no response batch is left
  /// unreceived at teardown. Records expired with Status::TimedOut are
  /// forgiven (expired_records_) — a dead server never answers them.
  std::uint64_t flushed_records_ = 0;
  std::uint64_t parsed_records_ = 0;
  std::uint64_t expired_records_ = 0;
  Handover done_;
  ClientStats stats_;
  LogHistogram lat_;
  std::vector<telemetry::ProbeHandle> probes_;
  bool closed_ = false;
  /// Response ring (cfg_.rdma_response): receiver half owned here, the
  /// server RDMA-writes response records in. Null when the tier is off.
  std::unique_ptr<ringchan::RingReceiver> ring_rx_;
  std::vector<ringchan::RingReceiver::Record> ring_recs_;  // poll scratch
  /// Fires when a flush arms a request deadline: a sibling track's
  /// submit may flush while the poll loop's blocking ingest waits.
  Waker deadline_waker_;
  /// What the blocking ingest waits name: the transport's request Wakers
  /// (transport events and the response receive), the deadlines' and the
  /// response ring's.
  std::vector<Waker*> block_wakers_;
};

class RpcServer {
 public:
  /// `clients` are the ranks that will connect; serve() runs until each
  /// of them sent its close record and every response drained.
  RpcServer(mpi::Comm& comm, std::vector<int> clients, RpcConfig cfg = {},
            Handler handler = {});
  ~RpcServer();

  void serve();

  const ServerStats& stats() const { return stats_; }
  const RpcConfig& config() const { return cfg_; }
  /// Accepted-but-unserved requests right now (a congestion signal the
  /// fabric layer exports as a telemetry probe).
  std::uint64_t queue_depth() const { return queued_; }

 private:
  struct Item {
    std::uint32_t client = 0;  // index into clients_
    std::uint64_t id = 0;
    std::uint32_t tenant = 0;
    Class cls = Class::Latency;
    std::uint32_t response_cap = 0;
    std::uint16_t flags = 0;
    TimePs t = 0;  // accepted-at time (worker wakeup predicate)
    std::uint64_t trace = 0;  // request-trace id (0 = untraced)
    std::vector<std::uint8_t> payload;
  };
  struct RspRec {
    std::uint32_t slot = 0;
    std::uint64_t wire = 0;
  };
  struct SentBatch {
    mpi::Req req;
    std::vector<std::uint32_t> slots;
  };
  struct LargeSend {
    mpi::Req req;
    VirtAddr buf = 0;
  };
  /// One response-side posting lane: a slot ring plus its per-client
  /// pending queues and in-flight batches. Lane 0 is the server's shared
  /// ring (the only lane unless ShareMode::PerThreadQp gives each worker
  /// its own — multiplying the placement-visible ring footprint).
  struct RspLane {
    VirtAddr ring = 0;
    std::vector<std::uint32_t> free_slots;
    std::vector<std::deque<RspRec>> pending;   // per client
    std::vector<std::uint64_t> pending_bytes;  // per client
    std::vector<SentBatch> sent;
  };
  /// A served response handed from a worker track to the dispatcher
  /// track (ShareMode::Dispatcher).
  struct Handoff {
    std::uint32_t client = 0;
    WireHeader hdr;
    TimePs t = 0;  // hand-off time (dispatcher wakeup predicate)
    std::vector<std::uint8_t> body;
  };

  VirtAddr rsp_slot_va(const RspLane& lane, std::uint32_t slot) const;
  VirtAddr recv_va(std::uint32_t client) const;
  void post_recv(std::uint32_t client);
  /// Non-blocking: ingest every arrived request batch.
  void ingest();
  void parse_batch(std::uint32_t client, std::uint64_t len);
  void shed(std::uint32_t client, const WireHeader& hdr);
  /// Serve the highest-priority queued request (per-tenant round-robin
  /// inside a class, Latency class first).
  void serve_one();
  bool pop_next(Item& out);
  /// Service + handler + response path for one accepted request, using
  /// `scratch` for handler output and `lane` for the response ring.
  void serve_item(const Item& it, std::vector<std::uint8_t>& scratch,
                  RspLane& lane, bool via_dispatcher);
  void enqueue_response(RspLane& lane, std::uint32_t client,
                        const WireHeader& hdr, const std::uint8_t* payload);
  /// Ring fast path (cfg_.rdma_response): RDMA-write the response record
  /// straight into the client's ring slab, bypassing the slot/batch
  /// machinery. Returns false (caller falls back to the batched path)
  /// when the client never sent a ring descriptor, the ring is out of
  /// credit, or the server is crashed.
  bool try_ring_response(std::uint32_t client, const WireHeader& hdr,
                         const std::uint8_t* payload);
  std::uint32_t take_rsp_slot(RspLane& lane);
  void flush_client(RspLane& lane, std::uint32_t client, bool force);
  void flush_all(bool force);
  /// Sweep completed response batches (all lanes) and large sends,
  /// returning their slots/buffers. Non-blocking.
  void reclaim_sent();
  void register_metrics();
  /// Is this rank's server process crashed right now (a fault-plan
  /// crash directive without a later recover)? While crashed the server
  /// ingests wire traffic (the transport below is healthy — only the
  /// process is gone) but discards every request silently: no response,
  /// no shed, exactly the black hole a failed peer looks like. Close
  /// records are still honoured so runs terminate deterministically.
  bool crashed_now() const;

  /// Legacy inline loop (cfg_.server_workers == 0): the calling track
  /// ingests, serves and flushes by itself.
  void serve_inline();
  /// Dispatcher-fed worker pool (cfg_.server_workers > 0).
  void serve_pooled();
  void worker_main(sim::Context& sc, std::uint32_t w);
  /// Earliest accepted-at time among queued items (worker wakeup).
  std::optional<TimePs> earliest_work() const;
  /// A worker's signal to the dispatcher: raise worker_event_ to `t`
  /// unless a signal is already pending.
  void signal_dispatcher(TimePs t);
  void drain_handoffs();
  RspLane& worker_lane(std::uint32_t w);
  void make_lane(RspLane& lane);
  void drop_lane(RspLane& lane);

  mpi::Comm* comm_;
  std::vector<int> clients_;
  RpcConfig cfg_;
  Handler handler_;
  /// Per-request tracing hub (null = tracing disabled, bit-inert).
  telemetry::RequestTracer* hub_ = nullptr;
  std::uint64_t slot_bytes_ = 0;
  std::uint64_t recv_cap_ = 0;
  std::uint32_t n_rsp_slots_ = 0;
  VirtAddr recv_region_ = 0;  // one landing slot per client
  std::vector<RspLane> lanes_;      // [0] = shared response ring
  std::vector<mpi::Req> rreqs_;     // per client; null once closed
  std::vector<bool> open_;
  std::uint32_t open_clients_ = 0;
  // Two-class priority queues, per tenant, served round-robin.
  std::map<std::uint32_t, std::deque<Item>> queues_[2];
  std::uint32_t rr_cursor_[2] = {0, 0};
  std::uint64_t queued_ = 0;  // accepted, unserved
  std::vector<LargeSend> large_;
  bool reclaiming_ = false;  // reclaim_sent is not reentrant
  std::vector<std::uint8_t> scratch_;  // handler output staging (inline)
  // --- worker-pool state (cfg_.server_workers > 0 only) ---
  std::vector<std::vector<std::uint8_t>> wscratch_;  // per-worker staging
  std::deque<Handoff> handoffs_;  // worker -> dispatcher responses
  std::uint32_t busy_workers_ = 0;
  bool stopping_ = false;
  TimePs stop_time_ = 0;
  TimePs worker_event_ = 0;  // earliest un-acknowledged worker signal
  Waker admission_;          // fires when queues_ or stopping_ change
  Waker worker_signal_;      // fires when a worker pushes to handoffs_ or
                             // raises worker_event_
  ServerStats stats_;
  std::vector<telemetry::ProbeHandle> probes_;
  /// Per-client ring sender halves (cfg_.rdma_response); an entry stays
  /// null until that client's kFlagRing descriptor record arrives.
  std::vector<std::unique_ptr<ringchan::RingSender>> ring_tx_;
  std::vector<mpi::Req> ring_writes_;  // outstanding one-sided responses
};

}  // namespace ibp::rpc
