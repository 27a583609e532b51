#pragma once

// ibp_fabric — a sharded multi-server serving fabric over ibp_rpc.
//
// One server rank is a toy against a fleet-scale workload; this layer
// turns the single-server RPC path into a sharded fleet while every
// buffer it allocates still goes through hugepage::Library:
//
//   * ShardMap — deterministic tenant -> server routing with pluggable
//     strategies (hash / range / affinity) and an explicit epoch, so a
//     future reshard is a config change, not a code change,
//   * FabricClient — one RpcClient per server rank ("link"). Requests
//     route to the tenant's home shard; bulk responses above the stripe
//     threshold are split into stripe-segment chunks fanned out over
//     several links (the multi-rail idea: many QPs move one payload) and
//     reassembled through one stripe buffer per stripe inside a bounded
//     client-side reassembly window,
//   * FabricServer — an RpcServer whose handler serves stripe segments
//     out of a lazily-allocated shard arena, exporting queue depth and
//     stripe counters as fabric.* telemetry probes.
//
// Segment sizing is the hugepage heap's chunk (the 4 KB carve granularity
// hugepage::Library carves with), clamped to the RPC slot payload so
// segments always ride the batched eager path; link choice is
// congestion-aware (least outstanding among the stripe's fan-out set,
// deterministic tie-break by rotation from the shard home).
//
// A 1-server fabric with no striped traffic is a transparent passthrough:
// identical wire bytes, identical virtual time, identical completion ids
// to driving the underlying RpcClient directly (the golden-equivalence
// contract bench/ext_fabric_scale asserts).

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ibp/common/stats.hpp"
#include "ibp/common/types.hpp"
#include "ibp/common/waker.hpp"
#include "ibp/rpc/rpc.hpp"

namespace ibp::fabric {

// ---------------------------------------------------------------------------
// ShardMap

enum class ShardStrategy : std::uint8_t {
  Hash,      // mixed hash of the tenant id, uniform spread
  Range,     // contiguous tenant ranges per server
  Affinity,  // tenant groups (tenant >> 4) co-located on one server
};

const char* shard_strategy_name(ShardStrategy s);
std::optional<ShardStrategy> shard_strategy_from_name(std::string_view name);

/// Deterministic tenant -> server routing. Pure function of
/// (servers, strategy, seed, excluded set): every client computes the
/// same map with no coordination. The epoch counts handoffs — every
/// exclude()/readmit() bumps it — so two endpoints can cheaply agree
/// they are on the same revision via digest().
///
/// Remapping is minimal by construction: a tenant's home is its
/// base-strategy home whenever that server is alive, so excluding one
/// server moves only the tenants homed there (displaced tenants rehash
/// deterministically over the survivors, whole affinity groups moving
/// together), and readmitting it restores the original homes exactly.
class ShardMap {
 public:
  ShardMap(std::uint32_t servers, ShardStrategy strategy = ShardStrategy::Hash,
           std::uint64_t seed = 42, std::uint32_t epoch = 0);

  /// The server index (0..servers-1) owning `tenant`. Never an excluded
  /// server.
  std::uint32_t home(std::uint32_t tenant) const;

  /// Remove a server from the rotation (failover) / return it (recovery).
  /// Both bump the epoch. At least one server must stay alive.
  void exclude(std::uint32_t server);
  void readmit(std::uint32_t server);
  bool excluded(std::uint32_t server) const {
    return !excluded_.empty() && excluded_[server];
  }
  std::uint32_t alive() const;

  std::uint32_t servers() const { return servers_; }
  ShardStrategy strategy() const { return strategy_; }
  std::uint64_t seed() const { return seed_; }
  std::uint32_t epoch() const { return epoch_; }

  /// Deterministic fingerprint of the routing function (FNV-1a over the
  /// homes of a fixed tenant sample, the epoch and the exclusion mask) —
  /// what tests and benches compare to assert two endpoints agree on the
  /// map.
  std::uint64_t digest() const;

 private:
  std::uint32_t base_home(std::uint32_t tenant) const;

  std::uint32_t servers_;
  ShardStrategy strategy_;
  std::uint64_t seed_;
  std::uint32_t epoch_;
  std::vector<bool> excluded_;  // empty until the first exclude()
};

// ---------------------------------------------------------------------------
// Stripe framing

/// Sub-header at the start of a striped sub-request's payload (the wire
/// header's kFlagStripe announces it). The server returns the segment's
/// bytes; the client reassembles segments by (fabric_id, seg_index).
struct StripeHeader {
  std::uint64_t fabric_id = 0;
  std::uint32_t total_len = 0;  // full striped response size
  std::uint32_t seg_off = 0;    // this segment's offset in the response
  std::uint32_t seg_len = 0;
  std::uint16_t seg_index = 0;
  std::uint16_t seg_count = 0;
};
static_assert(sizeof(StripeHeader) == 24, "stripe header is 24 bytes");

/// The deterministic byte a striped response carries at `off` — produced
/// by FabricServer, verifiable by any client that knows the request.
inline std::uint8_t stripe_byte(std::uint64_t fabric_id, std::uint32_t tenant,
                                std::uint64_t off) {
  return static_cast<std::uint8_t>(fabric_id * 131 + tenant * 29 + off * 7 +
                                   1);
}

// ---------------------------------------------------------------------------
// Config

struct FabricConfig {
  /// Per-link RPC configuration (every link and the servers share it).
  rpc::RpcConfig rpc;
  /// Responses larger than this are striped across links. Must exceed
  /// nothing in particular — but segments are capped at rpc.max_payload,
  /// so a threshold below it just stripes more of the traffic.
  std::uint64_t stripe_threshold = 8 * kKiB;
  /// Max links one response fans out over (clamped to the server count).
  std::uint32_t stripe_width = 4;
  /// Segment payload size; 0 = hugepage::Library's carve granularity,
  /// clamped to rpc.max_payload.
  std::uint32_t segment_bytes = 0;
  /// Max stripes being reassembled concurrently; submit blocks on more.
  std::uint32_t reassembly_window = 8;
  /// Server-side shard arena, allocated lazily on the first striped
  /// request so stripe-free runs stay allocation-free.
  std::uint64_t shard_bytes = 4 * kMiB;
  /// Application cost per served stripe byte on the shard rank (storage
  /// read, checksum, ...), ps/B. This is the work striping spreads over
  /// the fleet; 4000 ps/B models a 250 MB/s per-shard backing store.
  /// Passthrough (un-striped) requests never pay it.
  std::uint64_t serve_per_byte_ps = 4000;
  ShardStrategy shard_strategy = ShardStrategy::Hash;
  std::uint64_t shard_seed = 42;
  std::uint32_t shard_epoch = 0;

  // --- Failure recovery (fail_after == 0 disables all of it: the legacy
  // single-epoch behaviour, bit-exact with earlier runs) ---

  /// Consecutive TimedOut losses on one link after which the health
  /// monitor declares its server dead: the link is abandoned, the shard
  /// map excludes the server (epoch bump) and every in-flight
  /// sub-request fails over to the survivors. Requires a nonzero
  /// rpc.request_timeout; the per-link RPC config is armed with
  /// fail_timed_out automatically.
  std::uint32_t fail_after = 0;
  /// Probe a dead server for re-admission (brownout recovery). The first
  /// probe fires probe_backoff after the death; each unanswered probe
  /// doubles the interval, capped at probe_backoff_max.
  bool readmit = true;
  TimePs probe_backoff = us(200);
  TimePs probe_backoff_max = us(3200);
  /// Per-request failover budget: a request (or stripe segment) rerouted
  /// more than this many times completes with Status::TimedOut instead
  /// of bouncing between sick servers forever.
  std::uint32_t reroute_cap = 8;
  /// Graceful degradation while short-handed: with any server dead,
  /// Bulk-class submits shed locally (Status::Overloaded) once the
  /// aggregate link backlog reaches this bound, preserving Latency-class
  /// headroom on the survivors. 0 = never shed.
  std::uint32_t degrade_outstanding = 0;
};

struct FabricClientStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;     // passthrough submits the link refused
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;         // completions with Status::Overloaded
  std::uint64_t passthrough = 0;  // un-striped requests
  std::uint64_t stripes = 0;      // striped requests
  std::uint64_t segments = 0;     // stripe sub-requests issued
  std::uint64_t reassembled_bytes = 0;
  std::uint64_t adaptive_skips = 0;  // links skipped as congested
  // --- failure recovery (all zero unless FabricConfig::fail_after) ---
  std::uint64_t failovers = 0;      // servers declared dead
  std::uint64_t rerouted = 0;       // sub-requests re-issued on survivors
  std::uint64_t timed_out = 0;      // fabric completions lost for good
  std::uint64_t degraded_shed = 0;  // bulk submits shed while degraded
  std::uint64_t probes = 0;         // re-admission probes issued
  std::uint64_t readmissions = 0;   // servers readmitted after recovery
};

/// Health-monitor verdict for one link (see DESIGN.md, "Failure
/// recovery"): Healthy -> Suspect on the first loss, Suspect -> Dead at
/// fail_after consecutive losses, Dead -> Readmitted when a probe
/// answers, Readmitted -> Healthy on the first regular completion.
enum class LinkHealth : std::uint8_t { Healthy, Suspect, Dead, Readmitted };
const char* link_health_name(LinkHealth h);

// ---------------------------------------------------------------------------
// FabricClient

class FabricClient {
 public:
  /// `servers` are the server ranks, in ShardMap index order.
  FabricClient(mpi::Comm& comm, std::vector<int> servers,
               FabricConfig cfg = {});
  ~FabricClient();

  /// Enqueue one request; returns the fabric id (0 = rejected). Routes
  /// to the tenant's home shard; a response_cap above stripe_threshold
  /// stripes the response across links (such submits never reject — they
  /// block for reassembly-window or link capacity instead).
  std::uint64_t submit(std::span<const std::uint8_t> payload,
                       std::uint32_t response_cap = 0,
                       rpc::Class cls = rpc::Class::Latency,
                       std::uint32_t tenant = 0);

  void poll();
  /// Whether `id` completed, whether or not its record was taken.
  bool completed(std::uint64_t id) const { return done_.completed(id); }
  /// The untaken completion record for `id`, or nullptr while `id` is
  /// outstanding and once its record was taken.
  const rpc::Completion* find_completion(std::uint64_t id) const {
    return done_.find(id);
  }
  /// Block until `id` completes, then take its record: returned by value,
  /// it is no longer held. Fails fast on an id this client never issued
  /// or has already handed over.
  rpc::Completion wait(std::uint64_t id);
  /// Block until at least one untaken completion record exists.
  void wait_some();
  /// Move every untaken completion record out, in completion order. The
  /// client keeps none of them.
  std::vector<rpc::Completion> take_completions() { return done_.take_all(); }
  void drain();
  void close();

  /// Fabric-level requests not yet surfaced as completions.
  std::uint64_t outstanding() const;

  const FabricClientStats& stats() const { return stats_; }
  /// Link RPC stats summed over every link (credit stalls, retries, ...).
  rpc::ClientStats link_stats() const;
  const FabricConfig& fabric_config() const { return cfg_; }
  /// The per-link RPC config (loadgen drivers read flush_timeout here,
  /// mirroring RpcClient::config()).
  const rpc::RpcConfig& config() const { return cfg_.rpc; }
  mpi::Comm& comm() const { return *comm_; }
  const ShardMap& shard_map() const { return map_; }
  rpc::RpcClient& link(std::uint32_t i) { return *links_[i]; }
  std::uint32_t nlinks() const {
    return static_cast<std::uint32_t>(links_.size());
  }
  /// Latency of Ok fabric completions, nanosecond units.
  const LogHistogram& latency() const { return lat_; }

  /// Health-monitor verdict for link `i` (always Healthy when the
  /// monitor is disarmed, i.e. cfg.fail_after == 0).
  LinkHealth link_health(std::uint32_t i) const {
    return health_.empty() ? LinkHealth::Healthy : health_[i];
  }
  /// Virtual time from the first server death to the first Ok completion
  /// after it (0 until both happened) — the recovery-time probe the
  /// failover bench asserts on.
  TimePs recovery_time() const { return recovery_ps_; }

 private:
  struct SubKey {
    std::uint64_t fabric_id = 0;
    std::uint16_t seg_index = 0;
    bool striped = false;
    bool probe = false;  // re-admission probe, not application work
  };
  /// Passthrough retry state, kept only while the health monitor is
  /// armed: everything needed to re-issue the request on a survivor.
  struct PendingReq {
    std::vector<std::uint8_t> payload;
    std::uint32_t response_cap = 0;
    rpc::Class cls = rpc::Class::Latency;
    std::uint32_t tenant = 0;
    std::uint32_t attempts = 1;
    TimePs t0 = 0;
  };
  struct Stripe {
    std::uint32_t total = 0;
    std::uint32_t seg_bytes = 0;
    std::uint16_t seg_count = 0;
    std::uint16_t remaining = 0;
    std::uint32_t tenant = 0;
    rpc::Class cls = rpc::Class::Latency;
    /// The stripe buffer the model allocates, streams and frees (the
    /// reassembly cost); its host bytes are never written.
    VirtAddr buf = 0;
    /// The response bytes: each segment is copied in once, and the whole
    /// becomes the completion's payload.
    std::vector<std::uint8_t> bytes;
    TimePs t0 = 0;
    rpc::Status status = rpc::Status::Ok;
    std::uint64_t trace = 0;  // fabric-level request-trace id (0 = off)
    /// Per-segment issue counts (failover armed only; empty otherwise).
    std::vector<std::uint32_t> attempts;
  };

  /// Non-blocking: poll every link, route arrived sub-completions.
  void pump();
  void route(std::uint32_t link, rpc::Completion&& c);
  void finalize(std::uint64_t fid, Stripe& st);
  /// Block until any link's posted response completes.
  void block_any();
  /// One blocking step. With a single link this delegates to the link's
  /// own wait_some so the virtual-time op sequence is bit-identical to a
  /// bare RpcClient (the golden-equivalence contract), unless an untaken
  /// record (with `id` nonzero: `id`'s) already ends the caller's wait;
  /// with several it force-flushes all links and waits for any response.
  void block_step(std::uint64_t id = 0);
  std::uint64_t submit_striped(std::uint32_t response_cap, rpc::Class cls,
                               std::uint32_t tenant);
  std::uint32_t pick_link(std::uint32_t start, std::uint32_t rotation,
                          std::uint32_t width);
  std::uint32_t segment_bytes() const;
  void emit(rpc::Completion&& c);
  void register_metrics();

  // --- failure recovery (no-ops unless cfg_.fail_after > 0) ---
  bool failover_armed() const { return cfg_.fail_after > 0; }
  bool degraded() const;
  /// A link answered (anything but TimedOut): reset its loss streak.
  void note_link_alive(std::uint32_t link);
  /// A sub-request on `link` timed out: advance the health state machine
  /// and queue the work for re-issue on a survivor.
  void on_timeout(std::uint32_t link, const SubKey& key);
  void on_probe(std::uint32_t link, rpc::Status status);
  void declare_dead(std::uint32_t link);
  /// Re-issue queued-for-reroute work and due re-admission probes.
  /// Non-blocking; a survivor refusing the submit leaves it queued.
  void pump_failover();
  /// Returns false when the survivor's queue refused the re-submit (the
  /// work stays queued for the next pump).
  bool reroute_passthrough(std::uint64_t fid);
  bool reroute_segment(std::uint64_t fid, std::uint16_t seg_index);
  /// Blocking step while armed: flush every link and sleep until a
  /// response arrival, transport event, link timeout deadline or due
  /// probe — whichever is earliest — then pump. Never blocks inside the
  /// transport, so timeouts fire even against a dead server.
  void failover_block();

  mpi::Comm* comm_;
  std::vector<int> servers_;
  FabricConfig cfg_;
  /// Per-request tracing hub (null = tracing disabled, bit-inert).
  telemetry::RequestTracer* hub_ = nullptr;
  ShardMap map_;
  std::vector<std::unique_ptr<rpc::RpcClient>> links_;
  /// What the blocking steps name: the transport's request Wakers
  /// (transport events and response receives) and every link's response
  /// ring's. The link deadlines and probe times they read change only on
  /// the blocking lane itself, which re-reads them when it next waits.
  std::vector<Waker*> block_wakers_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, SubKey> sub_;  // by
                                                                   // (link,
                                                                   // rpc id)
  std::map<std::uint64_t, Stripe> stripes_;
  rpc::Handover done_;
  FabricClientStats stats_;
  LogHistogram lat_;
  std::vector<telemetry::ProbeHandle> probes_;
  bool closed_ = false;

  // --- health monitor (sized only when cfg_.fail_after > 0) ---
  std::vector<LinkHealth> health_;
  std::vector<std::uint32_t> losses_;      // consecutive TimedOut streak
  std::vector<TimePs> next_probe_;         // 0 = no probe scheduled
  std::vector<TimePs> probe_backoff_;      // current per-link backoff
  std::map<std::uint64_t, PendingReq> pending_;  // fid -> retry state
  std::deque<std::uint64_t> retry_pass_;   // passthrough fids to re-issue
  std::deque<std::pair<std::uint64_t, std::uint16_t>> retry_seg_;
  bool probes_muted_ = false;  // drain(): stop re-arming probes
  TimePs death_t_ = 0;
  bool recovered_ = true;
  TimePs recovery_ps_ = 0;
};

// ---------------------------------------------------------------------------
// FabricServer

/// One shard of the fleet: an RpcServer whose handler answers stripe
/// sub-requests from a resident shard arena and delegates
/// everything else to the application handler (default: echo). Congestion
/// signals (queue depth, stripe counters, shard traffic) export as
/// fabric.* probes.
class FabricServer {
 public:
  FabricServer(mpi::Comm& comm, std::vector<int> clients,
               FabricConfig cfg = {}, rpc::Handler app = {});
  ~FabricServer();

  void serve() { server_->serve(); }

  const rpc::ServerStats& stats() const { return server_->stats(); }
  const FabricConfig& fabric_config() const { return cfg_; }
  std::uint64_t striped_segments() const { return striped_segments_; }
  std::uint64_t shard_bytes_read() const { return shard_bytes_read_; }

 private:
  std::uint32_t serve_stripe(const rpc::RequestView& rq, std::uint8_t* out,
                             std::uint32_t cap);
  void ensure_shard();
  void register_metrics();

  mpi::Comm* comm_;
  FabricConfig cfg_;
  rpc::Handler app_;
  std::unique_ptr<rpc::RpcServer> server_;
  VirtAddr shard_ = 0;  // lazy shard arena
  std::uint64_t striped_segments_ = 0;
  std::uint64_t shard_bytes_read_ = 0;
  std::vector<telemetry::ProbeHandle> probes_;
};

}  // namespace ibp::fabric
