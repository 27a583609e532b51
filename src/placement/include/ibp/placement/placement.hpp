#pragma once

// Unified placement-policy engine.
//
// The paper's thesis is that *data placement strategy* — hugepage vs 4 KB
// backing (§3), intra-page offset and alignment (§4), SGE aggregation
// (§4/§7), registration behaviour (§5.1) — drives InfiniBand
// communication performance. Before this layer existed the placement
// decisions were hard-coded in four places (the 32 KB tier threshold in
// the hugepage library, the eager/rendezvous/sge branches in mpi::Comm,
// ad-hoc knobs in the ablation benches). The PlacementEngine consolidates
// them: given a buffer request (size, role, datatype layout) it returns a
// BufferPlan — backing page size, chunking, protocol, SGE layout — behind
// a pluggable Policy interface, the way MPICH2-over-InfiniBand keeps its
// protocol choices in one tunable layer. Registration behaviour is one
// cluster-wide switch, not a plan: ClusterConfig::lazy_deregistration
// goes straight to each rank's regcache::RegCache (Figure 5).
//
// Policies:
//   * PaperDefault       — exactly the paper's published behaviour
//                          (bit-exact with the pre-engine code paths),
//   * SmallPageBaseline  — never uses hugepages (the paper's baseline),
//   * Adaptive           — starts from the paper's prior and refines
//                          per-size decisions from observed stats fed
//                          back by the MPI layer (CommStats/CacheStats).
//
// Aligned placement (§4, Figure 4) is an allocator call, not a policy:
// hugepage::Library::memalign.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ibp/common/types.hpp"
#include "ibp/mem/address_space.hpp"
#include "ibp/sim/tracer.hpp"

namespace ibp::placement {

/// What the requested buffer (or message) is for.
enum class Role : std::uint8_t {
  EagerSend,     // outbound point-to-point message
  Rendezvous,    // large-transfer user buffer (RDMA source/target)
  RecvRing,      // preposted bounce/recv-ring slabs
  WorkloadHeap,  // ordinary application allocation
  RpcRing,       // RPC request/response staging rings (ibp::rpc)
  RpcResponse,   // RPC response payload buffers (eager or rendezvous)
  RpcShard,      // per-shard resident data a fabric server serves from
  StripeSegment, // striped bulk-response segments / reassembly buffers
  RingSlab,      // persistent one-sided ring slabs (RDMA-written records)
  RingSlot,      // per-record ring residency / credit-word control slots
};
inline constexpr int kRoleCount = 10;

/// Message protocol for a send of a given size.
enum class Protocol : std::uint8_t { Eager, RndvCopy, RndvRdma };
inline constexpr int kProtocolCount = 3;

const char* role_name(Role r);
const char* protocol_name(Protocol p);

/// Inverse of role_name (for config parsing); nullopt for unknown names.
std::optional<Role> role_from_name(std::string_view name);

/// Comma-separated list of every role name (for error messages).
std::string known_role_names();

/// One buffer/message the consumer layers are about to place.
struct BufferRequest {
  std::uint64_t size = 0;
  Role role = Role::WorkloadHeap;
  /// Non-contiguous datatype layout: number of contiguous pieces the
  /// buffer denotes (1 = contiguous).
  std::uint32_t pieces = 1;
};

/// The engine's answer: where the bytes go and how they move.
struct BufferPlan {
  /// Backing page-size tier for the buffer's memory.
  mem::PageKind backing = mem::PageKind::Small;
  /// Heap carving granularity (the paper's 4 KB chunks, §3.2 #4).
  std::uint64_t chunk = 4 * kKiB;
  /// Protocol for message-role requests.
  Protocol protocol = Protocol::Eager;
  /// Gather non-contiguous pieces with one SGE-list work request (§7)
  /// instead of packing through a bounce buffer.
  bool sge_gather = false;
  /// Cap on SGEs per work request when gathering.
  std::uint32_t max_sges = 128;
};

/// The tunables of the consumer layers a policy decides against. A policy
/// may reproduce them exactly (PaperDefault) or override them.
struct PolicyContext {
  std::uint64_t huge_threshold = 32 * kKiB;  // §3.2 #1 tier threshold
  std::uint64_t chunk = 4 * kKiB;            // §3.2 #4 carve granularity
  std::uint64_t eager_threshold = 8 * kKiB;  // MVAPICH eager ceiling
  std::uint64_t rndv_copy_max = 16 * kKiB;   // rendezvous-copy ceiling
  bool hugepages_enabled = false;  // hugepage library preloaded
  bool sge_gather_enabled = false; // SGE gather sends available
};

/// One observation fed back into an adaptive policy (sourced from
/// CommStats/CacheStats deltas around a placement-sensitive operation).
struct Feedback {
  std::uint64_t size = 0;                    // buffer/message size
  mem::PageKind backing = mem::PageKind::Small;
  TimePs cost = 0;                           // observed placement cost
  std::uint64_t cache_misses = 0;            // registration-cache misses
  bool alloc_failed = false;                 // hugepage pool exhausted
  /// Which role the observed buffer served (routes the observation to
  /// that role's override policy when one is installed).
  Role role = Role::WorkloadHeap;
  /// Non-contiguous ops: number of pieces the operation moved (1 =
  /// contiguous) and whether the NIC gathered them via one SGE-list WR
  /// (true) or the CPU packed them through a staging buffer (false).
  /// Lets adaptive policies learn the SGE-vs-pack decision, not just the
  /// backing page size.
  std::uint32_t pieces = 1;
  bool gathered = false;
};

/// Pluggable placement policy.
class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  virtual BufferPlan plan(const BufferRequest& req,
                          const PolicyContext& ctx) const = 0;
  /// Observed-stat feedback; stateless policies ignore it.
  virtual void observe(const Feedback&) {}
};

/// The paper's exact behaviour: hugepages at/above the 32 KB threshold
/// when the library is preloaded, 4 KB chunks, eager <= 8 KB, rendezvous
/// copy <= 16 KB, RDMA above. Plans are bit-exact with the pre-engine
/// hard-coded branches.
class PaperDefaultPolicy : public Policy {
 public:
  std::string_view name() const override { return "paper-default"; }
  std::string_view description() const override;
  BufferPlan plan(const BufferRequest& req,
                  const PolicyContext& ctx) const override;
};

/// Everything on 4 KB pages — the paper's measured baseline.
class SmallPageBaselinePolicy : public PaperDefaultPolicy {
 public:
  std::string_view name() const override { return "small-page-baseline"; }
  std::string_view description() const override;
  BufferPlan plan(const BufferRequest& req,
                  const PolicyContext& ctx) const override;
};

/// Learns per-size placement from observed stats. Starts from the
/// paper's prior (hugepages at/above the context threshold) and flips a
/// size bucket whenever fed observations show the other backing cheaper
/// per byte; repeated hugepage-pool exhaustion pushes a bucket back to
/// small pages.
class AdaptivePolicy : public Policy {
 public:
  std::string_view name() const override { return "adaptive"; }
  std::string_view description() const override;
  BufferPlan plan(const BufferRequest& req,
                  const PolicyContext& ctx) const override;
  void observe(const Feedback& fb) override;

  /// Observed mean cost-per-byte for one (size-bucket, backing), or -1.
  double observed_cost(std::uint64_t size, mem::PageKind backing) const;

  /// Observed mean cost-per-byte for non-contiguous ops moved via NIC
  /// gather (`gathered` true) or CPU pack (`false`) in `size`'s bucket,
  /// or -1 with no observations.
  double observed_gather_cost(std::uint64_t size, bool gathered) const;

 private:
  struct Bucket {
    double small_cost = 0;  // EWMA cost per byte on small pages
    double huge_cost = 0;   // EWMA cost per byte on hugepages
    std::uint32_t small_n = 0;
    std::uint32_t huge_n = 0;
    std::uint32_t huge_failures = 0;  // pool-exhausted allocations
    // SGE-vs-pack learning (fed by the mpi gather path, §7).
    double gather_cost = 0;  // EWMA cost per byte, NIC SGE gather
    double pack_cost = 0;    // EWMA cost per byte, CPU pack-and-send
    std::uint32_t gather_n = 0;
    std::uint32_t pack_n = 0;
  };
  static constexpr int kBuckets = 41;  // log2 size buckets, 1 B .. 1 TB
  static int bucket_of(std::uint64_t size);
  Bucket buckets_[kBuckets];
};

// ---------------------------------------------------------------------------
// Registry

struct PolicyInfo {
  std::string_view name;
  std::string_view description;
  std::unique_ptr<Policy> (*make)();
};

/// All built-in policies, in registration order. Benches sweep exactly
/// this list.
const std::vector<PolicyInfo>& registered_policies();

/// Instantiate a policy by registry name; nullptr for an unknown name.
std::unique_ptr<Policy> make_policy(std::string_view name);

/// Comma-separated registry names (for error messages / usage text).
std::string known_policy_names();

// ---------------------------------------------------------------------------
// Engine

/// Per-policy decision counters (observability; cheap to keep).
struct EngineStats {
  std::uint64_t plans = 0;
  std::uint64_t by_role[kRoleCount] = {};
  std::uint64_t by_protocol[kProtocolCount] = {};
  std::uint64_t huge_backed = 0;
  std::uint64_t small_backed = 0;
  std::uint64_t sge_plans = 0;
  std::uint64_t feedbacks = 0;
};

/// One engine per rank: owns the policy, the default context (built from
/// the cluster configuration), decision counters, and the optional tracer
/// hook that logs every plan decision.
class PlacementEngine {
 public:
  PlacementEngine(std::unique_ptr<Policy> policy, PolicyContext ctx);

  /// Plan against the engine's default context.
  BufferPlan plan(const BufferRequest& req) { return plan(req, ctx_); }

  /// Plan against a caller-refined context (e.g. mpi::Comm substitutes
  /// its own protocol thresholds).
  BufferPlan plan(const BufferRequest& req, const PolicyContext& ctx);

  /// Feed an observation to the policy deciding `fb.role` (and count it).
  void feed(const Feedback& fb);

  /// Install (or, with nullptr, clear) a per-role policy override: plans
  /// and feedback for `role` route to it instead of the default policy,
  /// so e.g. the RPC ring can use `paper-default` while the workload heap
  /// learns with `adaptive`.
  void set_role_policy(Role role, std::unique_ptr<Policy> policy);

  /// The policy currently deciding `role` (an override or the default).
  Policy& policy_for(Role role);

  const PolicyContext& context() const { return ctx_; }
  Policy& policy() { return *policy_; }
  const Policy& policy() const { return *policy_; }
  const EngineStats& stats() const { return stats_; }

  /// Log each plan decision as an instantaneous tracer mark (category
  /// "placement") on `rank`'s lane, timestamped by `clock`.
  void set_tracer(sim::Tracer* tracer, RankId rank,
                  std::function<TimePs()> clock);

 private:
  std::unique_ptr<Policy> policy_;
  std::unique_ptr<Policy> role_policies_[kRoleCount];  // nullptr = default
  PolicyContext ctx_;
  EngineStats stats_;
  sim::Tracer* tracer_ = nullptr;
  RankId rank_ = 0;
  std::function<TimePs()> clock_;
};

}  // namespace ibp::placement
