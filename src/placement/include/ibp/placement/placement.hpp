#pragma once

// Unified placement-policy engine.
//
// The paper's thesis is that *data placement strategy* — hugepage vs 4 KB
// backing (§3), intra-page offset and alignment (§4), SGE aggregation
// (§4/§7), registration behaviour (§5.1) — drives InfiniBand
// communication performance. This layer decides where a buffer's bytes
// live: given a buffer request (size, role) it returns a BufferPlan —
// backing page size and chunking — behind a pluggable Policy interface.
// How a message travels is not a placement decision: mpi::Comm picks it
// (eager or rendezvous flavour, SGE gathering, the one-sided ring) from
// its CommConfig in one function, in the channel layer where Liu et al.'s
// MPICH2 over InfiniBand keeps that size-keyed switch. Registration
// behaviour is one cluster-wide switch, not a plan:
// ClusterConfig::lazy_deregistration goes straight to each rank's
// regcache::RegCache (Figure 5).
//
// Policies:
//   * PaperDefault       — exactly the paper's published behaviour
//                          (bit-exact with the pre-engine code paths),
//   * SmallPageBaseline  — never uses hugepages (the paper's baseline).
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

/// What the requested buffer is for.
enum class Role : std::uint8_t {
  RecvRing,      // preposted bounce/recv-ring slabs
  WorkloadHeap,  // ordinary application allocation
  RpcRing,       // RPC request/response staging rings (ibp::rpc)
  RpcResponse,   // RPC response payload buffers (eager or rendezvous)
  RpcShard,      // per-shard resident data a fabric server serves from
  StripeSegment, // striped bulk-response segments / reassembly buffers
  RingSlab,      // persistent one-sided ring slabs (RDMA-written records)
  RingSlot,      // ring credit-word control slots
};
inline constexpr int kRoleCount = 8;

const char* role_name(Role r);

/// Inverse of role_name (for config parsing); nullopt for unknown names.
std::optional<Role> role_from_name(std::string_view name);

/// Comma-separated list of every role name (for error messages).
std::string known_role_names();

/// One buffer the consumer layers are about to allocate.
struct BufferRequest {
  std::uint64_t size = 0;
  Role role = Role::WorkloadHeap;
};

/// The engine's answer: where the bytes live.
struct BufferPlan {
  /// Backing page-size tier for the buffer's memory.
  mem::PageKind backing = mem::PageKind::Small;
  /// Heap carving granularity (the paper's 4 KB chunks, §3.2 #4).
  std::uint64_t chunk = 4 * kKiB;
};

/// The tunables of the hugepage library a policy decides against. A
/// policy may reproduce them exactly (PaperDefault) or override them.
struct PolicyContext {
  std::uint64_t huge_threshold = 32 * kKiB;  // §3.2 #1 tier threshold
  std::uint64_t chunk = 4 * kKiB;            // §3.2 #4 carve granularity
  bool hugepages_enabled = false;  // hugepage library preloaded
};

/// Pluggable placement policy.
class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  virtual BufferPlan plan(const BufferRequest& req,
                          const PolicyContext& ctx) const = 0;
};

/// The paper's exact behaviour: hugepages at/above the 32 KB threshold
/// when the library is preloaded, 4 KB chunks. Plans are bit-exact with
/// the pre-engine hard-coded branches.
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
  std::uint64_t huge_backed = 0;
  std::uint64_t small_backed = 0;
};

/// One engine per rank: owns the policy, the default context (built from
/// the cluster configuration), decision counters, and the optional tracer
/// hook that logs every plan decision.
class PlacementEngine {
 public:
  PlacementEngine(std::unique_ptr<Policy> policy, PolicyContext ctx);

  /// Plan against the engine's default context.
  BufferPlan plan(const BufferRequest& req) { return plan(req, ctx_); }

  /// Plan against a caller-refined context (hugepage::Library substitutes
  /// its own threshold and chunk).
  BufferPlan plan(const BufferRequest& req, const PolicyContext& ctx);

  /// Install (or, with nullptr, clear) a per-role policy override: plans
  /// for `role` route to it instead of the default policy, so e.g. the
  /// RPC rings can stay on small pages while the workload heap uses the
  /// paper's hugepage tier.
  void set_role_policy(Role role, std::unique_ptr<Policy> policy);

  /// The policy currently deciding `role` (an override or the default).
  Policy& policy_for(Role role);

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
