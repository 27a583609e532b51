#include "ibp/placement/placement.hpp"

#include <sstream>

#include "ibp/common/check.hpp"

namespace ibp::placement {

namespace {

const char* backing_name(mem::PageKind k) {
  return k == mem::PageKind::Huge ? "huge" : "small";
}

}  // namespace

const char* role_name(Role r) {
  switch (r) {
    case Role::RecvRing: return "recv-ring";
    case Role::WorkloadHeap: return "workload-heap";
    case Role::RpcRing: return "rpc-ring";
    case Role::RpcResponse: return "rpc-response";
    case Role::RpcShard: return "rpc-shard";
    case Role::StripeSegment: return "stripe-segment";
    case Role::RingSlab: return "ring-slab";
    case Role::RingSlot: return "ring-slot";
  }
  return "?";
}

std::string known_role_names() {
  std::string out;
  for (int i = 0; i < kRoleCount; ++i) {
    if (!out.empty()) out += ", ";
    out += role_name(static_cast<Role>(i));
  }
  return out;
}

std::optional<Role> role_from_name(std::string_view name) {
  for (int i = 0; i < kRoleCount; ++i) {
    const Role r = static_cast<Role>(i);
    if (name == role_name(r)) return r;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// PaperDefault

std::string_view PaperDefaultPolicy::description() const {
  return "the paper's published strategy: hugepages >= 32 KB, 4 KB chunks";
}

BufferPlan PaperDefaultPolicy::plan(const BufferRequest& req,
                                    const PolicyContext& ctx) const {
  BufferPlan p;
  // Backing tier: mirrors hugepage::Library::malloc exactly — the library
  // serves from the hugepage heap iff preloaded and size >= threshold.
  p.backing = (ctx.hugepages_enabled && req.size >= ctx.huge_threshold)
                  ? mem::PageKind::Huge
                  : mem::PageKind::Small;
  p.chunk = ctx.chunk;
  return p;
}

// ---------------------------------------------------------------------------
// SmallPageBaseline

std::string_view SmallPageBaselinePolicy::description() const {
  return "the paper's baseline: everything on 4 KB pages, no hugepage tier";
}

BufferPlan SmallPageBaselinePolicy::plan(const BufferRequest& req,
                                         const PolicyContext& ctx) const {
  PolicyContext base = ctx;
  base.hugepages_enabled = false;
  return PaperDefaultPolicy::plan(req, base);
}

// ---------------------------------------------------------------------------
// Registry

namespace {

template <typename P>
std::unique_ptr<Policy> make_impl() {
  return std::make_unique<P>();
}

}  // namespace

const std::vector<PolicyInfo>& registered_policies() {
  static const std::vector<PolicyInfo> kPolicies = [] {
    std::vector<PolicyInfo> v;
    auto add = [&v](auto tag) {
      using P = decltype(tag);
      P probe;
      v.push_back({probe.name(), probe.description(), &make_impl<P>});
    };
    add(PaperDefaultPolicy{});
    add(SmallPageBaselinePolicy{});
    return v;
  }();
  return kPolicies;
}

std::unique_ptr<Policy> make_policy(std::string_view name) {
  for (const PolicyInfo& info : registered_policies()) {
    if (info.name == name) return info.make();
  }
  return nullptr;
}

std::string known_policy_names() {
  std::string out;
  for (const PolicyInfo& info : registered_policies()) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Engine

PlacementEngine::PlacementEngine(std::unique_ptr<Policy> policy,
                                 PolicyContext ctx)
    : policy_(std::move(policy)), ctx_(ctx) {
  IBP_CHECK(policy_ != nullptr, "PlacementEngine needs a policy");
}

BufferPlan PlacementEngine::plan(const BufferRequest& req,
                                 const PolicyContext& ctx) {
  Policy& pol = policy_for(req.role);
  BufferPlan p = pol.plan(req, ctx);
  ++stats_.plans;
  ++stats_.by_role[static_cast<int>(req.role)];
  if (p.backing == mem::PageKind::Huge) {
    ++stats_.huge_backed;
  } else {
    ++stats_.small_backed;
  }
  if (tracer_ && clock_) {
    std::ostringstream name;
    name << pol.name() << ' ' << role_name(req.role) << ' ' << req.size
         << "B -> " << backing_name(p.backing);
    tracer_->mark(rank_, "placement", name.str(), clock_());
  }
  return p;
}

void PlacementEngine::set_role_policy(Role role,
                                      std::unique_ptr<Policy> policy) {
  role_policies_[static_cast<int>(role)] = std::move(policy);
}

Policy& PlacementEngine::policy_for(Role role) {
  Policy* p = role_policies_[static_cast<int>(role)].get();
  return p != nullptr ? *p : *policy_;
}

void PlacementEngine::set_tracer(sim::Tracer* tracer, RankId rank,
                                 std::function<TimePs()> clock) {
  tracer_ = tracer;
  rank_ = rank;
  clock_ = std::move(clock);
}

}  // namespace ibp::placement
