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
    case Role::EagerSend: return "eager-send";
    case Role::Rendezvous: return "rendezvous";
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

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::Eager: return "eager";
    case Protocol::RndvCopy: return "rndv-copy";
    case Protocol::RndvRdma: return "rndv-rdma";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// PaperDefault

std::string_view PaperDefaultPolicy::description() const {
  return "the paper's published strategy: hugepages >= 32 KB, 4 KB chunks, "
         "eager/rndv thresholds, lazy pin-down cache";
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
  // Protocol: mirrors mpi::Comm::isend exactly.
  if (req.size <= ctx.eager_threshold) {
    p.protocol = Protocol::Eager;
  } else if (req.size <= ctx.rndv_copy_max) {
    p.protocol = Protocol::RndvCopy;
  } else {
    p.protocol = Protocol::RndvRdma;
  }
  // SGE gathering: mirrors Comm::send_typed — gather whenever the feature
  // is on and the message fits the eager path (even single-piece sends).
  p.sge_gather = ctx.sge_gather_enabled && req.size <= ctx.eager_threshold;
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
// Adaptive

std::string_view AdaptivePolicy::description() const {
  return "starts from the paper's prior, then flips per-size backing from "
         "observed cost/cache feedback";
}

int AdaptivePolicy::bucket_of(std::uint64_t size) {
  int b = 0;
  while (size > 1 && b < kBuckets - 1) {
    size >>= 1;
    ++b;
  }
  return b;
}

BufferPlan AdaptivePolicy::plan(const BufferRequest& req,
                                const PolicyContext& ctx) const {
  PaperDefaultPolicy base;
  BufferPlan p = base.plan(req, ctx);

  // SGE-vs-pack: once both movement styles of a non-contiguous size have
  // accumulated several observations, pick the cheaper per byte instead
  // of the prior's blanket "gather whatever fits eager". Gathering stays
  // gated on the feature being available at all.
  if (ctx.sge_gather_enabled && req.pieces > 1) {
    const Bucket& gb = buckets_[bucket_of(req.size)];
    if (gb.gather_n >= 4 && gb.pack_n >= 4)
      p.sge_gather = gb.gather_cost <= gb.pack_cost &&
                     req.size <= ctx.eager_threshold;
  }

  if (!ctx.hugepages_enabled) return p;  // no hugepage tier to choose

  const Bucket& b = buckets_[bucket_of(req.size)];
  // A hugepage tier that keeps failing allocation is not worth planning
  // for — fall back to small pages for this size.
  if (b.huge_failures >= 3) {
    p.backing = mem::PageKind::Small;
    return p;
  }
  if (b.small_n > 0 && b.huge_n > 0) {
    // Both backings observed: pick the cheaper per byte.
    p.backing = (b.huge_cost <= b.small_cost) ? mem::PageKind::Huge
                                              : mem::PageKind::Small;
  } else if (b.huge_n > 0 || b.small_n > 0) {
    // One backing observed. Keep the prior unless the observed side is
    // the prior itself — then there is nothing to compare yet.
    // Additionally: if only hugepages were observed for a size the prior
    // would put on small pages (or vice versa), trust the observation
    // direction once it has accumulated several samples at low cost.
    if (b.huge_n >= 4 && b.small_n == 0 && p.backing == mem::PageKind::Small) {
      p.backing = mem::PageKind::Huge;
    } else if (b.small_n >= 4 && b.huge_n == 0 &&
               p.backing == mem::PageKind::Huge) {
      p.backing = mem::PageKind::Small;
    }
  }
  return p;
}

void AdaptivePolicy::observe(const Feedback& fb) {
  Bucket& b = buckets_[bucket_of(fb.size)];
  if (fb.alloc_failed && fb.backing == mem::PageKind::Huge) {
    ++b.huge_failures;
    return;
  }
  const double bytes = fb.size ? static_cast<double>(fb.size) : 1.0;
  // Registration-cache misses are the dominant hidden cost the paper's
  // §5.1 numbers expose; weight them into the per-byte figure.
  const double per_byte =
      (static_cast<double>(fb.cost) +
       static_cast<double>(fb.cache_misses) * 1000.0) /
      bytes;
  constexpr double kAlpha = 0.25;  // EWMA smoothing
  if (fb.pieces > 1) {
    // Non-contiguous movement observation: learn the SGE-vs-pack cost
    // (fed by mpi::Comm's gather path) instead of the backing cost.
    if (fb.gathered) {
      b.gather_cost = b.gather_n == 0
                          ? per_byte
                          : b.gather_cost + kAlpha * (per_byte - b.gather_cost);
      ++b.gather_n;
    } else {
      b.pack_cost = b.pack_n == 0
                        ? per_byte
                        : b.pack_cost + kAlpha * (per_byte - b.pack_cost);
      ++b.pack_n;
    }
    return;
  }
  if (fb.backing == mem::PageKind::Huge) {
    b.huge_cost = b.huge_n == 0
                      ? per_byte
                      : b.huge_cost + kAlpha * (per_byte - b.huge_cost);
    ++b.huge_n;
  } else {
    b.small_cost = b.small_n == 0
                       ? per_byte
                       : b.small_cost + kAlpha * (per_byte - b.small_cost);
    ++b.small_n;
  }
}

double AdaptivePolicy::observed_cost(std::uint64_t size,
                                     mem::PageKind backing) const {
  const Bucket& b = buckets_[bucket_of(size)];
  if (backing == mem::PageKind::Huge) {
    return b.huge_n ? b.huge_cost : -1.0;
  }
  return b.small_n ? b.small_cost : -1.0;
}

double AdaptivePolicy::observed_gather_cost(std::uint64_t size,
                                            bool gathered) const {
  const Bucket& b = buckets_[bucket_of(size)];
  if (gathered) return b.gather_n ? b.gather_cost : -1.0;
  return b.pack_n ? b.pack_cost : -1.0;
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
    add(AdaptivePolicy{});
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
  ++stats_.by_protocol[static_cast<int>(p.protocol)];
  if (p.backing == mem::PageKind::Huge) {
    ++stats_.huge_backed;
  } else {
    ++stats_.small_backed;
  }
  if (p.sge_gather) ++stats_.sge_plans;
  if (tracer_ && clock_) {
    std::ostringstream name;
    name << pol.name() << ' ' << role_name(req.role) << ' ' << req.size
         << "B -> " << backing_name(p.backing) << '/'
         << protocol_name(p.protocol);
    tracer_->mark(rank_, "placement", name.str(), clock_());
  }
  return p;
}

void PlacementEngine::feed(const Feedback& fb) {
  ++stats_.feedbacks;
  policy_for(fb.role).observe(fb);
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
