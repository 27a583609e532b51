#pragma once

// Deterministic fault-injection plane.
//
// A FaultPlan is a declarative description of everything that may go wrong
// during a run: per-link packet drop/corruption probabilities (optionally
// confined to a virtual-time window, modelling brownouts), per-adapter ATT
// miss storms (the translation cache behaves as if every lookup missed),
// and one-shot QP errors. A FaultInjector evaluates the plan with per-link
// xoshiro streams derived from a single seed, so a given (plan, seed) pair
// produces the identical packet-loss schedule on every run — faults are as
// bit-reproducible as the rest of the virtual-time simulation.
//
// The injector is passive: the HCA model asks it to judge each packet and
// reacts (retransmission, RNR backoff, QP error) according to RC
// semantics. Corrupted packets fail the ICRC at the receiver and are
// NAK'd, so timing-wise they behave like drops; they are only counted
// separately.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ibp/common/rng.hpp"
#include "ibp/common/types.hpp"

namespace ibp::fault {

/// Wildcard node id: matches any adapter.
inline constexpr NodeId kAnyNode = -1;

/// Packet loss/corruption on the directed link src -> dst. A window with
/// until == 0 is open-ended; otherwise it covers [from, until).
struct LinkFault {
  NodeId src = kAnyNode;
  NodeId dst = kAnyNode;
  double drop_prob = 0.0;
  double corrupt_prob = 0.0;
  TimePs from = 0;
  TimePs until = 0;

  bool matches(NodeId s, NodeId d) const {
    return (src == kAnyNode || src == s) && (dst == kAnyNode || dst == d);
  }
  bool active(TimePs when) const {
    return when >= from && (until == 0 || when < until);
  }
};

/// ATT miss storm: while active, every translation lookup on `node`'s
/// adapter is charged as a miss (cache thrash, e.g. a competing workload).
struct AttStorm {
  NodeId node = kAnyNode;
  TimePs from = 0;
  TimePs until = 0;  // 0 = open-ended

  bool active(NodeId n, TimePs when) const {
    return (node == kAnyNode || node == n) && when >= from &&
           (until == 0 || when < until);
  }
};

/// One-shot QP failure: the first work-request processed on the matching
/// QP at virtual time >= `at` moves it to the error state. A node's QPs
/// are numbered 1..N in the cluster's wiring order; a Cluster rejects a
/// plan naming a node or QP it does not have.
struct QpError {
  NodeId node = kAnyNode;
  std::uint32_t qp_num = 0;  // 0 = the first QP on the node to act
  TimePs at = 0;
};

/// Server-process lifecycle event: at `at` the rank on `node` either
/// crashes (permanent QP kill: it stops serving and silently discards
/// every request record it ingests) or recovers (a brownout window ends
/// and it serves again). A node's state at time t is decided by the
/// latest crash/recover event at or before t; a bare crash with no
/// matching recover is permanent.
struct ServerEvent {
  NodeId node = kAnyNode;
  TimePs at = 0;
};

struct FaultPlan {
  std::vector<LinkFault> links;
  std::vector<AttStorm> storms;
  std::vector<QpError> qp_errors;
  std::vector<ServerEvent> crashes;
  std::vector<ServerEvent> recoveries;
  /// When nonzero, overrides the cluster seed for the injector's streams.
  std::uint64_t seed = 0;

  bool empty() const {
    return links.empty() && storms.empty() && qp_errors.empty() &&
           crashes.empty() && recoveries.empty();
  }
};

/// Parse a textual fault plan. Directives are separated by ';' or newlines;
/// '#' starts a comment running to end of line. Times are in microseconds
/// of virtual time; node ids may be '*' (any). Supported directives:
///
///   drop=SRC-DST:PROB[:FROM-UNTIL]     packet drop probability on a link
///   corrupt=SRC-DST:PROB[:FROM-UNTIL]  packet corruption probability
///   storm=NODE:FROM-UNTIL              ATT miss storm on an adapter
///   qpkill=NODE:QP:AT                  one-shot QP error; QP is 1..N or
///                                      '*' (the first QP on NODE to act
///                                      after AT)
///   crash=NODE@AT                      permanent server kill at AT
///   recover=NODE@AT                    server rejoins at AT (ends a crash)
///   seed=N                             override the injector seed
///
/// An omitted window (or UNTIL of '*') is open-ended. Example:
///   "drop=0-1:0.01; storm=1:100-500; qpkill=0:*:250; crash=2@800"
FaultPlan parse_fault_plan(const std::string& spec);

/// One-line human summary ("2 link fault(s), 1 storm(s), ...").
std::string describe(const FaultPlan& plan);

/// Canonical textual form of a plan: parse_fault_plan(format_fault_plan(p))
/// rebuilds a behaviorally identical plan, and format_fault_plan is a
/// fixed point over parse (format(parse(format(p))) == format(p)).
/// Probabilities print with round-trip precision; a LinkFault carrying
/// both drop and corrupt splits into one directive per channel, which
/// composes to the same packet fate. Sub-microsecond times are not
/// representable in the DSL and are rejected.
std::string format_fault_plan(const FaultPlan& plan);

enum class PacketVerdict : std::uint8_t { Deliver, Drop, Corrupt };

struct FaultStats {
  std::uint64_t packets_judged = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_corrupted = 0;
  std::uint64_t qp_errors_fired = 0;
};

class FaultInjector {
 public:
  /// `seed` feeds the per-link streams unless the plan overrides it.
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Fate of one packet crossing the directed link src -> dst at `when`.
  PacketVerdict judge_packet(NodeId src, NodeId dst, TimePs when);

  /// Is an ATT miss storm active on `node` at `when`?
  bool att_storm_active(NodeId node, TimePs when) const;

  /// Consume a pending one-shot QP error for (node, qp_num) due by `now`.
  /// Returns true at most once per plan entry.
  bool qp_error_due(NodeId node, std::uint32_t qp_num, TimePs now);

  /// Is the server process on `node` crashed at `when`? Decided by the
  /// latest matching crash/recover event at or before `when` (a crash and
  /// a recover at the same instant resolve to recovered). Pure query — no
  /// stream state, safe to call from any layer.
  bool server_crashed(NodeId node, TimePs when) const;

  /// Does the plan contain any crash directive at all? Lets the serving
  /// layers skip per-item checks on fault-free and crash-free plans.
  bool has_crashes() const { return !plan_.crashes.empty(); }

  /// Event sink for fault/retry tracing. `kind` is a static string such as
  /// "drop", "corrupt", "retransmit", "rnr_nak" or "qp_error"; `node` is
  /// the adapter observing the event. The transport layer also routes its
  /// retry events through here so a tracer sees one unified stream.
  using Observer =
      std::function<void(const char* kind, NodeId node, TimePs when)>;
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Emit an event to the observer (no-op when none is attached).
  void note(const char* kind, NodeId node, TimePs when) {
    if (observer_) observer_(kind, node, when);
  }

  const FaultStats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }
  std::uint64_t seed() const { return seed_; }

 private:
  Rng& link_rng(NodeId src, NodeId dst);

  FaultPlan plan_;
  std::uint64_t seed_;
  FaultStats stats_;
  Observer observer_;
  // Per-directed-link streams, keyed (src << 32) | dst. Each stream's seed
  // depends only on (injector seed, link), never on creation order, so the
  // loss schedule of a link is a pure function of its packet sequence.
  std::unordered_map<std::uint64_t, Rng> rngs_;
  std::vector<bool> qp_error_fired_;
};

}  // namespace ibp::fault
