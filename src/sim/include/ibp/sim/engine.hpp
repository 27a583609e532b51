#pragma once

// Deterministic virtual-time execution engine.
//
// Each simulated rank runs its program as a fiber: a user-space context
// with its own stack, on the thread that calls Engine::run(). The engine
// admits exactly one execution lane at a time: always the runnable lane
// with the smallest (virtual time, rank id, track id) key. Lanes consume
// virtual time via Context::advance() and block via Context::wait(),
// whose ready function reports the earliest virtual time the awaited
// condition holds. Each such call picks the next lane and switches to it
// directly; a lane that is still at the front keeps running.
//
// A rank may model T application threads as *tracks*: TrackId-addressed
// virtual-time lanes spawned with Context::spawn_track() and awaited with
// Context::join_track(). Track 0 is the rank program itself. Tracks of one
// rank share all of the rank's simulation state (Context, adapters, comms)
// — safe because the engine still admits exactly one lane globally, in
// virtual-time order. With a single track per rank the schedule, and thus
// every trace and result, is bit-identical to the historical rank-only
// engine.
//
// Because execution is serialized in global virtual-time order, shared
// simulation state (queues, adapters, memory) needs no locking and every
// run is bit-reproducible. If every unfinished lane is blocked and none
// is ready, the engine raises a deadlock error naming the unfinished
// lanes and their wait reasons. The first error aborts the run: every
// suspended lane is resumed into an unwind, so the destructors on its
// stack run (a rank's spawned tracks before the tracks that spawned
// them), and run() rethrows the error.
//
// Lane switch. A switch is a short x86-64 routine (engine.cpp) that saves
// the psABI's callee-saved state (rbx, rbp, r12-r15, MXCSR and the x87
// control word) on the running stack and restores it from the target's;
// it makes no system call. Each lane keeps its own floating-point control
// state, as with glibc's swapcontext. Unlike swapcontext, on purpose:
//  - lanes share the thread's signal mask (swapcontext kept one per lane
//    at the cost of a system call per switch);
//  - the switch keeps no CET shadow stack, which glibc enables only when
//    a tunable asks for it;
//  - only x86-64 builds; other architectures stop at an #error.
//
// Wait contract. A lane blocks with ctx.wait(reason, {&waker, ...},
// ready). The one rule: the wait names a Waker (ibp/common/waker.hpp) for
// everything another lane can change while it waits. The engine caches
// each blocked lane's ready time and re-runs `ready` only after one of
// the named Wakers fired, so a decision runs no ready function of a lane
// whose state is unchanged. The owner of waited-on state fires its Waker
// on every mutation another lane can make, pops included: a ready
// function may turn un-ready only through a fire, as when a sibling lane
// pops the completion it was ready on. State only the waiting lane itself
// changes (a deadline it armed before blocking) needs no Waker: every
// wait starts with a fresh call of `ready`. A track's end fires the Waker
// join_track() waits on.
// Debug builds (no NDEBUG) re-run every clean lane's ready function on
// each decision and fail the run, naming r<rank>.t<track> and the wait
// reason, when a cached ready time went stale; a missing fire in a
// release build surfaces as a deadlock error or a changed schedule.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/types.hpp"
#include "ibp/common/waker.hpp"

namespace ibp::sim {

class Engine;

/// Identifies one virtual-time lane within a rank. Track 0 is the rank's
/// main program; spawn_track() hands out 1, 2, ... in spawn order.
using TrackId = int;

/// A wait's ready function: std::nullopt while the awaited condition does
/// not hold, else the earliest virtual time at which it holds. Held by
/// reference: the callable stays in the waiting lane's frame for the
/// whole wait, so a wait neither copies nor allocates it.
class Ready {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Ready> &&
             std::is_invocable_v<const F&>)
  Ready(const F& f) noexcept
      : fn_(&f), call_([](const void* fn) -> std::optional<TimePs> {
          return (*static_cast<const F*>(fn))();
        }) {}

  std::optional<TimePs> operator()() const { return call_(fn_); }

 private:
  const void* fn_;
  std::optional<TimePs> (*call_)(const void*);
};

/// Per-rank handle passed to rank programs; all engine interaction goes
/// through it. Valid only inside Engine::run(). Calls are routed to the
/// rank's *currently executing track*, so one Context (and anything built
/// on it — comms, verbs contexts) is transparently shared by all tracks
/// of the rank.
class Context {
 public:
  RankId rank() const { return rank_; }
  int nranks() const;

  /// Id of the track this call executes on (0 = the rank program).
  TrackId track() const;

  /// Number of unfinished tracks on this rank (>= 1 while running).
  int live_tracks() const;

  /// Trace lane for the calling track: rank for track 0 (legacy lanes),
  /// rank + track * nranks for spawned tracks — distinct Chrome-trace
  /// tids that never collide with another rank's lanes.
  int trace_lane() const;

  /// Current virtual time of this track.
  TimePs now() const;

  /// Consume `dt` of virtual time (compute, overheads). May hand control to
  /// another lane whose clock is behind.
  void advance(TimePs dt);

  /// Block until `ready` reports a time; on resumption this track's
  /// clock is max(current, that time). `on` names the Wakers of all the
  /// state `ready` reads: the engine runs `ready` once when the wait
  /// starts and again only after one of them fired (see the wait contract
  /// above), so it must be cheap and side-effect free. `reason` (a string
  /// literal) names the wait in deadlock and audit errors.
  void wait(const char* reason, std::initializer_list<Waker*> on,
            Ready ready);
  void wait(const char* reason, std::span<Waker* const> on, Ready ready);

  /// Sleep until absolute virtual time `t` (no-op if already past it).
  void sleep_until(TimePs t);

  /// Reschedule without consuming time (lets equal-time peers interleave
  /// deterministically by (rank, track) id).
  void yield();

  /// Start a new track on this rank at the caller's current virtual time.
  /// The track runs `fn` with this rank's Context; the caller keeps
  /// executing (the new track becomes schedulable at the next yield
  /// point). Returns the new track's id.
  TrackId spawn_track(std::function<void(Context&)> fn);

  /// Block until track `t` of this rank finishes; on resumption the
  /// caller's clock is max(its own clock, the track's final time).
  void join_track(TrackId t);

 private:
  friend class Engine;
  Context(Engine* eng, RankId rank) : eng_(eng), rank_(rank) {}
  Engine* eng_;
  RankId rank_;
};

class Engine {
 public:
  using RankFn = std::function<void(Context&)>;

  explicit Engine(int nranks);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int nranks() const { return static_cast<int>(ranks_.size()); }

  /// Run `fn` on every rank to completion. Rethrows the first rank error.
  void run(const RankFn& fn);

  /// Run one distinct program per rank.
  void run(const std::vector<RankFn>& fns);

  /// Final virtual time of rank `r` after run() returned: the maximum
  /// final time across the rank's tracks (equal to the rank program's
  /// final time when every spawned track was joined).
  TimePs final_time(RankId r) const;

  /// Maximum final virtual time across ranks (the run's makespan).
  TimePs makespan() const {
    TimePs m = 0;
    for (int r = 0; r < nranks(); ++r) m = std::max(m, final_time(r));
    return m;
  }

  /// Host-side work the scheduler has done so far. The Debug audit's
  /// rescans are not counted, so every build type reads the same numbers.
  struct Stats {
    std::uint64_t decisions = 0;        // schedule_next() calls
    std::uint64_t switches = 0;         // stack switches, to and from run()
    std::uint64_t predicate_calls = 0;  // ready functions run by scans
  };
  Stats stats() const { return stats_; }

  /// Install a virtual-time sampler: `fn(t)` fires whenever the global
  /// time frontier (the smallest virtual time any unfinished lane can
  /// still act at) crosses a multiple of `period`. The callback runs in
  /// the scheduling gap — no lane is active — so it may safely read any
  /// shared simulation state; it must not write state a wait reads.
  /// Deterministic: the frontier sequence is a pure function of the rank
  /// programs. Call before run(); a period of 0 (or a null fn) disables
  /// sampling.
  void set_sampler(TimePs period, std::function<void(TimePs)> fn) {
    sample_period_ = period;
    sampler_ = std::move(fn);
    next_sample_ = 0;
  }

 private:
  friend class Context;

  enum class State { NotStarted, Runnable, Blocked, Finished };

  /// One lane: its clock, scheduling state and fiber (engine.cpp).
  struct TrackState;

  /// A rank's best lane as of its last scan: the minimum (time, track)
  /// over its runnable lanes and its blocked lanes whose ready time is
  /// known.
  struct Candidate {
    TimePs time = std::numeric_limits<TimePs>::max();
    TrackId track = -1;       // -1: no lane can run
    bool blocked = false;     // the lane waits; picking it wakes it at time
    bool unfinished = false;  // some lane of the rank has not finished
  };

  struct RankState {
    // tracks[0] is the rank program; spawned tracks append. Entries are
    // never erased, so TrackIds stay valid for the whole run.
    std::vector<std::unique_ptr<TrackState>> tracks;
    TrackId cur = 0;  // track currently (or last) holding the rank's turn
    // Set when `cand` may be out of date: one of the rank's lanes ran,
    // or a Waker marked one of its blocked lanes stale. ranks_ never
    // resizes, so lanes' WakeMarks may point at this flag for the
    // engine's life.
    bool dirty = true;
    Candidate cand;
  };

  TimePs now_of(RankId r) const;
  TrackId track_of(RankId r) const;
  int live_tracks_of(RankId r) const;
  void advance_rank(RankId r, TimePs dt);
  void wait_rank(RankId r, const char* reason, std::span<Waker* const> on,
                 Ready ready);
  void yield_rank(RankId r);
  TrackId spawn_track(RankId r, std::function<void(Context&)> fn);
  void join_track(RankId r, TrackId t);

  /// The lane of rank `r` that holds the turn; checks it is the one
  /// executing (`what` names the call for the error).
  TrackState& running_lane(RankId r, const char* what);

  /// Evaluate rank `rk`'s lanes, re-running the ready functions of its
  /// stale blocked lanes and adding their number to `predicate_calls`.
  static Candidate scan(RankState& rk, std::uint64_t& predicate_calls);

  /// Debug builds: check every blocked lane that no fire marked stale
  /// still has the ready time a fresh call of its ready function gives.
  void audit_waits() const;

  /// Pick the next lane and commit the choice; null when the run is over
  /// (every lane finished, or aborted).
  TrackState* schedule_next() noexcept;

  /// The deadlock error: names up to 16 unfinished lanes at their clocks,
  /// with their wait reasons.
  SimError deadlock_error() const;

  /// Hand the turn to schedule_next()'s choice; returns once `self` is
  /// picked again. Throws AbortSignal if the run aborted meanwhile.
  void yield_turn(TrackState& self);

  /// Suspend the executing lane (or the host) and resume `to`.
  void switch_to(TrackState& to);

  /// Body of every lane's fiber: runs its program, then leaves for good.
  [[noreturn]] void lane_main();

  void abort_all(std::exception_ptr err) noexcept;

  std::vector<RankState> ranks_;
  TrackState* host_ = nullptr;     // the caller of run(), while it runs
  TrackState* running_ = nullptr;  // the lane executing now, or host_
  std::exception_ptr error_;
  bool aborted_ = false;
  Stats stats_;

  TimePs sample_period_ = 0;
  std::function<void(TimePs)> sampler_;
  TimePs next_sample_ = 0;
};

inline int Context::nranks() const { return eng_->nranks(); }
inline TrackId Context::track() const { return eng_->track_of(rank_); }
inline int Context::live_tracks() const {
  return eng_->live_tracks_of(rank_);
}
inline int Context::trace_lane() const {
  const TrackId t = track();
  return t == 0 ? static_cast<int>(rank_)
                : static_cast<int>(rank_) + t * nranks();
}
inline TimePs Context::now() const { return eng_->now_of(rank_); }
inline void Context::advance(TimePs dt) { eng_->advance_rank(rank_, dt); }
inline void Context::wait(const char* reason,
                          std::initializer_list<Waker*> on, Ready ready) {
  eng_->wait_rank(rank_, reason, {on.begin(), on.size()}, ready);
}
inline void Context::wait(const char* reason, std::span<Waker* const> on,
                          Ready ready) {
  eng_->wait_rank(rank_, reason, on, ready);
}
inline void Context::sleep_until(TimePs t) {
  if (t > now()) advance(t - now());
}
inline void Context::yield() { eng_->yield_rank(rank_); }
inline TrackId Context::spawn_track(std::function<void(Context&)> fn) {
  return eng_->spawn_track(rank_, std::move(fn));
}
inline void Context::join_track(TrackId t) { eng_->join_track(rank_, t); }

}  // namespace ibp::sim
