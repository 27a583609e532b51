#include "ibp/sim/engine.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "sim::Engine has no lane switch (ibp_sim_switch) for this architecture"
#endif

// The lane switch (x86-64 System V psABI).
//
// ibp_sim_switch(save_sp, load_sp) pushes the state a callee must preserve
// (rbp, rbx, r12-r15, then MXCSR and the x87 control word in one word)
// onto the running stack, stores the stack pointer in *save_sp, loads
// load_sp, pops the same state from there and returns into the lane that
// owns that stack. The compiler sees an ordinary call. There is no system
// call: the signal mask is the thread's, shared by every lane.
//
// A new lane's stack holds a first frame laid out as if the lane had made
// that call itself, returning into ibp_sim_lane_start with the entry
// function in r13 and its argument in r12 (see first_frame()). The
// trampoline starts on a 16-byte aligned stack and calls r13(r12); the
// entry never returns. Its zero rbp and undefined return address end the
// frame chain there, so debuggers and unwinders stop at a lane's first
// frame.
extern "C" {
void ibp_sim_switch(void** save_sp, void* load_sp) noexcept;
void ibp_sim_lane_start() noexcept;
}

asm(R"(
        .pushsection .text, "ax", @progbits
        .p2align 4
        .type ibp_sim_switch, @function
ibp_sim_switch:
        .cfi_startproc
        pushq %rbp
        .cfi_adjust_cfa_offset 8
        pushq %rbx
        .cfi_adjust_cfa_offset 8
        pushq %r12
        .cfi_adjust_cfa_offset 8
        pushq %r13
        .cfi_adjust_cfa_offset 8
        pushq %r14
        .cfi_adjust_cfa_offset 8
        pushq %r15
        .cfi_adjust_cfa_offset 8
        subq $8, %rsp
        .cfi_adjust_cfa_offset 8
        stmxcsr (%rsp)
        fnstcw 4(%rsp)
        movq %rsp, (%rdi)
        movq %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw 4(%rsp)
        addq $8, %rsp
        .cfi_adjust_cfa_offset -8
        popq %r15
        .cfi_adjust_cfa_offset -8
        popq %r14
        .cfi_adjust_cfa_offset -8
        popq %r13
        .cfi_adjust_cfa_offset -8
        popq %r12
        .cfi_adjust_cfa_offset -8
        popq %rbx
        .cfi_adjust_cfa_offset -8
        popq %rbp
        .cfi_adjust_cfa_offset -8
        ret
        .cfi_endproc
        .size ibp_sim_switch, .-ibp_sim_switch

        .p2align 4
        .type ibp_sim_lane_start, @function
ibp_sim_lane_start:
        .cfi_startproc
        .cfi_undefined %rip
        movq %r12, %rdi
        callq *%r13
        ud2
        .cfi_endproc
        .size ibp_sim_lane_start, .-ibp_sim_lane_start
        .popsection
)");

namespace ibp::sim {
namespace {

/// Thrown into a lane that run() resumes after the run aborted, so that
/// the lane unwinds; never surfaced to the user.
struct AbortSignal {};

/// Every lane gets the 8 MiB stack a Linux thread gets by default. The
/// mapping reserves no swap and commits only the pages a lane touches.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// Unmaps a lane stack: the guard page at `base` and the stack above it.
struct StackUnmap {
  void operator()(char* base) const {
    munmap(base, page_bytes() + kStackBytes);
  }
};
using Stack = std::unique_ptr<char, StackUnmap>;

Stack map_stack() {
  void* p = mmap(nullptr, page_bytes() + kStackBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                 0);
  IBP_CHECK(p != MAP_FAILED, "cannot map a lane stack: "
                                 << std::strerror(errno));
  Stack stack(static_cast<char*>(p));
  // The stack grows down: an overflow hits the guard page and faults
  // instead of running into a neighbouring mapping.
  IBP_CHECK(mprotect(p, page_bytes(), PROT_NONE) == 0,
            "cannot protect a lane stack's guard page: "
                << std::strerror(errno));
  return stack;
}

/// Lay out a new lane's first frame below `top`, in the order
/// ibp_sim_switch pops it, and return the lane's saved stack pointer.
/// The lane starts with the FP control state of the code that made it.
void* first_frame(char* top, void (*entry)(Engine*), Engine* eng) {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  const std::uint64_t words[] = {
      mxcsr | std::uint64_t{x87_cw} << 32,
      0,                                           // r15
      0,                                           // r14
      reinterpret_cast<std::uintptr_t>(entry),     // r13
      reinterpret_cast<std::uintptr_t>(eng),       // r12
      0,                                           // rbx
      0,                                           // rbp: ends the chain
      reinterpret_cast<std::uintptr_t>(&ibp_sim_lane_start),
      0,  // the trampoline's stack starts here, 16-byte aligned
      0,
  };
  // The trampoline's stack pointer is sp + 64: aligned when sp is.
  static_assert(sizeof words % 16 == 0);
  char* sp = top - sizeof words;
  std::memcpy(sp, words, sizeof words);
  return sp;
}

}  // namespace

struct Engine::TrackState {
  TimePs time = 0;
  State state = State::NotStarted;
  RankId rank = 0;
  // While Blocked: the wait's reason and ready function (wait()'s
  // arguments outlive the wait), the cached ready time (max(clock, ready
  // time), or nullopt while not ready) and the mark that the Wakers the
  // wait named set to have the ready function re-run.
  const char* reason = nullptr;
  const Ready* ready = nullptr;
  std::optional<TimePs> ready_at;
  WakeMark mark;
  // The wait's places on its Wakers' lists: grown to the longest list the
  // lane has named, then reused, so a wait does not allocate.
  std::unique_ptr<WaitLink[]> links;
  std::size_t nlinks = 0;
  Waker finished;  // fires when the lane finishes (join_track)
  RankFn fn;              // the lane's program
  Stack stack;            // null for the host; released when run() returns
  bool started = false;   // the fiber has been entered
  void* sp = nullptr;     // saved stack pointer while suspended
#ifdef __SANITIZE_ADDRESS__
  // Stack bounds for the switch annotations.
  const void* asan_bottom = nullptr;
  std::size_t asan_size = 0;
#endif

  /// Give this lane a stack whose first switch enters eng->lane_main().
  void make_fiber(Engine* eng) {
    stack = map_stack();
    char* bottom = stack.get() + page_bytes();
    sp = first_frame(bottom + kStackBytes, &entry, eng);
#ifdef __SANITIZE_ADDRESS__
    asan_bottom = bottom;
    asan_size = kStackBytes;
#endif
  }

  static void entry(Engine* eng) { eng->lane_main(); }

  /// A fresh ready time: max(clock, what the ready function reports).
  std::optional<TimePs> evaluate() const {
    const std::optional<TimePs> t = (*ready)();
    if (!t) return std::nullopt;
    return std::max(time, *t);
  }
};

Engine::Engine(int nranks) : ranks_(static_cast<std::size_t>(nranks)) {
  IBP_CHECK(nranks > 0, "engine needs at least one rank");
  for (int r = 0; r < nranks; ++r) {
    RankState& rk = ranks_[static_cast<std::size_t>(r)];
    auto& ts = rk.tracks.emplace_back(std::make_unique<TrackState>());
    ts->rank = r;
    ts->mark.rank_dirty = &rk.dirty;
  }
}

Engine::~Engine() = default;

TimePs Engine::final_time(RankId r) const {
  const auto& rk = ranks_.at(static_cast<std::size_t>(r));
  TimePs m = 0;
  for (const auto& ts : rk.tracks) m = std::max(m, ts->time);
  return m;
}

TimePs Engine::now_of(RankId r) const {
  const auto& rk = ranks_[static_cast<std::size_t>(r)];
  return rk.tracks[static_cast<std::size_t>(rk.cur)]->time;
}

TrackId Engine::track_of(RankId r) const {
  return ranks_[static_cast<std::size_t>(r)].cur;
}

int Engine::live_tracks_of(RankId r) const {
  const auto& rk = ranks_[static_cast<std::size_t>(r)];
  int live = 0;
  for (const auto& ts : rk.tracks)
    if (ts->state != State::Finished) ++live;
  return live;
}

void Engine::run(const RankFn& fn) {
  std::vector<RankFn> fns(ranks_.size(), fn);
  run(fns);
}

void Engine::run(const std::vector<RankFn>& fns) {
  IBP_CHECK(fns.size() == ranks_.size(), "one program per rank required");
  for (const auto& rk : ranks_)
    IBP_CHECK(rk.tracks[0]->state == State::NotStarted,
              "Engine::run is single-use");

  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    auto& ts = *ranks_[r].tracks[0];
    ts.fn = fns[r];
    ts.make_fiber(this);
    ts.state = State::Runnable;
  }

  TrackState host;
  host_ = running_ = &host;
  if (TrackState* first = schedule_next()) switch_to(*first);

  // Back on the host: every lane finished, or the run aborted. Each lane
  // still suspended mid-program throws AbortSignal when resumed, unwinds
  // its stack and returns here. A rank's tracks unwind newest first: a
  // track's frames may refer to its spawner's (a server's worker tracks
  // use the server and comm on the rank program's stack), and a track is
  // always newer than its spawner.
  for (auto& rk : ranks_)
    for (auto it = rk.tracks.rbegin(); it != rk.tracks.rend(); ++it)
      if ((*it)->started && (*it)->state != State::Finished)
        switch_to(**it);

  for (auto& rk : ranks_)
    for (auto& ts : rk.tracks) ts->stack.reset();
  host_ = running_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

Engine::TrackState& Engine::running_lane(RankId r, const char* what) {
  auto& rk = ranks_[static_cast<std::size_t>(r)];
  TrackState& ts = *rk.tracks[static_cast<std::size_t>(rk.cur)];
  IBP_CHECK(&ts == running_, "" << what << " outside of scheduled execution");
  return ts;
}

void Engine::advance_rank(RankId r, TimePs dt) {
  // During an abort, destructors on unwinding stacks may still call
  // advance(); the run is over, so let them through as no-ops.
  if (aborted_) return;
  TrackState& ts = running_lane(r, "advance()");
  ts.time += dt;
  yield_turn(ts);
}

void Engine::yield_rank(RankId r) { advance_rank(r, 0); }

void Engine::wait_rank(RankId r, const char* reason,
                       std::span<Waker* const> on, Ready ready) {
  if (aborted_) return;
  TrackState& ts = running_lane(r, "wait()");
  if (on.size() > ts.nlinks) {
    ts.links = std::make_unique<WaitLink[]>(on.size());
    ts.nlinks = on.size();
  }
  // Leave every list on any exit, the unwind of an aborted run included.
  // A Waker destroyed meanwhile has detached its link already.
  struct Detach {
    TrackState& ts;
    std::size_t n;
    ~Detach() {
      for (std::size_t i = 0; i < n; ++i) ts.links[i].detach();
      ts.ready = nullptr;
    }
  } detach{ts, on.size()};
  for (std::size_t i = 0; i < on.size(); ++i)
    ts.links[i].attach(*on[i], ts.mark);
  ts.state = State::Blocked;
  ts.reason = reason;
  ts.ready = &ready;
  ts.mark.stale = true;
  yield_turn(ts);
}

TrackId Engine::spawn_track(RankId r, std::function<void(Context&)> fn) {
  if (aborted_) return -1;  // unwinding; the track will never run
  auto& rk = ranks_[static_cast<std::size_t>(r)];
  const TrackState& parent = running_lane(r, "spawn_track()");

  auto ts = std::make_unique<TrackState>();
  ts->time = parent.time;
  ts->rank = r;
  ts->mark.rank_dirty = &rk.dirty;
  ts->fn = std::move(fn);
  ts->make_fiber(this);
  // The spawner keeps its turn; the new track first runs when the
  // scheduler picks its (time, rank, track) key.
  ts->state = State::Runnable;
  rk.tracks.push_back(std::move(ts));
  return static_cast<TrackId>(rk.tracks.size() - 1);
}

void Engine::join_track(RankId r, TrackId t) {
  auto& rk = ranks_[static_cast<std::size_t>(r)];
  IBP_CHECK(t > 0 && t < static_cast<TrackId>(rk.tracks.size()),
            "join_track: no such spawned track");
  IBP_CHECK(t != rk.cur, "join_track: a track cannot join itself");
  TrackState* ts = rk.tracks[static_cast<std::size_t>(t)].get();
  Waker* const on[] = {&ts->finished};
  wait_rank(r, "join track", on, [ts]() -> std::optional<TimePs> {
    if (ts->state != State::Finished) return std::nullopt;
    return ts->time;
  });
}

Engine::Candidate Engine::scan(RankState& rk,
                               std::uint64_t& predicate_calls) {
  // Candidate = every runnable lane at its clock, plus every blocked lane
  // whose ready time is known, at that time. Only lanes a fire marked
  // stale (or that just began waiting) re-run their ready function. The
  // track-minor scan with a strictly-less compare keeps the lowest track
  // on a tie.
  Candidate c;
  for (TrackId k = 0; k < static_cast<TrackId>(rk.tracks.size()); ++k) {
    TrackState& ts = *rk.tracks[static_cast<std::size_t>(k)];
    if (ts.state == State::Finished) continue;
    c.unfinished = true;
    std::optional<TimePs> t;
    if (ts.state == State::Runnable) {
      t = ts.time;
    } else if (ts.state == State::Blocked) {
      if (ts.mark.stale) {
        ++predicate_calls;
        ts.mark.stale = false;
        ts.ready_at = ts.evaluate();
      }
      t = ts.ready_at;
    }
    if (t && *t < c.time) {
      c.time = *t;
      c.track = k;
      c.blocked = ts.state == State::Blocked;
    }
  }
  return c;
}

// A ready function or the sampler that throws ends the run with its
// error, as a throwing lane does.
Engine::TrackState* Engine::schedule_next() noexcept try {
  ++stats_.decisions;
  if (aborted_) return nullptr;

  // The lane handing over the turn changed its own clock or state.
  if (running_ != host_)
    ranks_[static_cast<std::size_t>(running_->rank)].dirty = true;
#ifndef NDEBUG
  audit_waits();
#endif

  // Rescan only dirty ranks; by the wait contract nothing a clean rank's
  // lanes wait on has changed since its last scan. Choosing the global
  // minimum (time, rank, track) keeps execution in virtual-time order, so
  // no lane can later be affected by an event earlier than its clock. The
  // rank-major pass over per-rank candidates with a strictly-less compare
  // realizes the (time, rank, track) tie-break.
  RankState* best = nullptr;
  bool any_unfinished = false;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankState& rk = ranks_[r];
    if (rk.dirty) {
      rk.cand = scan(rk, stats_.predicate_calls);
      rk.dirty = false;
    }
    any_unfinished = any_unfinished || rk.cand.unfinished;
    if (rk.cand.track >= 0 &&
        (best == nullptr || rk.cand.time < best->cand.time))
      best = &rk;
  }

  if (!any_unfinished) {
    // Run complete; the last lane returns to Engine::run.
    return nullptr;
  }
  if (best == nullptr) {
    abort_all(std::make_exception_ptr(deadlock_error()));
    return nullptr;
  }

  // The chosen (time, rank, track) key is the global frontier: no
  // unfinished lane can act earlier. Fire the sampler for every period
  // boundary the frontier just crossed while no lane is active.
  const Candidate& c = best->cand;
  if (sampler_ && sample_period_ != 0) {
    while (next_sample_ <= c.time) {
      sampler_(next_sample_);
      next_sample_ += sample_period_;
    }
  }

  auto& next = *best->tracks[static_cast<std::size_t>(c.track)];
  if (c.blocked) {
    next.state = State::Runnable;
    next.time = c.time;
  }
  best->cur = c.track;
  return &next;
} catch (...) {
  abort_all(std::current_exception());
  return nullptr;
}

void Engine::audit_waits() const {
  const auto show = [](std::optional<TimePs> t) {
    return t ? std::to_string(*t) : std::string("not ready");
  };
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const auto& tracks = ranks_[r].tracks;
    for (std::size_t k = 0; k < tracks.size(); ++k) {
      const TrackState& ts = *tracks[k];
      if (ts.state != State::Blocked || ts.mark.stale) continue;
      const std::optional<TimePs> fresh = ts.evaluate();
      IBP_CHECK(fresh == ts.ready_at,
                "wait audit: r" << r << ".t" << k << ' ' << ts.reason
                << " has a stale ready time (cached " << show(ts.ready_at)
                << ", now " << show(fresh) << "): state its ready function "
                "reads changed without a fire of a Waker it names");
    }
  }
}

SimError Engine::deadlock_error() const {
  constexpr int kListed = 16;
  std::ostringstream os;
  os << "virtual-time deadlock: every unfinished lane is blocked and not "
        "ready; unfinished lanes (rank.track@clock in ps, wait reason):";
  int lanes = 0;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const auto& tracks = ranks_[r].tracks;
    for (std::size_t k = 0; k < tracks.size(); ++k) {
      const TrackState& ts = *tracks[k];
      if (ts.state == State::Finished) continue;
      if (lanes < kListed) {
        os << (lanes == 0 ? " " : ", ") << 'r' << r << ".t" << k << '@'
           << ts.time;
        if (ts.state == State::Blocked) os << ' ' << ts.reason;
      }
      ++lanes;
    }
  }
  if (lanes > kListed) os << " and " << lanes - kListed << " more";
  return SimError(os.str());
}

void Engine::yield_turn(TrackState& self) {
  TrackState* next = schedule_next();
  if (next == &self) return;
  switch_to(next ? *next : *host_);
  if (aborted_) throw AbortSignal{};
}

void Engine::switch_to(TrackState& to) {
  TrackState& from = *running_;
  running_ = &to;
  ++stats_.switches;
#ifdef __SANITIZE_ADDRESS__
  // A finished lane never resumes. Clear the redzones of the frames it
  // leaves on its stack, which a later mapping may reuse, and pass no
  // save slot so that ASan frees its fake stack.
  const bool exiting = from.state == State::Finished;
  if (exiting) __asan_handle_no_return();
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(exiting ? nullptr : &fake_stack,
                                 to.asan_bottom, to.asan_size);
#endif
  ibp_sim_switch(&from.sp, to.sp);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Engine::lane_main() {
#ifdef __SANITIZE_ADDRESS__
  // The first lane is entered from run(): learn the host's stack bounds
  // for the switches back to it.
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &from_bottom, &from_size);
  if (host_->asan_size == 0) {
    host_->asan_bottom = from_bottom;
    host_->asan_size = from_size;
  }
#endif
  TrackState& ts = *running_;
  ts.started = true;
  // Every exception stops here: there is no frame above this one to take
  // it. Switching away happens only after the handler has been left, as
  // the runtime's caught-exception stack is shared by all fibers.
  std::exception_ptr err;
  try {
    Context ctx(this, ts.rank);
    ts.fn(ctx);
  } catch (const AbortSignal&) {
    // run() resumed this lane to unwind it after the run aborted.
  } catch (...) {
    err = std::current_exception();
  }
  ts.state = State::Finished;
  ts.finished.wake();
  if (err) abort_all(std::move(err));
  TrackState* next = schedule_next();
  switch_to(next ? *next : *host_);
  std::abort();  // nothing resumes a finished lane
}

void Engine::abort_all(std::exception_ptr err) noexcept {
  if (!error_) error_ = std::move(err);
  aborted_ = true;
}

}  // namespace ibp::sim
