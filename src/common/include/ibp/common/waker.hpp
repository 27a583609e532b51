#pragma once

// Waitable state: what a blocked lane of the virtual-time engine waits on.
//
// A lane blocks with sim::Context::wait(reason, {&waker, ...}, ready),
// naming the Wakers of the state its ready function reads. The engine
// caches the lane's ready time and re-runs the ready function only after
// one of those Wakers fired. So the owner of such state (a completion
// queue, a write monitor, a shared-memory channel, an RPC server's
// admission queues, ...) holds a Waker and calls wake() after every
// mutation, pops included: a sibling lane's pop can turn a ready lane
// un-ready again.
//
// A Waker lists its waiting lanes as intrusive WaitLinks that the engine
// owns, so neither waiting nor waking allocates. Waking sets each waiting
// lane's WakeMark and nothing else; a Waker nobody waits on does nothing,
// so owners used outside an engine work unchanged. A copy of an owner
// gets a Waker of its own with no waiters. Destroying a Waker detaches
// its waiters without marking them: its state is gone, so they must not
// read it again (an aborted run may unwind a waiter after the owner).
//
// Wakers live in ibp_common so that state owners below the engine
// (ibp_hca, ibp_core) need not link ibp_sim.

namespace ibp {

class Waker;

/// What a fire marks: one waiting lane and the rank it belongs to.
/// Owned by the engine, one per lane.
struct WakeMark {
  bool stale = false;          // the lane's ready function must re-run
  bool* rank_dirty = nullptr;  // the lane's rank must be rescanned
};

/// One lane's place on one Waker's waiter list. Owned by the engine.
class WaitLink {
 public:
  WaitLink() = default;
  WaitLink(const WaitLink&) = delete;
  WaitLink& operator=(const WaitLink&) = delete;
  ~WaitLink() { detach(); }

  /// Join `w`'s waiters: every wake() of `w` then marks `mark`.
  void attach(Waker& w, WakeMark& mark);

  /// Leave the waiter list, if on one.
  void detach();

 private:
  friend class Waker;
  Waker* waker_ = nullptr;
  WaitLink* prev_ = nullptr;
  WaitLink* next_ = nullptr;
  WakeMark* mark_ = nullptr;
};

class Waker {
 public:
  Waker() = default;
  // Waiters wait on this object, never on a copy of it.
  Waker(const Waker&) noexcept {}
  Waker& operator=(const Waker&) noexcept { return *this; }
  ~Waker() {
    while (head_ != nullptr) head_->detach();
  }

  /// Mark every lane waiting on this Waker for re-evaluation.
  void wake() {
    for (WaitLink* l = head_; l != nullptr; l = l->next_) {
      l->mark_->stale = true;
      *l->mark_->rank_dirty = true;
    }
  }

 private:
  friend class WaitLink;
  WaitLink* head_ = nullptr;
};

inline void WaitLink::attach(Waker& w, WakeMark& mark) {
  detach();
  waker_ = &w;
  mark_ = &mark;
  prev_ = nullptr;
  next_ = w.head_;
  if (next_ != nullptr) next_->prev_ = this;
  w.head_ = this;
}

inline void WaitLink::detach() {
  if (waker_ == nullptr) return;
  if (prev_ != nullptr) {
    prev_->next_ = next_;
  } else {
    waker_->head_ = next_;
  }
  if (next_ != nullptr) next_->prev_ = prev_;
  waker_ = nullptr;
  prev_ = next_ = nullptr;
}

}  // namespace ibp
