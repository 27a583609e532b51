#pragma once

// Completion queue: CQEs become visible at their ready_time.
//
// CQEs are kept ordered by ready time (ties broken by insertion order) so
// that polling at virtual time `now` returns completions in the order the
// hardware would have made them visible.
//
// Lanes block on a CQ by naming waker() in their waits. Every mutation
// fires it: a peer's lane pushes (a send lands in this rank's receive
// CQ) and cancels (an RNR rescue withdraws a sender's provisional error
// CQE), and a poll pops — under a shared CQ the pop of one worker track
// can leave a sibling that waits on the same CQ with nothing to take.

#include <cstdint>
#include <deque>
#include <optional>

#include "ibp/common/check.hpp"
#include "ibp/common/waker.hpp"
#include "ibp/hca/config.hpp"
#include "ibp/hca/types.hpp"

namespace ibp::hca {

class CompletionQueue {
 public:
  /// Fires after every push, pop and cancel.
  Waker& waker() { return waker_; }

  /// Insert keeping ready_time order (stable for equal times).
  void push(Cqe cqe) {
    auto it = entries_.end();
    while (it != entries_.begin()) {
      auto prev = it;
      --prev;
      if (prev->ready_time <= cqe.ready_time) break;
      it = prev;
    }
    entries_.insert(it, cqe);
    waker_.wake();
  }

  /// Pop the first CQE visible at `now`, if any.
  std::optional<Cqe> poll(TimePs now) {
    if (entries_.empty() || entries_.front().ready_time > now)
      return std::nullopt;
    Cqe c = entries_.front();
    entries_.pop_front();
    waker_.wake();
    return c;
  }

  /// Withdraw the pending CQE matching (wr_id, status). Used to cancel a
  /// provisionally scheduled error completion — e.g. an RNR-exhaustion CQE
  /// rescued by a receive posted before the deadline. Returns whether a
  /// matching entry was removed.
  bool cancel(std::uint64_t wr_id, WcStatus status) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->wr_id == wr_id && it->status == status) {
        entries_.erase(it);
        waker_.wake();
        return true;
      }
    }
    return false;
  }

  /// Ready time of the earliest pending CQE (for scheduler wait
  /// predicates), or nullopt when empty.
  std::optional<TimePs> next_ready() const {
    if (entries_.empty()) return std::nullopt;
    return entries_.front().ready_time;
  }

  std::size_t depth() const { return entries_.size(); }

  /// Virtual-time lock state for SharedLocked multi-thread arbitration.
  ArbState& arb() { return arb_; }

 private:
  std::deque<Cqe> entries_;
  ArbState arb_;
  Waker waker_;
};

}  // namespace ibp::hca
