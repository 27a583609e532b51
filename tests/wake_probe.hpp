#pragma once

// Test helper: sees the fires of one Waker the way a waiting lane does.

#include "ibp/common/waker.hpp"

namespace ibp {

class WakeProbe {
 public:
  explicit WakeProbe(Waker& w) { link_.attach(w, mark_); }

  /// Whether the Waker fired since the previous call.
  bool fired() {
    const bool f = mark_.stale;
    mark_.stale = false;
    return f;
  }

 private:
  bool dirty_ = false;
  WakeMark mark_{.stale = false, .rank_dirty = &dirty_};
  WaitLink link_;
};

}  // namespace ibp
