#pragma once

// Cross-rank wake-up handle.
//
// The virtual-time engine re-runs a blocked lane's wait predicate only
// when the lane's rank is marked dirty. A rank's own lanes mark it dirty
// by running; state that *another* rank writes (completion queues, write
// monitors, shared-memory channels) must mark the watching rank dirty
// itself. Such an owner holds a Waker for the rank that watches it and
// fires it on every mutation another rank can make.
//
// A Waker points at one rank's dirty flag inside sim::Engine (see
// Engine::waker), so it must not be fired after that engine is gone. A
// default-constructed Waker does nothing, so owners built outside an
// engine keep working unchanged.

namespace ibp {

class Waker {
 public:
  Waker() = default;
  explicit Waker(bool* dirty) : dirty_(dirty) {}

  /// Mark the watching rank's blocked predicates for re-evaluation.
  void wake() const {
    if (dirty_ != nullptr) *dirty_ = true;
  }

 private:
  bool* dirty_ = nullptr;
};

}  // namespace ibp
