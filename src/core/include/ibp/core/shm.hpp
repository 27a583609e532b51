#pragma once

// Intra-node shared-memory transport (MVAPICH-style): ranks on the same
// node exchange messages through a copy-in/copy-out channel instead of the
// HCA. One ShmChannel carries one direction of one rank pair. The sender
// pushes on its own lane and the receiver pops on its own; lanes that
// wait for a message name waker(), and both mutations fire it.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "ibp/common/types.hpp"
#include "ibp/common/waker.hpp"

namespace ibp::core {

struct ShmConfig {
  double bw_bytes_per_ns = 2.5;  // copy bandwidth through the segment
  TimePs latency = ns(350);      // queue signalling latency
};

struct ShmMsg {
  std::vector<std::uint8_t> data;
  TimePs avail = 0;  // virtual time the message becomes visible
};

class ShmChannel {
 public:
  explicit ShmChannel(ShmConfig cfg) : cfg_(cfg) {}

  /// Fires after every push and pop.
  Waker& waker() { return waker_; }

  /// Sender-side: enqueue `data` at time `now`; returns the sender's copy
  /// cost (copy-in to the shared segment).
  TimePs push(std::vector<std::uint8_t> data, TimePs now) {
    const TimePs copy = copy_cost(data.size());
    ShmMsg msg;
    msg.avail = now + copy + cfg_.latency;
    msg.data = std::move(data);
    q_.push_back(std::move(msg));
    waker_.wake();
    return copy;
  }

  /// Earliest visible message time, if any (wait predicate).
  std::optional<TimePs> next_ready() const {
    if (q_.empty()) return std::nullopt;
    return q_.front().avail;
  }

  /// Pop the head message if visible at `now`.
  std::optional<ShmMsg> pop(TimePs now) {
    if (q_.empty() || q_.front().avail > now) return std::nullopt;
    ShmMsg m = std::move(q_.front());
    q_.pop_front();
    waker_.wake();
    return m;
  }

  /// Receiver-side copy-out cost for `bytes`.
  TimePs copy_cost(std::uint64_t bytes) const {
    return static_cast<TimePs>(static_cast<double>(bytes) /
                               cfg_.bw_bytes_per_ns * 1e3);
  }

  std::size_t depth() const { return q_.size(); }

 private:
  ShmConfig cfg_;
  std::deque<ShmMsg> q_;
  Waker waker_;
};

}  // namespace ibp::core
