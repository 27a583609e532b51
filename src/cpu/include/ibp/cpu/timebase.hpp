#pragma once

// Time-base register (TBR) conversion.
//
// The paper reports small-message costs in "TBR ticks" of the IBM System p
// time base (POWER's TB register). Internally everything is picoseconds;
// benches convert at the edge with the platform's TBR frequency.

#include <cstdint>

#include "ibp/common/types.hpp"

namespace ibp::cpu {

class TimeBase {
 public:
  explicit TimeBase(double tbr_hz) : tbr_hz_(tbr_hz) {}

  std::uint64_t to_ticks(TimePs t) const {
    return static_cast<std::uint64_t>(static_cast<double>(t) * 1e-12 *
                                      tbr_hz_);
  }

  TimePs to_ps(std::uint64_t ticks) const {
    return static_cast<TimePs>(static_cast<double>(ticks) / tbr_hz_ * 1e12);
  }

 private:
  double tbr_hz_;
};

}  // namespace ibp::cpu
