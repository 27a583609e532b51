#pragma once

// Multi-stage fabric model.
//
// Adapters attach to leaf switches ("pods"); traffic between adapters in
// the same pod only crosses the leaf (already captured by the per-adapter
// tx/rx lanes). Traffic between pods additionally traverses a shared pool
// of core links — the classic fat-tree oversubscription bottleneck. Each
// core link carries the same two-lane (bulk/control) arbitration as the
// adapter links; a transfer reserves the least-loaded core link.

#include <cstdint>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/types.hpp"

namespace ibp::hca {

class Fabric {
 public:
  /// `core_links` parallel links between pods; `hop_latency` is the extra
  /// switch hop (leaf-core-leaf instead of leaf only).
  Fabric(int core_links, TimePs hop_latency, TimePs arbitration_quantum)
      : hop_latency_(hop_latency),
        quantum_(arbitration_quantum),
        links_(static_cast<std::size_t>(core_links)) {
    IBP_CHECK(core_links >= 1, "fabric needs at least one core link");
  }

  TimePs hop_latency() const { return hop_latency_; }
  int core_links() const { return static_cast<int>(links_.size()); }

  /// Reserve a core link for `duration` starting no earlier than `ready`;
  /// returns the traversal end time. Control-class traffic interleaves at
  /// the arbitration quantum like on the adapter links.
  TimePs traverse(TimePs ready, TimePs duration, bool ctrl) {
    // Least-loaded link (deterministic tie-break by index).
    std::size_t best = 0;
    for (std::size_t i = 1; i < links_.size(); ++i) {
      const TimePs bi = ctrl ? links_[i].ctrl_busy : links_[i].bulk_busy;
      const TimePs bb = ctrl ? links_[best].ctrl_busy
                             : links_[best].bulk_busy;
      if (bi < bb) best = i;
    }
    Link& l = links_[best];
    if (ctrl) {
      TimePs start = std::max(ready, l.ctrl_busy);
      if (l.bulk_busy > start) start += quantum_;
      l.ctrl_busy = start + duration;
      if (l.bulk_busy > start) l.bulk_busy += duration;
      return start + duration;
    }
    const TimePs start = std::max(ready, l.bulk_busy);
    l.bulk_busy = start + duration;
    return l.bulk_busy;
  }

 private:
  struct Link {
    TimePs bulk_busy = 0;
    TimePs ctrl_busy = 0;
  };

  TimePs hop_latency_;
  TimePs quantum_;
  std::vector<Link> links_;
};

}  // namespace ibp::hca
