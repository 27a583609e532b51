#pragma once

// JSON writers for a run's metrics. The Chrome trace has its own writer,
// sim::Tracer::write_json.

#include <ostream>
#include <string_view>

#include "ibp/telemetry/registry.hpp"

namespace ibp::telemetry {

/// Serialize a snapshot as a flat JSON object {"metric.name": value, ...}
/// in registration order, keeping only names that start with `prefix`
/// (empty = every metric).
void write_metrics_json(const MetricsSnapshot& snap, std::string_view prefix,
                        std::ostream& os);

/// Serialize a metrics delta as a JSON object
/// {"metric.name": {"before": b, "after": a, "delta": d}, ...}.
void write_delta_json(const MetricsDelta& delta, std::ostream& os,
                      std::string_view indent = "");

}  // namespace ibp::telemetry
