#include "ibp/telemetry/sink.hpp"

#include "ibp/sim/tracer.hpp"

namespace ibp::telemetry {

void write_metrics_json(const MetricsSnapshot& snap, std::string_view prefix,
                        std::ostream& os) {
  os << "{\n";
  bool any = false;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const std::string_view name = snap.name(i);
    if (name.substr(0, prefix.size()) != prefix) continue;
    if (any) os << ",\n";
    any = true;
    os << "  \"" << sim::Tracer::escaped(std::string(name))
       << "\": " << snap.value(i);
  }
  os << (any ? "\n}\n" : "}\n");
}

void write_delta_json(const MetricsDelta& delta, std::ostream& os,
                      std::string_view indent) {
  os << "{";
  for (std::size_t i = 0; i < delta.entries.size(); ++i) {
    const auto& e = delta.entries[i];
    os << (i == 0 ? "\n" : ",\n") << indent << "  \""
       << sim::Tracer::escaped(std::string(e.name)) << "\": {\"before\": "
       << e.before << ", \"after\": " << e.after
       << ", \"delta\": " << e.delta() << "}";
  }
  if (!delta.entries.empty()) os << "\n" << indent;
  os << "}";
}

}  // namespace ibp::telemetry
