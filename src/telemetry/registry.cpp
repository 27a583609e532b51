#include "ibp/telemetry/registry.hpp"

#include <algorithm>

namespace ibp::telemetry {

MetricsRegistry::MetricsRegistry()
    : names_(std::make_shared<std::deque<std::string>>()) {}

std::size_t MetricsRegistry::resolve(std::string_view name) {
  if (auto it = index_.find(name); it != index_.end()) return it->second;
  const std::size_t slot = slots_.size();
  names_->emplace_back(name);
  slots_.emplace_back();
  index_.emplace(std::string(name), slot);
  return slot;
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(this, resolve(name));
}

void MetricsRegistry::add(std::string_view name, double delta) {
  slots_[resolve(name)].base += delta;
}

ProbeHandle MetricsRegistry::probe(std::string_view name,
                                   std::function<double()> fn) {
  const std::size_t slot = resolve(name);
  const std::uint64_t id = next_probe_id_++;
  slots_[slot].probes.push_back(Probe{id, std::move(fn)});
  return ProbeHandle(this, slot, id);
}

void MetricsRegistry::latch(std::size_t slot, std::uint64_t probe_id) {
  auto& probes = slots_[slot].probes;
  auto it = std::find_if(probes.begin(), probes.end(),
                         [&](const Probe& p) { return p.id == probe_id; });
  if (it != probes.end()) {
    slots_[slot].base += it->fn();
    probes.erase(it);
  }
}

double MetricsRegistry::value_at(std::size_t slot) const {
  const Slot& s = slots_[slot];
  double v = s.base;
  for (const Probe& p : s.probes) v += p.fn();
  return v;
}

double MetricsRegistry::value(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0.0 : value_at(it->second);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.names_ = names_;
  snap.values_.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i)
    snap.values_[i] = value_at(i);
  return snap;
}

double MetricsSnapshot::value_of(std::string_view name) const {
  for (std::size_t i = 0; i < values_.size(); ++i)
    if ((*names_)[i] == name) return values_[i];
  return 0.0;
}

MetricsDelta diff(const MetricsSnapshot& before, const MetricsSnapshot& after) {
  MetricsDelta d;
  d.names = after.names_;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const double b = i < before.size() ? before.value(i) : 0.0;
    const double a = after.value(i);
    if (a != b) d.entries.push_back({after.name(i), b, a});
  }
  return d;
}

double MetricsDelta::delta_of(std::string_view name) const {
  for (const Entry& e : entries)
    if (e.name == name) return e.delta();
  return 0.0;
}

std::vector<ProbeHandle> histogram_probes(MetricsRegistry& m,
                                          const std::string& prefix,
                                          const LogHistogram* hist) {
  std::vector<ProbeHandle> out;
  out.reserve(4);
  out.push_back(
      m.probe(prefix + ".p50_us", [hist] { return hist->p50() / 1000.0; }));
  out.push_back(
      m.probe(prefix + ".p90_us", [hist] { return hist->p90() / 1000.0; }));
  out.push_back(
      m.probe(prefix + ".p99_us", [hist] { return hist->p99() / 1000.0; }));
  out.push_back(m.probe(prefix + ".max_us",
                        [hist] { return hist->stats().max() / 1000.0; }));
  return out;
}

}  // namespace ibp::telemetry
