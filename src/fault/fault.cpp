#include "ibp/fault/fault.hpp"

#include <cctype>
#include <sstream>

#include "ibp/common/check.hpp"

namespace ibp::fault {

// ---------------------------------------------------------------------------
// FaultInjector

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)),
      seed_(plan_.seed != 0 ? plan_.seed : seed),
      qp_error_fired_(plan_.qp_errors.size(), false) {
  for (const auto& lf : plan_.links) {
    IBP_CHECK(lf.drop_prob >= 0.0 && lf.drop_prob <= 1.0,
              "drop probability out of [0,1]");
    IBP_CHECK(lf.corrupt_prob >= 0.0 && lf.corrupt_prob <= 1.0,
              "corruption probability out of [0,1]");
  }
}

Rng& FaultInjector::link_rng(NodeId src, NodeId dst) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  auto it = rngs_.find(key);
  if (it == rngs_.end()) {
    // splitmix over (seed, key) so the stream is independent of when the
    // link first carries traffic.
    std::uint64_t sm = seed_ ^ (key * 0x9e3779b97f4a7c15ull);
    it = rngs_.emplace(key, Rng(splitmix64(sm))).first;
  }
  return it->second;
}

PacketVerdict FaultInjector::judge_packet(NodeId src, NodeId dst,
                                          TimePs when) {
  ++stats_.packets_judged;
  // Independent faults compose: the packet survives each matching rule.
  double pass_drop = 1.0;
  double pass_corrupt = 1.0;
  bool any = false;
  for (const auto& lf : plan_.links) {
    if (!lf.matches(src, dst) || !lf.active(when)) continue;
    any = true;
    pass_drop *= 1.0 - lf.drop_prob;
    pass_corrupt *= 1.0 - lf.corrupt_prob;
  }
  if (!any) return PacketVerdict::Deliver;
  Rng& rng = link_rng(src, dst);
  if (pass_drop < 1.0 && rng.next_double() >= pass_drop) {
    ++stats_.packets_dropped;
    note("drop", src, when);
    return PacketVerdict::Drop;
  }
  if (pass_corrupt < 1.0 && rng.next_double() >= pass_corrupt) {
    ++stats_.packets_corrupted;
    note("corrupt", src, when);
    return PacketVerdict::Corrupt;
  }
  return PacketVerdict::Deliver;
}

bool FaultInjector::att_storm_active(NodeId node, TimePs when) const {
  for (const auto& s : plan_.storms)
    if (s.active(node, when)) return true;
  return false;
}

bool FaultInjector::qp_error_due(NodeId node, std::uint32_t qp_num,
                                 TimePs now) {
  for (std::size_t i = 0; i < plan_.qp_errors.size(); ++i) {
    const QpError& e = plan_.qp_errors[i];
    if (qp_error_fired_[i] || now < e.at) continue;
    if (e.node != kAnyNode && e.node != node) continue;
    if (e.qp_num != 0 && e.qp_num != qp_num) continue;
    qp_error_fired_[i] = true;
    ++stats_.qp_errors_fired;
    return true;
  }
  return false;
}

bool FaultInjector::server_crashed(NodeId node, TimePs when) const {
  // The node is crashed iff the latest crash event at or before `when` is
  // strictly later than the latest recover event at or before `when`.
  TimePs last_crash = 0;
  bool crashed_seen = false;
  for (const auto& e : plan_.crashes) {
    if ((e.node == kAnyNode || e.node == node) && e.at <= when &&
        (!crashed_seen || e.at > last_crash)) {
      last_crash = e.at;
      crashed_seen = true;
    }
  }
  if (!crashed_seen) return false;
  for (const auto& e : plan_.recoveries) {
    if ((e.node == kAnyNode || e.node == node) && e.at <= when &&
        e.at >= last_crash) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Plan parsing

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

NodeId parse_node(const std::string& tok) {
  if (tok == "*") return kAnyNode;
  IBP_CHECK(!tok.empty() && tok.find_first_not_of("0123456789") ==
                                std::string::npos,
            "fault plan: bad node id '" << tok << "'");
  return static_cast<NodeId>(std::stol(tok));
}

double parse_prob(const std::string& tok) {
  IBP_CHECK(!tok.empty(), "fault plan: missing probability");
  std::size_t pos = 0;
  const double p = std::stod(tok, &pos);
  IBP_CHECK(pos == tok.size() && p >= 0.0 && p <= 1.0,
            "fault plan: bad probability '" << tok << "'");
  return p;
}

/// "FROM-UNTIL" in microseconds; UNTIL may be '*' (open-ended).
void parse_window(const std::string& tok, TimePs* from, TimePs* until) {
  const auto parts = split(tok, '-');
  IBP_CHECK(parts.size() == 2, "fault plan: bad window '" << tok << "'");
  *from = us(static_cast<std::uint64_t>(std::stoull(parts[0])));
  *until = parts[1] == "*"
               ? 0
               : us(static_cast<std::uint64_t>(std::stoull(parts[1])));
  IBP_CHECK(*until == 0 || *until > *from,
            "fault plan: empty window '" << tok << "'");
}

void parse_link_fault(const std::string& value, bool corrupt,
                      FaultPlan* plan) {
  // SRC-DST:PROB[:FROM-UNTIL]
  const auto fields = split(value, ':');
  IBP_CHECK(fields.size() == 2 || fields.size() == 3,
            "fault plan: expected SRC-DST:PROB[:FROM-UNTIL], got '" << value
                                                                    << "'");
  const auto ends = split(fields[0], '-');
  IBP_CHECK(ends.size() == 2,
            "fault plan: bad link '" << fields[0] << "' (want SRC-DST)");
  LinkFault lf;
  lf.src = parse_node(ends[0]);
  lf.dst = parse_node(ends[1]);
  (corrupt ? lf.corrupt_prob : lf.drop_prob) = parse_prob(fields[1]);
  if (fields.size() == 3) parse_window(fields[2], &lf.from, &lf.until);
  plan->links.push_back(lf);
}

/// "NODE@AT" (microseconds; ':' accepted as a legacy separator).
ServerEvent parse_server_event(const std::string& key,
                               const std::string& value) {
  const char sep = value.find('@') != std::string::npos ? '@' : ':';
  const auto fields = split(value, sep);
  IBP_CHECK(fields.size() == 2,
            "fault plan: expected NODE@AT for '" << key << "', got '" << value
                                                 << "'");
  ServerEvent e;
  e.node = parse_node(fields[0]);
  e.at = us(static_cast<std::uint64_t>(std::stoull(fields[1])));
  return e;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::string cleaned;
  bool comment = false;
  for (char c : spec) {
    if (c == '#') comment = true;
    if (c == '\n') {
      comment = false;
      cleaned.push_back(';');
      continue;
    }
    if (!comment) cleaned.push_back(c);
  }
  for (const std::string& raw : split(cleaned, ';')) {
    const std::string d = trim(raw);
    if (d.empty()) continue;
    const std::size_t eq = d.find('=');
    IBP_CHECK(eq != std::string::npos && eq > 0,
              "fault plan: directive '" << d << "' is not KEY=VALUE");
    const std::string key = trim(d.substr(0, eq));
    const std::string value = trim(d.substr(eq + 1));
    if (key == "drop" || key == "corrupt") {
      parse_link_fault(value, key == "corrupt", &plan);
    } else if (key == "storm") {
      // NODE:FROM-UNTIL
      const auto fields = split(value, ':');
      IBP_CHECK(fields.size() == 2,
                "fault plan: expected NODE:FROM-UNTIL, got '" << value << "'");
      AttStorm s;
      s.node = parse_node(fields[0]);
      parse_window(fields[1], &s.from, &s.until);
      plan.storms.push_back(s);
    } else if (key == "qpkill") {
      // NODE:QP:AT
      const auto fields = split(value, ':');
      IBP_CHECK(fields.size() == 3,
                "fault plan: expected NODE:QP:AT, got '" << value << "'");
      QpError e;
      e.node = parse_node(fields[0]);
      if (fields[1] != "*") {
        const bool digits = !fields[1].empty() &&
                            fields[1].find_first_not_of("0123456789") ==
                                std::string::npos;
        e.qp_num = digits ? static_cast<std::uint32_t>(std::stoul(fields[1]))
                          : 0;
        IBP_CHECK(e.qp_num != 0, "fault plan: qpkill=" << value
                                     << " has a bad QP; QPs are numbered "
                                        "from 1, '*' = any");
      }
      e.at = us(static_cast<std::uint64_t>(std::stoull(fields[2])));
      plan.qp_errors.push_back(e);
    } else if (key == "crash") {
      plan.crashes.push_back(parse_server_event(key, value));
    } else if (key == "recover") {
      plan.recoveries.push_back(parse_server_event(key, value));
    } else if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(std::stoull(value));
    } else {
      IBP_FAIL("fault plan: unknown directive '" << key << "'");
    }
  }
  return plan;
}

std::string describe(const FaultPlan& plan) {
  std::ostringstream os;
  os << plan.links.size() << " link fault(s), " << plan.storms.size()
     << " ATT storm(s), " << plan.qp_errors.size() << " QP error(s)";
  if (!plan.crashes.empty() || !plan.recoveries.empty())
    os << ", " << plan.crashes.size() << " crash(es), "
       << plan.recoveries.size() << " recover(s)";
  if (plan.seed != 0) os << ", seed " << plan.seed;
  return os.str();
}

// ---------------------------------------------------------------------------
// Canonical plan formatting

namespace {

/// Shortest decimal form that parses back to exactly `p`.
std::string format_prob(double p) {
  for (int prec = 1; prec <= 17; ++prec) {
    std::ostringstream os;
    os.precision(prec);
    os << p;
    if (std::stod(os.str()) == p) return os.str();
  }
  IBP_FAIL("unreachable: 17 digits round-trip any double");
}

std::string format_node(NodeId n) {
  return n == kAnyNode ? "*" : std::to_string(n);
}

/// Times in the DSL are whole microseconds; reject anything finer.
std::uint64_t as_us(TimePs t) {
  IBP_CHECK(t % us(1) == 0,
            "fault plan: time " << t << " ps is not a whole microsecond");
  return static_cast<std::uint64_t>(t / us(1));
}

std::string format_window(TimePs from, TimePs until) {
  std::ostringstream os;
  os << as_us(from) << '-';
  if (until == 0)
    os << '*';
  else
    os << as_us(until);
  return os.str();
}

}  // namespace

std::string format_fault_plan(const FaultPlan& plan) {
  std::ostringstream os;
  const char* sep = "";
  auto next = [&]() {
    os << sep;
    sep = "; ";
  };
  for (const auto& lf : plan.links) {
    // A LinkFault carries both probabilities; emit one directive per
    // nonzero channel (both when both are set) so parse-back rebuilds the
    // same composed behavior. An all-zero fault round-trips as drop=0.
    const bool emit_drop = lf.drop_prob != 0.0 || lf.corrupt_prob == 0.0;
    for (int corrupt = 0; corrupt < 2; ++corrupt) {
      const double p = corrupt ? lf.corrupt_prob : lf.drop_prob;
      if (corrupt ? p == 0.0 : !emit_drop) continue;
      next();
      os << (corrupt ? "corrupt=" : "drop=") << format_node(lf.src) << '-'
         << format_node(lf.dst) << ':' << format_prob(p);
      if (lf.from != 0 || lf.until != 0)
        os << ':' << format_window(lf.from, lf.until);
    }
  }
  for (const auto& s : plan.storms) {
    next();
    os << "storm=" << format_node(s.node) << ':'
       << format_window(s.from, s.until);
  }
  for (const auto& e : plan.qp_errors) {
    next();
    os << "qpkill=" << format_node(e.node) << ':';
    if (e.qp_num == 0)
      os << '*';
    else
      os << e.qp_num;
    os << ':' << as_us(e.at);
  }
  for (const auto& e : plan.crashes) {
    next();
    os << "crash=" << format_node(e.node) << '@' << as_us(e.at);
  }
  for (const auto& e : plan.recoveries) {
    next();
    os << "recover=" << format_node(e.node) << '@' << as_us(e.at);
  }
  if (plan.seed != 0) {
    next();
    os << "seed=" << plan.seed;
  }
  return os.str();
}

}  // namespace ibp::fault
