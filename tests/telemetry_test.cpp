#include "ibp/telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ibp/core/cluster.hpp"
#include "ibp/fault/fault.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/telemetry/sink.hpp"

namespace ibp::telemetry {
namespace {

TEST(MetricsRegistry, CountersAndOneShotAdds) {
  MetricsRegistry reg;
  Counter c = reg.counter("mpi.sends");
  c.add();
  c.add(2.5);
  reg.add("mpi.sends", 1.0);   // resolves to the same slot
  reg.add("hca.bytes", 42.0);  // creates a second slot
  EXPECT_DOUBLE_EQ(reg.value("mpi.sends"), 4.5);
  EXPECT_DOUBLE_EQ(reg.value("hca.bytes"), 42.0);
  EXPECT_DOUBLE_EQ(reg.value("unknown.metric"), 0.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, ProbesSumAndLatchOnRelease) {
  MetricsRegistry reg;
  double a = 10.0, b = 5.0;
  ProbeHandle ha = reg.probe("regcache.hits", [&] { return a; });
  {
    ProbeHandle hb = reg.probe("regcache.hits", [&] { return b; });
    EXPECT_DOUBLE_EQ(reg.value("regcache.hits"), 15.0);
    b = 7.0;
    EXPECT_DOUBLE_EQ(reg.value("regcache.hits"), 17.0);
  }  // hb released: its final 7.0 is latched into the slot base
  b = 1000.0;  // dead probe must not be read again
  EXPECT_DOUBLE_EQ(reg.value("regcache.hits"), 17.0);
  a = 12.0;  // live probe still tracks its source
  EXPECT_DOUBLE_EQ(reg.value("regcache.hits"), 19.0);
  ha.release();
  EXPECT_DOUBLE_EQ(reg.value("regcache.hits"), 19.0);
}

TEST(MetricsRegistry, SnapshotAndDiff) {
  MetricsRegistry reg;
  Counter c = reg.counter("a.x");
  reg.add("a.y", 1.0);
  c.add(3.0);

  const MetricsSnapshot before = reg.snapshot();
  EXPECT_DOUBLE_EQ(before.value_of("a.x"), 3.0);
  EXPECT_DOUBLE_EQ(before.value_of("a.y"), 1.0);
  EXPECT_DOUBLE_EQ(before.value_of("nope"), 0.0);

  c.add(2.0);
  reg.add("a.z", 9.0);  // new metric after the first snapshot
  const MetricsSnapshot after = reg.snapshot();

  const MetricsDelta d = diff(before, after);
  ASSERT_EQ(d.entries.size(), 2u);  // a.y unchanged, so absent
  EXPECT_DOUBLE_EQ(d.delta_of("a.x"), 2.0);
  EXPECT_DOUBLE_EQ(d.delta_of("a.z"), 9.0);
  EXPECT_DOUBLE_EQ(d.delta_of("a.y"), 0.0);

  // A snapshot outlives the registry that produced it.
  auto* heap_reg = new MetricsRegistry;
  heap_reg->add("gone.metric", 4.0);
  const MetricsSnapshot survivor = heap_reg->snapshot();
  delete heap_reg;
  EXPECT_DOUBLE_EQ(survivor.value_of("gone.metric"), 4.0);
}

TEST(MetricsRegistry, SinksSerializeSnapshotAndDelta) {
  MetricsRegistry reg;
  reg.add("mpi.sends", 3.0);
  reg.add("hca.bytes", 100.0);
  const MetricsSnapshot before = reg.snapshot();
  reg.add("mpi.sends", 2.0);
  const MetricsSnapshot after = reg.snapshot();

  std::ostringstream js;
  write_metrics_json(after, "mpi.", js);
  EXPECT_EQ(js.str(), "{\n  \"mpi.sends\": 5\n}\n");

  std::ostringstream ds;
  write_delta_json(diff(before, after), ds);
  EXPECT_EQ(ds.str(),
            "{\n  \"mpi.sends\": {\"before\": 3, \"after\": 5, "
            "\"delta\": 2}\n}");
}

TEST(MetricsRegistry, HistogramProbesExportQuantiles) {
  MetricsRegistry reg;
  LogHistogram h;
  const auto probes = histogram_probes(reg, "rpc.latency", &h);
  EXPECT_EQ(probes.size(), 4u);
  EXPECT_DOUBLE_EQ(reg.value("rpc.latency.p99_us"), 0.0);
  for (std::uint64_t ns = 1000; ns <= 100000; ns += 1000)
    h.add(ns);  // 1..100 us, uniform
  // Nanosecond samples surface as microseconds, within the histogram's
  // <= 12.5 % bucket quantile error.
  EXPECT_NEAR(reg.value("rpc.latency.p50_us"), 50.0, 50.0 * 0.125);
  EXPECT_NEAR(reg.value("rpc.latency.p90_us"), 90.0, 90.0 * 0.125);
  EXPECT_NEAR(reg.value("rpc.latency.p99_us"), 99.0, 99.0 * 0.125);
  EXPECT_DOUBLE_EQ(reg.value("rpc.latency.max_us"), 100.0);  // exact max
}

core::ClusterConfig telemetry_cluster(int nodes, int rpn) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.ranks_per_node = rpn;
  cfg.hugepage_library = true;
  cfg.hugepages_per_node = 128;
  cfg.enable_tracing = true;
  return cfg;
}

void sendrecv_workload(core::RankEnv& env, int iters,
                       std::uint64_t bytes,
                       mpi::CommConfig ccfg = {}) {
  mpi::Comm comm(env, ccfg);
  const int other = 1 - env.rank();
  const VirtAddr sbuf = env.alloc(bytes);
  const VirtAddr rbuf = env.alloc(bytes);
  env.touch_stream(sbuf, bytes);
  for (int it = 0; it < iters; ++it)
    comm.sendrecv(sbuf, bytes, other, it, rbuf, bytes, other, it);
  comm.barrier();
}

TEST(Telemetry, FiveSubsystemsLiveAfterSendrecv) {
  core::Cluster cluster(telemetry_cluster(2, 1));
  cluster.run([](core::RankEnv& env) {
    sendrecv_workload(env, 4, 256 * kKiB);
  });
  const MetricsSnapshot snap = cluster.metrics().snapshot();
  std::map<std::string, double> live;  // prefix -> sum of non-zero values
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const std::string_view n = snap.name(i);
    live[std::string(n.substr(0, n.find('.')))] += snap.value(i);
  }
  for (const char* sub : {"mpi", "hca", "regcache", "hugepage", "cpu"})
    EXPECT_GT(live[sub], 0.0) << "no live metrics under " << sub << ".";
  // A few paper-central metrics must be individually live.
  EXPECT_GT(snap.value_of("mpi.rendezvous_bytes"), 0.0);
  EXPECT_GT(snap.value_of("hca.bytes_tx"), 0.0);
}

TEST(Telemetry, CounterTracksSampleDeterministically) {
  auto run_once = [] {
    core::Cluster cluster(telemetry_cluster(2, 1));
    cluster.run([](core::RankEnv& env) {
      sendrecv_workload(env, 6, 128 * kKiB);
    });
    std::ostringstream os;
    for (const auto& e : cluster.tracer()->events()) {
      if (e.kind != sim::Tracer::Kind::Counter) continue;
      os << e.name << '@' << e.start << '=' << e.value << '\n';
    }
    return os.str();
  };
  const std::string first = run_once();
  EXPECT_FALSE(first.empty()) << "sampler produced no counter samples";
  EXPECT_EQ(first, run_once());
}

TEST(Telemetry, FlowEventsPairOneToOneAcrossRetransmits) {
  core::ClusterConfig cfg = telemetry_cluster(2, 1);
  cfg.fault = fault::parse_fault_plan("drop=0-1:0.01;drop=1-0:0.01");
  core::Cluster cluster(cfg);
  std::vector<std::uint64_t> retransmits(2, 0);
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig ccfg;
    ccfg.recovery = mpi::CommConfig::Recovery::Repost;
    mpi::Comm comm(env, ccfg);
    const int other = 1 - env.rank();
    const VirtAddr sbuf = env.alloc(64 * kKiB);
    const VirtAddr rbuf = env.alloc(64 * kKiB);
    for (int it = 0; it < 10; ++it)
      comm.sendrecv(sbuf, 64 * kKiB, other, it, rbuf, 64 * kKiB, other, it);
    retransmits[static_cast<std::size_t>(env.rank())] =
        comm.stats().retransmits;
  });
  // The lossy link must actually have exercised the retransmit path.
  EXPECT_GT(retransmits[0] + retransmits[1], 0u);

  // Every flow id opens exactly once ("s") and closes exactly once ("f"):
  // a retransmitted packet re-sends the wire data but must not re-open
  // the flow, and a dropped packet's delivery only ever ingests once.
  std::map<std::uint64_t, int> opens, closes;
  for (const auto& e : cluster.tracer()->events()) {
    if (e.kind == sim::Tracer::Kind::FlowStart) ++opens[e.flow_id];
    if (e.kind == sim::Tracer::Kind::FlowEnd) ++closes[e.flow_id];
  }
  EXPECT_GT(opens.size(), 0u);
  EXPECT_EQ(opens.size(), closes.size());
  for (const auto& [id, n] : opens) {
    EXPECT_EQ(n, 1) << "flow " << id << " opened " << n << " times";
    EXPECT_EQ(closes[id], 1) << "flow " << id << " closed "
                             << closes[id] << " times";
  }
}

TEST(Telemetry, GatherSplitsHonourPlanSgeCapAndCount) {
  // kMaxSges + 2 pieces plus the header SGE are three SGEs over the cap:
  // the pieces beyond the first kMaxSges - 2 must be staged as one SGE.
  constexpr std::size_t kPieces = mpi::Comm::kMaxSges + 2;
  constexpr std::uint64_t kLen = 50;
  constexpr std::uint64_t kStride = 60;
  constexpr std::uint64_t kTotal = kPieces * kLen;
  core::Cluster cluster(telemetry_cluster(2, 1));
  std::uint64_t splits = 0;
  cluster.run([&](core::RankEnv& env) {
    mpi::CommConfig ccfg;
    ccfg.sge_gather = true;
    mpi::Comm comm(env, ccfg);
    if (env.rank() == 0) {
      const VirtAddr b = env.alloc(kPieces * kStride);
      auto s = env.space().host_span(b, kPieces * kStride);
      for (std::uint64_t i = 0; i < s.size(); ++i)
        s[i] = static_cast<std::uint8_t>(i * 11);
      std::vector<mpi::Seg> segs;
      for (std::size_t i = 0; i < kPieces; ++i)
        segs.push_back({b + i * kStride, kLen});
      comm.wait(comm.isend_gather(segs, 1, 7));
      splits = comm.stats().sge_splits;
    } else {
      const VirtAddr buf = env.alloc(kTotal);
      const mpi::RecvStatus st = comm.recv(buf, kTotal, 0, 7);
      EXPECT_EQ(st.len, kTotal);
      // Payload must survive the split: the gathered pieces arrive in
      // order, bytewise identical to the source region's pieces.
      auto r = env.space().host_span(buf, kTotal);
      for (std::uint64_t piece = 0; piece < kPieces; ++piece)
        for (std::uint64_t i = 0; i < kLen; ++i)
          ASSERT_EQ(r[piece * kLen + i],
                    static_cast<std::uint8_t>((piece * kStride + i) * 11))
              << "piece " << piece << " offset " << i;
    }
    comm.barrier();
  });
  EXPECT_EQ(splits, 1u);
  EXPECT_DOUBLE_EQ(cluster.metrics().value("mpi.sge_splits"), 1.0);
}

TEST(Telemetry, DisabledTelemetryKeepsTracerOff) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  core::Cluster cluster(cfg);
  cluster.run([](core::RankEnv& env) {
    sendrecv_workload(env, 1, 4 * kKiB);
  });
  EXPECT_EQ(cluster.tracer(), nullptr);
  // The metrics plane itself stays usable (probes latch at teardown).
  EXPECT_GT(cluster.metrics().value("hca.sends_posted"), 0.0);
}

}  // namespace
}  // namespace ibp::telemetry
