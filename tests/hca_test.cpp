#include "ibp/hca/adapter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "ibp/hca/completion_queue.hpp"
#include "wake_probe.hpp"

namespace ibp::hca {
namespace {

struct TwoNodes {
  TwoNodes() {
    qa = &a.create_qp(&a_scq, &a_rcq);
    qb = &b.create_qp(&b_scq, &b_rcq);
    qa->connect(qb);
    qb->connect(qa);
  }

  AdapterConfig cfg;
  mem::PhysicalMemory pm_a{64 * kMiB, 16, 1};
  mem::PhysicalMemory pm_b{64 * kMiB, 16, 2};
  mem::HugeTlbFs fs_a{&pm_a, 16, 0};
  mem::HugeTlbFs fs_b{&pm_b, 16, 0};
  mem::AddressSpace as_a{&pm_a, &fs_a};
  mem::AddressSpace as_b{&pm_b, &fs_b};
  Adapter a{0, AdapterConfig{}};
  Adapter b{1, AdapterConfig{}};
  CompletionQueue a_scq, a_rcq, b_scq, b_rcq;
  QueuePair* qa = nullptr;
  QueuePair* qb = nullptr;
};

TEST(CompletionQueue, OrdersByReadyTime) {
  CompletionQueue cq;
  Cqe c1, c2, c3;
  c1.wr_id = 1;
  c1.ready_time = ns(300);
  c2.wr_id = 2;
  c2.ready_time = ns(100);
  c3.wr_id = 3;
  c3.ready_time = ns(200);
  cq.push(c1);
  cq.push(c2);
  cq.push(c3);
  EXPECT_EQ(cq.next_ready(), ns(100));
  EXPECT_FALSE(cq.poll(ns(50)).has_value());
  EXPECT_EQ(cq.poll(ns(1000))->wr_id, 2u);
  EXPECT_EQ(cq.poll(ns(1000))->wr_id, 3u);
  EXPECT_EQ(cq.poll(ns(1000))->wr_id, 1u);
  EXPECT_FALSE(cq.next_ready().has_value());
}

TEST(CompletionQueue, StableForEqualTimes) {
  CompletionQueue cq;
  for (int i = 0; i < 5; ++i) {
    Cqe c;
    c.wr_id = static_cast<std::uint64_t>(i);
    c.ready_time = ns(100);
    cq.push(c);
  }
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(cq.poll(ns(100))->wr_id, static_cast<std::uint64_t>(i));
}

TEST(CompletionQueue, PushAndCancelFireTheWaker) {
  CompletionQueue cq;
  WakeProbe probe(cq.waker());
  Cqe c;
  c.wr_id = 7;
  c.status = WcStatus::RnrRetryExceeded;
  cq.push(c);
  EXPECT_TRUE(probe.fired());
  EXPECT_TRUE(cq.cancel(7, WcStatus::RnrRetryExceeded));
  EXPECT_TRUE(probe.fired());
}

TEST(CompletionQueue, EveryMutationFiresAndNoConstCallDoes) {
  // A pop fires too: a sibling track that waits on the same CQ may have
  // been ready on the CQE this poll took.
  CompletionQueue cq;
  WakeProbe probe(cq.waker());
  Cqe c;
  c.wr_id = 1;
  c.ready_time = ns(100);
  cq.push(c);
  EXPECT_TRUE(probe.fired()) << "push";
  EXPECT_EQ(cq.next_ready(), ns(100));
  EXPECT_EQ(cq.depth(), 1u);
  EXPECT_FALSE(probe.fired()) << "next_ready and depth read only";
  EXPECT_FALSE(cq.poll(ns(50)).has_value());
  EXPECT_FALSE(cq.cancel(2, WcStatus::Success));
  EXPECT_FALSE(probe.fired()) << "a poll or cancel that removes nothing";
  EXPECT_TRUE(cq.poll(ns(100)).has_value());
  EXPECT_TRUE(probe.fired()) << "poll that pops";
  cq.push(c);
  EXPECT_TRUE(probe.fired()) << "push";
  EXPECT_TRUE(cq.cancel(1, WcStatus::Success));
  EXPECT_TRUE(probe.fired()) << "cancel";
}

TEST(WriteMonitor, PushFiresTheWaker) {
  WriteMonitor mon;
  WakeProbe probe(mon.waker());
  mon.push({.addr = 64, .len = 8, .visible_at = ns(100)});
  EXPECT_TRUE(probe.fired());
}

TEST(WriteMonitor, EveryMutationFiresAndNoConstCallDoes) {
  WriteMonitor mon;
  WakeProbe probe(mon.waker());
  mon.push({.addr = 64, .len = 8, .visible_at = ns(100)});
  mon.push({.addr = 72, .len = 8, .visible_at = ns(200)});
  EXPECT_TRUE(probe.fired()) << "push";
  EXPECT_EQ(mon.next_visible(), ns(100));
  EXPECT_EQ(mon.pending(), 2u);
  EXPECT_FALSE(probe.fired()) << "next_visible and pending read only";
  EXPECT_TRUE(mon.take_visible(ns(50)).empty());
  EXPECT_FALSE(probe.fired()) << "a take that removes nothing";
  EXPECT_EQ(mon.take_visible(ns(100)).size(), 1u);
  EXPECT_TRUE(probe.fired()) << "take that removes";
}

TEST(Waker, UnwiredOwnersDoNothingOnWake) {
  Waker().wake();
  CompletionQueue cq;
  Cqe c;
  c.wr_id = 3;
  cq.push(c);
  EXPECT_TRUE(cq.cancel(3, WcStatus::Success));
  WriteMonitor mon;
  mon.push({.addr = 64, .len = 8, .visible_at = ns(100)});
  EXPECT_EQ(cq.depth(), 0u);
  EXPECT_EQ(mon.pending(), 1u);
}

TEST(Registration, CostScalesWithPageCount) {
  TwoNodes t;
  auto& m4k = t.as_a.map(1 * kMiB, mem::PageKind::Small);
  auto& m2m = t.as_a.map(2 * kMiB, mem::PageKind::Huge);
  const auto r4k = t.a.reg_mr(t.as_a, m4k.va_base, 1 * kMiB, kSmallPageSize);
  const auto r2m_native =
      t.a.reg_mr(t.as_a, m2m.va_base, 2 * kMiB, kHugePageSize);
  // 256 pages pinned + 256 translations vs 1 + 1: order-of-magnitude gap.
  EXPECT_GT(r4k.cost, 10 * r2m_native.cost);
  EXPECT_EQ(r4k.mr->npages, 256u);
  EXPECT_EQ(r4k.mr->ntrans, 256u);
  EXPECT_EQ(r2m_native.mr->npages, 1u);
  EXPECT_EQ(r2m_native.mr->ntrans, 1u);
}

TEST(Registration, StockDriverShipsPretend4kTranslations) {
  TwoNodes t;
  auto& m = t.as_a.map(2 * kMiB, mem::PageKind::Huge);
  const auto r = t.a.reg_mr(t.as_a, m.va_base, 2 * kMiB, kSmallPageSize);
  EXPECT_EQ(r.mr->npages, 1u);     // pin per OS page
  EXPECT_EQ(r.mr->ntrans, 512u);   // but 4 KB entries to the NIC
}

TEST(Registration, PinsAndUnpinsPages) {
  TwoNodes t;
  auto& m = t.as_a.map(64 * kKiB, mem::PageKind::Small);
  const auto r = t.a.reg_mr(t.as_a, m.va_base, 64 * kKiB, kSmallPageSize);
  EXPECT_EQ(t.as_a.pinned_pages(), 16u);
  t.a.dereg_mr(r.mr->lkey);
  EXPECT_EQ(t.as_a.pinned_pages(), 0u);
}

TEST(Registration, UnknownDeregThrows) {
  TwoNodes t;
  EXPECT_THROW(t.a.dereg_mr(999), SimError);
}

TEST(SendRecv, MovesBytesAndCompletesInOrder) {
  TwoNodes t;
  auto& ma = t.as_a.map(64 * kKiB, mem::PageKind::Small);
  auto& mb = t.as_b.map(64 * kKiB, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 64 * kKiB, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 64 * kKiB, kSmallPageSize);

  auto src = t.as_a.host_span(ma.va_base, 4096);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i * 3);

  RecvWr rwr;
  rwr.wr_id = 77;
  rwr.sges = {{mb.va_base, 4096, rb.mr->lkey}};
  t.qb->post_recv(rwr, 0);

  SendWr swr;
  swr.wr_id = 55;
  swr.opcode = Opcode::Send;
  swr.has_imm = true;
  swr.imm = 0xabcd;
  swr.sges = {{ma.va_base, 4096, ra.mr->lkey}};
  t.qa->post_send(swr, 0);

  const auto scqe = t.a_scq.poll(ms(10));
  ASSERT_TRUE(scqe);
  EXPECT_EQ(scqe->wr_id, 55u);
  EXPECT_EQ(scqe->status, CqeStatus::Success);

  const auto rcqe = t.b_rcq.poll(ms(10));
  ASSERT_TRUE(rcqe);
  EXPECT_EQ(rcqe->wr_id, 77u);
  EXPECT_EQ(rcqe->byte_len, 4096u);
  EXPECT_TRUE(rcqe->has_imm);
  EXPECT_EQ(rcqe->imm, 0xabcdu);
  // Recv completes no earlier than the wire allows.
  EXPECT_GT(rcqe->ready_time, t.cfg.wire_latency);

  auto dst = t.as_b.host_span(mb.va_base, 4096);
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(dst[i], static_cast<std::uint8_t>(i * 3));
}

TEST(SendRecv, LateRecvStillMatches) {
  TwoNodes t;
  auto& ma = t.as_a.map(4096, mem::PageKind::Small);
  auto& mb = t.as_b.map(4096, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 4096, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 4096, kSmallPageSize);

  SendWr swr;
  swr.sges = {{ma.va_base, 128, ra.mr->lkey}};
  t.qa->post_send(swr, 0);
  EXPECT_EQ(t.qb->unmatched_inbound(), 1u);

  RecvWr rwr;
  rwr.sges = {{mb.va_base, 4096, rb.mr->lkey}};
  t.qb->post_recv(rwr, ms(5));  // posted long after arrival
  const auto cqe = t.b_rcq.poll(ms(10));
  ASSERT_TRUE(cqe);
  // Completion waits for the post, not just the arrival.
  EXPECT_GE(cqe->ready_time, ms(5));
}

TEST(SendRecv, TruncationYieldsErrorCqe) {
  TwoNodes t;
  auto& ma = t.as_a.map(4096, mem::PageKind::Small);
  auto& mb = t.as_b.map(4096, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 4096, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 4096, kSmallPageSize);

  RecvWr rwr;
  rwr.sges = {{mb.va_base, 64, rb.mr->lkey}};
  t.qb->post_recv(rwr, 0);
  SendWr swr;
  swr.sges = {{ma.va_base, 1024, ra.mr->lkey}};
  t.qa->post_send(swr, 0);
  const auto cqe = t.b_rcq.poll(ms(10));
  ASSERT_TRUE(cqe);
  EXPECT_EQ(cqe->status, CqeStatus::LocalLengthError);
}

TEST(SendRecv, MultiSgeGatherScatter) {
  TwoNodes t;
  auto& ma = t.as_a.map(4 * kSmallPageSize, mem::PageKind::Small);
  auto& mb = t.as_b.map(4 * kSmallPageSize, mem::PageKind::Small);
  const auto ra =
      t.a.reg_mr(t.as_a, ma.va_base, 4 * kSmallPageSize, kSmallPageSize);
  const auto rb =
      t.b.reg_mr(t.as_b, mb.va_base, 4 * kSmallPageSize, kSmallPageSize);

  // Three source pieces, two destination pieces.
  for (int p = 0; p < 3; ++p) {
    auto s = t.as_a.host_span(ma.va_base + p * kSmallPageSize, 100);
    std::fill(s.begin(), s.end(), static_cast<std::uint8_t>('A' + p));
  }
  RecvWr rwr;
  rwr.sges = {{mb.va_base, 150, rb.mr->lkey},
              {mb.va_base + kSmallPageSize, 4096, rb.mr->lkey}};
  t.qb->post_recv(rwr, 0);
  SendWr swr;
  swr.sges = {{ma.va_base, 100, ra.mr->lkey},
              {ma.va_base + kSmallPageSize, 100, ra.mr->lkey},
              {ma.va_base + 2 * kSmallPageSize, 100, ra.mr->lkey}};
  t.qa->post_send(swr, 0);
  const auto cqe = t.b_rcq.poll(ms(10));
  ASSERT_TRUE(cqe);
  EXPECT_EQ(cqe->byte_len, 300u);
  // First 150 bytes land in SGE 0 (100xA + 50xB), rest in SGE 1.
  auto d0 = t.as_b.host_span(mb.va_base, 150);
  EXPECT_EQ(d0[0], 'A');
  EXPECT_EQ(d0[99], 'A');
  EXPECT_EQ(d0[100], 'B');
  EXPECT_EQ(d0[149], 'B');
  auto d1 = t.as_b.host_span(mb.va_base + kSmallPageSize, 150);
  EXPECT_EQ(d1[0], 'B');
  EXPECT_EQ(d1[49], 'B');
  EXPECT_EQ(d1[50], 'C');
  EXPECT_EQ(d1[149], 'C');
}

TEST(SendRecv, PostCostGrowsPerSge) {
  TwoNodes t;
  auto& ma = t.as_a.map(16 * kSmallPageSize, mem::PageKind::Small);
  const auto ra =
      t.a.reg_mr(t.as_a, ma.va_base, 16 * kSmallPageSize, kSmallPageSize);
  auto post_cost = [&](std::uint32_t nsges) {
    SendWr wr;
    for (std::uint32_t i = 0; i < nsges; ++i)
      wr.sges.push_back({ma.va_base + i * kSmallPageSize, 8, ra.mr->lkey});
    return t.qa->post_send(wr, 0);
  };
  const TimePs c1 = post_cost(1);
  const TimePs c8 = post_cost(8);
  EXPECT_EQ(c8 - c1, 7 * t.cfg.post_per_sge);
}

TEST(SendRecv, SgeOutsideRegionThrows) {
  TwoNodes t;
  auto& ma = t.as_a.map(4096, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 2048, kSmallPageSize);
  SendWr wr;
  wr.sges = {{ma.va_base + 2000, 100, ra.mr->lkey}};  // crosses region end
  EXPECT_THROW(t.qa->post_send(wr, 0), SimError);
  wr.sges = {{ma.va_base, 100, 424242}};  // unknown lkey
  EXPECT_THROW(t.qa->post_send(wr, 0), SimError);
}

TEST(RdmaWrite, PlacesBytesRemotely) {
  TwoNodes t;
  auto& ma = t.as_a.map(64 * kKiB, mem::PageKind::Small);
  auto& mb = t.as_b.map(64 * kKiB, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 64 * kKiB, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 64 * kKiB, kSmallPageSize);

  auto src = t.as_a.host_span(ma.va_base, 32 * kKiB);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i ^ (i >> 8));

  SendWr wr;
  wr.wr_id = 9;
  wr.opcode = Opcode::RdmaWrite;
  wr.sges = {{ma.va_base, 32 * kKiB, ra.mr->lkey}};
  wr.remote_addr = mb.va_base + 1024;
  wr.rkey = rb.mr->lkey;
  t.qa->post_send(wr, 0);

  const auto cqe = t.a_scq.poll(ms(10));
  ASSERT_TRUE(cqe);
  EXPECT_EQ(cqe->type, CqeType::RdmaWriteComplete);
  // No receiver-side CQE for one-sided ops.
  EXPECT_FALSE(t.b_rcq.poll(ms(10)).has_value());

  auto dst = t.as_b.host_span(mb.va_base + 1024, 32 * kKiB);
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(dst[i], static_cast<std::uint8_t>(i ^ (i >> 8)));
}

TEST(RdmaWrite, MonitorGatesVisibilityAtArrival) {
  TwoNodes t;
  auto& ma = t.as_a.map(64 * kKiB, mem::PageKind::Small);
  auto& mb = t.as_b.map(64 * kKiB, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 64 * kKiB, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 64 * kKiB, kSmallPageSize);
  WriteMonitor mon;
  t.b.set_write_monitor(rb.mr->lkey, &mon);

  auto src = t.as_a.host_span(ma.va_base, 4096);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i * 5 + 1);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sges = {{ma.va_base, 4096, ra.mr->lkey}};
  wr.remote_addr = mb.va_base + 512;
  wr.rkey = rb.mr->lkey;
  t.qa->post_send(wr, 0);

  // The event exists immediately (sim placement is eager) but is gated
  // behind the transfer's virtual arrival — a poll "before" sees nothing.
  const auto vis = mon.next_visible();
  ASSERT_TRUE(vis.has_value());
  EXPECT_GT(*vis, t.cfg.wire_latency);
  EXPECT_TRUE(mon.take_visible(*vis - 1).empty());
  const auto evs = mon.take_visible(*vis);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].addr, mb.va_base + 512);
  EXPECT_EQ(evs[0].len, 4096u);
  EXPECT_FALSE(evs[0].has_imm);
  EXPECT_EQ(evs[0].visible_at, *vis);
  EXPECT_FALSE(mon.next_visible().has_value());
  auto dst = t.as_b.host_span(mb.va_base + 512, 4096);
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(dst[i], static_cast<std::uint8_t>(i * 5 + 1));
}

TEST(RdmaWrite, WriteWithImmediateConsumesAReceive) {
  TwoNodes t;
  auto& ma = t.as_a.map(64 * kKiB, mem::PageKind::Small);
  auto& mb = t.as_b.map(64 * kKiB, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 64 * kKiB, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 64 * kKiB, kSmallPageSize);

  auto src = t.as_a.host_span(ma.va_base, 2048);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i * 11 + 3);
  auto recv_buf = t.as_b.host_span(mb.va_base, 64);
  std::fill(recv_buf.begin(), recv_buf.end(), std::uint8_t{0xee});

  RecvWr rwr;
  rwr.wr_id = 70;
  rwr.sges = {{mb.va_base, 64, rb.mr->lkey}};
  t.qb->post_recv(rwr, 0);

  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.has_imm = true;
  wr.imm = 0x5151;
  wr.sges = {{ma.va_base, 2048, ra.mr->lkey}};
  wr.remote_addr = mb.va_base + 4096;
  wr.rkey = rb.mr->lkey;
  t.qa->post_send(wr, 0);

  const auto rcqe = t.b_rcq.poll(ms(10));
  ASSERT_TRUE(rcqe);
  EXPECT_EQ(rcqe->wr_id, 70u);
  EXPECT_TRUE(rcqe->has_imm);
  EXPECT_EQ(rcqe->imm, 0x5151u);
  // The receive reports the write length; the payload landed one-sided at
  // remote_addr, not in the consumed receive's scatter list.
  EXPECT_EQ(rcqe->byte_len, 2048u);
  auto dst = t.as_b.host_span(mb.va_base + 4096, 2048);
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(dst[i], static_cast<std::uint8_t>(i * 11 + 3));
  for (const std::uint8_t b : recv_buf) ASSERT_EQ(b, 0xee);
}

TEST(RdmaWrite, GatherListLandsBackToBackInSgeOrder) {
  TwoNodes t;
  auto& ma = t.as_a.map(4 * kSmallPageSize, mem::PageKind::Small);
  auto& mb = t.as_b.map(4 * kSmallPageSize, mem::PageKind::Small);
  const auto ra =
      t.a.reg_mr(t.as_a, ma.va_base, 4 * kSmallPageSize, kSmallPageSize);
  const auto rb =
      t.b.reg_mr(t.as_b, mb.va_base, 4 * kSmallPageSize, kSmallPageSize);

  // Three pieces of different lengths, listed out of address order.
  const std::uint32_t lens[3] = {700, 1, 2500};
  const VirtAddr addrs[3] = {ma.va_base + 2 * kSmallPageSize + 9,
                             ma.va_base + 100, ma.va_base + kSmallPageSize};
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  std::vector<std::uint8_t> expect;
  for (int p = 0; p < 3; ++p) {
    auto s = t.as_a.host_span(addrs[p], lens[p]);
    for (std::size_t i = 0; i < s.size(); ++i)
      s[i] = static_cast<std::uint8_t>(p * 80 + i * 7);
    expect.insert(expect.end(), s.begin(), s.end());
    wr.sges.push_back({addrs[p], lens[p], ra.mr->lkey});
  }
  auto around = t.as_b.host_span(mb.va_base, 4 * kSmallPageSize);
  std::fill(around.begin(), around.end(), std::uint8_t{0xa5});
  wr.remote_addr = mb.va_base + 333;
  wr.rkey = rb.mr->lkey;
  t.qa->post_send(wr, 0);
  ASSERT_TRUE(t.a_scq.poll(ms(10)));

  for (std::size_t i = 0; i < around.size(); ++i) {
    const bool inside = i >= 333 && i < 333 + expect.size();
    ASSERT_EQ(around[i], inside ? expect[i - 333] : 0xa5) << "byte " << i;
  }
}

// Two QPs on one adapter wired to each other: every SGE and the write's
// target live in the same address space, so sources and destination can
// overlap.
struct Loopback {
  Loopback() {
    q1 = &hca.create_qp(&scq1, &rcq1);
    q2 = &hca.create_qp(&scq2, &rcq2);
    q1->connect(q2);
    q2->connect(q1);
    auto& m = as.map(16 * kSmallPageSize, mem::PageKind::Small);
    base = m.va_base;
    lkey = hca.reg_mr(as, base, 16 * kSmallPageSize, kSmallPageSize).mr->lkey;
    bytes = as.host_span(base, 16 * kSmallPageSize);
    for (std::size_t i = 0; i < bytes.size(); ++i)
      bytes[i] = static_cast<std::uint8_t>(i * 13 + (i >> 9));
  }

  /// Writes `sges` (offsets into the mapping) to offset `to`, and returns
  /// what the mapping must read afterwards: every source read before any
  /// byte lands.
  std::vector<std::uint8_t> write(
      std::initializer_list<std::pair<std::uint64_t, std::uint32_t>> sges,
      std::uint64_t to) {
    std::vector<std::uint8_t> expect(bytes.begin(), bytes.end());
    std::vector<std::uint8_t> payload;
    SendWr wr;
    wr.opcode = Opcode::RdmaWrite;
    for (const auto& [off, len] : sges) {
      payload.insert(payload.end(), bytes.begin() + off,
                     bytes.begin() + off + len);
      wr.sges.push_back({base + off, len, lkey});
    }
    std::copy(payload.begin(), payload.end(), expect.begin() + to);
    wr.remote_addr = base + to;
    wr.rkey = lkey;
    q1->post_send(wr, 0);
    return expect;
  }

  mem::PhysicalMemory pm{64 * kMiB, 16, 3};
  mem::HugeTlbFs fs{&pm, 16, 0};
  mem::AddressSpace as{&pm, &fs};
  Adapter hca{0, AdapterConfig{}};
  CompletionQueue scq1, rcq1, scq2, rcq2;
  QueuePair* q1 = nullptr;
  QueuePair* q2 = nullptr;
  VirtAddr base = 0;
  std::uint32_t lkey = 0;
  std::span<std::uint8_t> bytes;
};

TEST(RdmaWrite, LoopbackOverlappingWriteActsLikeMemmove) {
  Loopback lb;
  const auto expect = lb.write({{0, 8 * kKiB}}, 1000);
  ASSERT_TRUE(lb.scq1.poll(ms(10)));
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), lb.bytes.begin()));
}

TEST(RdmaWrite, LoopbackGatherReadsEverySourceBeforePlacing) {
  Loopback lb;
  // The first SGE lands on [3000, 5000), over the start of the second
  // source [4000, 7000): that source must still arrive as it was posted.
  const auto expect = lb.write({{9000, 2000}, {4000, 3000}}, 3000);
  ASSERT_TRUE(lb.scq1.poll(ms(10)));
  for (std::size_t i = 0; i < expect.size(); ++i)
    ASSERT_EQ(lb.bytes[i], expect[i]) << "byte " << i;
}

TEST(RdmaWrite, InlinePostPaysCpuCopyPerByte) {
  TwoNodes t;
  auto& ma = t.as_a.map(4096, mem::PageKind::Small);
  auto& mb = t.as_b.map(4096, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 4096, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 4096, kSmallPageSize);
  auto write_wr = [&](bool inl, std::uint32_t len) {
    SendWr wr;
    wr.opcode = Opcode::RdmaWrite;
    wr.inline_data = inl;
    wr.sges = {{ma.va_base, len, ra.mr->lkey}};
    wr.remote_addr = mb.va_base;
    wr.rkey = rb.mr->lkey;
    return wr;
  };
  t.qa->post_send(write_wr(false, 64), 0);  // warm the ATT
  const TimePs plain = t.qa->post_send(write_wr(false, 64), ms(1));
  const TimePs inl = t.qa->post_send(write_wr(true, 64), ms(2));
  EXPECT_EQ(inl - plain, 64 * t.cfg.post_inline_per_byte)
      << "the doorbell write carries the payload at a per-byte CPU cost";
  EXPECT_THROW(
      t.qa->post_send(write_wr(true, t.cfg.inline_max + 1), ms(3)),
      SimError);
}

TEST(RdmaWrite, OutOfBoundsRemoteThrows) {
  TwoNodes t;
  auto& ma = t.as_a.map(4096, mem::PageKind::Small);
  auto& mb = t.as_b.map(4096, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 4096, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 2048, kSmallPageSize);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sges = {{ma.va_base, 4096, ra.mr->lkey}};
  wr.remote_addr = mb.va_base;  // 4096 bytes into a 2048-byte region
  wr.rkey = rb.mr->lkey;
  EXPECT_THROW(t.qa->post_send(wr, 0), SimError);
}

TEST(AttCache, TranslationReuseHitsAfterWarmup) {
  TwoNodes t;
  auto& ma = t.as_a.map(64 * kKiB, mem::PageKind::Small);
  auto& mb = t.as_b.map(64 * kKiB, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 64 * kKiB, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 64 * kKiB, kSmallPageSize);

  auto send_once = [&](TimePs now) {
    RecvWr rwr;
    rwr.sges = {{mb.va_base, 64 * kKiB, rb.mr->lkey}};
    t.qb->post_recv(rwr, now);
    SendWr swr;
    swr.sges = {{ma.va_base, 16 * kKiB, ra.mr->lkey}};
    t.qa->post_send(swr, now);
  };
  send_once(0);
  const std::uint64_t misses_first = t.a.stats().att_misses;
  EXPECT_GE(misses_first, 4u);  // 16 KB = 4 x 4 KB translations
  send_once(ms(1));
  EXPECT_EQ(t.a.stats().att_misses, misses_first)
      << "warm translations must hit";
  EXPECT_GT(t.a.stats().att_hits, 0u);
}

TEST(AttCache, HugeTranslationsCoverMoreBytesPerEntry) {
  TwoNodes t;
  auto& ma = t.as_a.map(8 * kMiB, mem::PageKind::Huge);
  auto& mb = t.as_b.map(8 * kMiB, mem::PageKind::Huge);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 8 * kMiB, kHugePageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 8 * kMiB, kHugePageSize);
  RecvWr rwr;
  rwr.sges = {{mb.va_base, static_cast<std::uint32_t>(8 * kMiB), rb.mr->lkey}};
  t.qb->post_recv(rwr, 0);
  SendWr swr;
  swr.sges = {{ma.va_base, static_cast<std::uint32_t>(8 * kMiB), ra.mr->lkey}};
  t.qa->post_send(swr, 0);
  // 8 MB with 2 MB translations: at most 4 sender-side entries touched.
  EXPECT_LE(t.a.stats().att_misses, 4u);
}

TEST(AttCache, StreamingPastCapacityThrashesAndUnderCapacityHits) {
  // Sends a region of `pages` 4 KB translations twice and returns each
  // pass's sender-side ATT (hits, misses).
  auto stream_twice = [](std::uint64_t pages) {
    TwoNodes t;
    const std::uint64_t len = pages * kSmallPageSize;
    auto& ma = t.as_a.map(len, mem::PageKind::Small);
    auto& mb = t.as_b.map(len, mem::PageKind::Small);
    const auto ra = t.a.reg_mr(t.as_a, ma.va_base, len, kSmallPageSize);
    const auto rb = t.b.reg_mr(t.as_b, mb.va_base, len, kSmallPageSize);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> passes;
    for (TimePs now : {TimePs{0}, ms(10)}) {
      const AdapterStats before = t.a.stats();
      RecvWr rwr;
      rwr.sges = {{mb.va_base, static_cast<std::uint32_t>(len), rb.mr->lkey}};
      t.qb->post_recv(rwr, now);
      SendWr swr;
      swr.sges = {{ma.va_base, static_cast<std::uint32_t>(len), ra.mr->lkey}};
      t.qa->post_send(swr, now);
      passes.emplace_back(t.a.stats().att_hits - before.att_hits,
                          t.a.stats().att_misses - before.att_misses);
    }
    return passes;
  };
  const std::uint64_t cap = AdapterConfig{}.att_entries;
  ASSERT_GT(cap, 1u);
  // One more than fits: each entry is evicted just before its reuse.
  const auto over = stream_twice(cap + 1);
  EXPECT_EQ(over[0], std::make_pair(std::uint64_t{0}, cap + 1));
  EXPECT_EQ(over[1], std::make_pair(std::uint64_t{0}, cap + 1));
  // One fewer than fits: the second pass finds every entry resident.
  const auto under = stream_twice(cap - 1);
  EXPECT_EQ(under[0], std::make_pair(std::uint64_t{0}, cap - 1));
  EXPECT_EQ(under[1], std::make_pair(cap - 1, std::uint64_t{0}));
}

TEST(Timing, OffsetChangesSmallMessageCost) {
  // The fig4 mechanism at the adapter level: an 8-byte buffer at offset 60
  // spans two bus lines, at offset 0 only one.
  TwoNodes t;
  auto& ma = t.as_a.map(16 * kSmallPageSize, mem::PageKind::Small);
  const auto ra =
      t.a.reg_mr(t.as_a, ma.va_base, 16 * kSmallPageSize, kSmallPageSize);

  auto send_cost = [&](std::uint32_t offset, TimePs now) {
    SendWr wr;
    wr.sges = {{ma.va_base + offset, 8, ra.mr->lkey}};
    t.qa->post_send(wr, now);
    // Drain the send CQ; return the completion time relative to now.
    const auto cqe = t.a_scq.poll(now + ms(10));
    return cqe->ready_time - now;
  };
  send_cost(0, 0);  // warm the ATT so both probes hit
  const TimePs aligned = send_cost(0, ms(1));
  const TimePs split = send_cost(60, ms(2));
  EXPECT_GT(split, aligned);
}

TEST(Timing, LinkSerializesBackToBackSends) {
  TwoNodes t;
  auto& ma = t.as_a.map(1 * kMiB, mem::PageKind::Small);
  auto& mb = t.as_b.map(8 * kMiB, mem::PageKind::Small);
  const auto ra = t.a.reg_mr(t.as_a, ma.va_base, 1 * kMiB, kSmallPageSize);
  const auto rb = t.b.reg_mr(t.as_b, mb.va_base, 8 * kMiB, kSmallPageSize);
  for (int i = 0; i < 4; ++i) {
    RecvWr rwr;
    rwr.sges = {{mb.va_base + static_cast<std::uint64_t>(i) * kMiB,
                 static_cast<std::uint32_t>(kMiB), rb.mr->lkey}};
    t.qb->post_recv(rwr, 0);
  }
  for (int i = 0; i < 4; ++i) {
    SendWr swr;
    swr.wr_id = static_cast<std::uint64_t>(i);
    swr.sges = {{ma.va_base, static_cast<std::uint32_t>(kMiB), ra.mr->lkey}};
    t.qa->post_send(swr, 0);
  }
  // Completions must be spaced by at least the wire time of 1 MB.
  TimePs prev = 0;
  const TimePs min_gap = static_cast<TimePs>(
      1 * kMiB / t.cfg.link_bw_bytes_per_ns * 1e3);
  for (int i = 0; i < 4; ++i) {
    const auto cqe = t.a_scq.poll(ms(100));
    ASSERT_TRUE(cqe);
    if (i > 0) {
      EXPECT_GE(cqe->ready_time - prev, min_gap / 2);
    }
    prev = cqe->ready_time;
  }
}

TEST(QueuePair, UnconnectedSendThrows) {
  AdapterConfig cfg;
  Adapter a(0, cfg);
  CompletionQueue scq, rcq;
  QueuePair& qp = a.create_qp(&scq, &rcq);
  SendWr wr;
  EXPECT_THROW(qp.post_send(wr, 0), SimError);
}

}  // namespace
}  // namespace ibp::hca
