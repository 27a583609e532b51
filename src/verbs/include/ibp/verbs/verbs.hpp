#pragma once

// Verbs-style user API over the simulated HCA.
//
// A verbs::Context binds one simulated process (a sim rank) to its address
// space and its node's adapter, mirroring the ibv_* workflow:
//
//   reg_mr / dereg_mr        — memory registration (charged virtual time)
//   create_qp / connect      — RC queue pairs over per-context CQs
//   post_send / post_recv    — work requests with scatter/gather lists
//   poll_send / poll_recv    — non-blocking CQ polls
//   wait_send / wait_recv    — blocking polls that fast-forward virtual
//                              time to the completion instead of spinning
//
// The DriverConfig reproduces the paper's OpenIB patch: the stock driver
// reports 4 KB translations to the adapter even for hugepage-backed
// regions ("the kernel pretends 4 KB pages"); with hugepage_passthrough
// the native 2 MB translations are shipped, shrinking both the shipped
// entry count and the adapter's ATT footprint.

#include <cstdint>
#include <optional>

#include "ibp/common/check.hpp"
#include "ibp/common/types.hpp"
#include "ibp/hca/adapter.hpp"
#include "ibp/mem/address_space.hpp"
#include "ibp/sim/engine.hpp"

namespace ibp::verbs {

struct DriverConfig {
  /// The paper's OpenIB patch (sent to the list in August 2006): ship
  /// hugepage-sized translations for hugepage-backed regions instead of
  /// pretending 4 KB pages.
  bool hugepage_passthrough = false;
  /// RC reliability attributes applied to every QP this driver creates
  /// (retry_cnt, rnr_retry, timeouts). Only consulted when the cluster
  /// attaches a fault injector; a healthy fabric never retransmits.
  hca::QpAttrs qp;
};

/// Snapshot of a QP's state and reliability counters (query_qp).
struct QpInfo {
  hca::QpState state = hca::QpState::Ready;
  hca::QpAttrs attrs;
  hca::QpStats stats;
};

/// Registered-region handle.
struct Mr {
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;  // == lkey in this simulation
  VirtAddr addr = 0;
  std::uint64_t length = 0;
};

class Context;

/// RC queue-pair handle bound to its owning verbs::Context's CQs.
class Qp {
 public:
  std::uint32_t qp_num() const { return qp_->qp_num(); }

  /// Connect two QPs (both directions).
  static void connect(Qp& a, Qp& b) {
    a.qp_->connect(b.qp_);
    b.qp_->connect(a.qp_);
  }

 private:
  friend class Context;
  explicit Qp(hca::QueuePair* qp) : qp_(qp) {}
  hca::QueuePair* qp_;
};

class Context {
 public:
  Context(sim::Context& sc, mem::AddressSpace& space, hca::Adapter& hca,
          DriverConfig drv = {})
      : sc_(&sc), space_(&space), hca_(&hca), drv_(drv) {
    send_cq_p_ = &own_send_cq_;
    recv_cq_p_ = &own_recv_cq_;
  }

  /// Bind to externally owned CQs (used when QPs were wired before the
  /// rank program started, e.g. by core::Cluster).
  Context(sim::Context& sc, mem::AddressSpace& space, hca::Adapter& hca,
          DriverConfig drv, hca::CompletionQueue* send_cq,
          hca::CompletionQueue* recv_cq)
      : sc_(&sc), space_(&space), hca_(&hca), drv_(drv) {
    IBP_CHECK(send_cq != nullptr && recv_cq != nullptr);
    send_cq_p_ = send_cq;
    recv_cq_p_ = recv_cq;
  }

  sim::Context& sim() { return *sc_; }
  mem::AddressSpace& space() { return *space_; }
  hca::Adapter& adapter() { return *hca_; }
  const DriverConfig& driver() const { return drv_; }

  /// Register a buffer; advances virtual time by the registration cost
  /// (pin + translate + ship, per the backing page size and driver mode).
  Mr reg_mr(VirtAddr addr, std::uint64_t len) {
    const mem::Mapping* m = space_->find(addr, len);
    IBP_CHECK(m != nullptr, "reg_mr over unmapped range");
    const std::uint64_t trans =
        (m->kind == mem::PageKind::Huge && drv_.hugepage_passthrough)
            ? kHugePageSize
            : kSmallPageSize;
    auto [mr, cost] = hca_->reg_mr(*space_, addr, len, trans);
    sc_->advance(cost);
    return Mr{mr->lkey, mr->lkey, addr, len};
  }

  void dereg_mr(const Mr& mr) { sc_->advance(hca_->dereg_mr(mr.lkey)); }

  /// Attach a visibility monitor to a registered region (nullptr
  /// detaches): inbound one-sided writes into it record events with their
  /// virtual arrival time, so a memory-polling receiver (ring channels)
  /// observes bytes no earlier than the wire delivered them.
  void set_write_monitor(const Mr& mr, hca::WriteMonitor* mon) {
    hca_->set_write_monitor(mr.lkey, mon);
  }

  Qp create_qp() {
    hca::QueuePair& qp = hca_->create_qp(send_cq_p_, recv_cq_p_);
    qp.set_attrs(drv_.qp);
    return Qp(&qp);
  }

  /// Wrap a QP created directly on the adapter (must target this
  /// context's CQs).
  Qp wrap_qp(hca::QueuePair& qp) { return Qp(&qp); }

  /// Enable the multi-thread QP/CQ arbitration model for this context.
  /// SharedLocked charges a lock-acquire plus a cache-bounce (when the
  /// previous holder was another track) per post/poll, and serializes the
  /// ops behind a virtual-time lock — but only while more than one sim
  /// track is alive on the rank. PerThreadQp and Dispatcher post
  /// uncontended here; their costs (multiplied footprint, hand-off) are
  /// paid by the layers that own them. Never calling this keeps the
  /// legacy single-thread timing bit-exact.
  void set_share_mode(hca::ShareMode m) {
    share_mode_ = m;
    arbitrate_ = true;
  }
  hca::ShareMode share_mode() const { return share_mode_; }

  /// State + reliability counters of a QP (ibv_query_qp equivalent).
  QpInfo query_qp(const Qp& qp) const {
    return QpInfo{qp.qp_->state(), qp.qp_->attrs(), qp.qp_->qp_stats()};
  }

  void post_send(Qp& qp, const hca::SendWr& wr) {
    if (!contended()) {
      sc_->advance(qp.qp_->post_send(wr, sc_->now()));
      return;
    }
    auto& a = hca_->device_arb();
    TimePs extra = 0;
    const TimePs pre = lock_pre(a, &extra);
    const TimePs c = qp.qp_->post_send(wr, sc_->now() + pre);
    a.busy_until = sc_->now() + pre + c;
    hca_->note_qp_contention(extra);
    sc_->advance(pre + c);
  }

  void post_recv(Qp& qp, const hca::RecvWr& wr) {
    if (!contended()) {
      sc_->advance(qp.qp_->post_recv(wr, sc_->now()));
      return;
    }
    auto& a = hca_->device_arb();
    TimePs extra = 0;
    const TimePs pre = lock_pre(a, &extra);
    const TimePs c = qp.qp_->post_recv(wr, sc_->now() + pre);
    a.busy_until = sc_->now() + pre + c;
    hca_->note_qp_contention(extra);
    sc_->advance(pre + c);
  }

  /// Non-blocking poll; charges one poll probe.
  std::optional<hca::Cqe> poll_send() { return poll(*send_cq_p_); }
  std::optional<hca::Cqe> poll_recv() { return poll(*recv_cq_p_); }

  /// Blocking poll: fast-forwards virtual time to the next completion.
  hca::Cqe wait_send() { return wait(*send_cq_p_); }
  hca::Cqe wait_recv() { return wait(*recv_cq_p_); }

  hca::CompletionQueue& send_cq() { return *send_cq_p_; }
  hca::CompletionQueue& recv_cq() { return *recv_cq_p_; }

 private:
  /// SharedLocked arbitration applies only while several tracks are alive;
  /// otherwise (including every legacy single-thread program) posts and
  /// polls take the historical uncontended path.
  bool contended() const {
    return arbitrate_ && share_mode_ == hca::ShareMode::SharedLocked &&
           sc_->live_tracks() > 1;
  }

  /// Lock-acquire preamble for a shared QP/CQ: wait out the current
  /// holder, pay the acquire atomic, and bounce the cachelines when the
  /// previous holder was another lane. Returns the full preamble cost and
  /// stores the contended part (wait + bounce) in `*extra`.
  TimePs lock_pre(hca::ArbState& a, TimePs* extra) {
    const TimePs now = sc_->now();
    const TimePs wait = a.busy_until > now ? a.busy_until - now : 0;
    const int lane = sc_->track();
    const TimePs bounce = (a.last_lane >= 0 && a.last_lane != lane)
                              ? hca_->config().qp_cache_bounce
                              : 0;
    a.last_lane = lane;
    *extra = wait + bounce;
    return wait + hca_->config().qp_lock_acquire + bounce;
  }

  std::optional<hca::Cqe> poll(hca::CompletionQueue& cq) {
    if (!contended()) {
      auto c = cq.poll(sc_->now());
      sc_->advance(c ? hca_->config().poll_cqe : hca_->config().poll_empty);
      return c;
    }
    auto& a = hca_->device_arb();
    TimePs extra = 0;
    const TimePs pre = lock_pre(a, &extra);
    auto c = cq.poll(sc_->now() + pre);
    const TimePs cost =
        c ? hca_->config().poll_cqe : hca_->config().poll_empty;
    a.busy_until = sc_->now() + pre + cost;
    if (extra > 0) hca_->note_cq_contention(extra);
    sc_->advance(pre + cost);
    return c;
  }

  hca::Cqe wait(hca::CompletionQueue& cq) {
    // Identical cost sequence to the historical loop (probe, then either
    // consume or sleep until a CQE can be ready); routing the probe
    // through poll() adds the arbitration charges under contention.
    for (;;) {
      if (auto c = poll(cq)) return *c;
      sc_->wait("verbs cq", {&cq.waker()}, [&cq] { return cq.next_ready(); });
    }
  }

  sim::Context* sc_;
  mem::AddressSpace* space_;
  hca::Adapter* hca_;
  DriverConfig drv_;
  hca::ShareMode share_mode_ = hca::ShareMode::SharedLocked;
  bool arbitrate_ = false;
  hca::CompletionQueue own_send_cq_;
  hca::CompletionQueue own_recv_cq_;
  hca::CompletionQueue* send_cq_p_ = nullptr;
  hca::CompletionQueue* recv_cq_p_ = nullptr;
};

}  // namespace ibp::verbs
