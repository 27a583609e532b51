#pragma once

// One-sided ring channels: the RDMA-write eager tier (EXT-RDMA).
//
// A channel is a persistent, receiver-owned, pre-registered ring slab the
// *sender* RDMA-writes framed records into. The receiver discovers
// arrivals by polling ring memory — no posted receive, no recv-CQ poll on
// the hot path — and returns flow-control credit by RDMA-writing its
// consumed-up-to counter into a sender-owned control word. This is the
// MPICH2-over-InfiniBand RDMA eager design (PAPERS.md) grown on top of
// the paper's hugepage library: slabs and control words are allocated
// through hugepage::Library, so a slab at or above 32 KB is
// hugepage-resident when the library is preloaded.
//
// Wire format — every frame is 8-byte aligned inside the slab:
//
//   record frame   [ head {u32 mark, u32 len} | payload (len, padded to 8)
//                  | tail {u32 mark, u32 0} ]     mark = kHeadMagic ^ seq32
//   wrap frame     [ {u32 mark, u32 0} ]          mark = kWrapMagic ^ seq32
//
// Invariants:
//  * Single writer per ring. Frames carry a dense sequence number; the
//    receiver derives the sender's head pointer from the frames it parses
//    (the head piggybacks on the record stream — no separate pointer
//    write).
//  * Tail-marker polling rule: a record is complete only when its tail
//    marker matches head's sequence; the head marker alone may be
//    visible while payload bytes are still in flight.
//  * Wrap handling: a record that does not fit the contiguous space
//    before the slab end is preceded by a wrap frame; the rest of the
//    slab is dead space (it still consumes credit) and the record starts
//    at offset 0.
//  * Credit is an absolute consumed-up-to byte counter, monotonically
//    increasing; re-writing an old or duplicate credit value is harmless,
//    which is what makes fault-plan replays of credit writes idempotent.
//
// In this simulation RDMA-write payloads land in target host memory at
// post time while their *virtual* arrival is later; the receiver
// therefore gates every parse step on an hca::WriteMonitor attached to
// the slab MR (and the sender gates credit reads on its control word's
// monitor). A write that dies in the fault injector places no bytes and
// records no event, so re-posting the same frame at the same offset is
// idempotent and ring-credit consistent.
//
// The channel owns no QPs and no CQs: prepare()/make_credit_wr() return
// hca::SendWr work requests; the owning transport (mpi::Comm, the RPC
// layers) assigns wr_ids, posts them on its own QP and routes completion
// or replay back. Small frames are marked inline (IBV_SEND_INLINE) so
// the HCA skips the sender-side DMA gather.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "ibp/common/types.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/hca/adapter.hpp"
#include "ibp/hca/types.hpp"
#include "ibp/verbs/verbs.hpp"

namespace ibp::ringchan {

inline constexpr std::uint32_t kHeadMagic = 0x52494e47;  // "RING"
inline constexpr std::uint32_t kWrapMagic = 0x57524150;  // "WRAP"
inline constexpr std::uint32_t kHeaderBytes = 8;         // {mark, len}
inline constexpr std::uint32_t kTailBytes = 8;           // {mark, 0}

constexpr std::uint64_t align8(std::uint64_t v) { return (v + 7) & ~7ull; }

/// Slab footprint of a record frame carrying `payload` bytes.
constexpr std::uint64_t record_bytes(std::uint64_t payload) {
  return kHeaderBytes + align8(payload) + kTailBytes;
}

struct RingConfig {
  std::uint64_t slab_bytes = 64 * kKiB;  // ring capacity (multiple of 8)
  std::uint32_t max_record = 8 * kKiB + 64;  // largest payload accepted
  /// Return credit once slab_bytes/credit_div have been consumed since
  /// the last credit write (amortizes the control-word writes).
  std::uint32_t credit_div = 4;
};

/// Receiver-side slab coordinates, shipped to the sender out of band.
struct RingDescriptor {
  VirtAddr slab = 0;
  std::uint32_t rkey = 0;
  std::uint64_t bytes = 0;
};

/// Sender-side credit-word coordinates, shipped to the receiver.
struct CreditDescriptor {
  VirtAddr word = 0;
  std::uint32_t rkey = 0;
};

/// Both halves of a channel handshake (what each side publishes).
struct ChannelHello {
  RingDescriptor ring;      // my receive ring — write your records here
  CreditDescriptor credit;  // my send credit word — return credit here
};

/// Receiver half: owns the ring slab and its write
/// monitor, parses frames in arrival order, and produces credit-return
/// work requests against the peer sender's control word.
class RingReceiver {
 public:
  RingReceiver(core::RankEnv& env, const RingConfig& cfg);
  ~RingReceiver();
  RingReceiver(const RingReceiver&) = delete;
  RingReceiver& operator=(const RingReceiver&) = delete;

  RingDescriptor descriptor() const {
    return RingDescriptor{slab_, mr_.rkey, cfg_.slab_bytes};
  }
  void connect_credit(const CreditDescriptor& cd) { credit_ = cd; }
  bool credit_connected() const { return credit_.word != 0; }

  struct Record {
    VirtAddr payload = 0;   // VA of the payload inside the slab
    std::uint32_t len = 0;  // payload bytes
    std::uint64_t seq = 0;  // frame sequence number
  };

  /// Consume write-visibility events at or before `now` and append every
  /// newly completed record. Record payload bytes stay valid until
  /// release(); records must be released oldest-first.
  void poll(TimePs now, std::vector<Record>& out);

  /// Earliest pending arrival, for the owner's blocking-wait ready
  /// function; a wait that reads it names waker().
  std::optional<TimePs> next_visible() const { return mon_.next_visible(); }
  Waker& waker() { return mon_.waker(); }

  /// Done with the oldest un-released record: its slab footprint (plus
  /// any preceding wrap dead space) becomes creditable.
  void release(const Record& r);

  /// Enough consumed since the last credit write?
  bool credit_due() const {
    return credit_connected() &&
           consumed_ - credited_ >= cfg_.slab_bytes / cfg_.credit_div;
  }
  /// Work request RDMA-writing the consumed-up-to counter into the
  /// sender's control word. Marks the credit as returned; the owner posts
  /// (and on faults replays) the WR — stale replays are idempotent.
  hca::SendWr make_credit_wr();

  std::uint64_t consumed() const { return consumed_; }

 private:
  struct Pending {
    std::uint64_t seq = 0;
    std::uint64_t footprint = 0;  // slab bytes freed when released
  };

  core::RankEnv* env_;
  RingConfig cfg_;
  VirtAddr slab_ = 0;
  verbs::Mr mr_;
  hca::WriteMonitor mon_;
  CreditDescriptor credit_{};
  VirtAddr credit_src_ = 0;  // 8-byte staging slot for the credit value
  verbs::Mr credit_src_mr_;
  std::uint64_t frames_visible_ = 0;
  std::uint64_t frames_parsed_ = 0;
  std::uint64_t seq_ = 0;           // next expected frame sequence
  std::uint64_t parsed_ = 0;        // absolute slab bytes parsed
  std::uint64_t consumed_ = 0;      // absolute slab bytes released
  std::uint64_t credited_ = 0;      // last credit value written back
  std::uint64_t pending_skip_ = 0;  // wrap dead space awaiting a release
  std::deque<Pending> pending_;
};

/// Sender half: owns a staging slab that mirrors the remote ring
/// offset-for-offset (so a frame's bytes survive until its slab space is
/// credited back — what makes fault replays possible) plus the
/// credit-return control word the receiver writes into.
class RingSender {
 public:
  RingSender(core::RankEnv& env, const RingConfig& cfg);
  ~RingSender();
  RingSender(const RingSender&) = delete;
  RingSender& operator=(const RingSender&) = delete;

  CreditDescriptor credit_descriptor() const {
    return CreditDescriptor{word_, word_mr_.rkey};
  }
  void connect(const RingDescriptor& ring);
  bool connected() const { return ring_.slab != 0; }

  /// Would a record of `payload_len` bytes fit the ring right now?
  bool can_send(std::uint32_t payload_len) const;

  /// Frame [head | payload | tail] into the staging slab and return the
  /// work request(s) placing it — a wrap frame first when the record
  /// wraps. `a` and `b` are concatenated into the record payload (`b`
  /// may be empty); the CPU staging copy is charged to the caller's
  /// clock via touch_stream. The caller must have checked can_send().
  std::vector<hca::SendWr> prepare(const std::uint8_t* a, std::uint32_t alen,
                                   const std::uint8_t* b = nullptr,
                                   std::uint32_t blen = 0);

  /// Sweep newly visible credit writes and refresh the credit counter.
  void poll_credit(TimePs now);
  /// Earliest pending credit write; a wait that reads it names
  /// credit_waker().
  std::optional<TimePs> next_credit_visible() const {
    return mon_.next_visible();
  }
  Waker& credit_waker() { return mon_.waker(); }

  std::uint64_t head() const { return head_; }
  std::uint64_t credit() const { return credit_seen_; }
  std::uint64_t outstanding() const { return head_ - credit_seen_; }

 private:
  core::RankEnv* env_;
  RingConfig cfg_;
  RingDescriptor ring_{};
  VirtAddr staging_ = 0;
  verbs::Mr staging_mr_;
  VirtAddr word_ = 0;  // credit word, RDMA-written by the receiver
  verbs::Mr word_mr_;
  hca::WriteMonitor mon_;
  std::uint64_t head_ = 0;         // absolute bytes framed into the ring
  std::uint64_t credit_seen_ = 0;  // latest credit value observed
  std::uint64_t seq_ = 0;          // next frame sequence number
};

}  // namespace ibp::ringchan
