#include "ibp/ringchan/ringchan.hpp"

#include <cstring>

#include "ibp/common/check.hpp"

namespace ibp::ringchan {

namespace {

/// Geometry sanity shared by both halves: aligned slab, and the largest
/// record must leave at least one credit quantum of slack so a blocked
/// sender always implies a credit write is (or becomes) due.
void check_config(const RingConfig& cfg) {
  IBP_CHECK(cfg.slab_bytes % 8 == 0, "ring slab must be 8-byte aligned");
  IBP_CHECK(cfg.credit_div >= 2, "credit_div must be >= 2");
  IBP_CHECK(record_bytes(cfg.max_record) <=
                cfg.slab_bytes - cfg.slab_bytes / cfg.credit_div,
            "ring slab too small for max_record at this credit_div");
}

void store_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// RingReceiver

RingReceiver::RingReceiver(core::RankEnv& env, const RingConfig& cfg)
    : env_(&env), cfg_(cfg) {
  check_config(cfg_);
  slab_ = env.alloc(cfg_.slab_bytes);
  mr_ = env.verbs().reg_mr(slab_, cfg_.slab_bytes);
  env.verbs().set_write_monitor(mr_, &mon_);
  credit_src_ = env.alloc(8);
  credit_src_mr_ = env.verbs().reg_mr(credit_src_, 8);
  *env.host_ptr<std::uint64_t>(credit_src_) = 0;
}

RingReceiver::~RingReceiver() {
  env_->verbs().set_write_monitor(mr_, nullptr);
  env_->verbs().dereg_mr(credit_src_mr_);
  env_->verbs().dereg_mr(mr_);
  env_->dealloc(credit_src_);
  env_->dealloc(slab_);
}

void RingReceiver::poll(TimePs now, std::vector<Record>& out) {
  frames_visible_ += mon_.take_visible(now).size();
  while (frames_parsed_ < frames_visible_) {
    const std::uint64_t off = parsed_ % cfg_.slab_bytes;
    const std::uint8_t* head = env_->host_ptr<std::uint8_t>(slab_ + off, 8);
    const std::uint32_t mark = load_u32(head);
    const std::uint32_t len = load_u32(head + 4);
    const std::uint32_t s32 = static_cast<std::uint32_t>(seq_);
    if (mark == (kWrapMagic ^ s32)) {
      IBP_CHECK(len == 0, "wrap frame with nonzero length");
      pending_skip_ += cfg_.slab_bytes - off;
      parsed_ += cfg_.slab_bytes - off;
    } else {
      IBP_CHECK(mark == (kHeadMagic ^ s32),
                "ring framing violated at seq " << seq_);
      IBP_CHECK(len <= cfg_.max_record, "oversized ring record");
      const std::uint64_t need = record_bytes(len);
      IBP_CHECK(off + need <= cfg_.slab_bytes, "record crosses slab end");
      // Tail-marker rule: the record is complete only when the tail
      // carries the head's sequence.
      const std::uint8_t* tail =
          env_->host_ptr<std::uint8_t>(slab_ + off + kHeaderBytes +
                                           align8(len),
                                       kTailBytes);
      IBP_CHECK(load_u32(tail) == (kHeadMagic ^ s32),
                "ring tail marker missing at seq " << seq_);
      pending_.push_back(Pending{seq_, need + pending_skip_});
      pending_skip_ = 0;
      parsed_ += need;
      out.push_back(Record{slab_ + off + kHeaderBytes, len, seq_});
    }
    ++seq_;
    ++frames_parsed_;
  }
}

void RingReceiver::release(const Record& r) {
  IBP_CHECK(!pending_.empty() && pending_.front().seq == r.seq,
            "ring records must be released oldest-first");
  consumed_ += pending_.front().footprint;
  pending_.pop_front();
}

hca::SendWr RingReceiver::make_credit_wr() {
  IBP_CHECK(credit_connected(), "credit target not connected");
  *env_->host_ptr<std::uint64_t>(credit_src_) = consumed_;
  hca::SendWr wr;
  wr.opcode = hca::Opcode::RdmaWrite;
  wr.sges = {{credit_src_, 8, credit_src_mr_.lkey}};
  wr.remote_addr = credit_.word;
  wr.rkey = credit_.rkey;
  wr.inline_data = 8 <= env_->verbs().adapter().config().inline_max;
  credited_ = consumed_;
  return wr;
}

// ---------------------------------------------------------------------------
// RingSender

RingSender::RingSender(core::RankEnv& env, const RingConfig& cfg)
    : env_(&env), cfg_(cfg) {
  check_config(cfg_);
  staging_ = env.alloc(cfg_.slab_bytes);
  staging_mr_ = env.verbs().reg_mr(staging_, cfg_.slab_bytes);
  word_ = env.alloc(8);
  word_mr_ = env.verbs().reg_mr(word_, 8);
  env.verbs().set_write_monitor(word_mr_, &mon_);
  *env.host_ptr<std::uint64_t>(word_) = 0;
}

RingSender::~RingSender() {
  env_->verbs().set_write_monitor(word_mr_, nullptr);
  env_->verbs().dereg_mr(word_mr_);
  env_->verbs().dereg_mr(staging_mr_);
  env_->dealloc(word_);
  env_->dealloc(staging_);
}

void RingSender::connect(const RingDescriptor& ring) {
  IBP_CHECK(ring.slab != 0 && ring.bytes == cfg_.slab_bytes,
            "ring geometry mismatch (peer slab " << ring.bytes << " B, ours "
                                                 << cfg_.slab_bytes << " B)");
  ring_ = ring;
}

bool RingSender::can_send(std::uint32_t payload_len) const {
  if (!connected() || payload_len > cfg_.max_record) return false;
  const std::uint64_t need = record_bytes(payload_len);
  const std::uint64_t contig = cfg_.slab_bytes - head_ % cfg_.slab_bytes;
  const std::uint64_t advance = contig < need ? contig + need : need;
  return cfg_.slab_bytes - (head_ - credit_seen_) >= advance;
}

std::vector<hca::SendWr> RingSender::prepare(const std::uint8_t* a,
                                             std::uint32_t alen,
                                             const std::uint8_t* b,
                                             std::uint32_t blen) {
  const std::uint32_t len = alen + blen;
  IBP_CHECK(can_send(len), "prepare() without can_send()");
  const std::uint32_t inline_max = env_->verbs().adapter().config().inline_max;
  std::vector<hca::SendWr> wrs;

  std::uint64_t off = head_ % cfg_.slab_bytes;
  const std::uint64_t need = record_bytes(len);
  if (cfg_.slab_bytes - off < need) {
    // Wrap frame: 8 bytes at the current offset; the rest of the slab is
    // dead space the receiver skips (and credits) on parse.
    std::uint8_t* w = env_->host_ptr<std::uint8_t>(staging_ + off, 8);
    store_u32(w, kWrapMagic ^ static_cast<std::uint32_t>(seq_));
    store_u32(w + 4, 0);
    hca::SendWr wrap;
    wrap.opcode = hca::Opcode::RdmaWrite;
    wrap.sges = {{staging_ + off, 8, staging_mr_.lkey}};
    wrap.remote_addr = ring_.slab + off;
    wrap.rkey = ring_.rkey;
    wrap.inline_data = 8 <= inline_max;
    wrs.push_back(std::move(wrap));
    head_ += cfg_.slab_bytes - off;
    ++seq_;
    off = 0;
  }

  // Record frame: head marker, payload (a then b, zero-padded to 8),
  // tail marker carrying the same sequence.
  std::uint8_t* p = env_->host_ptr<std::uint8_t>(staging_ + off, need);
  const std::uint32_t s32 = static_cast<std::uint32_t>(seq_);
  store_u32(p, kHeadMagic ^ s32);
  store_u32(p + 4, len);
  if (alen != 0) std::memcpy(p + kHeaderBytes, a, alen);
  if (blen != 0) std::memcpy(p + kHeaderBytes + alen, b, blen);
  std::memset(p + kHeaderBytes + len, 0, align8(len) - len);
  store_u32(p + kHeaderBytes + align8(len), kHeadMagic ^ s32);
  store_u32(p + kHeaderBytes + align8(len) + 4, 0);
  // The CPU staging copy is the price of the zero-post receive side;
  // charge it as a stream over the framed record.
  env_->touch_stream(staging_ + off, need);

  hca::SendWr wr;
  wr.opcode = hca::Opcode::RdmaWrite;
  wr.sges = {{staging_ + off, static_cast<std::uint32_t>(need),
              staging_mr_.lkey}};
  wr.remote_addr = ring_.slab + off;
  wr.rkey = ring_.rkey;
  wr.inline_data = need <= inline_max;
  wrs.push_back(std::move(wr));
  head_ += need;
  ++seq_;
  return wrs;
}

void RingSender::poll_credit(TimePs now) {
  if (mon_.take_visible(now).empty()) return;
  const std::uint64_t v = *env_->host_ptr<std::uint64_t>(word_);
  IBP_CHECK(v >= credit_seen_ && v <= head_,
            "credit counter moved outside [seen, head]");
  credit_seen_ = v;
}

}  // namespace ibp::ringchan
