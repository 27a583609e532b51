#pragma once

// Fixed-capacity LRU set of 64-bit keys. Its three users are the two halves
// of the CPU data TLB and the page-walk cache behind them (`cpu::Tlb`, keyed
// by page address), and the adapter-side address-translation-table (ATT)
// cache (`hca::Adapter`, keyed by `(lkey << 32) | translation index`).
//
// Entries live in one vector, chained most- to least-recently used by
// 32-bit index. An open-addressing table maps each key to its entry: a
// power-of-two number of slots, linear probing, backward-shift deletion.
// Both grow with use until the set is full; from then on a miss reuses the
// evicted entry, so a touch allocates nothing.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ibp/common/check.hpp"

namespace ibp {

class LruSet {
 public:
  explicit LruSet(std::uint64_t capacity) : capacity_(capacity) {
    IBP_CHECK(capacity <= kNil, "LRU capacity " << capacity
                                    << " does not fit a 32-bit entry index");
  }

  /// Returns true on hit, making `key` the most recently used. On miss,
  /// inserts `key`, evicting the least recently used entry when full.
  bool touch(std::uint64_t key) {
    if (!entries_.empty()) {  // else nothing to find, maybe no table yet
      const std::uint32_t e = find(key);
      if (e != kNil) {
        if (e != head_) {
          unlink(e);
          link_front(e);
        }
        return true;
      }
    }
    if (capacity_ == 0) return false;
    std::uint32_t e = 0;
    if (entries_.size() == capacity_) {
      e = tail_;
      unlink(e);
      erase_slot(entries_[e].key);
      entries_[e].key = key;
      insert_slot(e);
    } else {
      e = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back({key, kNil, kNil});
      if (4 * entries_.size() > slots_.size()) {
        grow();
      } else {
        insert_slot(e);
      }
    }
    link_front(e);
    return false;
  }

  void clear() {
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), kNil);
    head_ = tail_ = kNil;
  }

  std::uint64_t size() const { return entries_.size(); }
  std::uint64_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;  // no entry

  struct Entry {
    std::uint64_t key;
    std::uint32_t prev;  // towards the most recently used
    std::uint32_t next;  // towards the least recently used
  };

  /// Multiplicative hash, top bits: every key bit reaches them, so page
  /// addresses (low 12 or 21 bits zero) and packed ATT keys spread.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  std::uint32_t find(std::uint64_t key) const {
    for (std::size_t s = home(key);; s = (s + 1) & mask_) {
      const std::uint32_t e = slots_[s];
      if (e == kNil || entries_[e].key == key) return e;
    }
  }

  void insert_slot(std::uint32_t e) {
    std::size_t s = home(entries_[e].key);
    while (slots_[s] != kNil) s = (s + 1) & mask_;
    slots_[s] = e;
  }

  /// Removes `key`'s slot and pulls each later slot of its probe run back
  /// into the hole unless that would move it before its home, so the
  /// table needs no tombstones.
  void erase_slot(std::uint64_t key) {
    std::size_t hole = home(key);
    while (entries_[slots_[hole]].key != key) hole = (hole + 1) & mask_;
    for (std::size_t s = (hole + 1) & mask_; slots_[s] != kNil;
         s = (s + 1) & mask_) {
      if (((s - home(entries_[slots_[s]].key)) & mask_) >=
          ((s - hole) & mask_)) {
        slots_[hole] = slots_[s];
        hole = s;
      }
    }
    slots_[hole] = kNil;
  }

  /// Doubles the table (16 slots at first) and reinserts every entry. The
  /// table is kept at most a quarter full so probe runs stay short: kept
  /// half full, evicting misses on the 8-entry huge-page TLB and hits on
  /// the 544-entry small-page one each took about twice as long.
  void grow() {
    const std::size_t n = std::max<std::size_t>(16, 2 * slots_.size());
    slots_.assign(n, kNil);
    mask_ = n - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (std::uint32_t e = 0; e < entries_.size(); ++e) insert_slot(e);
  }

  void unlink(std::uint32_t e) {
    const Entry& x = entries_[e];
    (x.prev == kNil ? head_ : entries_[x.prev].next) = x.next;
    (x.next == kNil ? tail_ : entries_[x.next].prev) = x.prev;
  }

  void link_front(std::uint32_t e) {
    entries_[e].prev = kNil;
    entries_[e].next = head_;
    (head_ == kNil ? tail_ : entries_[head_].prev) = e;
    head_ = e;
  }

  std::uint64_t capacity_;
  std::vector<Entry> entries_;       // every entry is live
  std::vector<std::uint32_t> slots_;  // entry index or kNil
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
};

}  // namespace ibp
