#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <sstream>
#include <unordered_map>

#include "ibp/common/check.hpp"
#include "ibp/common/lru.hpp"
#include "ibp/common/rng.hpp"
#include "ibp/common/stats.hpp"
#include "ibp/common/table.hpp"
#include "ibp/common/types.hpp"
#include "ibp/common/waker.hpp"

namespace ibp {
namespace {

TEST(Types, AlignHelpers) {
  EXPECT_EQ(align_up(0, 4096), 0u);
  EXPECT_EQ(align_up(1, 4096), 4096u);
  EXPECT_EQ(align_up(4096, 4096), 4096u);
  EXPECT_EQ(align_down(4097, 4096), 4096u);
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
}

TEST(Types, PagesSpanned) {
  EXPECT_EQ(pages_spanned(0, 0, 4096), 0u);
  EXPECT_EQ(pages_spanned(0, 1, 4096), 1u);
  EXPECT_EQ(pages_spanned(0, 4096, 4096), 1u);
  EXPECT_EQ(pages_spanned(0, 4097, 4096), 2u);
  EXPECT_EQ(pages_spanned(4095, 2, 4096), 2u);
  EXPECT_EQ(pages_spanned(100, 8192, 4096), 3u);
}

TEST(Types, TimeUnits) {
  EXPECT_EQ(ns(1), 1000u);
  EXPECT_EQ(us(1), 1000000u);
  EXPECT_EQ(ms(1), 1000000000u);
  EXPECT_DOUBLE_EQ(ps_to_us(us(3)), 3.0);
}

TEST(Waker, FiresMarkEveryWaiterUntilItLeaves) {
  bool dirty = false;
  WakeMark a{.stale = false, .rank_dirty = &dirty};
  WakeMark b{.stale = false, .rank_dirty = &dirty};
  Waker w;
  WaitLink la, lb;
  la.attach(w, a);
  lb.attach(w, b);
  w.wake();
  EXPECT_TRUE(a.stale && b.stale && dirty);
  a.stale = b.stale = dirty = false;
  la.detach();
  w.wake();
  EXPECT_FALSE(a.stale);
  EXPECT_TRUE(b.stale && dirty);
}

TEST(Waker, CopiesHaveNoWaitersAndDestructionDetaches) {
  bool dirty = false;
  WakeMark mark{.stale = false, .rank_dirty = &dirty};
  WaitLink link;
  {
    Waker w;
    link.attach(w, mark);
    Waker copy(w);
    copy.wake();
    EXPECT_FALSE(mark.stale) << "the copy's waiters are its own";
  }
  // The Waker is gone: the link left its list, and detaching again (as
  // an unwinding wait does) touches nothing.
  link.detach();
  EXPECT_FALSE(mark.stale) << "destruction detaches without marking";
}

TEST(Check, ThrowsWithMessage) {
  try {
    IBP_CHECK(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(7), c2(8);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, BoundedValuesInRange) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng rng(123);
  int buckets[10] = {};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++buckets[rng.next_below(10)];
  for (int b = 0; b < 10; ++b) {
    EXPECT_GT(buckets[b], kN / 10 - kN / 50);
    EXPECT_LT(buckets[b], kN / 10 + kN / 50);
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(7);
  Rng b = a.fork();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.next_u64() != b.next_u64();
  EXPECT_TRUE(any_diff);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 100;
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(RunningStats, MergeEmptyWithEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(RunningStats, MergeEmptyWithNonEmpty) {
  RunningStats empty, full;
  full.add(3.0);
  full.add(7.0);

  RunningStats a = empty;
  a.merge(full);  // empty ⊕ full adopts full verbatim
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 7.0);

  full.merge(empty);  // full ⊕ empty is a no-op
  EXPECT_EQ(full.count(), 2u);
  EXPECT_DOUBLE_EQ(full.mean(), 5.0);
  EXPECT_NEAR(full.variance(), 8.0, 1e-12);
}

TEST(RunningStats, MergeSingleSamples) {
  RunningStats a, b;
  a.add(2.0);
  b.add(6.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_NEAR(a.variance(), 8.0, 1e-12);  // sample variance of {2, 6}
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
  EXPECT_DOUBLE_EQ(a.sum(), 8.0);
}

TEST(SampleSet, Quantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.mean(), 50.5, 1e-12);
}

TEST(LruSet, EvictsLeastRecentlyUsed) {
  LruSet lru(2);
  EXPECT_FALSE(lru.touch(1));
  EXPECT_FALSE(lru.touch(2));
  EXPECT_TRUE(lru.touch(1));   // 1 now MRU
  EXPECT_FALSE(lru.touch(3));  // evicts 2
  EXPECT_TRUE(lru.touch(1));
  EXPECT_FALSE(lru.touch(2));
  EXPECT_EQ(lru.size(), 2u);
}

TEST(LruSet, ZeroCapacityNeverHits) {
  LruSet lru(0);
  EXPECT_FALSE(lru.touch(1));
  EXPECT_FALSE(lru.touch(1));
  EXPECT_EQ(lru.size(), 0u);
}

TEST(LruSet, CapacityMustFitTheEntryIndex) {
  EXPECT_THROW({ LruSet lru(std::uint64_t{1} << 32); }, SimError);
  // Storage grows with use, so the largest capacity costs nothing up front.
  LruSet largest(0xffffffffu);
  EXPECT_EQ(largest.capacity(), 0xffffffffu);
  EXPECT_FALSE(largest.touch(kHugePageSize));
  EXPECT_TRUE(largest.touch(kHugePageSize));
  EXPECT_EQ(largest.size(), 1u);
}

/// The list + hash-map LRU set that `LruSet` replaced, kept as the
/// reference model for the differential test.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t capacity) : capacity_(capacity) {}

  bool touch(std::uint64_t key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    if (capacity_ == 0) return false;
    if (index_.size() == capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(key);
    index_[key] = order_.begin();
    return false;
  }

  void clear() {
    order_.clear();
    index_.clear();
  }

  std::uint64_t size() const { return index_.size(); }

 private:
  std::uint64_t capacity_;
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      index_;
};

TEST(LruSet, MatchesListAndMapReference) {
  // Every capacity a platform sets (TLB halves 8 to 1,024, ATT 64 to
  // 1,024, walk cache 4,096) and the degenerate ones, each driven with the
  // three key shapes the callers use.
  enum class Keys { SmallPages, HugePages, PackedAtt };
  for (const std::uint64_t cap : {0, 1, 2, 8, 64, 96, 256, 544, 1024, 4096}) {
    for (const Keys shape : {Keys::SmallPages, Keys::HugePages,
                             Keys::PackedAtt}) {
      SCOPED_TRACE(::testing::Message() << "capacity " << cap << ", keys "
                                        << static_cast<int>(shape));
      auto key_of = [shape](std::uint64_t i) -> std::uint64_t {
        switch (shape) {
          case Keys::SmallPages:
            return 0x7f0000000000ull + i * kSmallPageSize;
          case Keys::HugePages:
            return 0x7f0000000000ull + i * kHugePageSize;
          case Keys::PackedAtt:  // (lkey << 32) | translation index
            return ((1 + i % 5) << 32) | (i / 5);
        }
        return 0;
      };
      Rng rng(1000 * cap + static_cast<std::uint64_t>(shape) + 1);
      LruSet lru(cap);
      ReferenceLru ref(cap);
      // A key pool a quarter larger than the set: uniform draws mix hits
      // and misses, cyclic scans over it thrash. Clears come rarely enough
      // that the set fills and evicts between them.
      const std::uint64_t pool = cap + cap / 4 + 4;
      const std::uint64_t clear_every = 4 * cap + 64;
      const std::uint64_t ops = std::max<std::uint64_t>(20000, 12 * cap);
      std::uint64_t scan = 0, hits = 0, evictions = 0;
      for (std::uint64_t op = 1; op <= ops; ++op) {
        if (op % clear_every == 0) {
          lru.clear();
          ref.clear();
        } else {
          const std::uint64_t i =
              rng.next_below(5) < 3 ? rng.next_below(pool) : scan++ % pool;
          const bool full = cap != 0 && ref.size() == cap;
          const bool hit = ref.touch(key_of(i));
          ASSERT_EQ(lru.touch(key_of(i)), hit) << "op " << op;
          hits += hit;
          evictions += full && !hit;
        }
        ASSERT_EQ(lru.size(), ref.size()) << "op " << op;
      }
      if (cap != 0) {
        EXPECT_GT(hits, 0u);
        EXPECT_GT(evictions, 0u);
      }
    }
  }
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row("x", 1.5);
  t.add_row("longer", 22.25);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("22.25"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row("only one"), SimError);
}


// ---------------------------------------------------------------------------
// LogHistogram: the serving-layer latency accumulator.

TEST(LogHistogram, EmptyReportsZero) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < 8; ++v) h.add(v);
  // Values below 2^3 land in unit buckets, so every quantile is exact.
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(1.0), 7.0);
  EXPECT_EQ(h.p50(), 3.0);
}

TEST(LogHistogram, QuantileErrorBoundedByEighth) {
  // One sub-bucket spans 1/8 of its octave, so the reported upper bound
  // exceeds the true value by at most 12.5 %.
  for (std::uint64_t v = 9; v < (1ull << 40); v = v * 3 + 7) {
    LogHistogram h;
    h.add(v);
    const double q = h.quantile(1.0);
    EXPECT_GE(q, static_cast<double>(v));
    EXPECT_LE(q, static_cast<double>(v) * 1.125 + 1.0) << "value " << v;
  }
}

TEST(LogHistogram, GoldenPercentilesUniform1To1000) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 1000u);
  // Nearest-rank p50 is sample 500 (bucket [480, 511]); p99 is sample
  // 990 (bucket [960, 1023]). quantile() reports bucket upper bounds.
  EXPECT_EQ(h.p50(), 511.0);
  EXPECT_EQ(h.p99(), 1023.0);
  EXPECT_EQ(h.stats().mean(), 500.5);
}

TEST(LogHistogram, MergeMatchesCombinedStream) {
  LogHistogram evens, odds, both;
  for (std::uint64_t v = 1; v <= 2000; ++v) {
    (v % 2 == 0 ? evens : odds).add(v);
    both.add(v);
  }
  evens.merge(odds);
  EXPECT_EQ(evens.count(), both.count());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
    EXPECT_EQ(evens.quantile(q), both.quantile(q)) << "q=" << q;
  EXPECT_EQ(evens.stats().sum(), both.stats().sum());
}

TEST(LogHistogram, BucketRoundTrip) {
  for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 255ull, 256ull,
                          4095ull, 1ull << 20, (1ull << 63) + 5}) {
    const int b = LogHistogram::bucket_of(v);
    EXPECT_GE(LogHistogram::bucket_upper(b), v);
    EXPECT_EQ(LogHistogram::bucket_of(LogHistogram::bucket_upper(b)), b);
  }
}

}  // namespace
}  // namespace ibp
