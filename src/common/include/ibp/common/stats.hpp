#pragma once

// Streaming statistics accumulators used by benchmarks and profilers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ibp/common/check.hpp"

namespace ibp {

/// Streaming mean/variance/min/max (Welford).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const double tot = static_cast<double>(n_ + o.n_);
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) *
                       static_cast<double>(o.n_) / tot;
    mean_ = (mean_ * static_cast<double>(n_) +
             o.mean_ * static_cast<double>(o.n_)) / tot;
    n_ += o.n_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket log-scale histogram with percentile extraction — the
/// streaming companion to RunningStats for latency distributions (p50/
/// p95/p99) where storing every sample (SampleSet) would not scale to
/// serving-style request counts. Buckets are power-of-two octaves split
/// into 8 linear sub-buckets (HDR-histogram style), so the quantile
/// error is bounded by 12.5 % of the value, values up to 2^64-1 fit, and
/// two histograms merge by adding bucket counts. Exact count/sum/min/max
/// ride along in an embedded RunningStats.
class LogHistogram {
 public:
  static constexpr int kSubBits = 3;             // 8 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  void add(std::uint64_t v, std::uint64_t count = 1) {
    buckets_[bucket_of(v)] += count;
    for (std::uint64_t i = 0; i < count; ++i)
      stats_.add(static_cast<double>(v));
  }

  std::uint64_t count() const { return stats_.count(); }
  bool empty() const { return stats_.count() == 0; }

  /// The exact accompanying moments (mean/min/max/stddev over raw values).
  const RunningStats& stats() const { return stats_; }

  /// Nearest-rank quantile, reported as the upper bound of the bucket
  /// holding that rank (conservative for latency SLOs). q in [0, 1];
  /// 0.0 on an empty histogram.
  double quantile(double q) const {
    IBP_CHECK(q >= 0.0 && q <= 1.0);
    const std::uint64_t n = stats_.count();
    if (n == 0) return 0.0;
    // Nearest-rank: the smallest bucket whose cumulative count covers
    // ceil(q * n) samples (rank 1 for q == 0).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0) rank = 1;
    std::uint64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      cum += buckets_[i];
      if (cum >= rank) return static_cast<double>(bucket_upper(i));
    }
    return static_cast<double>(stats_.max());  // unreachable
  }

  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  void merge(const LogHistogram& o) {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    stats_.merge(o.stats_);
  }

  /// Bucket index for a value: values below 2^kSubBits get exact unit
  /// buckets; above, octave e (v in [2^e, 2^(e+1))) splits into kSub
  /// linear sub-buckets of width 2^(e - kSubBits).
  static int bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    int e = 63;
    while ((v >> e) == 0) --e;  // e = floor(log2 v) >= kSubBits
    const int sub = static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
    return (e - kSubBits + 1) * kSub + sub;
  }

  /// Largest value mapping to bucket `i` (what quantile() reports).
  static std::uint64_t bucket_upper(int i) {
    IBP_CHECK(i >= 0 && i < kBuckets);
    if (i < kSub) return static_cast<std::uint64_t>(i);
    const int e = i / kSub + kSubBits - 1;
    const int sub = i % kSub;
    const std::uint64_t lower = (std::uint64_t{1} << e) +
                                static_cast<std::uint64_t>(sub)
                                    * (std::uint64_t{1} << (e - kSubBits));
    return lower + (std::uint64_t{1} << (e - kSubBits)) - 1;
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  RunningStats stats_;
};

/// Stores samples for exact quantiles; fine for benchmark-sized data sets.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }

  /// q in [0, 1]; nearest-rank quantile.
  double quantile(double q) {
    IBP_CHECK(!samples_.empty());
    IBP_CHECK(q >= 0.0 && q <= 1.0);
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(samples_.size() - 1) + 0.5);
    return samples_[idx];
  }

  double median() { return quantile(0.5); }

  double mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double v : samples_) s += v;
    return s / static_cast<double>(samples_.size());
  }

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

}  // namespace ibp
