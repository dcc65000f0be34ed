/**
 * @file
 * LatencyRecorder: the benchmark's own nanosecond latency histogram.
 *
 * Log-linear buckets with 2^7 = 128 linear sub-buckets per power-of-two
 * octave. Values below 128 ns are reported exactly; above, a bucket
 * [lo, lo + w) has w <= lo / 128, and a percentile is interpolated
 * inside its bucket, so it is within w, under 0.8%, of the exact sorted
 * value (inside the 1% the benchmark promises) and varies smoothly with
 * the distribution instead of snapping to bucket edges. The program's own
 * obs::LogLinearHistogram keeps 4 sub-buckets per octave and reports
 * bucket upper edges, which can be off by up to 25%.
 *
 * Single-writer; one recorder per client thread, per op kind, per time
 * slice, merged after the run.
 */

#ifndef KVBENCH_RECORDER_HPP
#define KVBENCH_RECORDER_HPP

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace kvbench {

class LatencyRecorder
{
  public:
    static constexpr unsigned kSubBits = 7;
    static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
    /** Values at or above 2^kMaxBits ns (~18 minutes) are clamped. */
    static constexpr unsigned kMaxBits = 40;
    static constexpr std::size_t kBuckets =
        (kMaxBits - kSubBits + 1) * kSub;

    LatencyRecorder() : counts_(kBuckets, 0) {}

    void
    record(std::uint64_t nanos)
    {
        ++counts_[bucketOf(nanos)];
        ++count_;
        max_ = std::max(max_, nanos);
    }

    void
    merge(const LatencyRecorder &other)
    {
        for (std::size_t b = 0; b < kBuckets; ++b)
            counts_[b] += other.counts_[b];
        count_ += other.count_;
        max_ = std::max(max_, other.max_);
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t maxNanos() const { return max_; }

    /**
     * Nearest-rank q-quantile (q in (0, 1]) of the samples: the
     * ceil(q * n)-th smallest. Exact below 128 ns; above, the rank is
     * interpolated linearly inside its bucket, so the result stays in
     * the bucket (within 1/128 of the exact value). 0 when empty.
     */
    double
    percentile(double q) const
    {
        if (count_ == 0)
            return 0.0;
        auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(count_)));
        rank = std::clamp<std::uint64_t>(rank, 1, count_);
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            if (seen + counts_[b] >= rank) {
                const double within =
                    (static_cast<double>(rank - seen) - 0.5) /
                    static_cast<double>(counts_[b]);
                return static_cast<double>(bucketLow(b)) +
                       (b < kSub ? 0.0
                                 : within *
                                       static_cast<double>(bucketWidth(b)));
            }
            seen += counts_[b];
        }
        return static_cast<double>(max_);
    }

    static std::size_t
    bucketOf(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<std::size_t>(v);
        const unsigned msb =
            std::min<unsigned>(63u - static_cast<unsigned>(
                                         std::countl_zero(v)),
                               kMaxBits);
        if (msb == kMaxBits)
            return kBuckets - 1;
        const unsigned shift = msb - kSubBits;
        return static_cast<std::size_t>((shift + 1) * kSub +
                                        ((v >> shift) - kSub));
    }

    /** Inclusive lower edge and width of bucket `b`. */
    static std::uint64_t
    bucketLow(std::size_t b)
    {
        if (b < kSub)
            return b;
        const std::uint64_t shift = b / kSub - 1;
        return (kSub + b % kSub) << shift;
    }
    static std::uint64_t
    bucketWidth(std::size_t b)
    {
        return b < kSub ? 1 : std::uint64_t{1} << (b / kSub - 1);
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace kvbench

#endif // KVBENCH_RECORDER_HPP
