// Checks LatencyRecorder percentiles against exact sorted percentiles
// on several latency shapes: every reported quantile must sit within 1%
// of the nearest-rank value of the sorted samples. Exit 0 on success.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "recorder.hpp"

namespace {

int failures = 0;

void
check(bool ok, const char *what, double got, double want)
{
    if (!ok) {
        std::printf("FAIL %s: got %.3f want %.3f\n", what, got, want);
        ++failures;
    }
}

double
exactNearestRank(const std::vector<std::uint64_t> &sorted, double q)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return static_cast<double>(sorted[rank - 1]);
}

void
checkShape(const char *name, std::vector<std::uint64_t> samples)
{
    // Record in two halves and merge, as the benchmark merges per-thread
    // recorders.
    kvbench::LatencyRecorder a, b;
    for (std::size_t i = 0; i < samples.size(); ++i)
        (i % 2 ? a : b).record(samples[i]);
    a.merge(b);
    std::sort(samples.begin(), samples.end());
    check(a.count() == samples.size(), name,
          static_cast<double>(a.count()),
          static_cast<double>(samples.size()));
    check(a.maxNanos() == samples.back(), name,
          static_cast<double>(a.maxNanos()),
          static_cast<double>(samples.back()));
    for (const double q : {0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const double want = exactNearestRank(samples, q);
        const double got = a.percentile(q);
        const double err = std::abs(got - want) / std::max(want, 1.0);
        char what[96];
        std::snprintf(what, sizeof what, "%s q=%.3f rel.err=%.5f", name,
                      q, err);
        check(err <= 0.01, what, got, want);
    }
    std::printf("ok %s (%zu samples, p50 %.1f, p99 %.1f)\n", name,
                samples.size(), a.percentile(0.5), a.percentile(0.99));
}

} // namespace

int
main()
{
    std::mt19937_64 gen(12345);
    const std::size_t n = 200000;

    std::vector<std::uint64_t> s;
    std::lognormal_distribution<double> lognormal(std::log(800.0), 0.6);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(static_cast<std::uint64_t>(lognormal(gen)));
    checkShape("lognormal_800ns", s);

    s.clear();
    std::uniform_int_distribution<std::uint64_t> tiny(0, 300);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(tiny(gen));
    checkShape("uniform_0_300ns", s);

    // Bimodal: fast hits with a slow group-commit tail.
    s.clear();
    std::normal_distribution<double> fast(600.0, 50.0);
    std::exponential_distribution<double> slow(1.0 / 40000.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double v = i % 20 == 0 ? 20000.0 + slow(gen) : fast(gen);
        s.push_back(static_cast<std::uint64_t>(std::max(v, 1.0)));
    }
    checkShape("bimodal_wal_tail", s);

    s.clear();
    std::uniform_int_distribution<std::uint64_t> wide(1, 1ull << 36);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(wide(gen));
    checkShape("uniform_to_64s", s);

    // Bucket edges are contiguous and each width is within 1/128 of its
    // lower edge.
    using R = kvbench::LatencyRecorder;
    for (std::size_t b = 1; b < R::kBuckets; ++b) {
        const bool contiguous =
            R::bucketLow(b) == R::bucketLow(b - 1) + R::bucketWidth(b - 1);
        const bool narrow =
            R::bucketWidth(b) * R::kSub <= std::max<std::uint64_t>(
                                               R::bucketLow(b), R::kSub);
        const bool maps = R::bucketOf(R::bucketLow(b)) == b &&
                          R::bucketOf(R::bucketLow(b) + R::bucketWidth(b) -
                                      1) == b;
        if (!contiguous || !narrow || !maps) {
            std::printf("FAIL bucket %zu low %llu width %llu\n", b,
                        static_cast<unsigned long long>(R::bucketLow(b)),
                        static_cast<unsigned long long>(R::bucketWidth(b)));
            ++failures;
            break;
        }
    }

    R empty;
    check(empty.percentile(0.5) == 0.0, "empty recorder", 0, 0);

    std::printf(failures ? "FAILED (%d)\n" : "all recorder checks passed\n",
                failures);
    return failures ? 1 : 0;
}
