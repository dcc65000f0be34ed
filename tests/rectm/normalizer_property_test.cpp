/**
 * Property sweep over all normalizer kinds: every scheme must (a)
 * round-trip query values through rating space exactly, and (b)
 * preserve the within-row ordering of ratings (so the argmax in
 * rating space is the argmax in KPI space). Rating distillation
 * additionally preserves within-row ratios (Algorithm 3 property i).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "rectm/normalizer.hpp"

namespace proteus::rectm {
namespace {

class NormalizerPropertyTest
    : public ::testing::TestWithParam<NormalizerKind>
{
  protected:
    NormalizerPropertyTest()
    {
        // Heterogeneous random training matrix (positive goodness).
        Rng rng(123);
        UtilityMatrix train(12, 9);
        for (std::size_t r = 0; r < 12; ++r) {
            const double scale = std::pow(10.0, rng.uniform(-2, 3));
            for (std::size_t c = 0; c < 9; ++c)
                train.set(r, c, scale * rng.uniform(0.2, 5.0));
        }
        normalizer_ = Normalizer::make(GetParam());
        ratings_ = normalizer_->fitTransform(train);
        train_ = train;
    }

    UtilityMatrix train_{0, 0};
    UtilityMatrix ratings_{0, 0};
    std::unique_ptr<Normalizer> normalizer_;
};

TEST_P(NormalizerPropertyTest, TransformKeepsShapeAndKnownness)
{
    ASSERT_EQ(ratings_.rows(), train_.rows());
    ASSERT_EQ(ratings_.cols(), train_.cols());
    for (std::size_t r = 0; r < train_.rows(); ++r) {
        for (std::size_t c = 0; c < train_.cols(); ++c) {
            EXPECT_EQ(known(ratings_.at(r, c)), known(train_.at(r, c)));
            EXPECT_TRUE(std::isfinite(ratings_.at(r, c)));
        }
    }
}

TEST_P(NormalizerPropertyTest, RowOrderingPreserved)
{
    // RC-diff subtracts a *different* constant per column, so it does
    // NOT preserve within-row ordering — one of the reasons it
    // recommends worse configurations in Fig. 4b. Instead of skipping
    // we assert that defect: the training matrix must exhibit at
    // least one within-row inversion. Every other scheme is strictly
    // monotone per row (scaling by a positive constant or subtracting
    // one row constant) and must preserve every comparison.
    std::size_t inversions = 0;
    for (std::size_t r = 0; r < train_.rows(); ++r) {
        for (std::size_t i = 0; i < train_.cols(); ++i) {
            for (std::size_t j = i + 1; j < train_.cols(); ++j) {
                const bool raw_less =
                    train_.at(r, i) < train_.at(r, j);
                const bool rating_less =
                    ratings_.at(r, i) < ratings_.at(r, j);
                if (raw_less != rating_less)
                    ++inversions;
                if (GetParam() != NormalizerKind::kRcDiff) {
                    EXPECT_EQ(raw_less, rating_less)
                        << "row " << r << " cols " << i << "," << j;
                }
            }
        }
    }
    if (GetParam() == NormalizerKind::kRcDiff) {
        EXPECT_GT(inversions, 0u)
            << "rc-diff is documented order-breaking; a fully "
               "order-preserving fit means the scheme (or the test "
               "data) changed";
    } else {
        EXPECT_EQ(inversions, 0u);
    }
}

TEST_P(NormalizerPropertyTest, QueryRoundTripIsExact)
{
    normalizer_->setOracleRowMax(8.0); // only the ideal scheme cares
    Rng rng(9);
    std::vector<double> query(train_.cols(), kUnknown);
    const int ref = normalizer_->referenceColumn();
    if (ref >= 0)
        query[static_cast<std::size_t>(ref)] = rng.uniform(0.5, 4.0);
    query[0] = rng.uniform(0.5, 4.0);
    query[3] = rng.uniform(0.5, 4.0);

    for (const std::size_t c : {std::size_t{0}, std::size_t{3}}) {
        const double g = query[c];
        const double rating = normalizer_->toRating(query, c, g);
        EXPECT_TRUE(std::isfinite(rating));
        EXPECT_NEAR(normalizer_->fromRating(query, c, rating), g,
                    1e-9 * std::abs(g));
    }
}

TEST_P(NormalizerPropertyTest, QueryOrderingPreserved)
{
    normalizer_->setOracleRowMax(10.0);
    std::vector<double> query(train_.cols(), kUnknown);
    const int ref = normalizer_->referenceColumn();
    if (ref >= 0)
        query[static_cast<std::size_t>(ref)] = 2.0;
    query[1] = 1.0;
    query[2] = 3.0;

    if (GetParam() != NormalizerKind::kRcDiff) {
        const double r1 = normalizer_->toRating(query, 1, query[1]);
        const double r2 = normalizer_->toRating(query, 2, query[2]);
        EXPECT_LT(r1, r2);
        return;
    }
    // rc-diff: ordering is NOT preserved in general. Measure the
    // per-column offsets it applies (toRating is goodness minus a
    // query-row mean minus a column adjustment), find two columns
    // whose offsets differ, and craft goodness values whose rating
    // order flips — the concrete failure mode behind Fig. 4b.
    const double probe = 1.0;
    std::size_t col_a = 1;
    std::size_t col_b = 2;
    double k_a = 0;
    double k_b = 0;
    bool found = false;
    for (std::size_t i = 0; !found && i < train_.cols(); ++i) {
        for (std::size_t j = i + 1; !found && j < train_.cols(); ++j) {
            k_a = probe - normalizer_->toRating(query, i, probe);
            k_b = probe - normalizer_->toRating(query, j, probe);
            if (std::abs(k_a - k_b) > 1e-6) {
                col_a = i;
                col_b = j;
                found = true;
            }
        }
    }
    ASSERT_TRUE(found) << "rc-diff applied identical offsets to every "
                          "column — degenerate fit, check the test data";
    if (k_a > k_b) {
        std::swap(col_a, col_b);
        std::swap(k_a, k_b);
    }
    // g_b > g_a in goodness space, but the larger column offset drags
    // its rating below: the argmax flips.
    const double g_a = probe;
    const double g_b = probe + (k_b - k_a) / 2;
    ASSERT_GT(g_b, g_a);
    EXPECT_GT(normalizer_->toRating(query, col_a, g_a),
              normalizer_->toRating(query, col_b, g_b))
        << "rc-diff failed to exhibit its documented inversion";
}

TEST_P(NormalizerPropertyTest, DistillationPreservesRatios)
{
    // Within-row ratio preservation (Algorithm 3 property i) holds
    // exactly for the scaling schemes — distillation, the max-scaling
    // oracle, the max-constant scheme — and trivially for the
    // identity. The subtractive rc-diff scheme breaks it; assert that
    // instead of skipping.
    const bool preserves = GetParam() != NormalizerKind::kRcDiff;
    double worst = 0;
    for (std::size_t r = 0; r < train_.rows(); ++r) {
        for (std::size_t i = 0; i + 1 < train_.cols(); ++i) {
            const double raw =
                train_.at(r, i) / train_.at(r, i + 1);
            const double rated =
                ratings_.at(r, i) / ratings_.at(r, i + 1);
            worst = std::max(worst, std::abs(raw - rated));
            if (preserves) {
                EXPECT_NEAR(raw, rated, 1e-9)
                    << "row " << r << " col " << i;
            }
        }
    }
    if (!preserves) {
        EXPECT_GT(worst, 1e-6)
            << "rc-diff unexpectedly preserved every within-row "
               "ratio — the subtractive scheme must distort at least "
               "one";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, NormalizerPropertyTest,
    ::testing::Values(NormalizerKind::kNone,
                      NormalizerKind::kMaxConstant,
                      NormalizerKind::kIdeal, NormalizerKind::kRcDiff,
                      NormalizerKind::kDistillation),
    [](const ::testing::TestParamInfo<NormalizerKind> &info) {
        std::string name(normalizerName(info.param));
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

} // namespace
} // namespace proteus::rectm
