#include "align/distance.hpp"
#include "align/edit.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "core/api.hpp"
#include "oracles.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

TEST(Levenshtein, HandChecked) {
  EXPECT_EQ(levenshtein(to_sequence("kitten"), to_sequence("sitting")), 3);
  EXPECT_EQ(levenshtein(to_sequence("flaw"), to_sequence("lawn")), 2);
  EXPECT_EQ(levenshtein(to_sequence(""), to_sequence("abc")), 3);
  EXPECT_EQ(levenshtein(to_sequence("abc"), to_sequence("")), 3);
  EXPECT_EQ(levenshtein(to_sequence("same"), to_sequence("same")), 0);
}

TEST(Levenshtein, SymmetricAndTriangleSpotChecks) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto a = testing::random_string(40, 4, seed * 3);
    const auto b = testing::random_string(50, 4, seed * 3 + 1);
    const auto c = testing::random_string(45, 4, seed * 3 + 2);
    EXPECT_EQ(levenshtein(a, b), levenshtein(b, a));
    EXPECT_LE(levenshtein(a, c), levenshtein(a, b) + levenshtein(b, c));
    EXPECT_GE(levenshtein(a, b), 10);  // length difference lower bound
  }
}

TEST(IndelDistance, RelatesToLevenshtein) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto a = testing::random_string(60, 3, seed * 5);
    const auto b = testing::random_string(45, 3, seed * 5 + 1);
    const Index lev = levenshtein(a, b);
    const Index indel = indel_distance(a, b);
    EXPECT_LE(lev, indel);
    EXPECT_LE(indel, 2 * lev);
    EXPECT_EQ((indel - (static_cast<Index>(a.size()) - static_cast<Index>(b.size()))) % 2, 0)
        << "indel distance parity must match length difference";
  }
}

TEST(WindowDistances, WindowMatchesDirectComputation) {
  const auto a = testing::random_string(25, 3, 7);
  const auto b = testing::random_string(40, 3, 8);
  const auto kernel = semi_local_kernel(a, b);
  const WindowDistances wd(kernel);
  const SequenceView vb{b};
  for (Index j0 = 0; j0 <= 40; j0 += 3) {
    for (Index j1 = j0; j1 <= 40; j1 += 5) {
      EXPECT_EQ(wd.window(j0, j1),
                indel_distance(a, vb.subspan(static_cast<std::size_t>(j0),
                                             static_cast<std::size_t>(j1 - j0))));
    }
  }
}

TEST(WindowDistances, PrefixSuffixMatchesDirect) {
  const auto a = testing::random_string(18, 3, 9);
  const auto b = testing::random_string(22, 3, 10);
  const auto kernel = semi_local_kernel(a, b);
  const WindowDistances wd(kernel);
  const SequenceView va{a};
  const SequenceView vb{b};
  for (Index k = 0; k <= 18; k += 2) {
    for (Index l = 0; l <= 22; l += 3) {
      EXPECT_EQ(wd.prefix_suffix(k, l),
                indel_distance(va.subspan(0, static_cast<std::size_t>(k)),
                               vb.subspan(static_cast<std::size_t>(l))));
    }
  }
}

TEST(WindowDistances, BestWindowFindsPlantedCopy) {
  const auto pattern = uniform_sequence(50, 4, 11);
  Sequence text = uniform_sequence(400, 4, 12);
  std::copy(pattern.begin(), pattern.end(), text.begin() + 200);
  const auto kernel = semi_local_kernel(pattern, text);
  const WindowDistances wd(kernel);
  const auto [start, dist] = wd.best_window(50);
  EXPECT_EQ(dist, 0);
  EXPECT_EQ(start, 200);
}

TEST(WindowDistances, BestWindowValidatesArguments) {
  const auto kernel = semi_local_kernel(to_sequence("AB"), to_sequence("ABAB"));
  const WindowDistances wd(kernel);
  EXPECT_THROW((void)wd.best_window(5), std::invalid_argument);
  EXPECT_THROW((void)wd.best_window(2, 0), std::invalid_argument);
}

TEST(WindowDistances, EndPositionProfileBoundsBruteForce) {
  const auto a = testing::random_string(12, 3, 13);
  const auto b = testing::random_string(30, 3, 14);
  const auto kernel = semi_local_kernel(a, b);
  const WindowDistances wd(kernel);
  const Index slack = 12;  // large enough to cover every sensible width
  const auto profile = wd.end_position_profile(slack);
  ASSERT_EQ(profile.size(), 31u);
  const SequenceView vb{b};
  for (Index j1 = 0; j1 <= 30; ++j1) {
    Index best = std::numeric_limits<Index>::max();
    for (Index j0 = 0; j0 <= j1; ++j0) {
      best = std::min(best, indel_distance(
                                a, vb.subspan(static_cast<std::size_t>(j0),
                                              static_cast<std::size_t>(j1 - j0))));
    }
    // The capped candidate set is exact whenever the optimum width lies in
    // [m - slack, m + slack]; with slack = m it always does here.
    EXPECT_EQ(profile[static_cast<std::size_t>(j1)], best) << j1;
  }
}


// --- Semi-local edit distance via blow-up ------------------------------------

TEST(EditDistanceIndex, BlowUpInterleavesSeparator) {
  const auto blown = blow_up(to_sequence("AB"));
  ASSERT_EQ(blown.size(), 4u);
  EXPECT_EQ(blown[0], 'A');
  EXPECT_EQ(blown[1], kBlowupSeparator);
  EXPECT_EQ(blown[2], 'B');
  EXPECT_EQ(blown[3], kBlowupSeparator);
}

TEST(EditDistanceIndex, ReductionMatchesLevenshteinDp) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const auto a = testing::random_string(30 + static_cast<Index>(seed), 3, seed * 7);
    const auto b = testing::random_string(45, 3, seed * 7 + 1);
    EXPECT_EQ(levenshtein_via_lcs(a, b), levenshtein(a, b)) << "seed " << seed;
  }
}

TEST(EditDistanceIndex, HandCheckedClassics) {
  EXPECT_EQ(levenshtein_via_lcs(to_sequence("kitten"), to_sequence("sitting")), 3);
  EXPECT_EQ(levenshtein_via_lcs(to_sequence("flaw"), to_sequence("lawn")), 2);
  EXPECT_EQ(levenshtein_via_lcs(to_sequence(""), to_sequence("abc")), 3);
  EXPECT_EQ(levenshtein_via_lcs(to_sequence("same"), to_sequence("same")), 0);
}

TEST(EditDistanceIndex, WindowQueriesMatchDirectLevenshtein) {
  const auto a = testing::random_string(15, 3, 41);
  const auto b = testing::random_string(28, 3, 42);
  const EditDistanceIndex index(a, b);
  EXPECT_EQ(index.distance(), levenshtein(a, b));
  const SequenceView vb{b};
  for (Index j0 = 0; j0 <= 28; j0 += 2) {
    for (Index j1 = j0; j1 <= 28; j1 += 3) {
      EXPECT_EQ(index.window(j0, j1),
                levenshtein(a, vb.subspan(static_cast<std::size_t>(j0),
                                          static_cast<std::size_t>(j1 - j0))))
          << j0 << "," << j1;
    }
  }
}

TEST(EditDistanceIndex, AWindowAndPrefixSuffixMatchDirect) {
  const auto a = testing::random_string(14, 3, 43);
  const auto b = testing::random_string(17, 3, 44);
  const EditDistanceIndex index(a, b);
  const SequenceView va{a};
  const SequenceView vb{b};
  for (Index i0 = 0; i0 <= 14; i0 += 3) {
    for (Index i1 = i0; i1 <= 14; i1 += 2) {
      EXPECT_EQ(index.a_window(i0, i1),
                levenshtein(va.subspan(static_cast<std::size_t>(i0),
                                       static_cast<std::size_t>(i1 - i0)),
                            vb));
    }
  }
  for (Index k = 0; k <= 14; k += 2) {
    for (Index l = 0; l <= 17; l += 3) {
      EXPECT_EQ(index.prefix_suffix(k, l),
                levenshtein(va.subspan(0, static_cast<std::size_t>(k)),
                            vb.subspan(static_cast<std::size_t>(l))));
    }
  }
}

TEST(EditDistanceIndex, BestWindowFindsPlantedNeighbour) {
  const auto pattern = uniform_sequence(60, 5, 45);
  Sequence text = uniform_sequence(600, 5, 46);
  const auto mutated = mutate_sequence(pattern, 0.05, 2, 5, 47);
  std::copy(mutated.begin(),
            mutated.begin() + std::min<std::ptrdiff_t>(60, static_cast<std::ptrdiff_t>(mutated.size())),
            text.begin() + 300);
  const EditDistanceIndex index(pattern, text);
  const auto [start, dist] = index.best_window(60);
  EXPECT_NEAR(static_cast<double>(start), 300.0, 4.0);
  EXPECT_LT(dist, 12);
}

// m = 0 and n = 0: the blown kernel has order 2n (or 2m, or 0) and its
// QueryIndex must still answer every window against direct Levenshtein.
TEST(EditDistanceIndex, EmptyPatternOrEmptyText) {
  const auto a = testing::random_string(7, 3, 48);
  const auto b = testing::random_string(9, 3, 49);
  const SequenceView va{a};
  const SequenceView vb{b};

  const EditDistanceIndex empty_a(Sequence{}, b);
  EXPECT_EQ(empty_a.m(), 0);
  EXPECT_EQ(empty_a.distance(), 9);
  for (Index j0 = 0; j0 <= 9; ++j0) {
    for (Index j1 = j0; j1 <= 9; ++j1) {
      EXPECT_EQ(empty_a.window(j0, j1), j1 - j0) << j0 << "," << j1;
    }
  }
  EXPECT_EQ(empty_a.a_window(0, 0), 9);
  EXPECT_EQ(empty_a.prefix_suffix(0, 4), 5);
  EXPECT_EQ(empty_a.best_window(3), (std::pair<Index, Index>{0, 3}));

  const EditDistanceIndex empty_b(a, Sequence{});
  EXPECT_EQ(empty_b.n(), 0);
  EXPECT_EQ(empty_b.distance(), 7);
  EXPECT_EQ(empty_b.window(0, 0), 7);
  for (Index i0 = 0; i0 <= 7; ++i0) {
    for (Index i1 = i0; i1 <= 7; ++i1) {
      EXPECT_EQ(empty_b.a_window(i0, i1), i1 - i0) << i0 << "," << i1;
    }
  }
  for (Index k = 0; k <= 7; ++k) {
    EXPECT_EQ(empty_b.prefix_suffix(k, 0),
              levenshtein(va.subspan(0, static_cast<std::size_t>(k)), vb.subspan(9)));
  }
  EXPECT_EQ(empty_b.best_window(0), (std::pair<Index, Index>{0, 7}));

  const EditDistanceIndex both(Sequence{}, Sequence{});
  EXPECT_EQ(both.distance(), 0);
  EXPECT_EQ(both.a_window(0, 0), 0);
  EXPECT_EQ(both.prefix_suffix(0, 0), 0);
}

TEST(EditDistanceIndex, RejectsReservedSeparator) {
  Sequence bad = {0, kBlowupSeparator, 1};
  EXPECT_THROW(EditDistanceIndex(bad, Sequence{0, 1}), std::invalid_argument);
  EXPECT_THROW((void)levenshtein_via_lcs(Sequence{0}, bad), std::invalid_argument);
}

TEST(EditDistanceIndex, ValidatesQueryRanges) {
  const EditDistanceIndex index(to_sequence("AB"), to_sequence("ABC"));
  EXPECT_THROW((void)index.window(2, 1), std::out_of_range);
  EXPECT_THROW((void)index.window(0, 9), std::out_of_range);
  EXPECT_THROW((void)index.a_window(0, 5), std::out_of_range);
  EXPECT_THROW((void)index.best_window(9), std::invalid_argument);
}

}  // namespace
}  // namespace semilocal
