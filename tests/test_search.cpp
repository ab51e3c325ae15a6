#include <gtest/gtest.h>

#include <algorithm>

#include "lcs/dp.hpp"
#include "oracles.hpp"
#include "search/dotplot.hpp"
#include "search/multi_pattern.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

TEST(MultiPattern, FindsPlantedPatterns) {
  constexpr Symbol kAlphabet = 6;
  Sequence text = uniform_sequence(3000, kAlphabet, 1);
  std::vector<Sequence> patterns;
  std::vector<Index> sites = {200, 1200, 2400};
  for (std::size_t p = 0; p < sites.size(); ++p) {
    auto pattern = uniform_sequence(100, kAlphabet, 10 + p);
    std::copy(pattern.begin(), pattern.end(),
              text.begin() + static_cast<std::ptrdiff_t>(sites[p]));
    patterns.push_back(std::move(pattern));
  }
  const MultiPatternIndex index(patterns, text);
  EXPECT_EQ(index.pattern_count(), 3);
  EXPECT_EQ(index.text_length(), 3000);
  const auto best = index.best_matches(/*width_slack_pct=*/0);
  ASSERT_EQ(best.size(), 3u);
  for (std::size_t p = 0; p < sites.size(); ++p) {
    EXPECT_EQ(best[p].pattern_id, static_cast<Index>(p));
    EXPECT_EQ(best[p].start, sites[p]) << "pattern " << p;
    EXPECT_DOUBLE_EQ(best[p].identity, 1.0);
  }
}

TEST(MultiPattern, ScoresMatchKernelQueries) {
  const auto text = uniform_sequence(500, 4, 2);
  std::vector<Sequence> patterns = {uniform_sequence(40, 4, 3), uniform_sequence(60, 4, 4)};
  const MultiPatternIndex index(patterns, text, {}, /*parallel_build=*/false);
  for (Index p = 0; p < 2; ++p) {
    const auto& kernel = index.kernel(p);
    EXPECT_EQ(kernel.m(), static_cast<Index>(index.pattern(p).size()));
    EXPECT_EQ(kernel.string_substring(0, 100),
              testing::lcs_oracle(index.pattern(p), SequenceView{text}.subspan(0, 100)));
  }
}

TEST(MultiPattern, FindAllReportsNonOverlappingHitsInOrder) {
  constexpr Symbol kAlphabet = 8;
  Sequence text = uniform_sequence(2000, kAlphabet, 5);
  auto pattern = uniform_sequence(80, kAlphabet, 6);
  for (const Index site : {100, 700, 1500}) {
    std::copy(pattern.begin(), pattern.end(),
              text.begin() + static_cast<std::ptrdiff_t>(site));
  }
  const MultiPatternIndex index({pattern}, text);
  const auto hits = index.find_all(/*min_identity=*/0.95, /*stride=*/1,
                                   /*width_slack_pct=*/0);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].start, 100);
  EXPECT_EQ(hits[1].start, 700);
  EXPECT_EQ(hits[2].start, 1500);
  for (std::size_t h = 0; h + 1 < hits.size(); ++h) {
    EXPECT_LE(hits[h].end, hits[h + 1].start);
  }
}

TEST(MultiPattern, FindAllValidatesArguments) {
  const MultiPatternIndex index({uniform_sequence(10, 4, 1)}, uniform_sequence(50, 4, 2));
  EXPECT_THROW((void)index.find_all(0.5, 0), std::invalid_argument);
  EXPECT_THROW((void)index.find_all(1.5, 1), std::invalid_argument);
}

// m = 0 and n = 0: an empty pattern or an empty text builds a kernel (and a
// QueryIndex) of order n, m or 0, and every query still answers.
TEST(MultiPattern, EmptyPatternOrEmptyText) {
  const auto text = uniform_sequence(30, 4, 8);
  const auto pattern = uniform_sequence(5, 4, 9);
  const MultiPatternIndex index({Sequence{}, pattern}, text, {}, /*parallel_build=*/false);
  const auto best = index.best_matches(/*width_slack_pct=*/0);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_EQ(best[0].score, 0);
  EXPECT_EQ(best[0].end, best[0].start);
  EXPECT_DOUBLE_EQ(best[0].identity, 0.0);
  Index expected = 0;
  for (std::size_t j0 = 0; j0 + 5 <= text.size(); ++j0) {
    expected = std::max(expected,
                        testing::lcs_oracle(pattern, SequenceView{text}.subspan(j0, 5)));
  }
  EXPECT_EQ(best[1].score, expected);
  for (const PatternMatch& hit : index.find_all(0.0)) EXPECT_EQ(hit.pattern_id, 1);

  const MultiPatternIndex empty_text({pattern, Sequence{}}, Sequence{}, {}, false);
  EXPECT_EQ(empty_text.text_length(), 0);
  for (const PatternMatch& match : empty_text.best_matches()) {
    EXPECT_EQ(match.score, 0);
    EXPECT_EQ(match.start, 0);
    EXPECT_EQ(match.end, 0);
  }
  EXPECT_TRUE(empty_text.find_all(0.5).empty());
}

TEST(Dotplot, DiagonalStructureOnSelfComparison) {
  const auto a = uniform_sequence(600, 20, 7);
  const auto plot = compute_dotplot(a, a, 6, 6);
  ASSERT_EQ(plot.rows, 6);
  ASSERT_EQ(plot.cols, 6);
  // Diagonal cells compare a chunk against its own window: identity 1.
  for (Index d = 0; d < 6; ++d) {
    EXPECT_DOUBLE_EQ(plot.at(d, d), 1.0);
    for (Index c = 0; c < 6; ++c) {
      if (c != d) {
        EXPECT_LT(plot.at(d, c), 0.9) << d << "," << c;
      }
    }
  }
}

TEST(Dotplot, DetectsBlockSwap) {
  // b = second half of a + first half of a: anti-diagonal block structure.
  const auto a = uniform_sequence(400, 16, 8);
  Sequence b(a.begin() + 200, a.end());
  b.insert(b.end(), a.begin(), a.begin() + 200);
  const auto plot = compute_dotplot(a, b, 2, 2);
  EXPECT_GT(plot.at(0, 1), 0.95);
  EXPECT_GT(plot.at(1, 0), 0.95);
  EXPECT_LT(plot.at(0, 0), 0.8);
  EXPECT_LT(plot.at(1, 1), 0.8);
}

TEST(Dotplot, CellsMatchDirectComputation) {
  const auto a = uniform_sequence(120, 4, 9);
  const auto b = uniform_sequence(150, 4, 10);
  const auto plot = compute_dotplot(a, b, 3, 4, {}, /*parallel=*/false);
  const SequenceView va{a};
  const SequenceView vb{b};
  for (Index r = 0; r < 3; ++r) {
    const Index a0 = 120 * r / 3;
    const Index a1 = 120 * (r + 1) / 3;
    for (Index c = 0; c < 4; ++c) {
      const Index b0 = 150 * c / 4;
      const Index b1 = 150 * (c + 1) / 4;
      const Index score = testing::lcs_oracle(
          va.subspan(static_cast<std::size_t>(a0), static_cast<std::size_t>(a1 - a0)),
          vb.subspan(static_cast<std::size_t>(b0), static_cast<std::size_t>(b1 - b0)));
      EXPECT_DOUBLE_EQ(plot.at(r, c),
                       static_cast<double>(score) / static_cast<double>(a1 - a0));
    }
  }
}

TEST(Dotplot, RenderProducesExpectedShape) {
  const auto a = uniform_sequence(200, 10, 11);
  const auto plot = compute_dotplot(a, a, 4, 8);
  const auto text = render_dotplot(plot);
  // 4 data rows + 2 border rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_NE(text.find('@'), std::string::npos);  // the self-diagonal peaks
}

TEST(Dotplot, ValidatesArguments) {
  const auto a = uniform_sequence(10, 4, 12);
  EXPECT_THROW((void)compute_dotplot(a, a, 0, 2), std::invalid_argument);
  EXPECT_THROW((void)compute_dotplot(Sequence{}, a, 2, 2), std::invalid_argument);
}

}  // namespace
}  // namespace semilocal
