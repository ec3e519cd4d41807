// Tests for the TEMP_S queue (Appendix A) and the cut arena.
#include "core/temps_queue.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/cut_arena.hpp"

namespace tgp::core {
namespace {

TEST(CutArena, EmptySolutionMaterializesEmpty) {
  CutArena a;
  EXPECT_TRUE(a.materialize(CutArena::kEmpty).empty());
}

TEST(CutArena, ConsBuildsSharedTails) {
  CutArena a;
  int s1 = a.cons(5, CutArena::kEmpty);
  int s2 = a.cons(7, s1);
  int s3 = a.cons(9, s1);  // shares tail with s2
  EXPECT_EQ(a.materialize(s2), (std::vector<int>{7, 5}));
  EXPECT_EQ(a.materialize(s3), (std::vector<int>{9, 5}));
  EXPECT_EQ(a.size(), 3);
}

TEST(CutArena, RejectsBadParent) {
  CutArena a;
  EXPECT_THROW(a.cons(1, 5), std::invalid_argument);
  EXPECT_THROW(a.materialize(3), std::invalid_argument);
}

TEST(TempsQueue, StartsEmpty) {
  TempsQueue q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.rows(), 0);
  EXPECT_NO_THROW(q.check_invariants());
}

TEST(TempsQueue, PushBackAndAccess) {
  TempsQueue q(4);
  q.push_back({0, 2, 1.5, -1});
  q.push_back({3, 3, 2.5, -1});
  EXPECT_EQ(q.rows(), 2);
  EXPECT_EQ(q.front().first_prime, 0);
  EXPECT_EQ(q.back().first_prime, 3);
  EXPECT_NO_THROW(q.check_invariants());
}

TEST(TempsQueue, DropFrontPrimeShrinksRangeThenRow) {
  TempsQueue q(4);
  q.push_back({0, 1, 1.0, -1});
  q.push_back({2, 2, 2.0, -1});
  q.drop_front_prime();
  EXPECT_EQ(q.rows(), 2);
  EXPECT_EQ(q.front().first_prime, 1);
  q.drop_front_prime();
  EXPECT_EQ(q.rows(), 1);
  EXPECT_EQ(q.front().first_prime, 2);
  q.drop_front_prime();
  EXPECT_TRUE(q.empty());
}

TEST(TempsQueue, DropOnEmptyThrows) {
  TempsQueue q(2);
  EXPECT_THROW(q.drop_front_prime(), std::invalid_argument);
}

// Four rows over primes 0..8: [0,2] [3,3] [4,6] [7,8].
void fill_rows(TempsQueue& q) {
  q.push_back({0, 2, 1.0, 10});
  q.push_back({3, 3, 2.0, 11});
  q.push_back({4, 6, 3.0, 12});
  q.push_back({7, 8, 4.0, 13});
}

// close_below(target) on one queue against a twin whose primes below
// target close one drop_front_prime at a time: the same last closed prime
// with the same optimum, and the same rows left.
void expect_close_below_matches_drops(int target) {
  TempsQueue q(8), twin(8);
  fill_rows(q);
  fill_rows(twin);
  TempsRow last{-1, -1, 0.0, -1};
  while (!twin.empty() && twin.front().first_prime < target) {
    last = twin.front();
    twin.drop_front_prime();
  }
  const std::optional<TempsRow> closed = q.close_below(target);
  ASSERT_TRUE(closed.has_value()) << "target " << target;
  EXPECT_EQ(closed->last_prime, last.first_prime) << "target " << target;
  EXPECT_LE(closed->first_prime, closed->last_prime);
  EXPECT_EQ(closed->w, last.w);
  EXPECT_EQ(closed->solution, last.solution);
  ASSERT_EQ(q.rows(), twin.rows()) << "target " << target;
  for (int i = 0; i < q.rows(); ++i) {
    EXPECT_EQ(q.row(i).first_prime, twin.row(i).first_prime);
    EXPECT_EQ(q.row(i).last_prime, twin.row(i).last_prime);
    EXPECT_EQ(q.row(i).w, twin.row(i).w);
    EXPECT_EQ(q.row(i).solution, twin.row(i).solution);
  }
  EXPECT_NO_THROW(q.check_invariants());
}

TEST(TempsQueue, CloseBelowInsideTheFrontRow) {
  expect_close_below_matches_drops(1);
  expect_close_below_matches_drops(2);
}

TEST(TempsQueue, CloseBelowAcrossSeveralRows) {
  expect_close_below_matches_drops(3);  // ends at a row's last prime
  expect_close_below_matches_drops(4);
  expect_close_below_matches_drops(6);
  expect_close_below_matches_drops(8);
}

TEST(TempsQueue, CloseBelowPastTheLastRow) {
  expect_close_below_matches_drops(9);
  expect_close_below_matches_drops(40);
  TempsQueue q(8);
  fill_rows(q);
  ASSERT_TRUE(q.close_below(40).has_value());
  EXPECT_TRUE(q.empty());
}

TEST(TempsQueue, CloseBelowWithNothingToCloseReturnsNull) {
  TempsQueue q(8);
  EXPECT_FALSE(q.close_below(5).has_value());  // empty queue
  fill_rows(q);
  EXPECT_FALSE(q.close_below(0).has_value());
  EXPECT_EQ(q.rows(), 4);
  EXPECT_EQ(q.front().first_prime, 0);
  ASSERT_TRUE(q.close_below(2).has_value());
  EXPECT_FALSE(q.close_below(2).has_value());  // already closed
  EXPECT_EQ(q.front().first_prime, 2);
}

TEST(TempsQueue, LowerBoundFindsFirstGeqRow) {
  TempsQueue q(8);
  q.push_back({0, 0, 1.0, -1});
  q.push_back({1, 1, 3.0, -1});
  q.push_back({2, 2, 5.0, -1});
  EXPECT_EQ(q.lower_bound_w(0.5, nullptr), 0);
  EXPECT_EQ(q.lower_bound_w(1.0, nullptr), 0);
  EXPECT_EQ(q.lower_bound_w(2.0, nullptr), 1);
  EXPECT_EQ(q.lower_bound_w(5.0, nullptr), 2);
  EXPECT_EQ(q.lower_bound_w(9.0, nullptr), 3);
}

TEST(TempsQueue, LowerBoundCountsSearchSteps) {
  TempsQueue q(8);
  for (int i = 0; i < 5; ++i)
    q.push_back({i, i, static_cast<double>(i), -1});
  TempsStats stats;
  q.lower_bound_w(2.5, &stats);
  EXPECT_GT(stats.search_steps, 0u);
  EXPECT_LE(stats.search_steps, 3u);  // ceil(log2(5)) = 3
}

TEST(TempsQueue, CollapseReplacesSuffixRows) {
  TempsQueue q(8);
  q.push_back({0, 0, 1.0, -1});
  q.push_back({1, 1, 3.0, -1});
  q.push_back({2, 2, 5.0, -1});
  q.collapse_from(1, {1, 4, 2.0, -1});
  EXPECT_EQ(q.rows(), 2);
  EXPECT_DOUBLE_EQ(q.back().w, 2.0);
  EXPECT_EQ(q.back().first_prime, 1);
  EXPECT_EQ(q.back().last_prime, 4);
  EXPECT_NO_THROW(q.check_invariants());
}

TEST(TempsQueue, CollapseAtEndIsPushBack) {
  TempsQueue q(8);
  q.push_back({0, 0, 1.0, -1});
  q.collapse_from(1, {1, 2, 4.0, -1});
  EXPECT_EQ(q.rows(), 2);
}

TEST(TempsQueue, CapacityOverflowThrows) {
  TempsQueue q(1);
  q.push_back({0, 0, 1.0, -1});
  EXPECT_THROW(q.push_back({1, 1, 2.0, -1}), std::invalid_argument);
}

TEST(TempsQueue, InvalidRowRangeThrows) {
  TempsQueue q(2);
  EXPECT_THROW(q.push_back({3, 2, 1.0, -1}), std::invalid_argument);
}

TEST(TempsQueue, SampleAccumulatesOccupancy) {
  TempsQueue q(4);
  TempsStats stats;
  q.push_back({0, 0, 1.0, -1});
  q.sample(&stats);
  q.push_back({1, 1, 2.0, -1});
  q.sample(&stats);
  EXPECT_EQ(stats.steps, 2u);
  EXPECT_EQ(stats.occupancy_sum, 3u);
  EXPECT_EQ(stats.max_rows, 2);
  EXPECT_DOUBLE_EQ(stats.avg_rows(), 1.5);
}

TEST(TempsQueue, InvariantCheckCatchesUnsortedW) {
  TempsQueue q(4);
  q.push_back({0, 0, 5.0, -1});
  q.push_back({1, 1, 1.0, -1});  // W not increasing
  EXPECT_THROW(q.check_invariants(), std::logic_error);
}

TEST(TempsQueue, InvariantCheckCatchesGappedRanges) {
  TempsQueue q(4);
  q.push_back({0, 0, 1.0, -1});
  q.push_back({2, 2, 2.0, -1});  // gap: prime 1 missing
  EXPECT_THROW(q.check_invariants(), std::logic_error);
}

}  // namespace
}  // namespace tgp::core
