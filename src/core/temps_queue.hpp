// TEMP_S — the paper's central data structure (§2.3.1, Appendix A).
//
// An array-backed queue of rows, each row (L, R, W, S):
//   L, R — a range of prime-subpath indices that currently share the same
//          minimum W-value,
//   W    — that minimum W-value,
//   S    — the partial solution achieving it (an arena id, see CutArena).
//
// Invariants maintained between operations (checked by check_invariants):
//   * rows partition a contiguous range of active prime indices:
//     row k+1.L == row k.R + 1,
//   * the W column is strictly increasing from TOP (front) to BOTTOM
//     (back) — this is what makes the O(log q) binary search of step 2a
//     possible,
//   * the number of rows never exceeds the number of active primes.
//
// TOP/BOTTOM are kept as indices into a fixed-capacity buffer exactly as
// in Appendix A; rows are never shifted, so all operations are O(1) apart
// from the O(log rows) search and close_below, which pays once for each
// row it drops (each row drops once).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "graph/weight.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"

#include <vector>

namespace tgp::core {

struct TempsRow {
  int first_prime;       ///< L column
  int last_prime;        ///< R column
  graph::Weight w;       ///< W column
  int solution;          ///< S column (CutArena id)
};

/// Instrumentation for the Appendix-B occupancy experiment and the
/// O(p log q) accounting of §2.3.2.
struct TempsStats {
  std::uint64_t steps = 0;           ///< processed non-redundant edges
  std::uint64_t occupancy_sum = 0;   ///< Σ rows after each step
  int max_rows = 0;
  std::uint64_t search_steps = 0;    ///< total binary-search iterations

  double avg_rows() const {
    return steps == 0 ? 0.0
                      : static_cast<double>(occupancy_sum) /
                            static_cast<double>(steps);
  }
};

class TempsQueue {
 public:
  /// `capacity` bounds the number of rows ever appended (≤ non-redundant
  /// edge count + 1 for the algorithm's usage).
  explicit TempsQueue(int capacity);

  /// Arena-backed variant: the row buffer lives in `arena` (released by
  /// the caller's scratch frame), so constructing the queue per solve is
  /// heap-free.
  TempsQueue(int capacity, util::Arena& arena);

  bool empty() const { return size_ == 0; }
  int rows() const { return size_; }

  const TempsRow& row(int idx) const;  ///< idx 0 == TOP
  const TempsRow& front() const { return row(0); }
  const TempsRow& back() const { return row(size_ - 1); }

  /// Step 2 of Algorithm 4.1: the oldest active prime (front row's L) has
  /// closed; advance L and drop the row if its range became empty.
  void drop_front_prime();

  /// Step 2 for every active prime below `target` at once: drops the rows
  /// that end below it and starts the front row at it.  Returns the closed
  /// part of the row that held the last prime closed (R is that prime; W
  /// and S its optimum), or nullopt when no active prime lies below
  /// `target`.  Same queue as drop_front_prime() called once per prime.
  std::optional<TempsRow> close_below(int target);

  /// Step 2a: index of the first row (from TOP) with W ≥ x, or rows() if
  /// all rows have W < x.  Counts iterations into `stats` if given.
  int lower_bound_w(graph::Weight x, TempsStats* stats) const;

  /// The search refinement the paper proposes as future work (§2.3.2):
  /// because "W values have a tendency to grow towards the end", a new
  /// W_i usually lands near BOTTOM, so gallop from the back (probe rows
  /// at distance 1, 2, 4, … from BOTTOM) and finish with a binary search
  /// inside the bracketed range.  O(log d) where d is the distance of the
  /// answer from BOTTOM — O(1)-ish on grow-towards-the-end data, still
  /// O(log rows) worst case.  Same result as lower_bound_w.
  int lower_bound_w_gallop(graph::Weight x, TempsStats* stats) const;

  /// Replace rows [idx, rows()) by `row` (the paper's "delete all these
  /// rows and add a new row pointing to all prime subpaths pointed by
  /// deleted rows").  idx == rows() degenerates to push_back.
  void collapse_from(int idx, TempsRow row);

  /// Append a row at BOTTOM.
  void push_back(TempsRow row);

  /// Record one step's occupancy into `stats`.
  void sample(TempsStats* stats) const;

  /// Validate all structural invariants (test hook; O(rows)).
  void check_invariants() const;

 private:
  std::vector<TempsRow> owned_;  ///< backing store for the heap ctor only
  TempsRow* buf_ = nullptr;      ///< row storage (owned_ or arena memory)
  int cap_ = 0;
  int top_ = 0;   ///< buffer index of the TOP row
  int size_ = 0;  ///< number of live rows
};

// The members bandwidth_min_temps calls once per reduced edge are defined
// here, so the loop pays no function call for them.

inline const TempsRow& TempsQueue::row(int idx) const {
  TGP_REQUIRE(0 <= idx && idx < size_, "row index out of range");
  return buf_[top_ + idx];
}

inline std::optional<TempsRow> TempsQueue::close_below(int target) {
  if (size_ == 0 || buf_[top_].first_prime >= target) return std::nullopt;
  while (size_ > 0 && buf_[top_].last_prime < target) {
    ++top_;
    --size_;
  }
  // Either the last row dropped or the front row's part below target
  // held the last prime closed.
  if (size_ == 0 || buf_[top_].first_prime >= target) return buf_[top_ - 1];
  TempsRow closed = buf_[top_];
  closed.last_prime = target - 1;
  buf_[top_].first_prime = target;
  return closed;
}

inline int TempsQueue::lower_bound_w(graph::Weight x,
                                      TempsStats* stats) const {
  int lo = 0;
  int hi = size_;  // first index with W >= x lies in [lo, hi]
  while (lo < hi) {
    int mid = lo + (hi - lo) / 2;
    if (stats) ++stats->search_steps;
    if (row(mid).w >= x)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

inline void TempsQueue::collapse_from(int idx, TempsRow r) {
  TGP_REQUIRE(0 <= idx && idx <= size_, "collapse index out of range");
  size_ = idx;
  push_back(r);
}

inline void TempsQueue::push_back(TempsRow r) {
  TGP_REQUIRE(r.first_prime <= r.last_prime, "row range empty");
  TGP_REQUIRE(top_ + size_ < cap_, "TEMP_S capacity exceeded");
  buf_[top_ + size_] = r;
  ++size_;
}

inline void TempsQueue::sample(TempsStats* stats) const {
  if (!stats) return;
  ++stats->steps;
  stats->occupancy_sum += static_cast<std::uint64_t>(size_);
  stats->max_rows = std::max(stats->max_rows, size_);
}

}  // namespace tgp::core
