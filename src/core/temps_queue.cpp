#include "core/temps_queue.hpp"

namespace tgp::core {

TempsQueue::TempsQueue(int capacity) {
  TGP_REQUIRE(capacity >= 0, "negative capacity");
  owned_.resize(static_cast<std::size_t>(capacity));
  buf_ = owned_.data();
  cap_ = capacity;
}

TempsQueue::TempsQueue(int capacity, util::Arena& arena) {
  TGP_REQUIRE(capacity >= 0, "negative capacity");
  buf_ = arena.alloc_array<TempsRow>(static_cast<std::size_t>(capacity));
  cap_ = capacity;
}

void TempsQueue::drop_front_prime() {
  TGP_REQUIRE(size_ > 0, "drop_front_prime on empty queue");
  TempsRow& f = buf_[top_];
  if (f.first_prime == f.last_prime) {
    ++top_;
    --size_;
  } else {
    ++f.first_prime;
  }
}

int TempsQueue::lower_bound_w_gallop(graph::Weight x,
                                     TempsStats* stats) const {
  if (size_ == 0) return 0;
  // Gallop backwards from BOTTOM until a row with W < x brackets the
  // answer (rows [size_-step, size_) all have W >= x beyond that point).
  int hi = size_;  // exclusive upper bound of the search range
  int step = 1;
  int lo = size_;
  while (step <= size_) {
    int probe = size_ - step;
    if (stats) ++stats->search_steps;
    if (row(probe).w >= x) {
      lo = probe;  // still >= x; keep galloping
      hi = probe + 1;
      step <<= 1;
    } else {
      // First row below x found: answer lies in (probe, lo].
      int b_lo = probe + 1;
      int b_hi = lo;
      while (b_lo < b_hi) {
        int mid = b_lo + (b_hi - b_lo) / 2;
        if (stats) ++stats->search_steps;
        if (row(mid).w >= x)
          b_hi = mid;
        else
          b_lo = mid + 1;
      }
      return b_lo;
    }
  }
  (void)hi;
  // Gallop ran off the front without finding a row below x; the answer is
  // in [0, lo] with rows [lo, size) known to be >= x.
  int b_lo = 0;
  int b_hi = lo;
  while (b_lo < b_hi) {
    int mid = b_lo + (b_hi - b_lo) / 2;
    if (stats) ++stats->search_steps;
    if (row(mid).w >= x)
      b_hi = mid;
    else
      b_lo = mid + 1;
  }
  return b_lo;
}

void TempsQueue::check_invariants() const {
  for (int i = 0; i < size_; ++i) {
    const TempsRow& r = row(i);
    TGP_ENSURE(r.first_prime <= r.last_prime, "row range inverted");
    if (i > 0) {
      TGP_ENSURE(row(i - 1).last_prime + 1 == r.first_prime,
                 "rows do not tile a contiguous prime range");
      TGP_ENSURE(row(i - 1).w < r.w, "W column not strictly increasing");
    }
  }
}

}  // namespace tgp::core
