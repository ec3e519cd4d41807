// Cooperative cancellation with optional deadlines.
//
// A CancelToken is shared between the party running a long computation
// (which polls it) and the parties that may want to stop that computation
// (a caller invoking request_cancel(), or a watchdog promoting an expired
// deadline).  Cancellation is cooperative: solvers call poll() in their
// outer loops and unwind with CancelledError when a stop has been
// requested.  Work that never reaches a poll point runs to completion —
// a token can interrupt a loop, not preempt a thread.
//
// poll() is built to disappear in the common case: one relaxed atomic
// load when no stop is pending and no deadline is set, and the clock is
// consulted only every kDeadlineStride polls, so sprinkling polls through
// an O(n) loop costs nanoseconds per iteration.
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace tgp::util {

/// Why a computation was asked to stop.  First request wins and sticks.
enum class CancelReason : int {
  kNone = 0,
  kCancelled = 1,  ///< explicit request_cancel()
  kDeadline = 2,   ///< the token's deadline passed
};

inline const char* cancel_reason_name(CancelReason r) {
  switch (r) {
    case CancelReason::kNone: return "none";
    case CancelReason::kCancelled: return "cancelled";
    case CancelReason::kDeadline: return "deadline";
  }
  return "?";
}

/// Items a solver's linear sweep handles between two poll() calls, so
/// the check stays off the per-item path.
inline constexpr int kPollStride = 16384;

/// Thrown by CancelToken::poll() once a stop request is observed.
struct CancelledError : std::runtime_error {
  CancelReason reason;
  explicit CancelledError(CancelReason r)
      : std::runtime_error(r == CancelReason::kDeadline
                               ? "deadline exceeded"
                               : "job cancelled"),
        reason(r) {}
};

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;
  /// Polls between deadline clock checks; power of two.
  static constexpr unsigned kDeadlineStride = 32;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Ask the computation to stop.  Safe from any thread, idempotent; a
  /// deadline that fired first keeps its reason.
  void request_cancel() const { try_set(CancelReason::kCancelled); }

  /// Arm a deadline.  Must be called before the token is handed to the
  /// polling side (the release store on has_deadline_ publishes the
  /// time point).
  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_.store(true, std::memory_order_release);
  }

  /// First-request-wins stop; returns true iff this call set the reason.
  bool try_set(CancelReason r) const {
    int expected = 0;
    return reason_.compare_exchange_strong(expected, static_cast<int>(r),
                                           std::memory_order_acq_rel);
  }

  CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_acquire));
  }

  bool stop_requested() const {
    return reason_.load(std::memory_order_relaxed) != 0;
  }

  bool has_deadline() const {
    return has_deadline_.load(std::memory_order_acquire);
  }

  /// Whether the deadline has passed at `now` (false when none is set).
  bool deadline_expired(Clock::time_point now = Clock::now()) const {
    return has_deadline() && now >= deadline_;
  }

  /// The poll point for solver loops: throws CancelledError once a stop
  /// has been requested or the deadline has passed.  Expired deadlines
  /// become the sticky reason, so later polls and other observers agree.
  void poll() const {
    int r = reason_.load(std::memory_order_relaxed);
    if (r == 0) {
      if (!has_deadline_.load(std::memory_order_relaxed)) return;
      if ((poll_count_++ % kDeadlineStride) != 0) return;
      if (Clock::now() < deadline_) return;
      try_set(CancelReason::kDeadline);
      r = reason_.load(std::memory_order_acquire);
    }
    throw CancelledError(static_cast<CancelReason>(r));
  }

 private:
  // request_cancel()/try_set() are const so readers holding a
  // `const CancelToken*` (the solver side) can still promote their own
  // expired deadline; the atomics make that safe.
  mutable std::atomic<int> reason_{0};
  std::atomic<bool> has_deadline_{false};
  Clock::time_point deadline_{};
  // Only the polling thread touches this; plain is fine (and fast).
  mutable unsigned poll_count_ = 0;
};

}  // namespace tgp::util
