// Low-overhead span tracer: thread-local ring buffers of complete spans.
//
// Design constraints, in order:
//   * the *disabled* path must be a single relaxed atomic load and branch —
//     TGP_SPAN sites pepper the service hot path and the solver entry
//     points, and tracing off must not show up in the perf gate;
//   * the *enabled* path must not allocate: each thread records into a
//     pre-sized ring it acquires on first use (the one-time warm-up heap
//     touch, same contract as util::Arena) and overwrites its oldest
//     events when full, counting the drops;
//   * names and categories are `const char*` and must point at string
//     literals (or storage outliving the snapshot) — events store the
//     pointer, never a copy.
//
// Spans are Chrome-trace "complete" events: one record per closed span
// carrying (category, name, start, duration, thread, up to two integer
// args).  RAII `Span` / `TGP_SPAN` close on scope exit — including
// exception unwind, which is what keeps traces balanced under the
// service's cancellation and fault-injection paths.  Rings stay
// registered after their thread exits, so a snapshot taken after
// PartitionService::shutdown() still sees every worker's events.
//
// Distributed tracing: a TraceContext (128-bit trace id + parent span id
// + sampled flag) can be installed thread-locally with ContextScope.
// While a sampled context is installed, every span additionally records
// the trace id, a fresh 64-bit span id, and its parent span id (nested
// spans parent to the innermost open Span on the thread; the outermost
// parents to the context's remote parent).  The ids are what the
// multi-process stitcher in tools/trace_tool keys on.  Without a sampled
// context the id fields stay zero and the enabled path costs one extra
// thread-local read per span.
//
// Compile-time kill switch: define TGP_TRACE_DISABLED to compile every
// TGP_SPAN site to nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tgp::obs {

/// One optional integer attribute on a span (name must be a literal).
struct TraceArg {
  const char* name = nullptr;
  std::int64_t value = 0;
};

/// Propagated request identity: which distributed trace the work below
/// this point belongs to, and which remote span is its parent.  Travels
/// on the wire (net/wire trace-context block) and thread-locally
/// (ContextScope).  A context with sampled == false is inert everywhere.
struct TraceContext {
  std::uint64_t trace_hi = 0;    ///< 128-bit trace id, high half
  std::uint64_t trace_lo = 0;    ///< 128-bit trace id, low half
  std::uint64_t parent_span = 0; ///< span id spans under this context nest to
  bool sampled = false;

  bool valid() const { return sampled && (trace_hi | trace_lo) != 0; }
};

/// One closed span.  Timestamps are steady-clock nanoseconds relative to
/// the process-wide trace epoch (first use of the tracer).
struct TraceEvent {
  const char* cat = nullptr;
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< tracer-assigned thread id (dense, stable)
  /// Distributed-trace identity; all zero unless the span closed under a
  /// sampled ContextScope (or was emitted via emit_complete_ctx).
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  TraceArg args[2];
};

namespace trace {

using Clock = std::chrono::steady_clock;

namespace detail {
extern std::atomic<bool> g_enabled;

/// Per-thread distributed-tracing state.  `active_span` is the innermost
/// open Span's id (0 at top level, where spans parent to ctx.parent_span).
struct ThreadContext {
  TraceContext ctx;
  std::uint64_t active_span = 0;
};

ThreadContext& tls_context();
}  // namespace detail

/// Runtime kill switch.  Off by default; flipping it on/off at any time
/// is safe (spans opened while enabled but closed after disabling are
/// dropped).
void set_enabled(bool on);

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Ring size (events per thread) for rings created *after* this call;
/// existing rings keep their size.  Call before enabling.  Values < 64
/// are clamped up.
void set_ring_capacity(std::size_t events_per_thread);

/// Label the calling thread in snapshots/exports ("worker-3", "main").
/// Registers the thread's ring even while tracing is disabled.
void set_thread_name(const std::string& name);

/// Nanoseconds since the trace epoch (monotonic).
std::int64_t now_ns();

/// Wall-clock microseconds (unix time) corresponding to trace-epoch 0 —
/// sampled once, together with the steady-clock epoch pin.  This is what
/// lets the multi-process stitcher place per-process timelines on one
/// axis (same-host processes agree to scheduler noise; cross-host skew
/// is corrected with the ping-RTT offset, see net::Client).
std::int64_t epoch_unix_us();

/// Fresh process-unique span id (never 0).  Thread-local counter salted
/// with a per-process random value, so ids from different processes in a
/// fleet collide with negligible probability.
std::uint64_t new_span_id();

/// Total ring overwrites across all registered threads since the last
/// clear() — the `tgp_trace_dropped_total` Prometheus counter.
std::uint64_t dropped_total();

/// Append one event to the calling thread's ring.  No-op when disabled.
void emit(const TraceEvent& ev);

/// Convenience for spans whose endpoints were measured elsewhere (e.g. a
/// queue wait that starts on the submitting thread and ends on the
/// worker): records [start_ns, end_ns) on the *calling* thread's ring.
/// Inherits the calling thread's installed trace context, if sampled.
void emit_complete(const char* cat, const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, TraceArg a0 = {}, TraceArg a1 = {});

/// Like emit_complete but with explicit distributed-trace identity: the
/// event carries ctx's trace id, parents to ctx.parent_span, and uses
/// `span_id` as its own id.  For callers that hold a context without
/// installing it (the client's root request span, router bookkeeping).
void emit_complete_ctx(const char* cat, const char* name,
                       std::int64_t start_ns, std::int64_t end_ns,
                       const TraceContext& ctx, std::uint64_t span_id,
                       TraceArg a0 = {}, TraceArg a1 = {});

/// Point-in-time copy of every ring, merged and sorted by start time.
struct TraceSnapshot {
  std::vector<TraceEvent> events;
  /// tid → name for every registered thread (named or not).
  std::vector<std::pair<std::uint32_t, std::string>> threads;
  std::uint64_t dropped = 0;   ///< events overwritten across all rings
  std::uint64_t recorded = 0;  ///< events currently held (== events.size())
};

TraceSnapshot snapshot();

/// Drop all recorded events and drop counts (rings stay registered).
void clear();

}  // namespace trace

/// Install `ctx` as the calling thread's trace context for a scope: spans
/// opened inside nest under ctx.parent_span and carry ctx's trace id.
/// Installing an unsampled context is a no-op (zero steady-state cost for
/// untraced requests).  Restores the previous context — scopes nest.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& ctx) {
    if (!ctx.sampled) return;
    trace::detail::ThreadContext& tc = trace::detail::tls_context();
    saved_ctx_ = tc.ctx;
    saved_active_ = tc.active_span;
    tc.ctx = ctx;
    tc.active_span = 0;  // top level: spans parent to ctx.parent_span
    installed_ = true;
  }

  ~ContextScope() {
    if (!installed_) return;
    trace::detail::ThreadContext& tc = trace::detail::tls_context();
    tc.ctx = saved_ctx_;
    tc.active_span = saved_active_;
  }

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext saved_ctx_;
  std::uint64_t saved_active_ = 0;
  bool installed_ = false;
};

/// RAII span.  Construction samples the clock when tracing is enabled;
/// destruction emits the completed event.  `arg()` attaches up to two
/// integer attributes (extra calls are ignored).
class Span {
 public:
  Span(const char* cat, const char* name) : armed_(trace::enabled()) {
    if (armed_) {
      ev_.cat = cat;
      ev_.name = name;
      ev_.start_ns = trace::now_ns();
      trace::detail::ThreadContext& tc = trace::detail::tls_context();
      if (tc.ctx.sampled) {
        ev_.trace_hi = tc.ctx.trace_hi;
        ev_.trace_lo = tc.ctx.trace_lo;
        ev_.span_id = trace::new_span_id();
        ev_.parent_span =
            tc.active_span != 0 ? tc.active_span : tc.ctx.parent_span;
        saved_active_ = tc.active_span;
        tc.active_span = ev_.span_id;
        linked_ = true;
      }
    }
  }

  ~Span() {
    if (linked_) {
      // Pop this span off the thread's nesting stack even if tracing was
      // switched off mid-span — ContextScope may still be installed.
      trace::detail::tls_context().active_span = saved_active_;
    }
    if (armed_ && trace::enabled()) {
      ev_.dur_ns = trace::now_ns() - ev_.start_ns;
      trace::emit(ev_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* name, std::int64_t value) {
    if (!armed_) return;
    if (ev_.args[0].name == nullptr) {
      ev_.args[0] = {name, value};
    } else if (ev_.args[1].name == nullptr) {
      ev_.args[1] = {name, value};
    }
  }

  /// This span's distributed id (0 when not under a sampled context) —
  /// what a child process's context should name as parent_span.
  std::uint64_t span_id() const { return ev_.span_id; }

 private:
  bool armed_;
  bool linked_ = false;
  std::uint64_t saved_active_ = 0;
  TraceEvent ev_;
};

}  // namespace tgp::obs

#define TGP_OBS_CONCAT_INNER(a, b) a##b
#define TGP_OBS_CONCAT(a, b) TGP_OBS_CONCAT_INNER(a, b)

#if defined(TGP_TRACE_DISABLED)
#define TGP_SPAN(cat, name) \
  do {                      \
  } while (0)
#else
/// Anonymous scope span.  For spans needing args, declare an obs::Span
/// directly.
#define TGP_SPAN(cat, name) \
  ::tgp::obs::Span TGP_OBS_CONCAT(tgp_span_, __LINE__)(cat, name)
#endif
