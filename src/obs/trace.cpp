#include "obs/trace.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>

namespace tgp::obs::trace {

namespace detail {
std::atomic<bool> g_enabled{false};

ThreadContext& tls_context() {
  thread_local ThreadContext tc;
  return tc;
}
}  // namespace detail

namespace {

// One thread's ring.  The owning thread appends; snapshot()/clear() from
// other threads take the same mutex, so every access is synchronized —
// the lock is uncontended on the hot path (snapshotting is rare), which
// keeps the cost of an emit at one uncontended lock + a struct copy.
struct Ring {
  std::mutex mu;
  std::vector<TraceEvent> buf;  // pre-sized at creation, never grown
  std::uint64_t head = 0;       // total events ever written (monotonic)
  std::uint32_t tid = 0;
  std::string name;

  std::uint64_t dropped() const {
    return head > buf.size() ? head - buf.size() : 0;
  }
  std::uint64_t live() const { return std::min<std::uint64_t>(head, buf.size()); }
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  std::size_t ring_capacity = std::size_t{1} << 16;  // 65536 events/thread
};

Registry& registry() {
  static Registry r;
  return r;
}

struct Epoch {
  Clock::time_point steady;
  std::int64_t unix_us;  // wall clock at the same instant, for stitching
};

const Epoch& epoch() {
  static const Epoch e = [] {
    Epoch out;
    out.steady = Clock::now();
    out.unix_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
    return out;
  }();
  return e;
}

// Per-process salt so span ids from different fleet processes do not
// collide when stitched.  The low 24 bits are left to the per-thread
// counter; the salt fills the rest.
std::uint64_t process_span_salt() {
  static const std::uint64_t salt = [] {
    std::random_device rd;
    std::uint64_t s = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    return s == 0 ? 0x9e3779b97f4a7c15ull : s;
  }();
  return salt;
}

Ring& thread_ring() {
  // The shared_ptr keeps the ring alive in the registry after the thread
  // exits, so post-join snapshots (the normal shutdown order) still see
  // worker events.
  thread_local std::shared_ptr<Ring> ring = [] {
    auto r = std::make_shared<Ring>();
    Registry& reg = registry();
    std::lock_guard lk(reg.mu);
    r->buf.resize(reg.ring_capacity);
    r->tid = static_cast<std::uint32_t>(reg.rings.size() + 1);
    reg.rings.push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

void set_enabled(bool on) {
  if (on) epoch();  // pin the epoch before the first span
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::int64_t epoch_unix_us() { return epoch().unix_us; }

std::uint64_t new_span_id() {
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t id = process_span_salt() ^
                     counter.fetch_add(1, std::memory_order_relaxed);
  return id != 0 ? id : 1;
}

std::uint64_t dropped_total() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    Registry& reg = registry();
    std::lock_guard lk(reg.mu);
    rings = reg.rings;
  }
  std::uint64_t total = 0;
  for (const auto& rp : rings) {
    std::lock_guard lk(rp->mu);
    total += rp->dropped();
  }
  return total;
}

void set_ring_capacity(std::size_t events_per_thread) {
  Registry& reg = registry();
  std::lock_guard lk(reg.mu);
  reg.ring_capacity = std::max<std::size_t>(events_per_thread, 64);
}

void set_thread_name(const std::string& name) {
  Ring& r = thread_ring();
  std::lock_guard lk(r.mu);
  r.name = name;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - epoch().steady)
      .count();
}

void emit(const TraceEvent& ev) {
  if (!enabled()) return;
  Ring& r = thread_ring();
  std::lock_guard lk(r.mu);
  TraceEvent& slot = r.buf[static_cast<std::size_t>(r.head % r.buf.size())];
  slot = ev;
  slot.tid = r.tid;
  ++r.head;
}

void emit_complete(const char* cat, const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, TraceArg a0, TraceArg a1) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  ev.args[0] = a0;
  ev.args[1] = a1;
  const detail::ThreadContext& tc = detail::tls_context();
  if (tc.ctx.sampled) {
    ev.trace_hi = tc.ctx.trace_hi;
    ev.trace_lo = tc.ctx.trace_lo;
    ev.span_id = new_span_id();
    ev.parent_span =
        tc.active_span != 0 ? tc.active_span : tc.ctx.parent_span;
  }
  emit(ev);
}

void emit_complete_ctx(const char* cat, const char* name,
                       std::int64_t start_ns, std::int64_t end_ns,
                       const TraceContext& ctx, std::uint64_t span_id,
                       TraceArg a0, TraceArg a1) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  ev.args[0] = a0;
  ev.args[1] = a1;
  if (ctx.sampled) {
    ev.trace_hi = ctx.trace_hi;
    ev.trace_lo = ctx.trace_lo;
    ev.span_id = span_id;
    ev.parent_span = ctx.parent_span;
  }
  emit(ev);
}

TraceSnapshot snapshot() {
  TraceSnapshot out;
  std::vector<std::shared_ptr<Ring>> rings;
  {
    Registry& reg = registry();
    std::lock_guard lk(reg.mu);
    rings = reg.rings;
  }
  for (const auto& rp : rings) {
    std::lock_guard lk(rp->mu);
    out.threads.emplace_back(rp->tid, rp->name);
    out.dropped += rp->dropped();
    const std::uint64_t live = rp->live();
    const std::uint64_t cap = rp->buf.size();
    // Oldest surviving event first: when the ring has wrapped, that is
    // the slot the next write would overwrite.
    const std::uint64_t first = rp->head > cap ? rp->head - live : 0;
    for (std::uint64_t i = 0; i < live; ++i)
      out.events.push_back(
          rp->buf[static_cast<std::size_t>((first + i) % cap)]);
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.start_ns != b.start_ns)
                       return a.start_ns < b.start_ns;
                     // Longer span first so parents precede children that
                     // opened in the same tick.
                     return a.dur_ns > b.dur_ns;
                   });
  out.recorded = out.events.size();
  return out;
}

void clear() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    Registry& reg = registry();
    std::lock_guard lk(reg.mu);
    rings = reg.rings;
  }
  for (const auto& rp : rings) {
    std::lock_guard lk(rp->mu);
    rp->head = 0;
  }
}

}  // namespace tgp::obs::trace
