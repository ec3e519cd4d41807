// SolveCounters — first-class counters for the paper's complexity claims.
//
// The paper's evaluation (Fig. 2, §2.3.2) argues about runtime *structure*:
// Algorithm 4.1 costs O(n + p log q) driven by the prime-subpath count p,
// the reduced edge count r and the TEMP_S search depth, not by wall time.
// SolveCounters records exactly those quantities per solve, so tests can
// regression-guard the paper's bounds on counts (deterministic) instead of
// timings (noisy), and the service can export them per job.
//
// Routing: solvers do not take a counters parameter.  Instead the caller
// installs a thread-local sink with CounterScope and solvers add into
// active_counters() when it is non-null.  A solve runs on one thread, so
// the scope covers nested solver calls (e.g. the §2.1+§2.2 pipeline sums
// both stages).  With no scope installed the cost at each solver site is
// one thread-local load and branch.
//
// Determinism: every field except arena_bytes_peak is a pure function of
// the (canonical graph, problem, K) triple — identical across thread
// counts, cache states and repeat runs (the differential tests assert
// this).  arena_bytes_peak measures scratch high-water against a shared
// worker arena whose block boundaries depend on the jobs that warmed it;
// it is reported for capacity planning but excluded from the determinism
// contract (algo_equal).
#pragma once

#include <cstdint>

namespace tgp::obs {

struct SolveCounters {
  std::uint64_t oracle_calls = 0;       ///< feasibility probes / DP edge steps
  std::uint64_t bsearch_probes = 0;     ///< binary-search iterations
  std::uint64_t gallop_probes = 0;      ///< gallop-policy probes (§2.3.2)
  std::uint64_t prime_subpaths = 0;     ///< p — prime critical subpaths
  std::uint64_t nonredundant_edges = 0; ///< r ≤ min(2p−1, n−1)
  std::uint64_t temps_peak_rows = 0;    ///< TEMP_S occupancy high-water
  std::uint64_t arena_bytes_peak = 0;   ///< scratch high-water (bytes)

  /// Aggregate: sums for the count fields, max for the peaks.
  void merge(const SolveCounters& o) {
    oracle_calls += o.oracle_calls;
    bsearch_probes += o.bsearch_probes;
    gallop_probes += o.gallop_probes;
    prime_subpaths += o.prime_subpaths;
    nonredundant_edges += o.nonredundant_edges;
    if (o.temps_peak_rows > temps_peak_rows)
      temps_peak_rows = o.temps_peak_rows;
    if (o.arena_bytes_peak > arena_bytes_peak)
      arena_bytes_peak = o.arena_bytes_peak;
  }

  bool any() const {
    return (oracle_calls | bsearch_probes | gallop_probes | prime_subpaths |
            nonredundant_edges | temps_peak_rows | arena_bytes_peak) != 0;
  }

  /// Field-wise equality over the *deterministic* fields only (everything
  /// but arena_bytes_peak) — what the threads-1-vs-8 differential asserts.
  bool algo_equal(const SolveCounters& o) const {
    return oracle_calls == o.oracle_calls &&
           bsearch_probes == o.bsearch_probes &&
           gallop_probes == o.gallop_probes &&
           prime_subpaths == o.prime_subpaths &&
           nonredundant_edges == o.nonredundant_edges &&
           temps_peak_rows == o.temps_peak_rows;
  }

  friend bool operator==(const SolveCounters&, const SolveCounters&) = default;
};

/// Event-loop counters for the network front door (net/server.hpp).
/// Owned and mutated by one loop thread; snapshots are taken by that
/// thread (the /metrics handler runs on the loop) or after stop().
struct NetCounters {
  std::uint64_t accepts = 0;          ///< connections accepted
  std::uint64_t closes = 0;           ///< connections torn down (any cause)
  std::uint64_t frames_in = 0;        ///< complete frames dispatched
  std::uint64_t frames_out = 0;       ///< frames queued for sending
  std::uint64_t bytes_in = 0;         ///< raw bytes read off sockets
  std::uint64_t bytes_out = 0;        ///< raw bytes written to sockets
  std::uint64_t decode_errors = 0;    ///< unparseable headers / payloads
  std::uint64_t oversized_frames = 0; ///< length prefixes over the cap
  std::uint64_t rejects_sent = 0;     ///< kReject frames emitted
  std::uint64_t http_requests = 0;    ///< plain-HTTP requests (/metrics)
  std::uint64_t ticks = 0;            ///< timer ticks delivered to the handler
  std::uint64_t checksum_failures = 0;  ///< frame-checksum suffix mismatches
  std::uint64_t injected_sock_faults = 0;   ///< net.sock.* fired (fault inj.)
  std::uint64_t injected_frame_faults = 0;  ///< net.frame.* fired (fault inj.)

  void merge(const NetCounters& o) {
    accepts += o.accepts;
    closes += o.closes;
    frames_in += o.frames_in;
    frames_out += o.frames_out;
    bytes_in += o.bytes_in;
    bytes_out += o.bytes_out;
    decode_errors += o.decode_errors;
    oversized_frames += o.oversized_frames;
    rejects_sent += o.rejects_sent;
    http_requests += o.http_requests;
    ticks += o.ticks;
    checksum_failures += o.checksum_failures;
    injected_sock_faults += o.injected_sock_faults;
    injected_frame_faults += o.injected_frame_faults;
  }
};

/// The calling thread's active sink, or nullptr when no scope is open.
SolveCounters* active_counters();

/// Route this thread's solver counter increments into `target` for the
/// scope's lifetime.  Nests: the innermost scope wins; the outer one is
/// restored on exit.  Passing the already-active sink (or nullptr to
/// suspend counting) is fine.
class CounterScope {
 public:
  explicit CounterScope(SolveCounters* target);
  ~CounterScope();

  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

 private:
  SolveCounters* prev_;
};

}  // namespace tgp::obs
