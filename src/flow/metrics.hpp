// Serve-side metrics: a lock-cheap registry of counters, gauges, and
// fixed-bucket latency histograms, fed by the serving daemon — its
// FlowContext::on_stage observer calls observe_stage() (one histogram +
// outcome counter per pipeline stage), and its request path counts
// submissions and store traffic — and rendered as deterministic-schema
// JSON for the extended `stats` verb and `rtflow_cli metrics`. The
// daemon's `serve.*` counters are its only tally: FlowService::stats()
// and the `stats` line read them back through counter_value().
//
// Design constraints, in order:
//
//  - Hot paths are atomic fetch_adds on pre-resolved instrument
//    pointers — no map lookup, no lock. The registry mutex is taken
//    only to RESOLVE a name to an instrument (once per name per call
//    site, cached by the caller or amortized by get-or-create) and to
//    snapshot for rendering. Instruments are heap-allocated and never
//    freed while the registry lives, so resolved pointers stay valid.
//
//  - The JSON schema is deterministic: names sort lexicographically,
//    histogram bucket BOUNDS are a fixed compile-time ladder shared by
//    every histogram, and two runs of the same workload differ only in
//    observed values (counts, sums, gauge readings) — never in shape.
//    Wall-clock observations are inherently non-deterministic, which
//    is why metrics JSON is a *monitoring* surface, never part of the
//    canonical result-byte contract (same rule as StageTrace.wall_ms).
//
//  - The pipeline does not know the registry: a StageTrace reaches it
//    only through an on_stage observer the daemon installs, so a flow
//    run outside the daemon carries no metrics code on its path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rtcad {

struct StageTrace;

/// Monotonic event count. Contention-safe via relaxed atomics — metrics
/// tolerate reordering, they are not synchronization.
class Counter {
 public:
  void add(long long n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  long long value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

/// Last-written instantaneous value (active connections, cache bytes).
class Gauge {
 public:
  void set(long long n) { v_.store(n, std::memory_order_relaxed); }
  void add(long long n) { v_.fetch_add(n, std::memory_order_relaxed); }
  long long value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

/// Fixed-bucket latency histogram over microseconds. Every histogram
/// shares one compile-time bucket ladder so the rendered schema is
/// identical across runs and across instruments; observe() is a single
/// linear scan (17 bounds) plus two relaxed fetch_adds.
class Histogram {
 public:
  /// Upper bounds in microseconds, ascending; a final implicit
  /// +inf bucket catches everything above the last bound.
  static const std::vector<long long>& bucket_bounds_us();

  void observe_us(long long us);
  long long count() const { return count_.load(std::memory_order_relaxed); }
  long long sum_us() const { return sum_.load(std::memory_order_relaxed); }
  std::vector<long long> bucket_counts() const;

 private:
  // bounds + 1 overflow bucket
  std::vector<std::atomic<long long>> buckets_{
      std::vector<std::atomic<long long>>(18)};
  std::atomic<long long> count_{0};
  std::atomic<long long> sum_{0};
};

/// Snapshot rendered by to_json(): one deterministic single-line JSON
/// object (schema below mirrored normatively in docs/CLI.md):
///   {"schema":1,"kind":"metrics",
///    "counters":{<name>:<n>,...},        // names sorted
///    "gauges":{<name>:<n>,...},
///    "histograms":{<name>:{"bounds_us":[...],   // fixed ladder
///                          "counts":[...],      // len(bounds)+1
///                          "count":<n>,"sum_us":<n>},...}}
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. The returned reference lives as long as the
  /// registry; call sites should resolve once and reuse the pointer.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// The value of counter `name`, 0 when it has never been used. Creates
  /// nothing, so reading a tally leaves the snapshot's shape unchanged.
  long long counter_value(const std::string& name) const;

  /// The per-stage feed wired through FlowContext::on_stage: records
  /// `stage_us.<stage>` latency and bumps
  /// `stage_total.<stage>.<ok|skipped|failed>`.
  void observe_stage(const StageTrace& trace);

  /// Deterministic single-line JSON snapshot (schema above).
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rtcad
