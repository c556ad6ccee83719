// Shared pieces of the rtcad benchmark driver: options, clocks, summary
// statistics, the result record every workload fills, and the in-memory
// span recorder used by traced runs.
//
// The benchmark never instruments src/: every span is recorded here, around
// a call into a public rtcad function or at the public
// FlowContext::on_stage seam.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flow/batchflow.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string golden = "specs/golden_backend.json";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  /// Thread counts the workloads use, all capped at the host's cores.
  int nproc = 1;
  int corpus_workers = 1;  ///< closed-loop workers / serve clients
  int graph_threads_n = 1; ///< the parallel side of bigstate
};

// --- statistics -------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double geomean(const std::vector<double>& v);

/// Process peak resident set size in MiB (getrusage).
double peak_rss_mb();

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. Every checked operation counts in
/// `attempted`; a reference mismatch, an `internal` or `cancelled`
/// diagnostic, or a transport failure counts in `failed`.
struct RunResult {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<Metric> metrics;
  std::vector<std::string> notes;     ///< printed to stderr

  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

// --- the corpus -------------------------------------------------------------

/// The 19 checked-in specs x {rt, si}, each through --to verify-netlist,
/// named by their path (the golden's item names). Sorted by path, RT then
/// SI per spec.
std::vector<rtcad::BatchSpec> load_corpus();

/// Item records of the golden back-end file, by item name. Throws
/// rtcad::Error when the file is missing or has no records.
std::map<std::string, std::string> load_golden(const std::string& path);

/// Reference check of one corpus result: RT records must equal the
/// golden byte for byte; SI records, which have no golden, must equal the
/// first SI record seen for that spec in this run. Also rejects
/// `internal` and `cancelled` diagnostics. Thread-safe.
class CorpusChecker {
 public:
  explicit CorpusChecker(std::map<std::string, std::string> golden)
      : golden_(std::move(golden)) {}
  /// Empty when the record passes, else the reason.
  std::string check(const rtcad::BatchSpec& item,
                    const rtcad::BatchItemResult& r);

 private:
  std::map<std::string, std::string> golden_;
  std::mutex mu_;
  std::map<std::string, std::string> si_first_;
};

/// Output quality of one pass over the corpus: transistors summed over ok
/// items and items whose netlist conforms.
struct Quality {
  long long transistors = 0;
  long long conformant = 0;
};
Quality corpus_quality(const std::vector<rtcad::BatchItemResult>& results);

/// Thread budget of every benchmark flow call: one graph and one candidate
/// worker unless stated otherwise.
rtcad::FlowContext single_thread_context();

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder. A span is (name, start, end, parent, item);
/// its layer is the name up to the first '.'. Spans are kept until the run
/// ends, then written as Chrome trace-event JSON and summarised as a
/// per-layer self-time table. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled = false)
      : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Whether the workload should trace its next call: every other call
  /// when enabled, so traced and untraced calls interleave in one window
  /// and their difference is the tracing overhead. Thread-safe.
  bool sample() { return enabled_ && calls_.fetch_add(1) % 2 == 0; }

  /// Record a finished span; returns its id (-1 when disabled or full),
  /// which later spans may name as their parent.
  int add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent = -1, int item = -1);

  std::size_t size() const;
  void write_chrome_json(const std::string& path) const;
  /// Per span name: count, total and self time; then self time per layer.
  /// A span's self time is its duration minus the part its children cover.
  void print_self_time_table() const;

 private:
  std::map<std::string, double> self_ms_by_name() const;
  std::map<std::string, double> self_ms_by_layer() const;

  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    int item = -1;
    int tid = 0;
  };
  static constexpr std::size_t kMaxSpans = 400000;

  bool enabled_;
  std::atomic<unsigned long long> calls_{0};
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::size_t, int> tids_;  // std::thread::id hash -> small id
};

/// Times one call and records it as a span: `timed(tracer, "sg.build",
/// [&] { ... })` returns the lambda's elapsed ms.
template <typename F>
double timed(Tracer& tracer, const std::string& name, F&& f, int parent = -1,
             int item = -1) {
  const auto t0 = Clock::now();
  f();
  const auto t1 = Clock::now();
  tracer.add(name, t0, t1, parent, item);
  return ms_between(t0, t1);
}

/// One flow call, timed around the public call: `call(ctx)` runs it with
/// `ctx`. With a tracer, it also records a parent span `name` and, from
/// timestamps taken at the public FlowContext::on_stage seam, one child
/// span "flow.stage.<stage>" per stage: a stage's span runs from the
/// previous stage's end (or the call's start) to its own completion.
/// Returns the call's wall time in ms; `stage_ms`, when given, receives
/// each traced stage's (name, ms).
double flow_call(rtcad::FlowContext ctx,
                 const std::function<void(const rtcad::FlowContext&)>& call,
                 Tracer* tracer, const std::string& name, int item,
                 std::vector<std::pair<std::string, double>>* stage_ms =
                     nullptr);

// --- workloads --------------------------------------------------------------

/// One workload: set up once, then a timed window, then a report. In a
/// traced run the window traces every other call (Tracer::sample) and the
/// report gives the tracing overhead in place of the metrics.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build inputs and references, warm up. Returns the set-up time in
  /// seconds: the median over several complete set-ups.
  virtual double setup(RunResult* out) = 0;
  /// Run the closed loop for `seconds`, keeping its samples and completed
  /// items per second for report().
  virtual void window(double seconds, Tracer& tracer, RunResult* out) = 0;
  /// End-of-run checks; with `metrics`, also every end-to-end metric
  /// except `setup_s`, else the tracing overhead note.
  virtual void report(RunResult* out, bool metrics) = 0;
};

std::unique_ptr<Workload> make_corpus_workload(const Options& opt);
std::unique_ptr<Workload> make_bigstate_workload(const Options& opt);
std::unique_ptr<Workload> make_serve_workload(const Options& opt);

/// The end-to-end metrics every workload shares, computed from per-call
/// samples: (item index, ms, ran the flow, was traced).
/// `item_ms_p10_geomean` covers the calls that ran the flow.
struct CallSample {
  int item = 0;
  double ms = 0;
  bool flow = true;
  bool traced = false;
};
void add_call_metrics(const std::vector<CallSample>& samples,
                      double items_per_s, const Quality& q, RunResult* out);
/// The tracing overhead of a traced window, as a note: how much longer a
/// traced call takes than an untraced one of the same item.
void add_tracing_note(const std::vector<CallSample>& samples, RunResult* out);

/// The per-layer suite of a traced run: every per-layer metric, measured
/// by calling each layer's public functions on its home inputs.
void run_layer_suite(const Options& opt, Tracer& tracer, RunResult* out);
/// The serving path's part of the suite (flow.serve.*, flow.transport.*,
/// flow.cache.*), against a warm in-process daemon.
void serve_layer_metrics(const Options& opt, Tracer& tracer, RunResult* out);

}  // namespace perfbench
