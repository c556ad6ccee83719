// FlowContext: the execution substrate of a staged flow run, separated
// from the per-stage algorithm options (what to compute) which stay in
// FlowOptions. One context drives one pipeline run — or a whole batch,
// where every item shares the same budget and cancellation domain.
//
// It owns three things:
//
//  1. The three-level thread budget. The repo has three independent,
//     individually deterministic levels of parallelism — corpus (batch
//     items), graph (the excitation sweep inside one state-graph build),
//     candidate (CSC trigger pairs / ring-environment sweeps). The
//     graph and candidate knobs are also per-stage options
//     (SgOptions::threads, EncodeOptions::threads,
//     GenerateOptions::threads); ThreadBudget is the single place a
//     driver splits the machine, and the pipeline applies it to every
//     stage consistently (see the arbitration rule on ThreadBudget).
//
//  2. The cancellation token, threaded into every stage and checked at
//     BFS-round / CSC-round granularity (see util/cancel.hpp).
//
//  3. The trace vocabulary: structured per-stage records (StageTrace,
//     with typed metrics and a per-stage error channel) that replace
//     grepping ad-hoc detail strings. The legacy FlowStage{name, detail}
//     lines are still rendered — they are part of the canonical JSON
//     contract — but they are derived from the trace, not the other way
//     around.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "util/cancel.hpp"

namespace rtcad {

class MetricsRegistry;  // flow/metrics.hpp

/// The machine split across the three parallelism levels. Arbitration
/// rule: a non-negative level OVERRIDES the corresponding scattered
/// option everywhere in the flow (sg.threads, encode.threads,
/// generate.threads); -1 inherits whatever the per-stage options say.
/// The compatibility wrapper `run_flow` uses an inherit-everything
/// context, which is what keeps it byte-identical to the old API. 0 means
/// "hardware concurrency" at every level.
struct ThreadBudget {
  int corpus = 0;     ///< batch items in flight (0 = hardware concurrency)
  int graph = -1;     ///< excitation-sweep workers per state-graph build
  int candidate = -1; ///< workers in the CSC search / assumption rounds

  /// Resolve one level against the scattered option it governs.
  static int resolve(int level, int option_threads) {
    return level >= 0 ? level : option_threads;
  }
};

enum class StageStatus {
  kOk,       ///< ran and produced its outputs
  kSkipped,  ///< not needed for this spec (e.g. encode when CSC holds)
  kFailed,   ///< raised an error (see StageTrace::error_*)
};

/// The one word for a status, wherever it is rendered: metric names
/// (`stage_total.<stage>.<word>`), the wire protocol's `stage` lines and
/// `rtflow_cli run --trace`.
inline const char* status_word(StageStatus s) {
  switch (s) {
    case StageStatus::kOk: return "ok";
    case StageStatus::kSkipped: return "skipped";
    case StageStatus::kFailed: return "failed";
  }
  return "?";
}

/// One typed statistic a stage reports (states, edges, conflicts,
/// candidates, ...). Values are schedule-independent by the same contract
/// that makes the JSON canonical.
struct StageMetric {
  std::string key;
  long long value = 0;
  bool operator==(const StageMetric&) const = default;
};

/// The deterministic per-stage error channel. `kind` uses the batch
/// diagnostic vocabulary: "parse", "spec", "cancelled", "internal".
struct StageError {
  std::string stage;    ///< pipeline stage name that raised it
  std::string kind;
  std::string message;  ///< byte-identical to the legacy exception text
};

/// Structured record of one pipeline stage execution.
struct StageTrace {
  std::string stage;                 ///< pipeline stage name
  StageStatus status = StageStatus::kOk;
  std::vector<StageMetric> metrics;  ///< typed stats, stage-specific
  std::string summary;               ///< one-line human description
  /// Extra lines for a human reader, printed under the stage line by
  /// `run --trace` (verify-netlist: a failing check's counterexample
  /// events). Like wall_ms, never part of canonical JSON or cache entries.
  std::vector<std::string> notes;
  std::string error_kind;            ///< set when status == kFailed
  std::string error_message;
  double wall_ms = 0;  ///< wall clock; never part of canonical output

  long long metric(const std::string& key, long long missing = -1) const {
    for (const StageMetric& m : metrics)
      if (m.key == key) return m.value;
    return missing;
  }
};

/// Shared execution state for one flow (or batch) run. Plain aggregate:
/// drivers fill the fields they care about and pass it by const
/// reference; the default-constructed context reproduces the legacy
/// behavior exactly (inherit thread options, no cancellation).
struct FlowContext {
  ThreadBudget budget;
  /// Optional, not owned; must outlive the run. Shared by every stage of
  /// every item driven under this context.
  const CancelToken* cancel = nullptr;
  /// Optional stage-completion observer: the pipeline invokes it with the
  /// finished StageTrace immediately after each stage (including a failed
  /// or skipped one), before the next stage starts. This is the streaming
  /// seam the serving daemon and `run --trace` push progress through; it
  /// observes, never alters — the trace recorded in PipelineResult is
  /// byte-identical with or without an observer. Under a batch the
  /// observer fires from whichever worker runs the item, so it must be
  /// thread-safe when the corpus level is parallel.
  std::function<void(const StageTrace&)> on_stage;
  /// Optional, not owned; must outlive the run. When set, the pipeline
  /// feeds every finished StageTrace into the registry's per-stage
  /// latency histograms and outcome counters (MetricsRegistry is
  /// internally thread-safe, so one registry can span a parallel
  /// batch). Purely observational: canonical output is byte-identical
  /// with or without it.
  MetricsRegistry* metrics = nullptr;

  bool cancelled() const { return cancel && cancel->cancelled(); }
  void check_cancelled(const char* where) const {
    if (cancel) cancel->check(where);
  }
};

}  // namespace rtcad
