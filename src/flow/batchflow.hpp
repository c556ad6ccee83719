// Parallel batch-flow engine: run the Figure 2 flow (`run_flow`) over a
// corpus of specifications on a fixed-size thread pool.
//
// Design rules, in priority order:
//
//  1. Determinism. `BatchResult::items[i]` corresponds to `corpus[i]`
//     regardless of thread count or scheduling; the canonical JSON rendering
//     is byte-identical for 1 and N threads (wall-clock timings are opt-in
//     and excluded from the canonical form).
//  2. Failure isolation. A spec that is inconsistent, unimplementable or
//     exceeds `FlowOptions::sg.max_states` produces a structured per-spec
//     diagnostic; it never throws out of `run_batch` and never poisons the
//     rest of the batch.
//  3. Bounded memory. Items keep flow statistics and stage logs, not the
//     synthesized netlists, so corpora can grow to thousands of specs.
//
// Thread-budget composition: three independent, individually deterministic
// levels share the machine — corpus-level workers (this engine),
// graph-level workers inside each state-graph build, and candidate-level
// workers inside the CSC search and the ring-environment assumption
// rounds. Total concurrency is the product, so drivers split the core
// budget: many small specs want the budget at corpus level, one huge spec
// wants it at graph/candidate level. The CSC solver itself guards the
// worst nesting (candidate workers force graph-level builds sequential),
// and because every level is deterministic, any split yields
// byte-identical JSON. The single arbitration point for all three levels
// is FlowContext::budget (flow/context.hpp).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "flow/context.hpp"
#include "flow/pipeline.hpp"
#include "flow/rtflow.hpp"

namespace rtcad {

/// Structured per-spec failure. `kind` is one of:
///   "parse"     — the input file could not be parsed;
///   "spec"      — the flow rejected the specification (inconsistent STG,
///                 state overflow, CSC unsolvable, not persistent, ...);
///   "cancelled" — the run's CancelToken fired before the item finished;
///   "internal"  — anything else escaping the flow (a bug; still contained).
struct BatchDiagnostic {
  std::string kind;
  std::string message;
};

/// One unit of batch work: a named specification plus the flow options to
/// run it under. `load_error` marks corpus entries that already failed at
/// load time (e.g. an unparsable `.g` file); they flow through `run_batch`
/// as failed items so file problems surface in the same report.
struct BatchSpec {
  std::string name;
  Stg spec;
  FlowOptions opts;
  std::optional<BatchDiagnostic> load_error;
};

struct BatchItemResult {
  std::string name;
  bool ok = false;
  BatchDiagnostic diagnostic;  ///< meaningful only when !ok
  // FlowResult statistics (netlists are intentionally dropped).
  int states = 0;
  int states_reduced = 0;
  int state_signals_added = 0;
  int literals = 0;
  int transistors = 0;
  std::size_t constraints = 0;
  std::vector<FlowStage> stages;
  /// Canonical netlist dump (Netlist::to_text of the flow's final — sized
  /// — netlist). Filled only when the item ran the map stage or later;
  /// NOT part of the item record JSON (the record byte-contract predates
  /// the back end) — drivers write it to per-spec `.nl` files instead.
  std::string netlist_text;
  double wall_ms = 0;  ///< excluded from canonical JSON
};

struct BatchResult {
  std::vector<BatchItemResult> items;  ///< corpus order, not finish order
  int ok_count = 0;
  int failed_count = 0;
  double wall_ms = 0;  ///< whole-batch wall clock; excluded from JSON
};

/// Run the flow over every corpus entry. Never throws for per-spec
/// reasons. Every item runs through FlowPipeline under this one context —
/// `ctx.budget` arbitrates all three thread levels (corpus pool size, and
/// graph/candidate overrides inside every item's flow), and `ctx.cancel`
/// is shared, so one token stops the whole batch at round granularity
/// (items observing it fail with kind "cancelled"; completed items keep
/// their results).
BatchResult run_batch(const std::vector<BatchSpec>& corpus,
                      const FlowContext& ctx = {});

/// The batch result over `items` (corpus order), with its ok/failed
/// tally. `wall_ms` is the caller's to fill.
BatchResult tally(std::vector<BatchItemResult> items);

/// Run ONE corpus entry through the staged pipeline under `ctx` — the
/// per-item kernel of run_batch, exported for drivers that interleave
/// their own bookkeeping between items: the result cache
/// (flow/cache.hpp), shard checkpointing (run_shard), and the
/// serving daemon (flow/service.hpp). Never throws for flow-level
/// reasons; `wall_ms` is filled.
BatchItemResult run_batch_item(const BatchSpec& item, const FlowContext& ctx);

/// Fold one finished pipeline run into the batch-item vocabulary: flow
/// statistics kept, netlists dropped, a StageError mapped to the item's
/// diagnostic. The single mapping shared by the batch engine and callers
/// that run the pipeline themselves, so their JSON can never drift.
/// `wall_ms` is the caller's to fill.
BatchItemResult to_batch_item(const std::string& name,
                              const PipelineResult& run);

/// The built-in corpus: every `stg/builders` specification under the mode(s)
/// it is meant for, plus handshake pipelines of 2..max_pipeline_stages
/// stages. Names are "<spec>:<MODE>", e.g. "fifo_csc:RT", "pipeline4:SI".
std::vector<BatchSpec> builtin_corpus(int max_pipeline_stages = 6);

/// Parse `.g` files into batch specs running under `opts` (item name = file
/// path). Files that fail to load become entries with `load_error` set:
/// kind "spec" when the spec is read but rejected (a SpecError, e.g. from
/// Stg::validate()), else "parse".
std::vector<BatchSpec> load_corpus_files(const std::vector<std::string>& paths,
                                         const FlowOptions& opts = {});

/// Canonical JSON rendering (stable key order, no whitespace dependence on
/// locale, '\n'-terminated). With `include_timings` the per-item and total
/// wall-clock times are added — useful for humans, excluded by default so
/// outputs diff clean across runs and thread counts.
std::string to_json(const BatchResult& result, bool include_timings = false);

/// Canonical rendering of ONE item record — exactly the bytes to_json
/// emits for the item, as a single-line JSON object. Shared with the
/// shard writer (flow/shard.*) so a merged shard file reassembles to the
/// byte-identical single-process batch JSON.
std::string item_record_json(const BatchItemResult& item,
                             bool include_timings = false);

}  // namespace rtcad
