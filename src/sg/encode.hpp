// Timing-aware state encoding: the "Timing-aware State encoding" box of
// Figure 2. Resolves CSC conflicts by inserting internal state signals via
// event insertion: x+ is inserted after a trigger transition (delaying all
// of that transition's successors so x+ is acknowledged), and likewise x-.
//
// The solver enumerates trigger pairs, rebuilds the state graph for each
// candidate, and keeps insertions that (a) stay consistent, (b) strictly
// reduce CSC conflicts. Among successful candidates it prefers — this is
// the "timing-aware" part the paper highlights — insertions whose new
// signal transitions serialize the fewest states (a proxy for staying off
// the critical path, so that relative-timing laziness can later remove them
// from it entirely).
//
// Candidate evaluation is parallel (EncodeOptions::threads): workers score
// candidates independently on private scratch graphs, and a sequential
// merge replays the selection in enumeration order, so the chosen signal,
// the inserted STG, the log, and any error are byte-identical at every
// thread count — the contract every parallel engine in the repo keeps.
#pragma once

#include <string>
#include <vector>

#include "sg/analysis.hpp"
#include "sg/stategraph.hpp"
#include "util/cancel.hpp"

namespace rtcad {

struct EncodeOptions {
  int max_state_signals = 3;
  bool timing_aware = true;
  SgOptions sg;
  /// Worker threads for the candidate trigger-pair search: 1 keeps the
  /// sequential loop, 0 picks hardware concurrency. Any value yields a
  /// byte-identical result — workers only fill per-candidate scores on
  /// their own scratch graphs, and a sequential merge replays the
  /// keep/tie-break decisions in enumeration order (see solve_csc). The
  /// per-candidate graph builds always run with `sg.threads` forced to 1:
  /// with candidate workers the core budget is already spent, and without
  /// them candidate graphs are too small to amortize a per-build pool.
  /// `sg.threads` still applies to the per-round build of the accepted
  /// spec.
  int threads = 1;
  /// Optional cooperative cancellation, checked once per CSC round (before
  /// the round's rebuild + candidate search). The token also reaches every
  /// state-graph build the solver performs through `sg.cancel`, so a long
  /// candidate evaluation is additionally interruptible at BFS-round
  /// granularity. Not owned; must outlive the solve.
  const CancelToken* cancel = nullptr;
};

/// Schedule-independent statistics for one round of the candidate search.
struct EncodeRoundStats {
  int candidates = 0;  ///< trigger pairs evaluated (built + scored)
  int feasible = 0;    ///< consistent, hazard-free, strictly fewer conflicts
  bool operator==(const EncodeRoundStats&) const = default;
};

struct EncodeResult {
  Stg stg;                ///< specification with inserted state signals
  int signals_added = 0;
  bool solved = false;    ///< all CSC conflicts resolved
  std::vector<std::string> log;
  /// One entry per round that ran a candidate search (the final round that
  /// certifies CSC, and a round cut off by `max_state_signals`, add none).
  std::vector<EncodeRoundStats> rounds;
};

/// Insert state signal `name` with x+ after transition `rise_trigger` and
/// x- after `fall_trigger` (both delaying all successors of the trigger).
/// Pure transform; no feasibility check.
Stg insert_state_signal(const Stg& spec, const std::string& name,
                        int rise_trigger, int fall_trigger);

/// Resolve CSC conflicts by iterated state-signal insertion.
EncodeResult solve_csc(const Stg& spec, const EncodeOptions& opts = {});

}  // namespace rtcad
