// Concurrency reduction: apply relative-timing assumptions to a state
// graph. An assumption "u before v" removes, from every state where both
// edges are excited, the interleavings in which v fires first; states that
// become unreachable disappear. The result is the paper's LAZY STATE GRAPH:
// fewer reachable states means more don't-cares for every signal, which is
// optimization mechanism #1 of Section 3.
#pragma once

#include <vector>

#include "rt/assumption.hpp"
#include "sg/stategraph.hpp"

namespace rtcad {

struct ReduceResult {
  StateGraph sg;
  /// Assumptions that actually removed at least one edge (candidates for
  /// back-annotation; the rest were vacuous on this specification).
  std::vector<RtAssumption> used;
  int edges_removed = 0;
  int states_removed = 0;
  /// States that lost ALL outgoing edges even though the spec had some —
  /// contradictory assumptions (e.g. both orderings of the same race).
  int deadlocked_states = 0;
};

/// With no assumption and no silent transition in the specification
/// nothing can be dropped: the result is then the input graph, returned in
/// O(1) as StateGraph::filtered_keep_all() (the arrays shared, no level
/// sizes, old_state_of unchanged), with nothing removed, used or
/// deadlocked.
ReduceResult reduce(const StateGraph& sg,
                    const std::vector<RtAssumption>& assumptions);

/// Incremental reduce for refinement loops that only ever APPEND
/// assumptions: `prev` must be the result of reducing `root` by the first
/// `prev_count` entries of `assumptions` (full or incremental — chains
/// compose). Filters `prev.sg` by the new suffix alone instead of replaying
/// every assumption over the full graph, producing a graph byte-identical
/// to `reduce(root, assumptions).sg` (same ids, CSR order, codes,
/// excitation) and identical removal/deadlock stats. Exception: `used` for
/// the prefix is inherited from `prev`, which can over-approximate the full
/// rebuild's set — callers that consume `used` (back-annotation) must run
/// one final full reduce.
ReduceResult reduce_delta(const StateGraph& root, const ReduceResult& prev,
                          const std::vector<RtAssumption>& assumptions,
                          std::size_t prev_count);

}  // namespace rtcad
