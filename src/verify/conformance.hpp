// Formal conformance checking of a gate-level netlist against its STG
// specification under the UNBOUNDED gate-delay model (Section 5, solution
// 2): every excited gate may switch in any order. The composition of
// circuit states (net values) and states of the specification's state
// graph is explored exhaustively; a failure is an output edge the spec
// does not allow, or a circuit that goes quiet while the spec still owes
// behaviour.
//
// Relative-timing constraints — orderings between NET transitions — prune
// interleavings exactly as in the paper's C-element example: supplying
// "ac+ before ab-" removes the erroneous firings, after which the AND-OR
// C-element verifies correctly.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "stg/stg.hpp"
#include "util/cancel.hpp"

namespace rtcad {

class StateGraph;

/// Ordering between two net transitions: whenever both are excited,
/// `before` must fire first.
struct NetConstraint {
  std::string before_net;
  Polarity before_pol = Polarity::kRise;
  std::string after_net;
  Polarity after_pol = Polarity::kFall;
};

/// Parse "ac+ before ab-".
NetConstraint parse_net_constraint(const std::string& text);

struct ConformanceOptions {
  std::vector<NetConstraint> constraints;
  /// Caps the spec's state graph (a larger one is refused) and the
  /// composed states, checked at each state the exploration expands.
  std::size_t max_states = 1u << 20;
  /// Checked every 256 popped composed states ("cancelled during
  /// conformance"): a pre-run cancel fails with identical bytes at any
  /// thread count; the exploration itself is single-threaded.
  const CancelToken* cancel = nullptr;
};

struct ConformanceResult {
  bool ok = false;
  std::string failure;                 ///< empty when ok
  std::vector<std::string> trace;      ///< event names leading to failure
  int states_explored = 0;
};

/// Check `netlist` against the specification whose reachability graph is
/// `spec_graph` (its own copy of the spec, spec_graph.stg(), names the
/// signals). The flow passes the graph its reachability stage already
/// holds. A graph of more than `opts.max_states` states is refused with
/// the SpecError the Stg overload raises when its build exceeds the cap.
ConformanceResult verify_conformance(const Netlist& netlist,
                                     const StateGraph& spec_graph,
                                     const ConformanceOptions& opts = {});

/// Build the spec's state graph under `opts.max_states`, then check
/// against it. A build error is rethrown as a SpecError prefixed
/// "conformance: cannot build the specification state graph: ".
ConformanceResult verify_conformance(const Netlist& netlist, const Stg& spec,
                                     const ConformanceOptions& opts = {});

/// The Section 5 example: a "static" C-element built from three AND gates
/// and one OR gate (c = ab + ac + bc) — hazardous under unbounded delays.
Netlist celement_and_or_netlist();

/// The RT constraints that make it verify: ac+/bc+ before ab-, and the
/// symmetric pair for the falling phase.
std::vector<NetConstraint> celement_and_or_constraints();

}  // namespace rtcad
