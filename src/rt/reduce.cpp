#include "rt/reduce.hpp"

namespace rtcad {

namespace {

bool has_silent_transition(const Stg& stg) {
  for (int t = 0; t < stg.num_transitions(); ++t) {
    if (stg.transition(t).is_silent()) return true;
  }
  return false;
}

// Per-state "has a silent out-edge" bitmap, one O(edges) pass over the CSR.
// keep_edge needs this per call; scanning the state's out-edges inside the
// callback turned reduce into O(edges × degree) on ε-heavy graphs. Specs
// without any silent transition skip even the single pass.
std::vector<char> silent_out_map(const StateGraph& sg) {
  std::vector<char> out(static_cast<std::size_t>(sg.num_states()), 0);
  const Stg& stg = sg.stg();
  if (!has_silent_transition(stg)) return out;
  sg.for_each_edge([&](int from, int transition, int /*to*/) {
    if (stg.transition(transition).is_silent())
      out[static_cast<std::size_t>(from)] = 1;
  });
  return out;
}

}  // namespace

ReduceResult reduce(const StateGraph& sg,
                    const std::vector<RtAssumption>& assumptions) {
  const Stg& stg = sg.stg();
  // With no assumption and no silent transition keep_edge holds on every
  // edge, so the reduction drops nothing: share the input graph's arrays
  // instead of rebuilding an identical copy of them.
  if (assumptions.empty() && !has_silent_transition(stg))
    return ReduceResult{sg.filtered_keep_all(), {}, 0, 0, 0};

  std::vector<bool> used(assumptions.size(), false);
  const std::vector<char> silent_out = silent_out_map(sg);

  auto keep_edge = [&](int state, int transition) {
    const auto& label = stg.transition(transition).label;
    if (!label) return true;  // silent transitions always kept...
    // ...and always win races: under RT semantics an ε models a zero-delay
    // internal event, so observable transitions wait for pending ε's.
    if (silent_out[static_cast<std::size_t>(state)]) return false;
    for (std::size_t i = 0; i < assumptions.size(); ++i) {
      const RtAssumption& a = assumptions[i];
      if (!(*label == a.after)) continue;
      // "before" must win whenever both are excited: drop this firing.
      if (sg.excited(state, a.before)) {
        used[i] = true;
        return false;
      }
    }
    return true;
  };

  ReduceResult out{sg.filtered(keep_edge), {}, 0, 0, 0};
  out.edges_removed = sg.num_edges() - out.sg.num_edges();
  out.states_removed = sg.num_states() - out.sg.num_states();
  for (std::size_t i = 0; i < assumptions.size(); ++i) {
    if (used[i]) out.used.push_back(assumptions[i]);
  }
  for (int s = 0; s < out.sg.num_states(); ++s) {
    const int old_s = out.sg.old_state_of(s);
    if (out.sg.out_degree(s) == 0 && sg.out_degree(old_s) != 0)
      ++out.deadlocked_states;
  }
  return out;
}

ReduceResult reduce_delta(const StateGraph& root, const ReduceResult& prev,
                          const std::vector<RtAssumption>& assumptions,
                          std::size_t prev_count) {
  RTCAD_EXPECTS(prev_count <= assumptions.size());
  RTCAD_EXPECTS(prev.used.size() <= prev_count);
  const StateGraph& base = prev.sg;
  const Stg& stg = base.stg();

  // Why filtering `base` by the new assumptions alone reproduces the full
  // rebuild: keep_edge is a conjunction — full_keep = silent ∧ prefix ∧
  // suffix — and `base` is already root.filtered(silent ∧ prefix), so
  // base.filtered(silent ∧ suffix) keeps exactly the edges satisfying the
  // conjunction, and its BFS discovers the combined-reachable states in
  // the same discovery order the full rebuild uses (base's ids are
  // themselves in that BFS order). The silent rule needs no root lookup:
  // silent edges are never removed by any keep_edge, so a surviving state
  // has a silent out-edge in `base` iff it has one in `root`.
  std::vector<bool> used(assumptions.size() - prev_count, false);
  const std::vector<char> silent_out = silent_out_map(base);

  auto keep_edge = [&](int state, int transition) {
    const auto& label = stg.transition(transition).label;
    if (!label) return true;
    if (silent_out[static_cast<std::size_t>(state)]) return false;
    // Excitation must be judged at the ROOT graph (the full rebuild judges
    // it there); old_state_of composes through reduction chains.
    const int orig = base.old_state_of(state);
    for (std::size_t i = prev_count; i < assumptions.size(); ++i) {
      const RtAssumption& a = assumptions[i];
      if (!(*label == a.after)) continue;
      if (root.excited(orig, a.before)) {
        used[i - prev_count] = true;
        return false;
      }
    }
    return true;
  };

  ReduceResult out{base.filtered(keep_edge), {}, 0, 0, 0};
  // Stats are relative to the root graph, exactly as the full rebuild
  // reports them.
  out.edges_removed = root.num_edges() - out.sg.num_edges();
  out.states_removed = root.num_states() - out.sg.num_states();
  // `used` for the prefix is inherited from `prev` — an over-approximation
  // of the full rebuild's (a prefix assumption may have fired only in a
  // region the new assumptions now cut off). The refinement rounds that
  // call this never consume `used`; final back-annotation runs one full
  // reduce.
  out.used = prev.used;
  for (std::size_t i = prev_count; i < assumptions.size(); ++i) {
    if (used[i - prev_count]) out.used.push_back(assumptions[i]);
  }
  for (int s = 0; s < out.sg.num_states(); ++s) {
    const int old_s = out.sg.old_state_of(s);
    if (out.sg.out_degree(s) == 0 && root.out_degree(old_s) != 0)
      ++out.deadlocked_states;
  }
  return out;
}

}  // namespace rtcad
