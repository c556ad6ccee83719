#include "sg/encode.hpp"

#include <algorithm>
#include <utility>

#include "util/workpool.hpp"

namespace rtcad {
namespace {

/// Insert one transition of signal `sig`/`pol` after `trigger`, delaying
/// all current successors of `trigger`.
void insert_edge_after(Stg& stg, int sig, Polarity pol, int trigger) {
  const int t_new = stg.add_transition(Edge{sig, pol});
  // Take over the trigger's post places.
  const std::vector<int> posts = stg.transition(trigger).post;
  for (int p : posts) {
    stg.remove_arc_tp(trigger, p);
    stg.add_arc_tp(t_new, p);
  }
  stg.add_arc_tt(trigger, t_new);
}

/// Schedule-independent outcome of evaluating one (rise, fall) trigger
/// pair. Workers fill these on their own scratch graphs; the sequential
/// merge in solve_csc replays the keep/tie-break decisions in pair-index
/// order, so the selected candidate is exactly the one the sequential
/// loop would pick. The candidate STG itself is not stored — the winner
/// is re-derived by one insert_state_signal call (a pure transform), so
/// memory stays O(pairs) instead of O(pairs × spec).
struct CandidateEval {
  bool feasible = false;  ///< consistent, hazard-free, strictly fewer conflicts
  int remaining_conflicts = 0;
  int serialization = 0;  ///< states where only the new signal is enabled
  int states = 0;
};

/// Count states whose only enabled transitions belong to signal `sig` —
/// in such states the new signal is the sole critical event.
int serialization_score(const StateGraph& sg, int sig) {
  int score = 0;
  for (int s = 0; s < sg.num_states(); ++s) {
    if (sg.out_degree(s) == 0) continue;
    bool all_new = true;
    for (const auto& [t, to] : sg.out_edges(s)) {
      const auto& label = sg.stg().transition(t).label;
      if (!label || label->signal != sig) {
        all_new = false;
        break;
      }
    }
    if (all_new) ++score;
  }
  return score;
}

}  // namespace

Stg insert_state_signal(const Stg& spec, const std::string& name,
                        int rise_trigger, int fall_trigger) {
  Stg stg = spec;
  const int x = stg.add_signal(name, SignalKind::kInternal);
  insert_edge_after(stg, x, Polarity::kRise, rise_trigger);
  insert_edge_after(stg, x, Polarity::kFall, fall_trigger);
  return stg;
}

EncodeResult solve_csc(const Stg& spec, const EncodeOptions& opts) {
  EncodeResult result{spec, 0, false, {}, {}};

  // One pool for every round of the search. Candidate evaluation is the
  // flow's last serial wall: each candidate is an independent build-and-
  // score on its own graph, so workers claim pairs by atomic cursor and
  // the merge below restores sequential semantics. The calling thread is
  // worker 0, so a 1-thread pool is the plain sequential loop.
  WorkPool pool(WorkPool::effective_threads(opts.threads));
  // Candidate graph builds are always sequential: with candidate-level
  // workers the core budget is already spent (nesting graph-level workers
  // would oversubscribe), and without them the candidate graphs
  // are far too small to amortize a per-build worker pool — the churn of
  // spawning one per trigger pair would dominate the search. Only the
  // per-round build of the accepted spec below keeps the caller's
  // graph-level setting.
  SgOptions candidate_sg = opts.sg;
  candidate_sg.threads = 1;

  for (int round = 0;; ++round) {
    // One cancellation check per CSC round; candidate builds inherit the
    // token through candidate_sg for BFS-round granularity on top. A
    // FlowCancelled from a worker is NOT a candidate rejection — it is not
    // a SpecError, so it propagates out of for_each_index and aborts the
    // solve, exactly like the sequential loop.
    if (opts.cancel) opts.cancel->check("state encoding");
    StateGraph sg = StateGraph::build(result.stg, opts.sg);
    const SgAnalysis analysis = analyze(sg);
    if (analysis.has_csc()) {
      result.solved = true;
      result.log.push_back("round " + std::to_string(round) +
                           ": no CSC conflicts remain");
      return result;
    }
    if (result.signals_added >= opts.max_state_signals) {
      result.log.push_back("gave up: " +
                           std::to_string(analysis.csc_conflicts.size()) +
                           " conflicts remain after " +
                           std::to_string(result.signals_added) +
                           " insertions");
      return result;
    }
    if (result.stg.num_signals() >= Stg::kMaxSignals) {
      result.log.push_back("gave up: " +
                           std::to_string(analysis.csc_conflicts.size()) +
                           " conflicts remain and the specification already "
                           "has " + std::to_string(Stg::kMaxSignals) +
                           " signals, no room for a state signal");
      return result;
    }

    const std::string name = "csc" + std::to_string(result.signals_added);
    const int base_conflicts =
        static_cast<int>(analysis.csc_conflicts.size());
    const std::size_t base_persistency = analysis.persistency.size();

    // Enumerate the trigger pairs up front, in the order the sequential
    // loop visits them; pair index is the determinism anchor for both the
    // merge and the round statistics.
    std::vector<std::pair<int, int>> pairs;
    const int num_t = result.stg.num_transitions();
    for (int a = 0; a < num_t; ++a) {
      if (result.stg.transition(a).is_silent()) continue;
      for (int b = 0; b < num_t; ++b) {
        if (b == a || result.stg.transition(b).is_silent()) continue;
        pairs.emplace_back(a, b);
      }
    }

    // Evaluation: embarrassingly parallel. Each worker builds and scores
    // whole candidates on private scratch state and writes only its own
    // evals[i] slot; a SpecError (inconsistent, unbounded, over the state
    // cap) rejects that candidate exactly as it does sequentially.
    std::vector<CandidateEval> evals(pairs.size());
    pool.for_each_index(pairs.size(), [&](std::size_t i) {
      const auto [a, b] = pairs[i];
      CandidateEval& ev = evals[i];
      const Stg candidate_stg = insert_state_signal(result.stg, name, a, b);
      try {
        const StateGraph csg = StateGraph::build(candidate_stg, candidate_sg);
        const SgAnalysis ca = analyze(csg);
        if (ca.persistency.size() > base_persistency)
          return;  // insertion introduced new hazards: reject
        ev.remaining_conflicts = static_cast<int>(ca.csc_conflicts.size());
        ev.feasible = ev.remaining_conflicts < base_conflicts;
        if (!ev.feasible) return;  // merge never reads the scores: skip them
        const int new_sig = candidate_stg.num_signals() - 1;
        ev.serialization =
            opts.timing_aware ? serialization_score(csg, new_sig) : 0;
        ev.states = csg.num_states();
      } catch (const SpecError&) {
        // inconsistent / unbounded insertion: stays rejected
      }
    });

    // Merge: replay the keep/tie-break decisions in pair-index order with
    // the sequential comparator ("first strictly better wins"), so the
    // selected pair — and therefore the inserted STG, the log line and
    // every later round — is identical at any thread count.
    const auto better = [](const CandidateEval& l, const CandidateEval& r) {
      if (l.remaining_conflicts != r.remaining_conflicts)
        return l.remaining_conflicts < r.remaining_conflicts;
      if (l.serialization != r.serialization)
        return l.serialization < r.serialization;
      return l.states > r.states;  // keep more concurrency
    };
    int best = -1;
    int feasible = 0;
    for (std::size_t i = 0; i < evals.size(); ++i) {
      if (!evals[i].feasible) continue;
      ++feasible;
      if (best < 0 || better(evals[i], evals[best])) best = static_cast<int>(i);
    }
    result.rounds.push_back(
        EncodeRoundStats{static_cast<int>(pairs.size()), feasible});

    if (best < 0) {
      result.log.push_back(
          "no single insertion reduces conflicts; giving up with " +
          std::to_string(base_conflicts) + " conflicts");
      return result;
    }
    const auto [rise_trigger, fall_trigger] = pairs[best];
    result.log.push_back(
        "round " + std::to_string(round) + ": inserted " + name + "+ after " +
        result.stg.transition_name(rise_trigger) + ", " + name + "- after " +
        result.stg.transition_name(fall_trigger) + " (" +
        std::to_string(base_conflicts) + " -> " +
        std::to_string(evals[best].remaining_conflicts) + " conflicts)");
    result.stg = insert_state_signal(result.stg, name, rise_trigger,
                                     fall_trigger);
    ++result.signals_added;
  }
}

}  // namespace rtcad
