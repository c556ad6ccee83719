#include "rt/generate.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "rt/reduce.hpp"
#include "util/workpool.hpp"

namespace rtcad {
namespace {

/// Delay class per the structural model: smaller = faster.
int delay_class(const Stg& stg, int signal) {
  switch (stg.signal(signal).kind) {
    case SignalKind::kInternal: return 0;
    case SignalKind::kOutput: return 1;
    case SignalKind::kInput: return 2;
  }
  return 2;
}

int edge_key(const Edge& e) {
  return e.signal * 2 + (e.pol == Polarity::kRise ? 0 : 1);
}

/// Age is "pending forever" for states inside a cycle that never enters or
/// leaves the pending region; such a response is maximally overdue.
constexpr int kAgeSaturated = 1 << 20;

/// Pending age of edge `e` at every state of `red`: the number of fired
/// transitions since `e` became excited, where excitation is judged on the
/// ORIGINAL graph (via old_state_of) — reduction suppresses edges, but the
/// marking keeps the response pending, and it is the pending time that the
/// head-start rule reasons about. Region entries (predecessor not pending,
/// or the initial state) have age 1; a multi-source BFS inside the pending
/// region assigns the shortest distance from any entry. Walks the reverse
/// CSR for entry detection and the forward CSR for propagation.
std::vector<int> pending_ages(const StateGraph& red, const StateGraph& orig,
                              const Edge& e) {
  const int n = red.num_states();
  const auto pending = [&](int s) {
    return orig.excited(red.old_state_of(s), e);
  };
  std::vector<int> age(n, 0);
  std::vector<int> queue;
  for (int s = 0; s < n; ++s) {
    if (!pending(s)) continue;
    bool entry = (s == 0);
    for (const auto& [t, from] : red.in_edges(s)) {
      if (!pending(from)) entry = true;
    }
    if (entry) {
      age[s] = 1;
      queue.push_back(s);
    }
  }
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const int s = queue[qi];
    for (const auto& [t, to] : red.out_edges(s)) {
      if (!pending(to) || age[to] > 0) continue;
      age[to] = age[s] + 1;
      queue.push_back(to);
    }
  }
  for (int s = 0; s < n; ++s) {
    if (pending(s) && age[s] == 0) age[s] = kAgeSaturated;
  }
  return age;
}

}  // namespace

std::vector<RtAssumption> generate_assumptions(const StateGraph& sg,
                                               const GenerateOptions& opts) {
  const Stg& stg = sg.stg();
  const int num_keys = 2 * stg.num_signals();
  // emitted[edge_key(before) * num_keys + edge_key(after)]: that ordering
  // is already in `out`.
  std::vector<char> emitted(static_cast<std::size_t>(num_keys) * num_keys, 0);
  std::vector<RtAssumption> out;

  // Is the order of this pair already fixed, either way round?
  const auto decided = [&](const Edge& a, const Edge& b) {
    return emitted[edge_key(a) * num_keys + edge_key(b)] ||
           emitted[edge_key(b) * num_keys + edge_key(a)];
  };
  const auto emit = [&](const Edge& before, const Edge& after,
                        const std::string& rationale) {
    if (decided(before, after)) return false;
    emitted[edge_key(before) * num_keys + edge_key(after)] = 1;
    RtAssumption a;
    a.before = before;
    a.after = after;
    a.origin = RtOrigin::kAutomatic;
    a.rationale = rationale;
    out.push_back(a);
    return true;
  };

  // --- rule 1: delay classes on racing pairs -----------------------------
  const int required = opts.outputs_beat_inputs || opts.ring_environment
                           ? 1
                           : opts.margin_classes;
  std::vector<int> signal_class(stg.num_signals());
  std::uint64_t class_signals[3] = {};  // bit per signal, by delay class
  for (int sig = 0; sig < stg.num_signals(); ++sig) {
    signal_class[sig] = delay_class(stg, sig);
    class_signals[signal_class[sig]] |= std::uint64_t{1} << sig;
  }
  std::vector<Edge> excited;  // edges excited at the current state
  excited.reserve(num_keys);
  for (int s = 0; s < sg.num_states(); ++s) {
    // The rule orders only two excited signals whose classes lie at least
    // `required` apart, so a state whose excited signals span no such pair
    // emits nothing and is skipped.
    const std::uint64_t rise = sg.excited_rise_mask(s);
    const std::uint64_t fall = sg.excited_fall_mask(s);
    int fastest = 3, slowest = -1;
    for (int c = 0; c < 3; ++c) {
      if (!((rise | fall) & class_signals[c])) continue;
      fastest = std::min(fastest, c);
      slowest = c;
    }
    if (slowest - fastest < required || std::popcount(rise | fall) < 2)
      continue;
    // Signal ascending, rise before fall.
    excited.clear();
    for (std::uint64_t live = rise | fall; live != 0; live &= live - 1) {
      const int sig = std::countr_zero(live);
      if (rise >> sig & 1) excited.push_back(Edge{sig, Polarity::kRise});
      if (fall >> sig & 1) excited.push_back(Edge{sig, Polarity::kFall});
    }
    for (const Edge& fast : excited) {
      for (const Edge& slow : excited) {
        if (fast.signal == slow.signal) continue;
        if (signal_class[slow.signal] - signal_class[fast.signal] < required)
          continue;
        if (decided(fast, slow)) continue;
        emit(fast, slow,
             std::string(to_string(stg.signal(fast.signal).kind)) +
                 " gate beats " + to_string(stg.signal(slow.signal).kind) +
                 " response");
      }
    }
  }
  if (!opts.ring_environment) return out;

  // --- rule 2: cycle-start inputs are the slowest events -----------------
  // An input enabled in the home marking begins a new cycle through the
  // environment; every other pending edge belongs to a cycle already in
  // flight and wins the race.
  std::vector<Edge> all_edges;
  for (int sig = 0; sig < stg.num_signals(); ++sig) {
    for (Polarity pol : {Polarity::kRise, Polarity::kFall})
      all_edges.push_back(Edge{sig, pol});
  }
  const auto cycle_start = [&](const Edge& e) {
    return stg.is_input(e.signal) && sg.excited(0, e);
  };
  // Co-excitation is collected in one sweep over the states (edges excited
  // per state are few), not one whole-graph scan per edge pair.
  const auto excited_at = [](const StateGraph& g, int s,
                             const std::vector<Edge>& edges,
                             std::vector<int>* scratch) {
    scratch->clear();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (g.excited(s, edges[i])) scratch->push_back(static_cast<int>(i));
    }
  };
  std::vector<char> races(all_edges.size() * all_edges.size(), 0);
  {
    std::vector<int> live;
    for (int s = 0; s < sg.num_states(); ++s) {
      excited_at(sg, s, all_edges, &live);
      for (int i : live) {
        for (int j : live) races[i * all_edges.size() + j] = 1;
      }
    }
  }
  std::size_t stable = out.size();  // prefix known deadlock-free
  for (std::size_t bi = 0; bi < all_edges.size(); ++bi) {
    const Edge& slow = all_edges[bi];
    if (!cycle_start(slow)) continue;
    for (std::size_t ai = 0; ai < all_edges.size(); ++ai) {
      const Edge& fast = all_edges[ai];
      if (fast.signal == slow.signal || cycle_start(fast)) continue;
      if (!races[ai * all_edges.size() + bi]) continue;
      emit(fast, slow, "pending response beats new-cycle input " +
                           stg.edge_text(slow));
    }
  }

  // --- rule 3: head start among environment responses, to a fixpoint ----
  // Reduce by what is assumed so far, measure how long each input response
  // has been pending, and order racing responses whose pending ages differ
  // by the margin. New orderings prune more interleavings, which can expose
  // further unambiguous head starts — iterate until nothing is added. A
  // round that deadlocks the reduced graph is rolled back wholesale.
  std::vector<Edge> input_edges;
  for (const Edge& e : all_edges) {
    if (stg.is_input(e.signal)) input_edges.push_back(e);
  }
  // Pending-age evaluation is the expensive part of a refinement round: one
  // multi-source BFS over the reduced graph per input edge, all independent
  // (pending_ages only reads the two const graphs and allocates its own
  // scratch). Workers claim edges by atomic cursor and write into private
  // `ages` slots, so the result — and every assumption emitted from it —
  // is identical at any thread count. One pool serves every round.
  WorkPool age_pool(std::min<int>(
      WorkPool::effective_threads(opts.threads),
      std::max<int>(1, static_cast<int>(input_edges.size()))));
  // One validation per refinement step, plus a final one after the loop:
  // every extension (including the cycle-start batch and a last round cut
  // off by the round cap) is reduced and rolled back on deadlock before
  // anything is returned. The rollback target must itself be validated:
  // the initial prefix (rule 1 at the forced margin-1 setting) never was,
  // and if it also strands a state the only safe answer is the empty set
  // (reduce with no assumptions drops nothing beyond eager ε, which keeps
  // at least one edge per non-terminal state).
  bool stable_validated = false;
  const auto rolled_back = [&] {
    out.resize(stable);
    if (!stable_validated && !out.empty() &&
        reduce(sg, out).deadlocked_states > 0)
      out.clear();
    return out;
  };
  // Rounds only ever APPEND assumptions, so after the first one each
  // re-reduction filters the previous round's (much smaller) reduced graph
  // by the new suffix instead of replaying every assumption over the full
  // graph — reduce_delta's contract guarantees a byte-identical result.
  // Rollback paths keep the full reduce: they re-evaluate a PREFIX.
  std::optional<ReduceResult> prev_red;
  std::size_t prev_count = 0;
  const auto reduce_incremental = [&] {
    if (!prev_red) return reduce(sg, out);
    ReduceResult red = reduce_delta(sg, *prev_red, out, prev_count);
    if (opts.validate_incremental_reduce) {
      const ReduceResult full = reduce(sg, out);
      if (!identical_graphs(red.sg, full.sg) ||
          red.edges_removed != full.edges_removed ||
          red.states_removed != full.states_removed ||
          red.deadlocked_states != full.deadlocked_states)
        throw Error("incremental reduce diverged from full rebuild for '" +
                    stg.name() + "'");
    }
    return red;
  };
  for (int round = 0; round < opts.max_refinement_rounds; ++round) {
    // One cancellation check per refinement round: rounds re-reduce the
    // whole graph and sweep a BFS per input edge, so this is the natural
    // (and deterministic, for a pre-cancelled token) abort boundary.
    if (opts.cancel) opts.cancel->check("assumption generation");
    ReduceResult red = reduce_incremental();
    if (red.deadlocked_states > 0) return rolled_back();
    stable = out.size();
    stable_validated = true;

    std::vector<std::vector<int>> ages(input_edges.size());
    age_pool.for_each_index(input_edges.size(), [&](std::size_t i) {
      ages[i] = pending_ages(red.sg, sg, input_edges[i]);
    });

    // Minimum pending-age advantage per racing pair, again in one sweep.
    const std::size_t n_in = input_edges.size();
    std::vector<int> advantage(n_in * n_in, kAgeSaturated);
    std::vector<char> race(n_in * n_in, 0);
    {
      std::vector<int> live;
      for (int s = 0; s < red.sg.num_states(); ++s) {
        excited_at(red.sg, s, input_edges, &live);
        for (int i : live) {
          for (int j : live) {
            race[i * n_in + j] = 1;
            advantage[i * n_in + j] = std::min(advantage[i * n_in + j],
                                               ages[i][s] - ages[j][s]);
          }
        }
      }
    }

    bool added = false;
    for (std::size_t i = 0; i < n_in; ++i) {
      for (std::size_t j = 0; j < n_in; ++j) {
        const Edge& a = input_edges[i];
        const Edge& b = input_edges[j];
        if (a.signal == b.signal) continue;
        if (!race[i * n_in + j] ||
            advantage[i * n_in + j] < opts.headstart_margin)
          continue;
        if (emit(a, b, "response to " + stg.edge_text(a) +
                           "'s trigger pending " +
                           std::to_string(advantage[i * n_in + j]) +
                           " events longer"))
          added = true;
      }
    }
    prev_count = stable;
    prev_red = std::move(red);
    if (!added) break;
  }
  if (out.size() > stable &&
      reduce_incremental().deadlocked_states > 0)
    return rolled_back();
  return out;
}

}  // namespace rtcad
