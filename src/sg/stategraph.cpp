#include "sg/stategraph.hpp"

#include <cstddef>
#include <cstring>
#include <utility>

#include "util/workpool.hpp"

namespace rtcad {

namespace {

// Below this many edges build() runs the excitation sweep sequentially
// whatever SgOptions::threads says: the sweep is a pure array walk, so tiny
// graphs would spend more on spawning workers than on the work.
constexpr int kMinParallelEdges = 1 << 15;

// Open-addressed, linear-probe visited table for the reachability hot path.
// A state is the packed pair (marking, code); during exploration the code is
// carried as a switching-parity word determined by the marking (two paths
// reaching one marking with different parities is the consistency error, not
// two distinct states), so the table keys on the marking and the per-state
// parity array completes the packed key. Slots hold (hash, state id); the
// marking bytes themselves live once in the graph's MarkingArena (slot ==
// state id during a build), so probing compares a cached 64-bit hash first
// and memcmps one arena row only on a hash hit. This replaces the seed's
// std::unordered_map<Marking, int>, whose node allocation per insert and
// pointer chase per probe dominated build time on large specs.
class VisitedTable {
 public:
  VisitedTable() { rehash(kInitialSlots); }

  /// Look up the marking bytes `m` (with precomputed hash `h`); insert `id`
  /// if absent. Returns {resident id, inserted}.
  std::pair<int, bool> find_or_insert(const std::uint8_t* m, std::uint64_t h,
                                      int id, const MarkingArena& arena) {
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (slots_[i].id >= 0) {
      if (slots_[i].hash == h &&
          arena.row_equals(static_cast<std::uint32_t>(slots_[i].id), m))
        return {slots_[i].id, false};
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{h, id};
    ++size_;
    return {id, true};
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    int id = -1;
  };
  static constexpr std::size_t kInitialSlots = 1024;

  void rehash(std::size_t n) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(n, Slot{});
    mask_ = n - 1;
    for (const Slot& s : old) {
      if (s.id < 0) continue;
      std::size_t i = static_cast<std::size_t>(s.hash) & mask_;
      while (slots_[i].id >= 0) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// Apply the initial-value constraint of firing labelled transition `t` at
// switching parity `par`, and return the successor parity.
std::uint64_t apply_edge_parity(const Stg& stg, int t, std::uint64_t par,
                                std::vector<signed char>* v0) {
  const auto& label = stg.transition(t).label;
  if (!label.has_value()) return par;
  // v(s) at this marking is v0(s) ^ parity; s+ requires v=0, s- v=1.
  const int pre_parity = static_cast<int>((par >> label->signal) & 1);
  const int required_v0 =
      (label->pol == Polarity::kRise) ? pre_parity : 1 - pre_parity;
  signed char& known = (*v0)[label->signal];
  if (known == -1) {
    known = static_cast<signed char>(required_v0);
  } else if (known != required_v0) {
    throw SpecError("STG '" + stg.name() + "' is inconsistent: signal '" +
                    stg.signal(label->signal).name +
                    "' requires contradictory initial values");
  }
  return par ^ (std::uint64_t{1} << label->signal);
}

}  // namespace

StateGraph StateGraph::build(const Stg& stg, const SgOptions& opts) {
  RTCAD_EXPECTS(stg.num_signals() <= 64);
  StateGraph sg;
  sg.stg_ = stg;
  sg.arena_ = std::make_shared<MarkingArena>(stg.num_places());

  // Phase 1: explore markings, assigning each a parity vector
  // (bit s = number of s-transitions fired along the discovery path, mod 2)
  // and collecting constraints on the initial values v0. State ids are
  // assigned in BFS discovery order and the frontier is consumed in id
  // order, so the out-edges of each state are emitted consecutively — the
  // flat CSR arrays fill in their final order with no sorting pass.
  std::vector<std::uint64_t> parity;
  std::vector<signed char> v0(64, -1);  // -1 unknown, else 0/1
  sg.explore(opts, &parity, &v0);

  // Signals with an explicitly declared initial value win over inference
  // only when inference produced no constraint.
  std::uint64_t v0_value = 0;
  for (int s = 0; s < stg.num_signals(); ++s) {
    if (v0[s] == 1 || (v0[s] == -1 && stg.signal(s).initial_value == 1))
      v0_value |= std::uint64_t{1} << s;
  }

  // Phase 2: final codes.
  for (std::size_t i = 0; i < sg.states_.size(); ++i)
    sg.states_[i].code = v0_value ^ parity[i];

  sg.rebuild_reverse_csr();
  sg.recompute_excitation(sg.num_edges() >= kMinParallelEdges ? opts.threads
                                                              : 1);
  return sg;
}

void StateGraph::explore(const SgOptions& opts,
                         std::vector<std::uint64_t>* parity_out,
                         std::vector<signed char>* v0_out) {
  const Stg& stg = stg_;
  std::vector<std::uint64_t>& parity = *parity_out;
  MarkingArena& arena = *arena_;

  VisitedTable index;
  const Marking m0 = stg.initial_marking();
  states_.push_back(SgState{0, arena.append(m0.data())});
  parity.push_back(0);
  {
    const auto seeded = index.find_or_insert(m0.data(), marking_hash(m0), 0,
                                             arena);
    RTCAD_ASSERT(seeded.second);
  }

  // Scratch buffers reused across the whole exploration: firing target,
  // enabled-transition list and the current marking are the per-edge
  // allocations this loop must not make.
  Marking marking, next;
  std::vector<int> enabled;

  // BFS level tracking: ids are assigned in discovery order, so each level
  // is a contiguous id range and crossing `level_boundary` means every
  // state of the current level has been expanded.
  std::size_t level_begin = 0, level_boundary = 1;

  // Cancellation is checked once per BFS round: here before round 0, then
  // at each level boundary below.
  if (opts.cancel) opts.cancel->check("state-graph build");

  for (int si = 0; si < static_cast<int>(states_.size()); ++si) {
    if (static_cast<std::size_t>(si) == level_boundary) {
      level_sizes_.push_back(static_cast<int>(level_boundary - level_begin));
      level_begin = level_boundary;
      level_boundary = states_.size();
      if (opts.cancel) opts.cancel->check("state-graph build");
    }
    out_row_.push_back(static_cast<int>(edge_transition_.size()));
    // Copy into scratch: the arena may reallocate while appending
    // successors.
    const std::uint8_t* row = arena.row(states_[si].slot);
    marking.assign(row, row + arena.stride());
    const std::uint64_t par = parity[si];

    stg.enabled_transitions(marking, &enabled);
    for (int t : enabled) {
      const std::uint64_t next_par = apply_edge_parity(stg, t, par, v0_out);
      stg.fire_into(marking, t, &next);
      const int candidate_id = static_cast<int>(states_.size());
      const auto insertion = index.find_or_insert(
          next.data(), marking_hash(next), candidate_id, arena);
      const int succ_id = insertion.first;
      if (insertion.second) {
        if (states_.size() >= opts.max_states)
          throw SpecError("state graph of '" + stg.name() + "' exceeds " +
                          std::to_string(opts.max_states) + " states");
        states_.push_back(SgState{0, arena.append(next.data())});
        parity.push_back(next_par);
      } else if (parity[succ_id] != next_par) {
        throw SpecError("STG '" + stg.name() +
                        "' is inconsistent: switching parity differs "
                        "between paths to the same marking");
      }
      edge_transition_.push_back(t);
      edge_successor_.push_back(succ_id);
    }
  }
  out_row_.push_back(static_cast<int>(edge_transition_.size()));
  level_sizes_.push_back(static_cast<int>(states_.size() - level_begin));
}

void StateGraph::rebuild_reverse_csr(int /*threads*/) {
  const int n = num_states();
  const int m = num_edges();
  in_row_.assign(n + 1, 0);
  in_transition_.resize(m);
  in_source_.resize(m);

  // Transpose by counting sort: one pass to count in-degrees, a prefix sum,
  // one pass to scatter. Entries for a given target state keep CSR order of
  // their sources, so the transpose is deterministic.
  for (int e = 0; e < m; ++e) ++in_row_[edge_successor_[e] + 1];
  for (int s = 0; s < n; ++s) in_row_[s + 1] += in_row_[s];
  std::vector<int> cursor(in_row_.begin(), in_row_.end() - 1);
  for (int s = 0; s < n; ++s) {
    for (int e = out_row_[s]; e < out_row_[s + 1]; ++e) {
      const int slot = cursor[edge_successor_[e]]++;
      in_transition_[slot] = edge_transition_[e];
      in_source_[slot] = s;
    }
  }
}

void StateGraph::recompute_excitation(int threads) {
  const int n = num_states();
  excited_rise_.assign(n, 0);
  excited_fall_.assign(n, 0);
  // Direct enablement: a linear sweep over the flat edge array. Each state
  // writes only its own masks, so the chunked parallel sweep is trivially
  // deterministic.
  const auto direct_sweep = [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      for (int e = out_row_[s]; e < out_row_[s + 1]; ++e) {
        if (const auto& label = stg_.transition(edge_transition_[e]).label) {
          const std::uint64_t bit = std::uint64_t{1} << label->signal;
          if (label->pol == Polarity::kRise)
            excited_rise_[s] |= bit;
          else
            excited_fall_[s] |= bit;
        }
      }
    }
  };
  const int workers = WorkPool::effective_threads(threads);
  if (workers > 1) {
    // A few even contiguous chunks per worker, so a skewed chunk cannot
    // straggle the sweep.
    const std::size_t size = static_cast<std::size_t>(n);
    const std::size_t chunks = std::min<std::size_t>(
        std::max<std::size_t>(size, 1), 4 * static_cast<std::size_t>(workers));
    WorkPool pool(workers);
    pool.for_each_index(chunks, [&](std::size_t c) {
      direct_sweep(c * size / chunks, (c + 1) * size / chunks);
    });
  } else {
    direct_sweep(0, static_cast<std::size_t>(n));
  }

  // Close backwards over silent edges: if σ --ε--> σ' and σ' excites e,
  // then σ already excites e (the circuit cannot observe ε). Specs without
  // any silent transition skip the closure outright — the direct sweep is
  // already the fixpoint. The worklist itself stays sequential: silent
  // edges are rare and the propagation is a tiny fraction of the sweep.
  bool any_silent = false;
  for (int t = 0; t < stg_.num_transitions() && !any_silent; ++t)
    any_silent = stg_.transition(t).is_silent();
  if (!any_silent) return;
  // Worklist over the reverse CSR: when a state's masks grow, only its
  // silent predecessors can be affected — no repeated whole-graph sweeps.
  std::vector<int> worklist;
  std::vector<char> queued(n, 1);
  worklist.reserve(n);
  for (int s = n - 1; s >= 0; --s) worklist.push_back(s);
  while (!worklist.empty()) {
    const int s = worklist.back();
    worklist.pop_back();
    queued[s] = 0;
    for (int e = in_row_[s]; e < in_row_[s + 1]; ++e) {
      if (!stg_.transition(in_transition_[e]).is_silent()) continue;
      const int p = in_source_[e];
      const std::uint64_t nr = excited_rise_[p] | excited_rise_[s];
      const std::uint64_t nf = excited_fall_[p] | excited_fall_[s];
      if (nr != excited_rise_[p] || nf != excited_fall_[p]) {
        excited_rise_[p] = nr;
        excited_fall_[p] = nf;
        if (!queued[p]) {
          queued[p] = 1;
          worklist.push_back(p);
        }
      }
    }
  }
}

StateGraph StateGraph::filtered(
    const std::function<bool(int state, int transition)>& keep_edge) const {
  StateGraph out;
  out.stg_ = stg_;
  // The reduced graph shares the root arena: its states keep their root
  // slots, so a reduction chain adds no marking copies at all.
  out.arena_ = arena_;

  // Single counting pass: BFS from the initial state over the kept edges,
  // assigning new ids in discovery order. The frontier is consumed in
  // new-id order, so the surviving edges append to the output CSR already
  // grouped by source row — this walks int arrays only (no marking
  // re-exploration, no hashing) and calls `keep_edge` exactly once per
  // edge of a surviving state. Successors are recorded as old ids and
  // remapped in one sweep once every new id is known.
  std::vector<int> new_id(states_.size(), -1);
  std::vector<int> order;  // new id -> old id, in BFS discovery order
  order.push_back(0);
  new_id[0] = 0;
  out.out_row_.push_back(0);
  for (std::size_t qi = 0; qi < order.size(); ++qi) {
    const int old_s = order[qi];
    for (int e = out_row_[old_s]; e < out_row_[old_s + 1]; ++e) {
      if (!keep_edge(old_s, edge_transition_[e])) continue;
      const int to = edge_successor_[e];
      if (new_id[to] < 0) {
        new_id[to] = static_cast<int>(order.size());
        order.push_back(to);
      }
      out.edge_transition_.push_back(edge_transition_[e]);
      out.edge_successor_.push_back(to);
    }
    out.out_row_.push_back(static_cast<int>(out.edge_transition_.size()));
  }
  for (int& to : out.edge_successor_) to = new_id[to];
  out.states_.reserve(order.size());
  out.old_state_.reserve(order.size());
  for (const int old_s : order) {
    out.states_.push_back(states_[old_s]);
    out.old_state_.push_back(old_state_of(old_s));
  }
  out.rebuild_reverse_csr();
  out.recompute_excitation();
  return out;
}

bool StateGraph::edge_enabled(int state, const Edge& e) const {
  for (const auto& [t, to] : out_edges(state)) {
    const auto& label = stg_.transition(t).label;
    if (label && *label == e) return true;
  }
  return false;
}

int StateGraph::successor(int state, const Edge& e) const {
  for (const auto& [t, to] : out_edges(state)) {
    const auto& label = stg_.transition(t).label;
    if (label && *label == e) return to;
  }
  return -1;
}

int StateGraph::successor_by_transition(int state, int transition) const {
  for (const auto& [t, to] : out_edges(state)) {
    if (t == transition) return to;
  }
  return -1;
}

bool identical_graphs(const StateGraph& a, const StateGraph& b) {
  if (a.num_states() != b.num_states() || a.num_edges() != b.num_edges() ||
      a.marking_stride() != b.marking_stride() ||
      a.level_sizes() != b.level_sizes())
    return false;
  const std::size_t stride = static_cast<std::size_t>(a.marking_stride());
  for (int s = 0; s < a.num_states(); ++s) {
    if (a.code(s) != b.code(s) || a.old_state_of(s) != b.old_state_of(s) ||
        a.excited_rise_mask(s) != b.excited_rise_mask(s) ||
        a.excited_fall_mask(s) != b.excited_fall_mask(s) ||
        a.out_degree(s) != b.out_degree(s) ||
        a.in_degree(s) != b.in_degree(s) ||
        std::memcmp(a.marking_data(s), b.marking_data(s), stride) != 0)
      return false;
    for (int i = 0; i < a.out_degree(s); ++i) {
      if (a.out_edges(s)[i].transition != b.out_edges(s)[i].transition ||
          a.out_edges(s)[i].state != b.out_edges(s)[i].state)
        return false;
    }
    for (int i = 0; i < a.in_degree(s); ++i) {
      if (a.in_edges(s)[i].transition != b.in_edges(s)[i].transition ||
          a.in_edges(s)[i].state != b.in_edges(s)[i].state)
        return false;
    }
  }
  return true;
}

}  // namespace rtcad
