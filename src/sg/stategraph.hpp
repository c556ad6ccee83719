// State graph: the reachability graph of an STG with a binary signal code
// per state. Implements the "Reachability analysis" box of the paper's
// Figure 2 design flow.
//
// Signal values are inferred from transition parities: along any path, the
// value of signal s is v0(s) XOR (number of s-transitions fired mod 2).
// Consistency (every s+ fires with s=0, s- with s=1, no path disagreement)
// is checked during construction.
//
// Adjacency lives in shared CSR (compressed sparse row) arrays, not in the
// states: `out_row[s] .. out_row[s+1]` indexes the flat
// `edge_transition[]` / `edge_successor[]` pair for the out-edges of
// state s. Every downstream pass — excitation closure, RT concurrency
// reduction, conformance, synthesis — is an edge traversal, so the flat
// layout removes the per-state vector allocation and pointer chase the
// seed representation paid on each of them. A transition id takes 16 bits
// there (Stg::kMaxTransitions), so an edge costs 6 bytes.
//
// Predecessors come from a transpose (`in_row` / `in_transition` /
// `in_source`) that a graph holds only once rebuild_reverse_csr() has
// derived it. The one pass on the flow's path that walks predecessors is
// the excitation closure over silent transitions, so recompute_excitation()
// derives it for specs that have one; every other graph — pipeline19 and
// most of the corpus — never pays for it.
//
// The state, CSR and excitation arrays sit in one block that copies of a
// graph share, the way graphs share their MarkingArena: copying a
// StateGraph costs nothing per state or edge. The two public mutators
// (rebuild_reverse_csr, recompute_excitation) copy the block first when
// another graph holds it, so no graph ever sees another one's writes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sg/arena.hpp"
#include "stg/stg.hpp"
#include "util/cancel.hpp"
#include "util/growbuf.hpp"

namespace rtcad {

struct SgOptions {
  /// Reachability cap: build() raises SpecError when the graph would exceed
  /// this many states. Batch drivers (flow/batchflow) rely on the error to
  /// report runaway specs per item instead of aborting a whole corpus, so
  /// the check must stay cheap and exact.
  std::size_t max_states = std::size_t{1} << 20;
  /// Worker threads for build()'s excitation sweep, used only on graphs of
  /// at least 32k edges; 1 keeps it sequential, 0 picks hardware
  /// concurrency. Exploration (and the transpose, when the silent closure
  /// needs one) always runs on the calling thread, and any value yields a
  /// byte-identical graph. Batch drivers split cores between corpus-level
  /// parallelism (their own pool) and this graph-level setting.
  int threads = 1;
  /// Optional cooperative cancellation, checked once per BFS round. Not
  /// owned; must outlive the build.
  const CancelToken* cancel = nullptr;
};

/// One adjacency entry: the transition labelling the edge plus the state on
/// its far end — the successor for `out_edges`, the predecessor for
/// `in_edges`.
struct SgEdge {
  int transition;
  int state;
};

class StateGraph {
 public:
  /// Random-access range over a CSR slice, yielding SgEdge by value.
  class EdgeRange {
   public:
    class iterator {
     public:
      iterator(const std::uint16_t* t, const int* s) : t_(t), s_(s) {}
      SgEdge operator*() const { return SgEdge{*t_, *s_}; }
      iterator& operator++() {
        ++t_;
        ++s_;
        return *this;
      }
      bool operator!=(const iterator& o) const { return t_ != o.t_; }
      bool operator==(const iterator& o) const { return t_ == o.t_; }

     private:
      const std::uint16_t* t_;
      const int* s_;
    };
    EdgeRange(const std::uint16_t* t, const int* s, int n)
        : t_(t), s_(s), n_(n) {}
    iterator begin() const { return iterator(t_, s_); }
    iterator end() const { return iterator(t_ + n_, s_ + n_); }
    int size() const { return n_; }
    bool empty() const { return n_ == 0; }
    SgEdge operator[](int i) const { return SgEdge{t_[i], s_[i]}; }

   private:
    const std::uint16_t* t_;
    const int* s_;
    int n_;
  };

  /// Explore the full reachability graph. Throws SpecError on
  /// inconsistency, unboundedness, or state overflow, and on a
  /// specification past Stg::check_limits(). The StateGraph keeps its own
  /// copy of the specification (callers may pass temporaries).
  ///
  /// The exploration loop is the flow's hot path (stategraph.cpp). It runs
  /// its own token game, compiled once per build for the arena's row
  /// format (bit masks for 1-safe nets, place lists otherwise; see
  /// arena.hpp), and expands each state in two passes:
  ///  * pass 1 fires every enabled transition into one per-build successor
  ///    buffer, hashes each successor and prefetches its visited-table
  ///    slot. It raises nothing: a firing past the token bound is recorded
  ///    and ends the pass;
  ///  * pass 2 takes the successors in ascending transition order and, for
  ///    each, checks the initial values, raises the recorded overflow (on
  ///    bit rows: starts over on byte rows), probes the table (the state
  ///    cap on an insert, the parity check on a hit) and appends the edge.
  /// So ids, CSR order, level sizes and every error are those of a loop
  /// that fires one transition at a time, and the row format never changes
  /// the graph or an error. A state's enabled transitions are a
  /// ⌈T/64⌉-word set derived once, at discovery, from its discoverer's:
  /// only the transitions consuming from a place the fired transition
  /// touches are tested again. The sets live only while their states wait
  /// in the BFS queue, in a ring that doubles when full.
  /// The visited table holds 8-byte slots (hash tag, state id) over the
  /// arena's rows and regrows from the arena in id order. Cost is
  /// ~O(edges) with no per-edge heap allocation.
  ///
  /// Neither pass makes an out-of-line call per edge: the hash is inline,
  /// a probe compares bit rows word by word, and pass 2's initial-value
  /// check and parity flip read a per-transition (rise bit, fall bit)
  /// table, which the excitation sweep then reads too.
  ///
  /// Exploration runs on the calling thread; only the excitation sweep
  /// fans out, on `opts.threads` workers once the graph has 32k edges.
  /// Each state writes only its own masks there, so the graph and any
  /// error are byte-identical at every thread count. The result holds no
  /// transpose unless its spec has a silent transition (see
  /// recompute_excitation).
  static StateGraph build(const Stg& stg, const SgOptions& opts = {});

  const Stg& stg() const { return stg_; }
  int num_states() const { return static_cast<int>(arrays_->codes.size()); }
  int initial_state() const { return 0; }

  /// Marking of state `i`, decoded from its arena row into token counts.
  /// A build appends one row per state, so the row of state `i` is its
  /// root state's id, old_state_of(i). For cold paths (tests, diagnostics).
  Marking marking_copy(int i) const {
    return arena_->copy(static_cast<std::uint32_t>(old_state_of(i)));
  }
  /// Signal code of state `i`: bit s is the value of signal s.
  std::uint64_t code(int i) const { return arrays_->codes[i]; }
  bool value(int state, int signal) const {
    return (code(state) >> signal) & 1;
  }
  /// Initial value of every signal, as inferred (bit per signal).
  std::uint64_t initial_code() const { return code(0); }

  int num_edges() const {
    return static_cast<int>(arrays_->edge_transition.size());
  }

  /// Out-edges of `state` as (transition, successor) pairs:
  ///   for (const auto& [t, to] : sg.out_edges(s)) ...
  EdgeRange out_edges(int state) const {
    const Arrays& a = *arrays_;
    const int b = a.out_row[state];
    return EdgeRange(a.edge_transition.data() + b,
                     a.edge_successor.data() + b, a.out_row[state + 1] - b);
  }
  int out_degree(int state) const {
    return arrays_->out_row[state + 1] - arrays_->out_row[state];
  }

  /// In-edges of `state` as (transition, predecessor) pairs — the exact
  /// transpose of the forward CSR. Precondition: the graph holds one,
  /// derived by rebuild_reverse_csr() (build() and filtered() derive it
  /// only for a spec with a silent transition). The accessors never derive
  /// it themselves, so threads may share one const graph.
  EdgeRange in_edges(int state) const {
    RTCAD_EXPECTS(has_transpose());
    const Arrays& a = *arrays_;
    const int b = a.in_row[state];
    return EdgeRange(a.in_transition.data() + b, a.in_source.data() + b,
                     a.in_row[state + 1] - b);
  }
  int in_degree(int state) const {
    RTCAD_EXPECTS(has_transpose());
    return arrays_->in_row[state + 1] - arrays_->in_row[state];
  }

  /// Visit every edge as f(from, transition, to), in CSR order.
  template <typename F>
  void for_each_edge(F&& f) const {
    const Arrays& a = *arrays_;
    for (int s = 0; s < num_states(); ++s) {
      for (int e = a.out_row[s]; e < a.out_row[s + 1]; ++e)
        f(s, static_cast<int>(a.edge_transition[e]), a.edge_successor[e]);
    }
  }

  /// Is some transition labelled with this edge enabled at the state?
  bool edge_enabled(int state, const Edge& e) const;
  /// Successor of `state` under any transition labelled `e`; -1 if none.
  int successor(int state, const Edge& e) const;
  /// Successor under a specific transition id; -1 if not enabled.
  int successor_by_transition(int state, int transition) const;

  /// States from which `state` is reachable via silent (ε) transitions
  /// only, including itself — used to close excitation over dummies.
  /// Returned lazily as the precomputed silent-closure excitation bitmasks:
  /// excited_rise(s, sig) / excited_fall(s, sig).
  bool excited(int state, const Edge& e) const {
    const auto& m = e.pol == Polarity::kRise ? arrays_->excited_rise
                                             : arrays_->excited_fall;
    return (m[state] >> e.signal) & 1;
  }
  /// Whole excitation masks (bit per signal) — differential tests compare
  /// the parallel excitation sweep against the sequential one with these.
  std::uint64_t excited_rise_mask(int state) const {
    return arrays_->excited_rise[state];
  }
  std::uint64_t excited_fall_mask(int state) const {
    return arrays_->excited_fall[state];
  }

  /// Next-state function target: the value signal `sig` is heading to at
  /// `state` (1 if rising excited or stably 1; 0 if falling excited or
  /// stably 0).
  bool target_value(int state, int sig) const {
    if (excited(state, Edge{sig, Polarity::kRise})) return true;
    if (excited(state, Edge{sig, Polarity::kFall})) return false;
    return value(state, sig);
  }

  /// Restrict the graph to the edges for which `keep_edge(state,
  /// transition)` holds, dropping states that become unreachable from the
  /// initial state, and recompute excitation. This is the concurrency-
  /// reduction primitive of the relative-timing engine. The reduced graph
  /// is produced by a counting pass over the CSR arrays — no marking
  /// re-exploration, no hashing, and `keep_edge` runs at most once per
  /// edge. State ids change; `old_state_of(new_id)` maps back.
  StateGraph filtered(
      const std::function<bool(int state, int transition)>& keep_edge) const;
  int old_state_of(int state) const {
    return arrays_->old_state.empty() ? state : arrays_->old_state[state];
  }
  /// What filtered() returns when `keep_edge` holds on every edge, in
  /// O(1): the same ids, codes, edges and old_state_of map (build() and
  /// filtered() both number states in BFS discovery order, so keeping
  /// every edge renumbers nothing), no level sizes, and this graph's
  /// arrays shared rather than copied.
  StateGraph filtered_keep_all() const;

  /// BFS level sizes from construction: level_sizes()[d] states at distance
  /// d from the initial state. Empty for graphs produced by filtered().
  const std::vector<int>& level_sizes() const { return level_sizes_; }
  int num_levels() const { return static_cast<int>(level_sizes_.size()); }
  /// Widest BFS frontier.
  int peak_frontier() const {
    int peak = 0;
    for (int n : level_sizes_) peak = std::max(peak, n);
    return peak;
  }

  /// Memory gauges for big-graph diagnosability (reported in the
  /// reachability stage trace and perfbench's `sg.arena_mb` / `sg.csr_mb`).
  /// Both are exact properties of the graph, identical at any thread count.
  /// The arena gauge is states × row stride. A filtered graph reports the
  /// shared root arena's bytes — that is what actually stays resident. The
  /// CSR gauge counts the forward CSR (4 bytes a row, 6 an edge) and the
  /// excitation masks (16 bytes a state), plus the transpose (4 bytes a
  /// row, 6 an edge) once one has been derived.
  std::size_t arena_bytes() const { return arena_ ? arena_->bytes() : 0; }
  std::size_t csr_bytes() const {
    const Arrays& a = *arrays_;
    return (a.out_row.size() + a.edge_successor.size() + a.in_row.size() +
            a.in_source.size()) *
               sizeof(int) +
           (a.edge_transition.size() + a.in_transition.size()) *
               sizeof(std::uint16_t) +
           (a.excited_rise.size() + a.excited_fall.size()) *
               sizeof(std::uint64_t);
  }

  /// Recompute the derived structures in place; public so benches and
  /// differential tests can time and cross-check the passes in isolation.
  /// A graph whose arrays another graph shares copies them first, so the
  /// other graph is not written.
  ///
  /// Derive the transpose that in_edges() reads: a sequential counting
  /// sort. `threads` is ignored and kept only because perfbench's layer
  /// suite passes a width.
  void rebuild_reverse_csr(int threads = 1);
  /// The excitation sweep on `threads` workers (0 picks hardware
  /// concurrency); filtered() runs it, and build() runs the same sweep on
  /// its explore loop's label table. Unlike build(), which keeps graphs
  /// under 32k edges sequential, an explicit width here is honored on any
  /// graph, so differentials can drive the chunked sweep on small inputs.
  /// Each state writes only its own masks (the silent-ε closure stays
  /// sequential), so the result is byte-identical at any width. The closure
  /// walks predecessors, so on a spec with a silent transition this derives
  /// the transpose first if the graph has none.
  void recompute_excitation(int threads = 1);

 private:
  /// Everything sized by the state or edge count, in one block that copies
  /// of the graph share. The arrays build() and filtered() append to are
  /// GrowBufs, which extend in place; the rest are sized once.
  struct Arrays {
    GrowBuf<std::uint64_t> codes;  ///< per state: its signal code
    std::vector<int> old_state;  ///< for filtered graphs: new id -> original
    // Forward CSR: out-edges of state s are entries out_row[s]..out_row[s+1]
    // of the parallel transition/successor arrays.
    GrowBuf<int> out_row;
    GrowBuf<std::uint16_t> edge_transition;
    GrowBuf<int> edge_successor;
    // Reverse CSR (transpose): in-edges of state s, same parallel layout.
    // Empty until rebuild_reverse_csr() derives it.
    std::vector<int> in_row;
    std::vector<std::uint16_t> in_transition;
    std::vector<int> in_source;
    /// Per-state bitmask over signals: some s+/s- enabled here or reachable
    /// through silent transitions alone.
    std::vector<std::uint64_t> excited_rise, excited_fall;
  };

  /// The arrays, copied first if another graph shares them — the one way
  /// the mutators reach them.
  Arrays& own_arrays();
  bool has_transpose() const { return !arrays_->in_row.empty(); }
  /// recompute_excitation() on a label table: two words per transition,
  /// the bit of its signal in the first for a rising edge and in the
  /// second for a falling one, both 0 for a silent transition.
  void sweep_excitation(const std::uint64_t* labels, int threads);

  Stg stg_;
  std::shared_ptr<MarkingArena> arena_;
  std::shared_ptr<Arrays> arrays_ = std::make_shared<Arrays>();
  std::vector<int> level_sizes_;  ///< BFS frontier size per level (build only)

  /// Signal initial values inferred by exploration: bit s of `value` is
  /// signal s's initial value where bit s of `known` is set.
  struct InitialValues {
    std::uint64_t known = 0, value = 0;
  };

  // Exploration phase of build() on a fresh arena in the row format of
  // `Game`: fill the codes, the out CSR and level_sizes_, with each
  // state's switching parity standing in its code, and store the inferred
  // initial values in *v0. The loop's scratch goes in *scratch, which
  // starts with the label table sweep_excitation() reads. Returns false
  // when a firing leaves the row format (build() then starts over on byte
  // rows).
  template <typename Game>
  bool explore(const SgOptions& opts, std::vector<std::uint64_t>* scratch,
               InitialValues* v0);
};

/// Full structural equality through the public API: states (marking, code),
/// the forward CSR, old-state maps, excitation masks, levels. The transpose
/// is derived from the forward CSR, so it is not compared (graphs need not
/// hold one). Used by the incremental-reduce cross-check and the
/// determinism tests.
bool identical_graphs(const StateGraph& a, const StateGraph& b);

}  // namespace rtcad
