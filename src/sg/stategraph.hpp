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
// states: `out_row_[s] .. out_row_[s+1]` indexes the flat
// `edge_transition_[]` / `edge_successor_[]` pair for the out-edges of
// state s, and a derived transpose (`in_row_` / `in_transition_` /
// `in_source_`) gives predecessors. Every downstream pass — excitation
// closure, RT concurrency reduction, conformance, synthesis — is an edge
// traversal, so the flat layout removes the per-state vector allocation
// and pointer chase the seed representation paid on each of them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sg/arena.hpp"
#include "stg/stg.hpp"
#include "util/cancel.hpp"

namespace rtcad {

struct SgOptions {
  /// Reachability cap: build() raises SpecError when the graph would exceed
  /// this many states. Batch drivers (flow/batchflow) rely on the error to
  /// report runaway specs per item instead of aborting a whole corpus, so
  /// the check must stay cheap and exact.
  std::size_t max_states = std::size_t{1} << 20;
  /// Worker threads for build()'s excitation sweep, used only on graphs of
  /// at least 32k edges; 1 keeps it sequential, 0 picks hardware
  /// concurrency. Exploration and the transpose always run on the calling
  /// thread, and any value yields a byte-identical graph. Batch drivers
  /// split cores between corpus-level parallelism (their own pool) and this
  /// graph-level setting.
  int threads = 1;
  /// Optional cooperative cancellation, checked once per BFS round. Not
  /// owned; must outlive the build.
  const CancelToken* cancel = nullptr;
};

/// Per-state record: the marking itself lives in the shared MarkingArena
/// (one contiguous fixed-stride buffer), so a state is just its arena slot
/// plus the signal code — 16 bytes instead of a vector header and a heap
/// allocation per state. For build graphs slot == state id; graphs produced
/// by filtered() carry their root-graph slots and share the root arena.
struct SgState {
  std::uint64_t code = 0;  ///< bit s = value of signal s
  std::uint32_t slot = 0;  ///< row in the owning graph's MarkingArena
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
      iterator(const int* t, const int* s) : t_(t), s_(s) {}
      SgEdge operator*() const { return SgEdge{*t_, *s_}; }
      iterator& operator++() {
        ++t_;
        ++s_;
        return *this;
      }
      bool operator!=(const iterator& o) const { return t_ != o.t_; }
      bool operator==(const iterator& o) const { return t_ == o.t_; }

     private:
      const int* t_;
      const int* s_;
    };
    EdgeRange(const int* t, const int* s, int n) : t_(t), s_(s), n_(n) {}
    iterator begin() const { return iterator(t_, s_); }
    iterator end() const { return iterator(t_ + n_, s_ + n_); }
    int size() const { return n_; }
    bool empty() const { return n_ == 0; }
    SgEdge operator[](int i) const { return SgEdge{t_[i], s_[i]}; }

   private:
    const int* t_;
    const int* s_;
    int n_;
  };

  /// Explore the full reachability graph. Throws SpecError on
  /// inconsistency, unboundedness, or state overflow. The StateGraph keeps
  /// its own copy of the specification (callers may pass temporaries).
  /// The exploration loop is the flow's hot path: visited markings live in
  /// an open-addressed table, firing reuses scratch buffers, and the BFS
  /// emits edges in CSR order directly, so cost is ~O(edges) with no
  /// per-edge heap allocation (see stategraph.cpp). Exploration and the
  /// counting-sort transpose run on the calling thread; only the excitation
  /// sweep fans out, on `opts.threads` workers once the graph has 32k
  /// edges. Each state writes only its own masks there, so the graph and
  /// any error are byte-identical at every thread count.
  static StateGraph build(const Stg& stg, const SgOptions& opts = {});

  const Stg& stg() const { return stg_; }
  int num_states() const { return static_cast<int>(states_.size()); }
  int initial_state() const { return 0; }

  /// Marking of state `i` as a raw arena row of marking_stride() bytes
  /// (token count per place). Valid as long as the graph (or any graph
  /// sharing its arena) is alive.
  const std::uint8_t* marking_data(int i) const {
    return arena_->row(states_[i].slot);
  }
  int marking_stride() const { return arena_->stride(); }
  /// Owned copy for cold paths (tests, diagnostics).
  Marking marking_copy(int i) const { return arena_->copy(states_[i].slot); }
  std::uint64_t code(int i) const { return states_[i].code; }
  bool value(int state, int signal) const {
    return (states_[state].code >> signal) & 1;
  }
  /// Initial value of every signal, as inferred (bit per signal).
  std::uint64_t initial_code() const { return states_[0].code; }

  int num_edges() const { return static_cast<int>(edge_transition_.size()); }

  /// Out-edges of `state` as (transition, successor) pairs:
  ///   for (const auto& [t, to] : sg.out_edges(s)) ...
  EdgeRange out_edges(int state) const {
    const int b = out_row_[state];
    return EdgeRange(edge_transition_.data() + b, edge_successor_.data() + b,
                     out_row_[state + 1] - b);
  }
  int out_degree(int state) const {
    return out_row_[state + 1] - out_row_[state];
  }

  /// In-edges of `state` as (transition, predecessor) pairs — the exact
  /// transpose of the forward CSR, derived once at construction.
  EdgeRange in_edges(int state) const {
    const int b = in_row_[state];
    return EdgeRange(in_transition_.data() + b, in_source_.data() + b,
                     in_row_[state + 1] - b);
  }
  int in_degree(int state) const { return in_row_[state + 1] - in_row_[state]; }

  /// Visit every edge as f(from, transition, to), in CSR order.
  template <typename F>
  void for_each_edge(F&& f) const {
    for (int s = 0; s < num_states(); ++s) {
      for (int e = out_row_[s]; e < out_row_[s + 1]; ++e)
        f(s, edge_transition_[e], edge_successor_[e]);
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
    const auto& m =
        e.pol == Polarity::kRise ? excited_rise_ : excited_fall_;
    return (m[state] >> e.signal) & 1;
  }
  /// Whole excitation masks (bit per signal) — differential tests compare
  /// the parallel excitation sweep against the sequential one with these.
  std::uint64_t excited_rise_mask(int state) const {
    return excited_rise_[state];
  }
  std::uint64_t excited_fall_mask(int state) const {
    return excited_fall_[state];
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
    return old_state_.empty() ? state : old_state_[state];
  }

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
  /// A filtered graph reports the shared root arena's bytes — that is what
  /// actually stays resident.
  std::size_t arena_bytes() const { return arena_ ? arena_->bytes() : 0; }
  std::size_t csr_bytes() const {
    return (out_row_.size() + edge_transition_.size() +
            edge_successor_.size() + in_row_.size() + in_transition_.size() +
            in_source_.size()) *
               sizeof(int) +
           (excited_rise_.size() + excited_fall_.size()) *
               sizeof(std::uint64_t);
  }

  /// Recompute the derived structures in place — build() and filtered()
  /// run both; public so benches and differential tests can time and
  /// cross-check the passes in isolation.
  ///
  /// The transpose is a sequential counting sort; `threads` is ignored and
  /// kept only because perfbench's layer suite passes a width.
  void rebuild_reverse_csr(int threads = 1);
  /// The excitation sweep on `threads` workers (0 picks hardware
  /// concurrency). Unlike build(), which keeps graphs under 32k edges
  /// sequential, an explicit width here is honored on any graph, so
  /// differentials can drive the chunked sweep on small inputs. Each state
  /// writes only its own masks (the silent-ε closure stays sequential), so
  /// the result is byte-identical at any width.
  void recompute_excitation(int threads = 1);

 private:
  Stg stg_;
  std::shared_ptr<MarkingArena> arena_;
  std::vector<SgState> states_;
  std::vector<int> old_state_;  ///< for filtered graphs: new id -> original
  // Forward CSR: out-edges of state s are entries out_row_[s]..out_row_[s+1]
  // of the parallel transition/successor arrays.
  std::vector<int> out_row_;
  std::vector<int> edge_transition_;
  std::vector<int> edge_successor_;
  // Reverse CSR (transpose): in-edges of state s, same parallel layout.
  std::vector<int> in_row_;
  std::vector<int> in_transition_;
  std::vector<int> in_source_;
  /// Per-state bitmask over signals: some s+/s- enabled here or reachable
  /// through silent transitions alone.
  std::vector<std::uint64_t> excited_rise_, excited_fall_;
  std::vector<int> level_sizes_;  ///< BFS frontier size per level (build only)

  // Exploration phase of build(): fill states_/out CSR/level_sizes_ and the
  // per-state switching parities; v0 accumulates initial-value constraints.
  void explore(const SgOptions& opts, std::vector<std::uint64_t>* parity,
               std::vector<signed char>* v0);
};

/// Full structural equality through the public API: states (marking, code),
/// both CSR directions, old-state maps, excitation masks, levels. Used by
/// the incremental-reduce cross-check and the determinism tests.
bool identical_graphs(const StateGraph& a, const StateGraph& b);

}  // namespace rtcad
