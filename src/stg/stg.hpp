// Signal Transition Graph: a Petri net whose transitions are labelled with
// signal edges (or silent ε). This is the specification entry point of the
// whole flow (Figure 2 of the paper, box "Specification STG").
//
// The net is 1-safe in intended use but the token game supports general
// bounded markings; boundedness is enforced during reachability analysis.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "stg/signal.hpp"
#include "util/check.hpp"

namespace rtcad {

/// Token counts per place, indexed by place id.
using Marking = std::vector<std::uint8_t>;

// Word-at-a-time: one multiply per 8 bytes (the tail word zero-padded, read
// with exactly n - i bytes), then one avalanche. Each step is a bijection of
// the running state for a fixed word and of the word for a fixed state, so
// markings that differ in any one byte always hash apart. Inline, because
// the state-graph explore loop hashes every successor row with it.
inline std::size_t marking_hash(const std::uint8_t* m, std::size_t n) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = 0x243f6a8885a308d3ull ^ n;
  const auto mix = [&](std::uint64_t word) {
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, m + i, 8);
    mix(word);
  }
  if (i < n) {
    std::uint64_t word = 0;
    std::memcpy(&word, m + i, n - i);
    mix(word);
  }
  // MurmurHash3's fmix64 finalizer: the visited table indexes by low bits.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

inline std::size_t marking_hash(const Marking& m) {
  return marking_hash(m.data(), m.size());
}

struct StgPlace {
  std::string name;
  std::vector<int> pre;   ///< transition ids feeding this place
  std::vector<int> post;  ///< transition ids consuming from this place
  std::uint8_t initial_tokens = 0;
};

struct StgTransition {
  /// Signal edge; nullopt for silent (ε / dummy) transitions.
  std::optional<Edge> label;
  /// Instance number to distinguish multiple transitions of the same edge
  /// (e.g. `a+/1`, `a+/2` — used for OR-causality and re-shuffled specs).
  int instance = 1;
  std::vector<int> pre;   ///< place ids
  std::vector<int> post;  ///< place ids

  bool is_silent() const { return !label.has_value(); }
};

class Stg {
 public:
  explicit Stg(std::string name = "stg") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // --- signals -----------------------------------------------------------
  /// State codes and excitation masks are one 64-bit word, one bit per
  /// signal; validate() rejects a specification with more signals.
  static constexpr int kMaxSignals = 64;
  int add_signal(const std::string& name, SignalKind kind);
  int signal_id(const std::string& name) const;  ///< -1 if unknown
  const Signal& signal(int id) const { return signals_[id]; }
  Signal& signal(int id) { return signals_[id]; }
  int num_signals() const { return static_cast<int>(signals_.size()); }
  std::vector<std::string> signal_names() const;
  bool is_input(int sig) const {
    return signals_[sig].kind == SignalKind::kInput;
  }

  // --- structure ---------------------------------------------------------
  int add_place(const std::string& name, std::uint8_t tokens = 0);
  int add_transition(std::optional<Edge> label, int instance = 0);
  void add_arc_pt(int place, int transition);
  void add_arc_tp(int transition, int place);
  /// Arc between two transitions through a fresh implicit place; returns the
  /// place id so callers can mark it.
  int add_arc_tt(int from_transition, int to_transition,
                 std::uint8_t tokens = 0);

  /// Remove an existing arc (used by event-insertion transforms such as the
  /// CSC solver). Precondition: the arc exists.
  void remove_arc_tp(int transition, int place);
  void remove_arc_pt(int place, int transition);

  void set_initial_tokens(int place, std::uint8_t tokens) {
    RTCAD_EXPECTS(place >= 0 && place < num_places());
    places_[place].initial_tokens = tokens;
  }

  int num_places() const { return static_cast<int>(places_.size()); }
  int num_transitions() const { return static_cast<int>(transitions_.size()); }
  const StgPlace& place(int id) const { return places_[id]; }
  const StgTransition& transition(int id) const { return transitions_[id]; }

  /// Find a transition by edge + instance; -1 if absent. Instance 0 matches
  /// the unique transition of that edge (errors if ambiguous).
  int find_transition(const Edge& e, int instance = 0) const;
  int find_transition(const std::string& edge_text) const;

  /// Human-readable transition name, e.g. "a+", "b-/2", "eps/1".
  std::string transition_name(int t) const;
  std::string edge_text(const Edge& e) const;

  // --- token game --------------------------------------------------------
  // Reference semantics for simulation and tests; StateGraph::build()
  // compiles its own copy of this game for its marking rows.
  Marking initial_marking() const;
  bool enabled(const Marking& m, int t) const;
  std::vector<int> enabled_transitions(const Marking& m) const;
  /// Fire transition `t` (must be enabled); returns successor marking.
  Marking fire(const Marking& m, int t) const;

  // --- validation --------------------------------------------------------
  /// Structural sanity: at most kMaxSignals signals, every transition
  /// connected and listing each place at most once per side (arcs carry no
  /// weight), every signal used edge-consistently (has both + and -
  /// transitions unless it never switches), no isolated places. Throws
  /// SpecError on violation.
  void validate() const;

  /// Count transitions per signal & polarity (used by consistency checks).
  int count_edges(int signal, Polarity pol) const;

 private:
  std::string name_;
  std::vector<Signal> signals_;
  std::unordered_map<std::string, int> signal_index_;
  std::vector<StgPlace> places_;
  std::vector<StgTransition> transitions_;
  int next_silent_instance_ = 1;
};

}  // namespace rtcad
