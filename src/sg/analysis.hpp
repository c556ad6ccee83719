// Implementability analysis over the state graph: output persistency
// (speed-independence) and Complete State Coding, the two properties the
// paper's Figure 2 flow establishes before logic synthesis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sg/stategraph.hpp"

namespace rtcad {

/// An enabled non-input transition was disabled by another firing — a
/// potential hazard; the specification is not speed-independent.
struct PersistencyViolation {
  int state = -1;
  int disabled_transition = -1;  ///< transition whose edge got disabled
  int by_transition = -1;        ///< transition that fired
};

/// Two reachable states share a binary code but disagree on the next-state
/// behaviour of at least one non-input signal.
struct CscConflict {
  int state_a = -1;
  int state_b = -1;
  std::uint64_t differing_signals = 0;  ///< bitmask of conflicting signals
};

/// Each list holds min(total, max_reported) entries, so its size is the
/// violation count up to the cap.
struct SgAnalysis {
  /// In state order, then out-edge order.
  std::vector<PersistencyViolation> persistency;
  /// One entry per pair of distinct target signatures (bit s = next-state
  /// value of non-input signal s) inside a code class. Ordered by code,
  /// then by signature; each pair names the lowest state of each
  /// signature, the smaller signature's state first.
  std::vector<CscConflict> csc_conflicts;
  /// Number of code classes holding more than one state (USC violations);
  /// benign unless they also appear in csc_conflicts.
  int usc_classes = 0;

  bool speed_independent() const { return persistency.empty(); }
  bool has_csc() const { return csc_conflicts.empty(); }
};

/// Both checks run on word masks, O(states + edges) overall.
///
/// Persistency: each state's non-input out-edge labels, as a rise and a
/// fall mask, are tested against every successor's excitation masks, minus
/// the signal that fired. A state fails that screen exactly when it holds
/// a violation, and only such a state runs the pairwise edge loop that
/// reports.
///
/// CSC: when the codes vary in at most bit_width(states) + 3 bits, a bitmap
/// over them (at most 2 bytes a state) first checks whether any code
/// repeats; with none there is no class to sort. Otherwise a stable LSD
/// radix sort of the state ids keyed on the code groups the code classes,
/// with digits of at most bit_width(states) bits (one pass when the codes
/// vary in no more bits than that, several for wide codes). Only classes of
/// two or more states are then sorted by (target signature, state).
SgAnalysis analyze(const StateGraph& sg, std::size_t max_reported = 1000);

/// Render one conflict for logs/tests.
std::string describe(const StateGraph& sg, const CscConflict& c);
std::string describe(const StateGraph& sg, const PersistencyViolation& v);

}  // namespace rtcad
