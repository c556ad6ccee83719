// Next-state and set/reset function derivation from a (possibly
// concurrency-reduced) state graph. Unreachable codes are don't-cares —
// which is why relative timing helps: every pruned state is a freebie for
// the minimizer (optimization mechanism #1 of Section 3). Only reachable
// codes are ever ON or OFF, and the minimizer generates primes from the
// OFF set, so the don't-care space costs it nothing to enumerate either.
#pragma once

#include <vector>

#include "logic/minimize.hpp"
#include "sg/stategraph.hpp"

namespace rtcad {

/// One state as synthesis reads it: its code, its excitation masks
/// (bit per signal) and its id.
struct CodeRow {
  std::uint64_t code;
  std::uint64_t rise;
  std::uint64_t fall;
  int state;
};

/// Every state of `sg` as a row, sorted by (code, state). A run of equal
/// codes is one point of every signal's functions, so synthesis sorts
/// once per graph and derives each signal from the runs.
std::vector<CodeRow> code_rows(const StateGraph& sg);

/// End of the run of equal codes that starts at `rows[begin]`.
inline std::size_t code_run_end(const std::vector<CodeRow>& rows,
                                std::size_t begin) {
  std::size_t end = begin + 1;
  while (end < rows.size() && rows[end].code == rows[begin].code) ++end;
  return end;
}

struct SignalFunctions {
  /// f_s over all spec signals (self literal allowed = gate feedback):
  /// ON where the signal is heading to 1, OFF where heading to 0.
  OnOffSet next;
  /// Set function: ON in the rising excitation region, OFF wherever the
  /// signal must (remain) 0; DC while the signal sits stably at 1.
  OnOffSet set_fn;
  /// Reset function, symmetric.
  OnOffSet reset_fn;
  /// True if some reachable state holds the value with neither edge
  /// excited on both polarities — a latch/C-element is required.
  bool needs_state_holding = false;
};

/// `rows` must be `code_rows(sg)`. Throws SpecError if two reachable
/// states share a code but disagree — i.e. the state graph does not have
/// CSC for this signal; the message names the code of the first state, in
/// state order, that disagrees with an earlier one.
SignalFunctions derive_functions(const StateGraph& sg,
                                 const std::vector<CodeRow>& rows,
                                 int signal);

}  // namespace rtcad
