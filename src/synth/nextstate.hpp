// Next-state and set/reset function derivation from a (possibly
// concurrency-reduced) state graph. Unreachable codes are don't-cares —
// which is why relative timing helps: every pruned state is a freebie for
// the minimizer (optimization mechanism #1 of Section 3). Only reachable
// codes are ever ON or OFF, and the minimizer generates primes from the
// OFF set, so the don't-care space costs it nothing to enumerate either.
#pragma once

#include "logic/truthtable.hpp"
#include "sg/stategraph.hpp"

namespace rtcad {

struct SignalFunctions {
  /// f_s over all spec signals (self literal allowed = gate feedback):
  /// ON where the signal is heading to 1, OFF where heading to 0.
  TruthTable next;
  /// Set function: ON in the rising excitation region, OFF wherever the
  /// signal must (remain) 0; DC while the signal sits stably at 1.
  TruthTable set_fn;
  /// Reset function, symmetric.
  TruthTable reset_fn;
  /// True if some reachable state holds the value with neither edge
  /// excited on both polarities — a latch/C-element is required.
  bool needs_state_holding = false;
};

/// Throws SpecError if two reachable states share a code but disagree —
/// i.e. the state graph does not have CSC for this signal.
SignalFunctions derive_functions(const StateGraph& sg, int signal);

}  // namespace rtcad
