#include "synth/nextstate.hpp"

#include <algorithm>

namespace rtcad {

std::vector<CodeRow> code_rows(const StateGraph& sg) {
  std::vector<CodeRow> rows(static_cast<std::size_t>(sg.num_states()));
  for (int s = 0; s < sg.num_states(); ++s)
    rows[s] = CodeRow{sg.code(s), sg.excited_rise_mask(s),
                      sg.excited_fall_mask(s), s};
  std::sort(rows.begin(), rows.end(), [](const CodeRow& a, const CodeRow& b) {
    return a.code != b.code ? a.code < b.code : a.state < b.state;
  });
  return rows;
}

SignalFunctions derive_functions(const StateGraph& sg,
                                 const std::vector<CodeRow>& rows,
                                 int signal) {
  const Stg& stg = sg.stg();
  const int n = stg.num_signals();
  SignalFunctions out{OnOffSet{n, {}, {}}, OnOffSet{n, {}, {}},
                      OnOffSet{n, {}, {}}, false};
  const std::uint64_t bit = std::uint64_t{1} << signal;

  // Each code's pins, written in state order with the last write winning.
  enum : signed char { kFree = -1, kOff = 0, kOn = 1 };
  const auto list = [](OnOffSet* f, std::uint64_t code, signed char pin) {
    if (pin == kOn) f->on.push_back(code);
    if (pin == kOff) f->off.push_back(code);
  };
  int conflict = -1;  // first state disagreeing with an earlier one
  bool hold_high = false, hold_low = false;

  for (std::size_t begin = 0, end; begin < rows.size(); begin = end) {
    end = code_run_end(rows, begin);
    const std::uint64_t code = rows[begin].code;
    const bool value = code & bit;
    signed char next = kFree, set = kFree, reset = kFree;
    for (std::size_t i = begin; i < end; ++i) {
      const bool rise = rows[i].rise & bit;
      const bool fall = rows[i].fall & bit;
      const signed char target = rise || (value && !fall) ? kOn : kOff;
      if (next != kFree && next != target) {
        if (conflict < 0 || rows[i].state < conflict) conflict = rows[i].state;
        break;
      }
      next = target;
      // Set function: 1 across the rising excitation region, 0 wherever
      // the signal is (and must stay) 0, free while it sits at 1.
      if (rise)
        set = kOn;
      else if (!value || fall)
        set = kOff;
      // Reset function symmetric.
      if (fall)
        reset = kOn;
      else if (value || rise)
        reset = kOff;
      if (value && !rise && !fall) hold_high = true;
      if (!value && !rise && !fall) hold_low = true;
    }
    list(&out.next, code, next);
    list(&out.set_fn, code, set);
    list(&out.reset_fn, code, reset);
  }
  if (conflict >= 0)
    throw SpecError("state graph lacks CSC for signal '" +
                    stg.signal(signal).name + "' (code " +
                    std::to_string(sg.code(conflict)) + ")");
  out.needs_state_holding = hold_high && hold_low;
  return out;
}

}  // namespace rtcad
