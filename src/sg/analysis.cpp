#include "sg/analysis.hpp"

#include <algorithm>

namespace rtcad {

SgAnalysis analyze(const StateGraph& sg, std::size_t max_reported) {
  const Stg& stg = sg.stg();
  SgAnalysis out;

  // --- output persistency --------------------------------------------
  for (int s = 0; s < sg.num_states(); ++s) {
    for (const auto& [t, to] : sg.out_edges(s)) {
      const auto& label = stg.transition(t).label;
      if (!label) continue;
      if (stg.is_input(label->signal)) continue;  // inputs may be disabled
      for (const auto& [t2, to2] : sg.out_edges(s)) {
        if (t2 == t) continue;
        const auto& label2 = stg.transition(t2).label;
        if (label2 && label2->signal == label->signal) continue;
        // After t2 fires, the edge of t must still be excited.
        if (!sg.excited(to2, *label)) {
          if (out.persistency.size() < max_reported)
            out.persistency.push_back({s, t, t2});
        }
      }
    }
  }

  // --- complete state coding -------------------------------------------
  // Within a code class, all states must agree on the next-state target of
  // every non-input signal. One sort of (code, target signature, state)
  // keys lays the classes out in code order and, inside each, the distinct
  // signatures in ascending order, each led by its lowest state.
  std::uint64_t noninput_mask = 0;
  for (int sig = 0; sig < stg.num_signals(); ++sig) {
    if (!stg.is_input(sig)) noninput_mask |= std::uint64_t{1} << sig;
  }

  struct Key {
    std::uint64_t code;
    std::uint64_t signature;
    int state;
  };
  std::vector<Key> keys(static_cast<std::size_t>(sg.num_states()));
  for (int s = 0; s < sg.num_states(); ++s) {
    // target_value() of every signal at once: a rising edge heads to 1, a
    // falling one to 0, a stable signal stays at its value.
    const std::uint64_t code = sg.code(s);
    const std::uint64_t target =
        sg.excited_rise_mask(s) | (code & ~sg.excited_fall_mask(s));
    keys[s] = Key{code, target & noninput_mask, s};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.code != b.code) return a.code < b.code;
    if (a.signature != b.signature) return a.signature < b.signature;
    return a.state < b.state;
  });

  std::vector<const Key*> firsts;  // one per distinct signature in a class
  for (std::size_t begin = 0, end; begin < keys.size(); begin = end) {
    end = begin + 1;
    while (end < keys.size() && keys[end].code == keys[begin].code) ++end;
    if (end - begin < 2) continue;
    ++out.usc_classes;
    if (out.csc_conflicts.size() >= max_reported) continue;
    firsts.clear();
    for (std::size_t i = begin; i < end; ++i) {
      if (i == begin || keys[i].signature != keys[i - 1].signature)
        firsts.push_back(&keys[i]);
    }
    // Report a conflict between each pair of distinct signatures.
    for (std::size_t a = 0; a < firsts.size(); ++a) {
      for (std::size_t b = a + 1; b < firsts.size(); ++b) {
        if (out.csc_conflicts.size() >= max_reported) break;
        out.csc_conflicts.push_back(
            {firsts[a]->state, firsts[b]->state,
             firsts[a]->signature ^ firsts[b]->signature});
      }
    }
  }
  return out;
}

std::string describe(const StateGraph& sg, const CscConflict& c) {
  const Stg& stg = sg.stg();
  std::string out = "CSC conflict between states " +
                    std::to_string(c.state_a) + " and " +
                    std::to_string(c.state_b) + " (code ";
  for (int sig = stg.num_signals() - 1; sig >= 0; --sig)
    out += sg.value(c.state_a, sig) ? '1' : '0';
  out += ") on signals {";
  bool first = true;
  for (int sig = 0; sig < stg.num_signals(); ++sig) {
    if (!(c.differing_signals >> sig & 1)) continue;
    if (!first) out += ", ";
    out += stg.signal(sig).name;
    first = false;
  }
  out += "}";
  return out;
}

std::string describe(const StateGraph& sg, const PersistencyViolation& v) {
  const Stg& stg = sg.stg();
  return "state " + std::to_string(v.state) + ": firing " +
         stg.transition_name(v.by_transition) + " disables " +
         stg.transition_name(v.disabled_transition);
}

}  // namespace rtcad
