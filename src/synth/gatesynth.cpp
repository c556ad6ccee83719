#include "synth/gatesynth.hpp"

#include "logic/minimize.hpp"
#include "synth/mapper.hpp"

namespace rtcad {
namespace {

/// Recognize S = all-positive cube over X, R = all-negative cube over the
/// same X: that is a |X|-input C-element.
bool is_celement(const Cover& set_cover, const Cover& reset_cover,
                 std::vector<int>* inputs) {
  if (set_cover.cubes.size() != 1 || reset_cover.cubes.size() != 1)
    return false;
  const Cube& s = set_cover.cubes[0];
  const Cube& r = reset_cover.cubes[0];
  if (s.care != r.care) return false;
  if (s.value != s.care) return false;  // some set literal negative
  if (r.value != 0) return false;       // some reset literal positive
  const int n = s.num_literals();
  if (n < 2 || n > 3) return false;
  inputs->clear();
  for (int v = 0; v < 64; ++v) {
    if (s.literal(v) != 0) inputs->push_back(v);
  }
  return true;
}

}  // namespace

SynthResult synthesize_si(const StateGraph& sg, const SynthOptions& opts) {
  const Stg& stg = sg.stg();
  SynthResult result;
  result.netlist = Netlist(stg.name() + "_si");
  Netlist& nl = result.netlist;

  // One net per spec signal, named after it.
  std::vector<int> signal_net(stg.num_signals());
  for (int s = 0; s < stg.num_signals(); ++s) {
    const bool init = (sg.initial_code() >> s) & 1;
    if (stg.is_input(s)) {
      signal_net[s] = nl.add_primary_input(stg.signal(s).name, init);
    } else {
      signal_net[s] = nl.add_net(stg.signal(s).name, init);
      if (stg.signal(s).kind == SignalKind::kOutput)
        nl.mark_primary_output(signal_net[s]);
    }
  }
  CoverMapper mapper(&nl, signal_net);
  const auto names = stg.signal_names();
  const std::vector<CodeRow> rows = code_rows(sg);

  for (int s = 0; s < stg.num_signals(); ++s) {
    if (stg.is_input(s)) continue;
    const SignalFunctions fns = derive_functions(sg, rows, s);
    const std::string& name = stg.signal(s).name;

    if (opts.style == SynthStyle::kComplexGate) {
      const Cover cover = minimize(fns.next);
      result.equations[name] = name + " = " + cover.to_string(names);
      result.literals += cover.num_literals();
      mapper.map_cover_into(cover, signal_net[s], name);
      continue;
    }

    // If the next-state function does not need its own output (no
    // feedback literal), a plain combinational network implements it.
    const Cover next_cover = minimize(fns.next);
    const bool self_free = [&] {
      for (const auto& cube : next_cover.cubes)
        if (cube.literal(s) != 0) return false;
      return true;
    }();
    if (self_free) {
      result.equations[name] = name + " = " + next_cover.to_string(names);
      result.literals += next_cover.num_literals();
      mapper.map_cover_into(next_cover, signal_net[s], name);
      continue;
    }

    // Generalized C-element style.
    const Cover set_cover = minimize(fns.set_fn);
    const Cover reset_cover = minimize(fns.reset_fn);
    result.literals += set_cover.num_literals();
    result.literals += reset_cover.num_literals();
    result.equations[name] = name + " = [set: " +
                             set_cover.to_string(names) + "] [reset: " +
                             reset_cover.to_string(names) + "]";

    std::vector<int> cel_inputs;
    if (is_celement(set_cover, reset_cover, &cel_inputs)) {
      std::vector<int> pins;
      for (int v : cel_inputs) pins.push_back(signal_net[v]);
      const int cell = Library::standard().find(
          CellKind::kCelement, static_cast<int>(pins.size()));
      nl.add_gate(cell, pins, signal_net[s]);
      continue;
    }
    if (!fns.needs_state_holding) {
      // Purely combinational: the set cover doubles as the function (its
      // complement is the reset region by construction when no state
      // holding exists).
      result.equations[name] = name + " = " + next_cover.to_string(names);
      mapper.map_cover_into(next_cover, signal_net[s], name);
      continue;
    }
    const int set_net = mapper.map_cover(set_cover, name + "_set");
    const int reset_net = mapper.map_cover(reset_cover, name + "_rst");
    nl.add_gate("SRL", {set_net, reset_net}, signal_net[s]);
  }

  nl.validate();
  return result;
}

}  // namespace rtcad
