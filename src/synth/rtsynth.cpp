#include "synth/rtsynth.hpp"

#include <algorithm>

#include "logic/minimize.hpp"
#include "synth/mapper.hpp"
#include "synth/nextstate.hpp"

namespace rtcad {
namespace {

/// Lazy (early-enable) analysis for one signal polarity: codes whose
/// states sit one non-s event before the excitation region, plus the
/// orderings required if the optimizer uses them.
struct LazyRegion {
  /// Ascending codes, each with its skipped trigger edges (each yields
  /// "trigger before s-edge").
  std::vector<std::pair<std::uint64_t, std::vector<Edge>>> codes;
};

LazyRegion lazy_region(const StateGraph& sg, const std::vector<CodeRow>& rows,
                       int signal, Polarity pol) {
  const Stg& stg = sg.stg();
  LazyRegion out;
  const Edge mine{signal, pol};
  const std::uint64_t bit = std::uint64_t{1} << signal;
  std::vector<Edge> edges;
  for (std::size_t begin = 0, end; begin < rows.size(); begin = end) {
    end = code_run_end(rows, begin);
    // A code is lazy-eligible only if EVERY state carrying it is
    // (otherwise the code is still needed with its original value).
    const bool value = rows[begin].code & bit;
    bool eligible = pol == Polarity::kRise ? !value : value;
    edges.clear();
    for (std::size_t i = begin; i < end && eligible; ++i) {
      // The state itself is not excited, and some non-s edge leads into
      // the excitation region.
      const std::uint64_t excited =
          pol == Polarity::kRise ? rows[i].rise : rows[i].fall;
      bool found = false;
      if (!(excited & bit)) {
        for (const auto& [t, to] : sg.out_edges(rows[i].state)) {
          const auto& label = stg.transition(t).label;
          if (!label || label->signal == signal) continue;
          if (sg.excited(to, mine)) {
            found = true;
            edges.push_back(*label);
          }
        }
      }
      eligible = found;
    }
    if (!eligible) continue;
    // Deduplicate trigger edges.
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.signal != b.signal ? a.signal < b.signal
                                  : static_cast<int>(a.pol) <
                                        static_cast<int>(b.pol);
    });
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    out.codes.emplace_back(rows[begin].code, edges);
  }
  return out;
}

/// The lazy codes leave f's OFF list: early enabling makes them free.
void free_lazy_codes(OnOffSet* f, const LazyRegion& lazy) {
  std::vector<std::uint64_t> off;
  auto l = lazy.codes.begin();
  for (const std::uint64_t code : f->off) {
    while (l != lazy.codes.end() && l->first < code) ++l;
    if (l == lazy.codes.end() || l->first != code) off.push_back(code);
  }
  f->off = std::move(off);
}

void add_constraint(std::vector<RtConstraint>* constraints, const Edge& before,
                    const Edge& after, RtOrigin origin,
                    const std::string& why) {
  for (const auto& c : *constraints) {
    if (c.before == before && c.after == after) return;
  }
  constraints->push_back(RtConstraint{before, after, origin, false, why});
}

}  // namespace

RtSynthResult synthesize_rt(const StateGraph& sg, const RtSynthOptions& opts,
                            ReduceResult* precomputed_reduction) {
  const Stg& stg = sg.stg();
  RtSynthResult result;
  result.states_before = sg.num_states();

  // 1. Assumptions: user first (they may unlock more automatic ones), then
  //    the delay-model generation on the original graph — unless the
  //    caller already ran that pipeline and hands the merged set over.
  if (opts.assumptions_override) {
    result.assumptions = *opts.assumptions_override;
  } else {
    result.assumptions = opts.user_assumptions;
    for (auto& a : generate_assumptions(sg, opts.generate))
      result.assumptions.push_back(a);
  }

  // A precomputed reduction is only meaningful together with the explicit
  // assumption set it was reduced under; the pair travels together from
  // the flow driver.
  RTCAD_EXPECTS(!precomputed_reduction || opts.assumptions_override);
  ReduceResult red = precomputed_reduction
                         ? std::move(*precomputed_reduction)
                         : reduce(sg, result.assumptions);
  if (red.deadlocked_states > 0)
    throw SpecError("RT assumptions deadlock the specification");
  result.states_after = red.sg.num_states();

  // Back-annotate the assumptions that actually pruned behaviour.
  for (const auto& a : red.used) {
    add_constraint(&result.constraints, a.before, a.after, a.origin,
                   a.rationale);
  }

  // 2-3. Synthesize each non-input signal on the reduced graph.
  result.netlist = Netlist(stg.name() + "_rt");
  Netlist& nl = result.netlist;
  std::vector<int> signal_net(stg.num_signals());
  for (int s = 0; s < stg.num_signals(); ++s) {
    const bool init = (red.sg.initial_code() >> s) & 1;
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
  const std::vector<CodeRow> rows = code_rows(red.sg);

  for (int s = 0; s < stg.num_signals(); ++s) {
    if (stg.is_input(s)) continue;
    SignalFunctions fns = derive_functions(red.sg, rows, s);
    const std::string& name = stg.signal(s).name;

    LazyRegion rise_lazy, fall_lazy;
    if (opts.lazy) {
      rise_lazy = lazy_region(red.sg, rows, s, Polarity::kRise);
      fall_lazy = lazy_region(red.sg, rows, s, Polarity::kFall);
      free_lazy_codes(&fns.set_fn, rise_lazy);
      free_lazy_codes(&fns.reset_fn, fall_lazy);
    }

    const Cover set_cover = minimize(fns.set_fn);
    const Cover reset_cover = minimize(fns.reset_fn);
    result.literals += set_cover.num_literals();
    result.literals += reset_cover.num_literals();
    result.equations[name] = name + " = [set: " +
                             set_cover.to_string(names) + "] [reset: " +
                             reset_cover.to_string(names) + "]";

    // 4. Lazy constraints: activated if the chosen cover really reaches
    //    into the early region.
    const Edge rise{s, Polarity::kRise}, fall{s, Polarity::kFall};
    for (const auto& [code, triggers] : rise_lazy.codes) {
      if (!set_cover.eval(code)) continue;
      for (const Edge& t : triggers)
        add_constraint(&result.constraints, t, rise, RtOrigin::kLazy,
                       "early-enabled " + stg.edge_text(rise));
    }
    for (const auto& [code, triggers] : fall_lazy.codes) {
      if (!reset_cover.eval(code)) continue;
      for (const Edge& t : triggers)
        add_constraint(&result.constraints, t, fall, RtOrigin::kLazy,
                       "early-enabled " + stg.edge_text(fall));
    }

    // Mapping, preferring domino gates.
    const bool single_set = set_cover.cubes.size() == 1;
    const bool single_reset = reset_cover.cubes.size() == 1;
    if (single_set && single_reset && !set_cover.cubes[0].is_tautology()) {
      const Cube& reset_cube = reset_cover.cubes[0];
      if (opts.allow_unfooted && reset_cube.num_literals() == 1) {
        // Unfooted domino: precharge pin taken straight from the reset
        // literal (Figure 6's aggressive style).
        int v = 0;
        while (reset_cube.literal(v) == 0) ++v;
        const int pre = mapper.literal_net(v, reset_cube.literal(v) > 0);
        mapper.map_cube_domino_into(set_cover.cubes[0], pre, signal_net[s],
                                    /*unfooted=*/true, name);
      } else {
        // Footed domino: foot = NOT(reset). Single-literal resets reuse
        // the shared literal nets; wider resets get a NAND... mapped as
        // the complement cover through De Morgan (reset cube negated).
        int foot = -1;
        if (reset_cube.num_literals() == 1) {
          int v = 0;
          while (reset_cube.literal(v) == 0) ++v;
          foot = mapper.literal_net(v, reset_cube.literal(v) < 0);
        } else {
          const int r = mapper.map_cube(reset_cube, name + "_rst");
          foot = nl.add_net(name + "_foot", !nl.net(r).initial_value);
          nl.add_gate("INV", {r}, foot);
        }
        mapper.map_cube_domino_into(set_cover.cubes[0], foot, signal_net[s],
                                    /*unfooted=*/false, name);
      }
      continue;
    }
    if (!fns.needs_state_holding) {
      const Cover cover = minimize(fns.next);
      result.equations[name] = name + " = " + cover.to_string(names);
      mapper.map_cover_into(cover, signal_net[s], name);
      continue;
    }
    const int set_net = mapper.map_cover(set_cover, name + "_set");
    const int reset_net = mapper.map_cover(reset_cover, name + "_rst");
    nl.add_gate("SRL", {set_net, reset_net}, signal_net[s]);
  }

  // Specification arcs from INTERNAL edges to INPUT edges are not
  // realizable as causality: the environment cannot observe internal
  // signals, so the ordering is a timing obligation on the implementation
  // (this is where the paper's "x+ before ri-" — its most stringent
  // constraint — comes from).
  for (int p = 0; p < stg.num_places(); ++p) {
    const auto& place = stg.place(p);
    for (int tu : place.pre) {
      const auto& lu = stg.transition(tu).label;
      if (!lu || stg.signal(lu->signal).kind != SignalKind::kInternal)
        continue;
      for (int tv : place.post) {
        const auto& lv = stg.transition(tv).label;
        if (!lv || !stg.is_input(lv->signal)) continue;
        add_constraint(&result.constraints, *lu, *lv, RtOrigin::kAutomatic,
                       "environment cannot wait for an internal signal");
      }
    }
  }

  // Dependent-pair detection: two constraints guarding the same edge whose
  // "before" signals both appear in that signal's support are jointly
  // guaranteed one-of-two by the implementation (the paper's
  // "lo-/ro- before x+" discussion).
  for (std::size_t i = 0; i < result.constraints.size(); ++i) {
    for (std::size_t j = i + 1; j < result.constraints.size(); ++j) {
      auto& a = result.constraints[i];
      auto& b = result.constraints[j];
      if (a.after == b.after && a.before.pol == b.before.pol &&
          a.origin == b.origin && a.before.signal != b.before.signal) {
        a.dependent = b.dependent = true;
      }
    }
  }

  nl.validate();
  return result;
}

}  // namespace rtcad
