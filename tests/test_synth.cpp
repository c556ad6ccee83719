#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "flow/flow.hpp"
#include "generated_stgs.hpp"
#include "sim/sim.hpp"
#include "sim/stgenv.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "synth/gatesynth.hpp"
#include "synth/nextstate.hpp"
#include "synth/pulse.hpp"
#include "synth/rtsynth.hpp"

namespace rtcad {
namespace {

std::vector<RtAssumption> ring_assumptions(const Stg& f) {
  return {parse_assumption(f, "ri- before li+"),
          parse_assumption(f, "ri+ before li+"),
          parse_assumption(f, "li- before ri-")};
}

TEST(NextState, CelementFunctions) {
  const Stg spec = celement_stg();
  const StateGraph sg = StateGraph::build(spec);
  const SignalFunctions fns =
      derive_functions(sg, code_rows(sg), spec.signal_id("c"));
  EXPECT_TRUE(fns.needs_state_holding);
  // Set region: a=1 b=1 c=0 -> minterm with a,b set.
  const int a = spec.signal_id("a"), b = spec.signal_id("b"),
            c = spec.signal_id("c");
  const std::uint64_t m_set = (std::uint64_t{1} << a) | (std::uint64_t{1} << b);
  const auto is_on = [](const OnOffSet& f, std::uint64_t m) {
    return std::binary_search(f.on.begin(), f.on.end(), m);
  };
  EXPECT_TRUE(is_on(fns.set_fn, m_set));
  EXPECT_TRUE(is_on(fns.reset_fn, std::uint64_t{1} << c));  // a=b=0, c=1
}

TEST(NextState, CscViolationThrows) {
  const StateGraph sg = StateGraph::build(fifo_stg());
  try {
    derive_functions(sg, code_rows(sg), sg.stg().signal_id("ro"));
    ADD_FAILURE() << "fifo has no CSC for ro";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "state graph lacks CSC for signal 'ro' (code 0)");
  }
}

/// derive_functions as one pass over the states in state order: each
/// code's pins live in a std::map, the last write winning, and the first
/// state whose target disagrees with its code's pin is the CSC error
/// (returned in `error` instead of thrown).
struct ReferenceFunctions {
  OnOffSet next, set_fn, reset_fn;
  bool needs_state_holding = false;
  std::string error;
};

ReferenceFunctions reference_functions(const StateGraph& sg, int signal) {
  ReferenceFunctions out;
  std::map<std::uint64_t, bool> next, set, reset;
  bool hold_high = false, hold_low = false;
  for (int s = 0; s < sg.num_states(); ++s) {
    const std::uint64_t code = sg.code(s);
    const bool rise = sg.excited(s, Edge{signal, Polarity::kRise});
    const bool fall = sg.excited(s, Edge{signal, Polarity::kFall});
    const bool value = sg.value(s, signal);
    const bool target = rise || (value && !fall);
    const auto pinned = next.find(code);
    if (pinned != next.end() && pinned->second != target) {
      out.error = "state graph lacks CSC for signal '" +
                  sg.stg().signal(signal).name + "' (code " +
                  std::to_string(code) + ")";
      return out;
    }
    next[code] = target;
    if (rise)
      set[code] = true;
    else if (!value || fall)
      set[code] = false;
    if (fall)
      reset[code] = true;
    else if (value || rise)
      reset[code] = false;
    if (value && !rise && !fall) hold_high = true;
    if (!value && !rise && !fall) hold_low = true;
  }
  const int n = sg.stg().num_signals();
  const auto lists = [n](const std::map<std::uint64_t, bool>& pins) {
    OnOffSet f{n, {}, {}};
    for (const auto& [code, on] : pins) (on ? f.on : f.off).push_back(code);
    return f;
  };
  out.next = lists(next);
  out.set_fn = lists(set);
  out.reset_fn = lists(reset);
  out.needs_state_holding = hold_high && hold_low;
  return out;
}

TEST(NextState, MatchesAPerStateReferenceOnRandomSpecs) {
  SgOptions opts;
  opts.max_states = 4096;
  int derived = 0, conflicts = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Stg stg = random_stg(seed);
    std::unique_ptr<StateGraph> sg;
    try {
      sg = std::make_unique<StateGraph>(StateGraph::build(stg, opts));
    } catch (const SpecError&) {
      continue;  // inconsistent, unbounded or over the cap
    }
    const std::vector<CodeRow> rows = code_rows(*sg);
    for (int signal = 0; signal < stg.num_signals(); ++signal) {
      const std::string where = "seed " + std::to_string(seed) +
                                " signal " + stg.signal(signal).name;
      const ReferenceFunctions ref = reference_functions(*sg, signal);
      if (!ref.error.empty()) {
        ++conflicts;
        try {
          derive_functions(*sg, rows, signal);
          ADD_FAILURE() << where << ": expected " << ref.error;
        } catch (const SpecError& e) {
          EXPECT_EQ(e.what(), ref.error) << where;
        }
        continue;
      }
      ++derived;
      const SignalFunctions fns = derive_functions(*sg, rows, signal);
      const std::pair<const OnOffSet*, const OnOffSet*> pairs[] = {
          {&fns.next, &ref.next},
          {&fns.set_fn, &ref.set_fn},
          {&fns.reset_fn, &ref.reset_fn}};
      for (const auto& [got, want] : pairs) {
        EXPECT_EQ(got->nvars, want->nvars) << where;
        EXPECT_EQ(got->on, want->on) << where;
        EXPECT_EQ(got->off, want->off) << where;
      }
      EXPECT_EQ(fns.needs_state_holding, ref.needs_state_holding) << where;
    }
  }
  EXPECT_GE(derived, 20) << "generator degenerated: almost nothing builds";
  EXPECT_GE(conflicts, 5) << "no random spec exercises the CSC error";
}

TEST(SynthSi, CelementMapsToCelementCell) {
  const StateGraph sg = StateGraph::build(celement_stg());
  const SynthResult r = synthesize_si(sg);
  ASSERT_EQ(r.netlist.num_gates(), 1);
  EXPECT_EQ(Library::standard().cell(r.netlist.gate(0).cell).kind,
            CellKind::kCelement);
}

TEST(SynthSi, FifoCscSynthesizesAndSimulates) {
  const StateGraph sg = StateGraph::build(fifo_csc_stg());
  const SynthResult r = synthesize_si(sg);
  EXPECT_GT(r.netlist.transistor_count(), 20);

  // Run it against the specification environment: must conform and cycle.
  // The environment pace honours the SI circuit's internal-signal timing
  // obligations (x must settle before the next input edge arrives).
  Simulator sim(r.netlist);
  StgEnvOptions eopts;
  eopts.input_delay_min_ps = 420.0;
  eopts.input_delay_max_ps = 650.0;
  StgEnvironment env(fifo_csc_stg(), sim, eopts);
  env.start();
  sim.run(200000.0);
  EXPECT_TRUE(env.conforms()) << env.violations().front().what;
  EXPECT_FALSE(env.deadlocked());
  EXPECT_GE(env.cycles(), 20);
}

TEST(SynthSi, ComplexGateStyleWorksToo) {
  SynthOptions opts;
  opts.style = SynthStyle::kComplexGate;
  const StateGraph sg = StateGraph::build(fifo_csc_stg());
  const SynthResult r = synthesize_si(sg, opts);
  Simulator sim(r.netlist);
  StgEnvOptions eopts;
  eopts.input_delay_min_ps = 420.0;
  eopts.input_delay_max_ps = 650.0;
  StgEnvironment env(fifo_csc_stg(), sim, eopts);
  env.start();
  sim.run(200000.0);
  EXPECT_TRUE(env.conforms());
  EXPECT_GE(env.cycles(), 20);
}

TEST(SynthSi, PipelineStagesSynthesize) {
  for (int n = 1; n <= 3; ++n) {
    const StateGraph sg = StateGraph::build(pipeline_stg(n));
    const SynthResult r = synthesize_si(sg);
    EXPECT_GE(r.netlist.num_gates(), n);
  }
}

TEST(SynthRt, FifoCscProducesDominoesAndConstraints) {
  const StateGraph sg = StateGraph::build(fifo_csc_stg());
  const RtSynthResult r = synthesize_rt(sg);
  // The RT circuit must be smaller than the SI one and carry constraints.
  const SynthResult si = synthesize_si(sg);
  EXPECT_LT(r.netlist.transistor_count(), si.netlist.transistor_count());
  EXPECT_FALSE(r.constraints.empty());
  // The paper's most stringent constraint must be found: x+ before ri-.
  bool found = false;
  for (const auto& c : r.constraints) {
    if (sg.stg().edge_text(c.before) == "x+" &&
        sg.stg().edge_text(c.after) == "ri-")
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SynthRt, RingAssumptionsGiveFigureSixCircuit) {
  const Stg f = fifo_stg();
  const StateGraph sg = StateGraph::build(f);
  RtSynthOptions opts;
  opts.generate.outputs_beat_inputs = true;
  opts.allow_unfooted = true;
  opts.user_assumptions = ring_assumptions(f);
  const RtSynthResult r = synthesize_rt(sg, opts);
  // No state signal, unfooted dominoes, about 15-20 transistors.
  EXPECT_LE(r.netlist.transistor_count(), 20);
  bool has_unfooted = false;
  for (int g = 0; g < r.netlist.num_gates(); ++g) {
    if (Library::standard().cell(r.netlist.gate(g).cell).kind ==
        CellKind::kDominoU)
      has_unfooted = true;
  }
  EXPECT_TRUE(has_unfooted);
  // User assumptions must be among the back-annotated constraints.
  int user = 0;
  for (const auto& c : r.constraints)
    if (c.origin == RtOrigin::kUser) ++user;
  EXPECT_EQ(user, 3);
}

TEST(SynthRt, WithoutUserAssumptionsDecoupledFifoFails) {
  const StateGraph sg = StateGraph::build(fifo_stg());
  EXPECT_THROW(synthesize_rt(sg), SpecError);
}

TEST(Flow, SiAndRtEndToEnd) {
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  const FlowResult rsi = run_flow(fifo_csc_stg(), si);
  ASSERT_TRUE(rsi.si.has_value());

  FlowOptions rt;
  rt.mode = FlowMode::kRelativeTiming;
  const FlowResult rrt = run_flow(fifo_csc_stg(), rt);
  ASSERT_TRUE(rrt.rt.has_value());
  EXPECT_LT(rrt.netlist().transistor_count(),
            rsi.netlist().transistor_count());
  EXPECT_GE(rrt.stages.size(), 4u);
}

TEST(Flow, EncodesToggleAutomatically) {
  FlowOptions opts;
  opts.mode = FlowMode::kSpeedIndependent;
  const FlowResult r = run_flow(toggle_stg(), opts);
  EXPECT_EQ(r.state_signals_added, 1);
  EXPECT_GE(r.netlist().num_gates(), 2);
}

TEST(Flow, EncodesVmeAutomatically) {
  FlowOptions opts;
  opts.mode = FlowMode::kSpeedIndependent;
  const FlowResult r = run_flow(vme_stg(), opts);
  EXPECT_EQ(r.state_signals_added, 1);
  // And the result simulates against the encoded spec.
  Simulator sim(r.netlist());
  StgEnvironment env(r.spec, sim, {});
  env.start();
  sim.run(200000.0);
  EXPECT_TRUE(env.conforms()) << env.violations().front().what;
  EXPECT_GE(env.cycles(), 10);
}

TEST(Flow, RejectsNonPersistentSpec) {
  // An input (b+) can steal the token that enables output y+: firing b+
  // disables an excited output, so the spec is not output-persistent.
  const std::string text = R"(
.model race
.inputs a b
.outputs y
.graph
a+ p
p y+ b+
y+ a-/1
b+ a-/2
a-/1 y-
a-/2 b-
y- q
b- q
q a+
.marking { q }
.end
)";
  FlowOptions opts;
  EXPECT_THROW(run_flow(parse_stg_string(text), opts), SpecError);
}

TEST(Pulse, FifoStageShape) {
  const PulseFifoResult p = pulse_fifo_netlist();
  EXPECT_EQ(p.netlist.transistor_count(), 17);  // Table 2's pulse row
  EXPECT_EQ(p.protocol_constraints.size(), 4u);  // Figure 7(b) arcs
}

TEST(Pulse, RingCirculatesToken) {
  const Netlist ring = pulse_ring(4);
  Simulator sim(ring);
  long pulses = 0;
  const int ro0 = ring.find_net("ro0");
  sim.add_watcher([&](int net, bool v, double) {
    if (net == ro0 && v) ++pulses;
  });
  sim.run(100000.0);
  EXPECT_GE(pulses, 10);  // token keeps circulating
}

TEST(Pulse, RingFrequencyScalesWithStages) {
  auto period = [](int stages) {
    const Netlist ring = pulse_ring(stages);
    Simulator sim(ring);
    std::vector<double> times;
    const int ro0 = ring.find_net("ro0");
    sim.add_watcher([&](int net, bool v, double t) {
      if (net == ro0 && v) times.push_back(t);
    });
    sim.run(200000.0);
    return cycle_stats(times).avg_ps;
  };
  EXPECT_GT(period(6), period(3));
}

}  // namespace
}  // namespace rtcad
