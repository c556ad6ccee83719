#include <gtest/gtest.h>

#include "flow/flow.hpp"
#include "rt/assumption.hpp"
#include "rt/generate.hpp"
#include "rt/reduce.hpp"
#include "sg/analysis.hpp"
#include "stg/builders.hpp"

namespace rtcad {
namespace {

std::vector<RtAssumption> ring_assumptions(const Stg& f) {
  return {parse_assumption(f, "ri- before li+"),
          parse_assumption(f, "ri+ before li+"),
          parse_assumption(f, "li- before ri-")};
}

TEST(Assumption, ParseAndPrint) {
  const Stg f = fifo_stg();
  const RtAssumption a = parse_assumption(f, "ri- before li+");
  EXPECT_EQ(a.origin, RtOrigin::kUser);
  EXPECT_EQ(f.edge_text(a.before), "ri-");
  EXPECT_EQ(f.edge_text(a.after), "li+");
  EXPECT_NE(to_string(f, a).find("ri- before li+"), std::string::npos);
  EXPECT_THROW(parse_assumption(f, "nonsense"), Error);
  EXPECT_THROW(parse_assumption(f, "zz+ before li+"), Error);
}

TEST(Generate, NoInternalNoConservativeAssumptions) {
  // fifo has no internal signals; at margin 2 nothing can be assumed.
  const StateGraph sg = StateGraph::build(fifo_stg());
  EXPECT_TRUE(generate_assumptions(sg).empty());
}

TEST(Generate, OutputsBeatInputsProducesAssumptions) {
  const StateGraph sg = StateGraph::build(fifo_stg());
  GenerateOptions g;
  g.outputs_beat_inputs = true;
  const auto assumptions = generate_assumptions(sg, g);
  EXPECT_FALSE(assumptions.empty());
  for (const auto& a : assumptions) {
    // fast side is an output, slow side an input.
    EXPECT_FALSE(sg.stg().is_input(a.before.signal));
    EXPECT_TRUE(sg.stg().is_input(a.after.signal));
  }
}

TEST(Generate, InternalBeatsInputsAtDefaultMargin) {
  const StateGraph sg = StateGraph::build(fifo_csc_stg());
  // x is internal but never races an input in this spec (arcs order them),
  // so the conservative generator stays empty — and that is fine: the
  // constraints come from laziness instead.
  const auto assumptions = generate_assumptions(sg);
  for (const auto& a : assumptions) {
    EXPECT_EQ(sg.stg().signal(a.before.signal).kind, SignalKind::kInternal);
  }
}

TEST(Reduce, VacuousAssumptionChangesNothing) {
  const Stg f = fifo_stg();
  const StateGraph sg = StateGraph::build(f);
  // Baseline: eager-ε semantics alone (no ordering assumptions).
  const ReduceResult base = reduce(sg, {});
  // li+ and lo- are ordered by the protocol already: no further effect.
  const ReduceResult red =
      reduce(sg, {parse_assumption(f, "li+ before lo-")});
  EXPECT_EQ(red.sg.num_states(), base.sg.num_states());
  EXPECT_TRUE(red.used.empty());
  EXPECT_EQ(red.deadlocked_states, 0);
}

TEST(Reduce, NothingToDropIsTheInputGraph) {
  // pipeline12 has no silent transition, so with no assumption every edge
  // stays: the reduction is the graph filtered() keeps whole (same ids,
  // no level sizes), with nothing removed, used or deadlocked.
  const StateGraph sg = StateGraph::build(pipeline_stg(12));
  const ReduceResult red = reduce(sg, {});
  const StateGraph whole = sg.filtered([](int, int) { return true; });
  EXPECT_TRUE(identical_graphs(red.sg, whole));
  EXPECT_EQ(red.sg.num_states(), sg.num_states());
  EXPECT_EQ(red.sg.num_levels(), 0);
  EXPECT_GT(sg.num_levels(), 0);
  for (int s = 0; s < red.sg.num_states(); ++s)
    ASSERT_EQ(red.sg.old_state_of(s), s);
  EXPECT_EQ(red.edges_removed, 0);
  EXPECT_EQ(red.states_removed, 0);
  EXPECT_EQ(red.deadlocked_states, 0);
  EXPECT_TRUE(red.used.empty());
}

TEST(Reduce, SilentTransitionsStillPruneWithoutAssumptions) {
  // fifo has an ε transition: with no assumption the eager-ε rule alone
  // still drops the observable edges racing it.
  const StateGraph sg = StateGraph::build(fifo_stg());
  const ReduceResult red = reduce(sg, {});
  EXPECT_EQ(sg.num_states(), 40);
  EXPECT_EQ(red.sg.num_states(), 32);
  EXPECT_EQ(red.states_removed, 8);
  EXPECT_EQ(red.edges_removed, 25);
  EXPECT_TRUE(red.used.empty());
}

TEST(Reduce, RingAssumptionsPruneAndResolveCsc) {
  const Stg f = fifo_stg();
  const StateGraph sg = StateGraph::build(f);
  EXPECT_FALSE(analyze(sg).has_csc());

  GenerateOptions g;
  g.outputs_beat_inputs = true;
  auto assumptions = ring_assumptions(f);
  for (auto& a : generate_assumptions(sg, g)) assumptions.push_back(a);
  const ReduceResult red = reduce(sg, assumptions);
  EXPECT_LT(red.sg.num_states(), sg.num_states());
  EXPECT_EQ(red.deadlocked_states, 0);
  EXPECT_FALSE(red.used.empty());
  EXPECT_TRUE(analyze(red.sg).has_csc());
  EXPECT_TRUE(analyze(red.sg).speed_independent());
}

TEST(Reduce, ContradictoryAssumptionsDeadlock) {
  const Stg c = celement_stg();
  const StateGraph sg = StateGraph::build(c);
  // a+ and b+ race at the initial state; ordering both ways kills it.
  const ReduceResult red = reduce(sg, {parse_assumption(c, "a+ before b+"),
                                       parse_assumption(c, "b+ before a+")});
  EXPECT_GT(red.deadlocked_states, 0);
}

TEST(Reduce, UsedSubsetIsReported) {
  const Stg c = celement_stg();
  const StateGraph sg = StateGraph::build(c);
  const ReduceResult red = reduce(sg, {parse_assumption(c, "a+ before b+")});
  ASSERT_EQ(red.used.size(), 1u);
  EXPECT_EQ(c.edge_text(red.used[0].before), "a+");
  // a+ then b+ still both happen; only the interleaving was pruned.
  EXPECT_LT(red.sg.num_states(), sg.num_states());
}

TEST(Reduce, SilentTransitionsAreEager) {
  // In fifo_stg the ε between lo+ and ro+ must win races under RT
  // semantics: no reduced state may have ε enabled alongside a fired
  // observable edge.
  const Stg f = fifo_stg();
  const StateGraph sg = StateGraph::build(f);
  GenerateOptions g;
  g.outputs_beat_inputs = true;
  const ReduceResult red = reduce(sg, generate_assumptions(sg, g));
  for (int s = 0; s < red.sg.num_states(); ++s) {
    bool has_silent = false;
    for (const auto& [t, to] : red.sg.out_edges(s))
      if (red.sg.stg().transition(t).is_silent()) has_silent = true;
    if (has_silent) {
      EXPECT_EQ(red.sg.out_degree(s), 1);
    }
  }
}

TEST(Generate, RingEnvironmentResolvesFifoCsc) {
  // The paper's decoupled FIFO: no state signal can separate the straggler
  // states (test_sg's DecoupledFifoIsBeyondPureInsertion), but the ring-
  // environment rules prune them. The generated set must restore CSC on
  // the reduced graph without deadlocking or breaking persistency — the
  // ROADMAP's "assumptions too weak on fifo_stg" item.
  const StateGraph sg = StateGraph::build(fifo_stg());
  GenerateOptions g;
  g.ring_environment = true;
  const auto assumptions = generate_assumptions(sg, g);
  const ReduceResult red = reduce(sg, assumptions);
  EXPECT_EQ(red.deadlocked_states, 0);
  EXPECT_LT(red.sg.num_states(), sg.num_states());
  const SgAnalysis a = analyze(red.sg);
  EXPECT_TRUE(a.has_csc());
  EXPECT_TRUE(a.speed_independent());
}

TEST(Generate, RingEnvironmentOffByDefault) {
  const StateGraph sg = StateGraph::build(fifo_stg());
  EXPECT_TRUE(generate_assumptions(sg).empty());
}

TEST(Generate, RingEnvironmentIsSafeAcrossCorpus) {
  // The aggressive rules must never strand a state, whatever the spec —
  // including with a round cap that cuts refinement (or validation) short:
  // the final deadlock check must still cover every unvalidated suffix.
  for (Stg (*make)() : {fifo_stg, fifo_csc_stg, fifo_si_stg, celement_stg,
                        vme_stg, toggle_stg, call_stg}) {
    const Stg spec = make();
    const StateGraph sg = StateGraph::build(spec);
    for (int rounds : {6, 1, 0}) {
      GenerateOptions g;
      g.ring_environment = true;
      g.max_refinement_rounds = rounds;
      const ReduceResult red = reduce(sg, generate_assumptions(sg, g));
      EXPECT_EQ(red.deadlocked_states, 0)
          << spec.name() << " rounds=" << rounds;
    }
  }
}

TEST(Flow, RtFlowSynthesizesDecoupledFifoWithoutStateSignal) {
  // End-to-end: the RT flow escalates to the ring-environment model instead
  // of falling back to CSC signal insertion (which cannot succeed here).
  FlowOptions rt;
  rt.mode = FlowMode::kRelativeTiming;
  const FlowResult r = run_flow(fifo_stg(), rt);
  EXPECT_EQ(r.state_signals_added, 0);
  EXPECT_LT(r.states_reduced, r.states);
  ASSERT_TRUE(r.rt.has_value());
  EXPECT_GT(r.rt->constraints.size(), 0u);
  bool escalated_stage = false;
  for (const auto& s : r.stages) {
    if (s.detail.find("ring-environment") != std::string::npos)
      escalated_stage = true;
  }
  EXPECT_TRUE(escalated_stage);
}

TEST(Reduce, OldStateMappingIsConsistent) {
  const Stg f = fifo_stg();
  const StateGraph sg = StateGraph::build(f);
  GenerateOptions g;
  g.outputs_beat_inputs = true;
  const ReduceResult red = reduce(sg, generate_assumptions(sg, g));
  for (int s = 0; s < red.sg.num_states(); ++s) {
    const int old_s = red.sg.old_state_of(s);
    EXPECT_EQ(red.sg.code(s), sg.code(old_s));
  }
}

}  // namespace
}  // namespace rtcad
