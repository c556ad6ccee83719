// Cross-cutting property tests swept over the whole specification corpus:
// invariants that must hold for ANY well-formed spec, checked on every
// builder (and sizes of the pipeline family).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "flow/flow.hpp"
#include "rt/generate.hpp"
#include "rt/reduce.hpp"
#include "sg/analysis.hpp"
#include "sim/stgenv.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

struct SpecCase {
  const char* name;
  Stg (*make)();
};

Stg pipe2() { return pipeline_stg(2); }
Stg pipe4() { return pipeline_stg(4); }

const SpecCase kCorpus[] = {
    {"fifo", fifo_stg},         {"fifo_csc", fifo_csc_stg},
    {"fifo_si", fifo_si_stg},   {"celement", celement_stg},
    {"vme", vme_stg},           {"toggle", toggle_stg},
    {"pipe2", pipe2},           {"pipe4", pipe4},
};

class CorpusTest : public ::testing::TestWithParam<SpecCase> {};

TEST_P(CorpusTest, CodesFlipExactlyOneSignalPerEdge) {
  const StateGraph sg = StateGraph::build(GetParam().make());
  const Stg& stg = sg.stg();
  for (int s = 0; s < sg.num_states(); ++s) {
    for (const auto& [t, to] : sg.out_edges(s)) {
      const auto& label = stg.transition(t).label;
      const std::uint64_t diff = sg.code(s) ^ sg.code(to);
      if (!label) {
        EXPECT_EQ(diff, 0u);  // silent edges keep the code
      } else {
        EXPECT_EQ(diff, std::uint64_t{1} << label->signal);
        EXPECT_EQ(sg.value(s, label->signal),
                  label->pol == Polarity::kFall);
      }
    }
  }
}

TEST_P(CorpusTest, ExcitationIsConsistentWithEdges) {
  const StateGraph sg = StateGraph::build(GetParam().make());
  const Stg& stg = sg.stg();
  for (int s = 0; s < sg.num_states(); ++s) {
    for (const auto& [t, to] : sg.out_edges(s)) {
      const auto& label = stg.transition(t).label;
      if (!label) continue;
      EXPECT_TRUE(sg.excited(s, *label))
          << GetParam().name << " state " << s;
    }
  }
}

TEST_P(CorpusTest, IdentityFilterPreservesTheGraph) {
  const StateGraph sg = StateGraph::build(GetParam().make());
  const StateGraph same = sg.filtered([](int, int) { return true; });
  EXPECT_EQ(same.num_states(), sg.num_states());
  EXPECT_EQ(same.num_edges(), sg.num_edges());
  for (int s = 0; s < same.num_states(); ++s)
    EXPECT_EQ(same.code(s), sg.code(same.old_state_of(s)));
}

TEST_P(CorpusTest, IdentityFilterIsEdgeForEdgeIdentical) {
  // Stronger than state/edge counts: filtered(keep_all) must reproduce the
  // CSR exactly — same state order (ids are BFS discovery order in both
  // build and filtered), same out-edge sequence per state, same excitation.
  const StateGraph sg = StateGraph::build(GetParam().make());
  const StateGraph same = sg.filtered([](int, int) { return true; });
  ASSERT_EQ(same.num_states(), sg.num_states());
  ASSERT_EQ(same.num_edges(), sg.num_edges());
  const Stg& stg = sg.stg();
  for (int s = 0; s < sg.num_states(); ++s) {
    EXPECT_EQ(same.old_state_of(s), s);
    EXPECT_EQ(same.code(s), sg.code(s));
    ASSERT_EQ(same.out_degree(s), sg.out_degree(s));
    const auto a = sg.out_edges(s);
    const auto b = same.out_edges(s);
    for (int i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].transition, b[i].transition);
      EXPECT_EQ(a[i].state, b[i].state);
    }
    for (int sig = 0; sig < stg.num_signals(); ++sig) {
      for (Polarity pol : {Polarity::kRise, Polarity::kFall}) {
        EXPECT_EQ(same.excited(s, Edge{sig, pol}),
                  sg.excited(s, Edge{sig, pol}));
      }
    }
  }
}

TEST_P(CorpusTest, PredecessorCsrIsExactTranspose) {
  // The reverse adjacency must be the transpose of the forward CSR: the
  // same (from, transition, to) multiset, with in-degrees summing to the
  // edge count. Checked on the full graph and on a reduced one, each
  // after rebuild_reverse_csr() (a graph holds a transpose only then, or
  // when its spec has a silent transition).
  StateGraph full = StateGraph::build(GetParam().make());
  GenerateOptions g;
  g.outputs_beat_inputs = true;
  StateGraph reduced = reduce(full, generate_assumptions(full, g)).sg;
  full.rebuild_reverse_csr();
  reduced.rebuild_reverse_csr();
  for (const StateGraph* sg : {&full, &reduced}) {
    std::vector<std::array<int, 3>> fwd, rev;
    sg->for_each_edge(
        [&](int from, int t, int to) { fwd.push_back({from, t, to}); });
    int in_degree_sum = 0;
    for (int s = 0; s < sg->num_states(); ++s) {
      in_degree_sum += sg->in_degree(s);
      for (const auto& [t, from] : sg->in_edges(s))
        rev.push_back({from, t, s});
    }
    EXPECT_EQ(static_cast<int>(fwd.size()), sg->num_edges());
    EXPECT_EQ(in_degree_sum, sg->num_edges());
    std::sort(fwd.begin(), fwd.end());
    std::sort(rev.begin(), rev.end());
    EXPECT_EQ(fwd, rev);
  }
}

TEST_P(CorpusTest, ReductionYieldsSubgraph) {
  const StateGraph sg = StateGraph::build(GetParam().make());
  GenerateOptions g;
  g.outputs_beat_inputs = true;
  const ReduceResult red = reduce(sg, generate_assumptions(sg, g));
  EXPECT_LE(red.sg.num_states(), sg.num_states());
  EXPECT_LE(red.sg.num_edges(), sg.num_edges());
  // Every reduced edge must exist in the original graph.
  for (int s = 0; s < red.sg.num_states(); ++s) {
    const int orig = red.sg.old_state_of(s);
    for (const auto& [t, to] : red.sg.out_edges(s)) {
      EXPECT_GE(sg.successor_by_transition(orig, t), 0);
    }
  }
}

TEST_P(CorpusTest, WriteParseRoundTripPreservesStateGraph) {
  const Stg original = GetParam().make();
  const Stg reparsed = parse_stg_string(write_stg(original));
  const StateGraph a = StateGraph::build(original);
  const StateGraph b = StateGraph::build(reparsed);
  EXPECT_EQ(a.num_states(), b.num_states());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.initial_code(), b.initial_code());
}

TEST_P(CorpusTest, AnalysisIsDeterministic) {
  const Stg spec = GetParam().make();
  const SgAnalysis a1 = analyze(StateGraph::build(spec));
  const SgAnalysis a2 = analyze(StateGraph::build(spec));
  EXPECT_EQ(a1.csc_conflicts.size(), a2.csc_conflicts.size());
  EXPECT_EQ(a1.persistency.size(), a2.persistency.size());
  EXPECT_EQ(a1.usc_classes, a2.usc_classes);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, CorpusTest, ::testing::ValuesIn(kCorpus),
    [](const ::testing::TestParamInfo<SpecCase>& info) {
      return std::string(info.param.name);
    });

// Every CSC-clean spec must synthesize in SI mode and its circuit must
// run conformantly against its own specification environment.
struct CleanCase {
  const char* name;
  Stg (*make)();
  double env_min, env_max;
};

const CleanCase kClean[] = {
    {"fifo_csc", fifo_csc_stg, 420, 650},
    {"fifo_si", fifo_si_stg, 420, 650},
    {"celement", celement_stg, 200, 400},
    {"pipe2", pipe2, 250, 450},
};

class CleanSpecTest : public ::testing::TestWithParam<CleanCase> {};

TEST_P(CleanSpecTest, SiCircuitConformsInSimulation) {
  FlowOptions o;
  o.mode = FlowMode::kSpeedIndependent;
  const FlowResult r = run_flow(GetParam().make(), o);
  Simulator sim(r.netlist());
  StgEnvOptions eopts;
  eopts.input_delay_min_ps = GetParam().env_min;
  eopts.input_delay_max_ps = GetParam().env_max;
  StgEnvironment env(r.spec, sim, eopts);
  env.start();
  sim.run(150000.0);
  EXPECT_TRUE(env.conforms()) << env.violations().front().what;
  EXPECT_GE(env.cycles(), 5);
}

INSTANTIATE_TEST_SUITE_P(
    CleanSpecs, CleanSpecTest, ::testing::ValuesIn(kClean),
    [](const ::testing::TestParamInfo<CleanCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace rtcad
