#include <gtest/gtest.h>

#include <string>

#include "generated_stgs.hpp"
#include "sg/analysis.hpp"
#include "sg/encode.hpp"
#include "sg/stategraph.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "sg/dot.hpp"

namespace rtcad {
namespace {

// The message of the SpecError a build raises, or "" if it succeeds.
std::string build_error(const Stg& stg, const SgOptions& opts = {}) {
  try {
    StateGraph::build(stg, opts);
    return "";
  } catch (const SpecError& e) {
    return e.what();
  }
}

TEST(StateGraph, HandshakeHasFourStates) {
  const Stg stg = parse_stg_string(R"(
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
)");
  const StateGraph sg = StateGraph::build(stg);
  EXPECT_EQ(sg.num_states(), 4);
  EXPECT_EQ(sg.num_edges(), 4);
  EXPECT_EQ(sg.initial_code(), 0u);
}

TEST(StateGraph, CelementHasEightStates) {
  const StateGraph sg = StateGraph::build(celement_stg());
  EXPECT_EQ(sg.num_states(), 8);
}

TEST(StateGraph, InitialValuesInferred) {
  // z starts high: first transition of z is z-.
  const Stg stg = parse_stg_string(R"(
.model inv
.inputs a
.outputs z
.graph
a+ z-
z- a-
a- z+
z+ a+
.marking { <z+,a+> }
.end
)");
  const StateGraph sg = StateGraph::build(stg);
  const int z = stg.signal_id("z");
  EXPECT_TRUE((sg.initial_code() >> z) & 1);
}

TEST(StateGraph, DetectsInconsistency) {
  // a+ enabled twice along a path without a-.
  const Stg stg = parse_stg_string(R"(
.model bad
.inputs a
.outputs z
.graph
a+/1 a+/2
a+/2 z+
z+ a-
a- z-
z- a+/1
.marking { <z-,a+/1> }
.end
)");
  EXPECT_EQ(build_error(stg),
            "STG 'bad' is inconsistent: signal 'a' requires contradictory "
            "initial values");
}

TEST(StateGraph, StateLimitEnforced) {
  SgOptions opts;
  opts.max_states = 4;
  EXPECT_THROW(StateGraph::build(pipeline_stg(4), opts), SpecError);
  opts.max_states = 100;
  EXPECT_NE(build_error(pipeline_stg(10), opts).find("exceeds 100 states"),
            std::string::npos);
  // Degenerate cap: the initial state is always kept, and the first
  // discovery raises the error.
  opts.max_states = 0;
  EXPECT_NE(build_error(celement_stg(), opts).find("exceeds 0 states"),
            std::string::npos);
}

TEST(StateGraph, TokenBoundOverflowReported) {
  // A cycle that pumps a token into a sink place on every lap overflows the
  // 8-bit token bound after 255 laps. The second lap leaves bit rows, so
  // the byte-row exploration is the one that throws, mid-exploration.
  Stg pump("pump");
  const int a = pump.add_signal("a", SignalKind::kOutput);
  const int rise = pump.add_transition(Edge{a, Polarity::kRise});
  const int fall = pump.add_transition(Edge{a, Polarity::kFall});
  const int p0 = pump.add_place("p0", 1);
  const int sink = pump.add_place("sink", 0);
  pump.add_arc_pt(p0, rise);
  pump.add_arc_tt(rise, fall);
  pump.add_arc_tp(fall, p0);
  pump.add_arc_tp(fall, sink);
  EXPECT_NE(build_error(pump).find("token bound"), std::string::npos);
}

TEST(StateGraph, PipelineGrowth) {
  int prev = 0;
  for (int n = 1; n <= 5; ++n) {
    const StateGraph sg = StateGraph::build(pipeline_stg(n));
    EXPECT_GT(sg.num_states(), prev);
    prev = sg.num_states();
  }
  EXPECT_EQ(StateGraph::build(pipeline_stg(1)).num_states(), 4);
}

TEST(StateGraph, ExcitationClosesOverSilent) {
  const Stg stg = parse_stg_string(R"(
.model d
.inputs a
.outputs z
.dummy e
.graph
a+ e
e z+
z+ a-
a- z-
z- a+
.marking { <z-,a+> }
.end
)");
  const StateGraph sg = StateGraph::build(stg);
  // State after a+ fires: only e is directly enabled, but z+ must be
  // excited through the silent closure.
  const int s1 = sg.successor(0, Edge{stg.signal_id("a"), Polarity::kRise});
  ASSERT_GE(s1, 0);
  EXPECT_TRUE(sg.excited(s1, Edge{stg.signal_id("z"), Polarity::kRise}));
}

TEST(Analysis, CelementIsCleanAndPersistent) {
  const StateGraph sg = StateGraph::build(celement_stg());
  const SgAnalysis a = analyze(sg);
  EXPECT_TRUE(a.speed_independent());
  EXPECT_TRUE(a.has_csc());
}

TEST(Analysis, FifoHasCscConflict) {
  const StateGraph sg = StateGraph::build(fifo_stg());
  const SgAnalysis a = analyze(sg);
  EXPECT_TRUE(a.speed_independent());
  EXPECT_FALSE(a.has_csc());
  // The conflict involves output ro (pending-data state vs idle state).
  bool ro_conflict = false;
  const int ro = fifo_stg().signal_id("ro");
  for (const auto& c : a.csc_conflicts) {
    if (c.differing_signals >> ro & 1) ro_conflict = true;
  }
  EXPECT_TRUE(ro_conflict);
}

TEST(Analysis, FifoCscSpecIsClean) {
  const StateGraph sg = StateGraph::build(fifo_csc_stg());
  const SgAnalysis a = analyze(sg);
  EXPECT_TRUE(a.speed_independent())
      << describe(sg, a.persistency.front());
  EXPECT_TRUE(a.has_csc()) << describe(sg, a.csc_conflicts.front());
}

TEST(Analysis, ToggleHasCscConflict) {
  const StateGraph sg = StateGraph::build(toggle_stg());
  EXPECT_FALSE(analyze(sg).has_csc());
}

TEST(Analysis, VmeHasCscConflict) {
  const StateGraph sg = StateGraph::build(vme_stg());
  EXPECT_FALSE(analyze(sg).has_csc());
}

TEST(Analysis, PipelinesAreClean) {
  for (int n = 1; n <= 4; ++n) {
    const StateGraph sg = StateGraph::build(pipeline_stg(n));
    const SgAnalysis a = analyze(sg);
    EXPECT_TRUE(a.speed_independent()) << "pipeline " << n;
    EXPECT_TRUE(a.has_csc()) << "pipeline " << n;
  }
}

TEST(Encode, InsertStateSignalTransform) {
  const Stg spec = fifo_stg();
  const int lo_p = spec.find_transition("lo+");
  const int lo_m = spec.find_transition("lo-");
  const Stg inserted = insert_state_signal(spec, "x", lo_m, lo_p);
  EXPECT_EQ(inserted.num_signals(), spec.num_signals() + 1);
  EXPECT_EQ(inserted.num_transitions(), spec.num_transitions() + 2);
  // Still a consistent net: x alternates with lo.
  EXPECT_NO_THROW(StateGraph::build(inserted));
}

TEST(Encode, SolvesToggle) {
  const EncodeResult r = solve_csc(toggle_stg());
  EXPECT_TRUE(r.solved);
  EXPECT_GE(r.signals_added, 1);
  const StateGraph sg = StateGraph::build(r.stg);
  EXPECT_TRUE(analyze(sg).has_csc());
}

TEST(Encode, DecoupledFifoIsBeyondPureInsertion) {
  // The fully-decoupled FIFO cannot be given CSC by toggle insertion alone:
  // any inserted signal pulses completely inside the straggler window, so
  // the codes stay ambiguous. This is exactly why the paper reaches for
  // relative timing (the RT flow prunes the straggler states instead).
  const EncodeResult r = solve_csc(fifo_stg());
  EXPECT_FALSE(r.solved);
  EXPECT_FALSE(r.log.empty());
}

TEST(Encode, FifoSiSpecNeedsNoInsertion) {
  const EncodeResult r = solve_csc(fifo_si_stg());
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.signals_added, 0);
}

TEST(Encode, SolvesVme) {
  const EncodeResult r = solve_csc(vme_stg());
  EXPECT_TRUE(r.solved);
  EXPECT_TRUE(analyze(StateGraph::build(r.stg)).has_csc());
}

TEST(Encode, NoOpOnCleanSpec) {
  const EncodeResult r = solve_csc(celement_stg());
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.signals_added, 0);
}

TEST(Encode, GivesUpWithNoRoomForAStateSignal) {
  // Every candidate would add a 65th signal, past what a state code holds.
  const EncodeResult r = solve_csc(wide_ring_stg(Stg::kMaxSignals));
  EXPECT_FALSE(r.solved);
  EXPECT_EQ(r.signals_added, 0);
  EXPECT_TRUE(r.rounds.empty());
  ASSERT_EQ(r.log.size(), 1u);
  EXPECT_NE(r.log[0].find("already has 64 signals"), std::string::npos)
      << r.log[0];
}

class PipelineParam : public ::testing::TestWithParam<int> {};

TEST_P(PipelineParam, CodesAreConsistentWithEdges) {
  // Property: along every edge labelled s+/s-, exactly signal s flips in
  // the code, and in the right direction.
  const Stg stg = pipeline_stg(GetParam());
  const StateGraph sg = StateGraph::build(stg);
  for (int s = 0; s < sg.num_states(); ++s) {
    for (const auto& [t, to] : sg.out_edges(s)) {
      const auto& label = stg.transition(t).label;
      if (!label) continue;
      const std::uint64_t diff = sg.code(s) ^ sg.code(to);
      EXPECT_EQ(diff, std::uint64_t{1} << label->signal);
      EXPECT_EQ(sg.value(s, label->signal),
                label->pol == Polarity::kFall);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PipelineParam, ::testing::Values(1, 2, 3, 4));


TEST(Builders, CallElementFreeChoice) {
  const Stg call = call_stg();
  const StateGraph sg = StateGraph::build(call);
  EXPECT_EQ(sg.num_states(), 7);  // idle + 2 branches x 3 states
  const SgAnalysis a = analyze(sg);
  EXPECT_TRUE(a.speed_independent());  // input choice is legal
  EXPECT_TRUE(a.has_csc());
}

TEST(Dot, StgExportContainsStructure) {
  const std::string dot = stg_to_dot(celement_stg());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("label=\"c+\""), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
}

TEST(Dot, SgExportHasOneNodePerState) {
  const StateGraph sg = StateGraph::build(celement_stg());
  const std::string dot = sg_to_dot(sg);
  int nodes = 0;
  for (std::size_t pos = 0; (pos = dot.find("[label=\"", pos)) != std::string::npos; ++pos)
    ++nodes;
  EXPECT_GE(nodes, sg.num_states());
}

}  // namespace
}  // namespace rtcad
