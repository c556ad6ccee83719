// Parallel CSC candidate search and ring-environment assumption
// generation: candidate-level evaluation must be indistinguishable from
// the sequential loop — same inserted signals, same STG bytes, same logs
// and round statistics, same assumption sets, same error bytes — at every
// thread count. These are the teeth behind CI's --csc-threads
// determinism matrix; tests/test_sg_parallel.cpp enforces the same
// contract for the parallel excitation sweep. Runs in the clang
// ASan/UBSan and TSan jobs too (label: parallel).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rt/generate.hpp"
#include "sg/encode.hpp"
#include "sg/stategraph.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

EncodeResult solve_with_threads(const Stg& spec, int threads,
                                EncodeOptions opts = {}) {
  opts.threads = threads;
  return solve_csc(spec, opts);
}

// Full structural equality of the search outcome: the decision bits, the
// exact inserted STG (via the canonical .g text), the per-round log lines
// (which embed trigger names and conflict counts) and the round stats.
void expect_identical(const EncodeResult& a, const EncodeResult& b) {
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.signals_added, b.signals_added);
  EXPECT_EQ(write_stg(a.stg), write_stg(b.stg));
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.rounds, b.rounds);
}

// The VME-bus controller is the classic CSC benchmark: 90 trigger pairs,
// 26 feasible, one signal inserted. The solver must pick the same
// insertion at any thread count.
TEST(ParallelCsc, VmeIdenticalAt1And8Threads) {
  const Stg spec = vme_stg();
  const EncodeResult t1 = solve_with_threads(spec, 1);
  const EncodeResult t8 = solve_with_threads(spec, 8);
  EXPECT_TRUE(t1.solved);
  EXPECT_GE(t1.signals_added, 1);
  ASSERT_FALSE(t1.rounds.empty());
  EXPECT_GT(t1.rounds.front().candidates, 0);
  EXPECT_GT(t1.rounds.front().feasible, 0);
  expect_identical(t1, t8);
}

// fifo_csc already carries its state signal (Figure 5(b)), so the search
// certifies CSC in round 0 with no candidate evaluation — the trivial
// path must be deterministic too, alongside the real searches.
TEST(ParallelCsc, BuiltinSpecsIdenticalAcrossThreadCounts) {
  const Stg specs[] = {fifo_csc_stg(), vme_stg(), toggle_stg(), fifo_stg()};
  for (const Stg& spec : specs) {
    const EncodeResult t1 = solve_with_threads(spec, 1);
    for (int threads : {2, 3, 8}) {
      SCOPED_TRACE(spec.name() + " at " + std::to_string(threads) +
                   " threads");
      expect_identical(t1, solve_with_threads(spec, threads));
    }
  }
}

// Bail-out before any candidate search: the "gave up" log must carry the
// same conflict count, and no round stats are recorded.
TEST(ParallelCsc, SignalCapGiveUpIdenticalAcrossThreads) {
  EncodeOptions opts;
  opts.max_state_signals = 0;
  const Stg spec = vme_stg();
  const EncodeResult t1 = solve_with_threads(spec, 1, opts);
  const EncodeResult t8 = solve_with_threads(spec, 8, opts);
  EXPECT_FALSE(t1.solved);
  ASSERT_FALSE(t1.log.empty());
  EXPECT_NE(t1.log.back().find("gave up"), std::string::npos);
  EXPECT_TRUE(t1.rounds.empty());
  expect_identical(t1, t8);
}

// Zero-feasible-candidate round: cap reachability at exactly the base
// graph's state count, so the base build succeeds but every candidate
// build (the inserted signal adds states) dies on the cap and is rejected.
// The search must report the same "no single insertion" give-up, with the
// full candidate count and zero feasible, at any thread count.
TEST(ParallelCsc, AllCandidatesRejectedIdenticalAcrossThreads) {
  const Stg spec = vme_stg();
  EncodeOptions opts;
  opts.sg.max_states =
      static_cast<std::size_t>(StateGraph::build(spec).num_states());
  const EncodeResult t1 = solve_with_threads(spec, 1, opts);
  const EncodeResult t8 = solve_with_threads(spec, 8, opts);
  EXPECT_FALSE(t1.solved);
  ASSERT_FALSE(t1.log.empty());
  EXPECT_NE(t1.log.back().find("no single insertion"), std::string::npos);
  ASSERT_EQ(t1.rounds.size(), 1u);
  EXPECT_GT(t1.rounds.front().candidates, 0);
  EXPECT_EQ(t1.rounds.front().feasible, 0);
  expect_identical(t1, t8);
}

std::string solve_error(const Stg& spec, const EncodeOptions& opts) {
  try {
    solve_csc(spec, opts);
    return "";
  } catch (const SpecError& e) {
    return e.what();
  }
}

// A cap below the base graph makes the per-round build itself throw; the
// error must escape solve_csc with identical bytes regardless of the
// candidate-level thread count.
TEST(ParallelCsc, StateCapErrorIdenticalAcrossThreads) {
  EncodeOptions t1;
  t1.sg.max_states = 2;
  EncodeOptions t8 = t1;
  t8.threads = 8;
  const Stg spec = fifo_csc_stg();
  const std::string e1 = solve_error(spec, t1);
  EXPECT_NE(e1.find("exceeds 2 states"), std::string::npos);
  EXPECT_EQ(e1, solve_error(spec, t8));
}

TEST(ParallelCsc, ThreadsZeroPicksHardwareConcurrency) {
  const Stg spec = vme_stg();
  expect_identical(solve_with_threads(spec, 1), solve_with_threads(spec, 0));
}

// Timing-aware off changes the tie-break but must stay deterministic too.
TEST(ParallelCsc, TimingUnawareIdenticalAcrossThreads) {
  EncodeOptions opts;
  opts.timing_aware = false;
  const Stg spec = vme_stg();
  expect_identical(solve_with_threads(spec, 1, opts),
                   solve_with_threads(spec, 8, opts));
}

// --- ring-environment assumption generation -------------------------------

std::vector<RtAssumption> generate_with_threads(const StateGraph& sg,
                                                int threads) {
  GenerateOptions opts;
  opts.ring_environment = true;
  opts.threads = threads;
  return generate_assumptions(sg, opts);
}

void expect_identical_assumptions(const std::vector<RtAssumption>& a,
                                  const std::vector<RtAssumption>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("assumption " + std::to_string(i));
    EXPECT_EQ(a[i].before, b[i].before);
    EXPECT_EQ(a[i].after, b[i].after);
    EXPECT_EQ(a[i].origin, b[i].origin);
    EXPECT_EQ(a[i].rationale, b[i].rationale);
  }
}

// The decoupled FIFO is the spec the ring rules were built for: the
// head-start refinement rounds must emit the same assumptions, in the
// same order, with the same rationale strings, at any thread count.
TEST(ParallelRingGeneration, BuiltinSpecsIdenticalAcrossThreadCounts) {
  const Stg specs[] = {fifo_stg(), fifo_csc_stg(), vme_stg(), call_stg()};
  for (const Stg& spec : specs) {
    const StateGraph sg = StateGraph::build(spec);
    const auto t1 = generate_with_threads(sg, 1);
    for (int threads : {2, 3, 8}) {
      SCOPED_TRACE(spec.name() + " at " + std::to_string(threads) +
                   " threads");
      expect_identical_assumptions(t1, generate_with_threads(sg, threads));
    }
  }
}

TEST(ParallelRingGeneration, FifoEmitsAssumptionsAndZeroPicksHardware) {
  const StateGraph sg = StateGraph::build(fifo_stg());
  const auto t1 = generate_with_threads(sg, 1);
  EXPECT_FALSE(t1.empty());
  expect_identical_assumptions(t1, generate_with_threads(sg, 0));
}

// A spec with no input signals has no pending-age work at all; the pool
// clamp (never fewer than one worker) must keep this degenerate case
// working and identical.
TEST(ParallelRingGeneration, NoInputSpecIdenticalAcrossThreads) {
  Stg stg("osc");
  const int a = stg.add_signal("a", SignalKind::kOutput);
  const int rise = stg.add_transition(Edge{a, Polarity::kRise});
  const int fall = stg.add_transition(Edge{a, Polarity::kFall});
  stg.add_arc_tt(rise, fall);
  stg.add_arc_tt(fall, rise, 1);
  const StateGraph sg = StateGraph::build(stg);
  expect_identical_assumptions(generate_with_threads(sg, 1),
                               generate_with_threads(sg, 8));
}

}  // namespace
}  // namespace rtcad
