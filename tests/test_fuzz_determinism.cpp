// Seeded random-STG fuzzing: the sequential-vs-parallel determinism
// contract must hold beyond the hand-picked corpus. Each seed builds one
// random_stg (tests/generated_stgs.hpp), a generator that injects wide
// frontiers, consistency errors, token-bound and state-cap errors and
// deadlocks on purpose.
//
// For every seed that builds, the excitation sweep is rerun at 8 workers
// and compared with the sequential graph, and solve_csc, the scenario
// sweep and ring-environment assumption generation are cross-checked at
// 1 vs 8 workers (results or error bytes), so the deterministic-merge
// claims rest on ~200 machine-generated specs, not only on the curated
// ones. Runs under ASan/UBSan and TSan in CI (label: parallel).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "flow/flow.hpp"
#include "generated_stgs.hpp"
#include "rt/generate.hpp"
#include "sg/encode.hpp"
#include "sg/stategraph.hpp"
#include "stg/stg.hpp"

namespace rtcad {
namespace {

constexpr std::uint64_t kSeeds = 200;

std::string build_error(const Stg& stg, const SgOptions& opts) {
  try {
    StateGraph::build(stg, opts);
    return "";
  } catch (const SpecError& e) {
    return e.what();
  }
}

SgOptions fuzz_sg_options() {
  SgOptions opts;
  opts.max_states = 4096;  // small cap: over-cap errors are part of the fuzz
  return opts;
}

TEST(FuzzDeterminism, DerivedPassesSequentialVsParallelEdgeForEdge) {
  // The excitation sweep re-runs at 8 workers on every buildable fuzz
  // spec. recompute_excitation honors its width even on graphs below
  // build()'s size floor, so this actually drives the chunked sweep across
  // all ~200 machine-generated shapes (including ε-closure tails and
  // deadlocked states). t8 starts as a copy sharing t1's arrays and is then
  // recomputed, so this relies on the mutator copying a shared block
  // before it writes; otherwise both sides would read the same masks.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Stg stg = random_stg(seed);
    if (!build_error(stg, fuzz_sg_options()).empty()) continue;
    const StateGraph t1 = StateGraph::build(stg, fuzz_sg_options());
    StateGraph t8 = t1;
    t8.recompute_excitation(8);
    ASSERT_TRUE(identical_graphs(t1, t8));
    ++checked;
  }
  EXPECT_GE(checked, 20) << "generator degenerated: almost nothing builds";
}

std::string csc_error(const Stg& stg, const EncodeOptions& opts) {
  try {
    solve_csc(stg, opts);
    return "";
  } catch (const SpecError& e) {
    return e.what();
  }
}

EncodeOptions fuzz_encode_options(int threads) {
  EncodeOptions opts;
  opts.threads = threads;
  opts.sg = fuzz_sg_options();  // candidate builds are per-candidate work
  opts.max_state_signals = 2;    // bound the rounds, keep the suite fast
  return opts;
}

TEST(FuzzDeterminism, SolveCscSequentialVsParallel) {
  int searched = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Stg stg = random_stg(seed);
    const std::string e1 = csc_error(stg, fuzz_encode_options(1));
    const std::string e8 = csc_error(stg, fuzz_encode_options(8));
    ASSERT_EQ(e1, e8);
    if (!e1.empty()) continue;
    const EncodeResult r1 = solve_csc(stg, fuzz_encode_options(1));
    const EncodeResult r8 = solve_csc(stg, fuzz_encode_options(8));
    EXPECT_EQ(r1.solved, r8.solved);
    EXPECT_EQ(r1.signals_added, r8.signals_added);
    EXPECT_EQ(r1.log, r8.log);
    EXPECT_EQ(r1.rounds, r8.rounds);
    ASSERT_EQ(r1.stg.num_transitions(), r8.stg.num_transitions());
    for (int t = 0; t < r1.stg.num_transitions(); ++t)
      EXPECT_EQ(r1.stg.transition_name(t), r8.stg.transition_name(t));
    if (!r1.rounds.empty()) ++searched;
  }
  // Some seeds must reach an actual candidate search (a spec that builds
  // AND has CSC conflicts), or the differential proves nothing.
  EXPECT_GE(searched, 5) << "no fuzz spec exercised the candidate search";
}

std::string sweep_or_error(const Stg& stg, const SweepOptions& opts,
                           int threads, std::string* error) {
  FlowContext ctx;
  ctx.budget.corpus = threads;
  try {
    return to_sweep_json(run_sweep(stg.name(), stg, opts, ctx));
  } catch (const Error& e) {
    *error = e.what();
    return "";
  }
}

TEST(FuzzDeterminism, SweepReportBytesSequentialVsParallel) {
  // The whole sweep stack — one flow run, variant generation, the
  // WorkPool fan-out, aggregation, JSON rendering — byte-compared at 1 vs
  // 8 workers on machine-generated specs. Most fuzz specs die in the flow
  // (CSC, consistency, synthesis) or have a non-working base scenario;
  // the error bytes must then match too. A bounded grid keeps the suite
  // fast while still touching every variant kind.
  SweepOptions opts;
  opts.flow.mode = FlowMode::kRelativeTiming;
  opts.flow.sg.max_states = 4096;
  opts.fault.sim_time_ps = 8000.0;
  opts.delay_variants = 4;
  opts.env_variants = 3;
  int swept = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Stg stg = random_stg(seed);
    std::string e1, e8;
    const std::string r1 = sweep_or_error(stg, opts, 1, &e1);
    const std::string r8 = sweep_or_error(stg, opts, 8, &e8);
    ASSERT_EQ(e1, e8);
    ASSERT_EQ(r1, r8);
    if (!r1.empty()) ++swept;
  }
  EXPECT_GE(swept, 3) << "generator degenerated: almost nothing sweeps";
}

TEST(FuzzDeterminism, RingGenerationSequentialVsParallel) {
  GenerateOptions g1;
  g1.ring_environment = true;
  GenerateOptions g8 = g1;
  g8.threads = 8;
  int generated = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Stg stg = random_stg(seed);
    if (!build_error(stg, fuzz_sg_options()).empty()) continue;
    const StateGraph sg = StateGraph::build(stg, fuzz_sg_options());
    const auto a1 = generate_assumptions(sg, g1);
    const auto a8 = generate_assumptions(sg, g8);
    ASSERT_EQ(a1.size(), a8.size());
    for (std::size_t i = 0; i < a1.size(); ++i) {
      EXPECT_EQ(a1[i].before, a8[i].before) << "assumption " << i;
      EXPECT_EQ(a1[i].after, a8[i].after) << "assumption " << i;
      EXPECT_EQ(a1[i].rationale, a8[i].rationale) << "assumption " << i;
    }
    if (!a1.empty()) ++generated;
  }
  EXPECT_GE(generated, 5) << "no fuzz spec emitted ring assumptions";
}

}  // namespace
}  // namespace rtcad
