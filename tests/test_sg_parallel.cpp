// Graph-level parallelism: the chunked excitation sweep — the one pass of
// a state-graph build that fans out over SgOptions::threads — must
// reproduce the sequential masks exactly, at build time and through
// recompute_excitation, and a copy's passes must leave the graph it shares
// its arrays with untouched. Also covers the WorkPool underneath every
// parallel engine. These tests run in the clang RTCAD_SANITIZE=ON job
// (ASan/UBSan: memory errors) and the RTCAD_TSAN=ON job (ThreadSanitizer:
// data races in the sweep, the shared arrays and the worker pool).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "sg/analysis.hpp"
#include "sg/stategraph.hpp"
#include "stg/builders.hpp"
#include "util/workpool.hpp"

namespace rtcad {
namespace {

StateGraph build_with_threads(const Stg& stg, int threads) {
  SgOptions opts;
  opts.threads = threads;
  return StateGraph::build(stg, opts);
}

// The acceptance stress case: the largest built-in spec (2^15 states,
// 139k edges — above build()'s 32k-edge floor, so the 8-thread build runs
// the chunked excitation sweep), compared against the sequential build
// structure for structure, excitation masks included.
TEST(ParallelStateGraph, Pipeline14IdenticalAt1And8Threads) {
  const Stg big = pipeline_stg(14);
  const StateGraph t1 = build_with_threads(big, 1);
  const StateGraph t8 = build_with_threads(big, 8);
  EXPECT_EQ(t1.num_states(), 1 << 15);
  EXPECT_TRUE(identical_graphs(t1, t8));
}

// recompute_excitation(8) honors its width on any graph; rerunning it on
// a built graph must reproduce the sequential masks. Each copy below starts
// out sharing the original's arrays and is then recomputed, so the test
// relies on the mutator copying a shared block before it writes: were the
// block written in place, both sides would read the same masks and the
// comparison would prove nothing.
TEST(ParallelStateGraph, DerivedPassesIdenticalAt8Threads) {
  const StateGraph t1 = build_with_threads(pipeline_stg(14), 1);
  StateGraph t8 = t1;
  t8.recompute_excitation(8);
  EXPECT_TRUE(identical_graphs(t1, t8));
  // And on a spec with silent transitions (the sequential ε-closure tail
  // after the parallel direct sweep).
  const StateGraph f1 = build_with_threads(fifo_stg(), 1);
  StateGraph f8 = f1;
  f8.recompute_excitation(8);
  EXPECT_TRUE(identical_graphs(f1, f8));
}

// A copy shares the original's arrays until a mutator copies them, so
// rerunning both derived passes on the copy while another thread analyzes
// the original must not write a byte the reader sees. A write to the
// shared block is a data race the TSan job reports.
TEST(ParallelStateGraph, MutatingACopyLeavesTheSharedOriginalAlone) {
  const StateGraph original = build_with_threads(pipeline_stg(14), 1);
  const SgAnalysis before = analyze(original);
  StateGraph copy = original;
  SgAnalysis during;
  std::thread reader([&] { during = analyze(original); });
  copy.rebuild_reverse_csr();
  copy.recompute_excitation(8);
  reader.join();
  EXPECT_TRUE(identical_graphs(original, copy));
  EXPECT_EQ(during.usc_classes, before.usc_classes);
  EXPECT_EQ(during.csc_conflicts.size(), before.csc_conflicts.size());
  EXPECT_EQ(during.persistency.size(), before.persistency.size());
}

// --- the shared pool underneath every parallel engine ---------------------

TEST(WorkPool, RunsJobOnEveryWorkerAndIsReusable) {
  WorkPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> ran{0};
    std::atomic<unsigned> workers{0};
    pool.run([&](int worker) {
      ran.fetch_add(1);
      workers.fetch_or(1u << worker);
    });
    EXPECT_EQ(ran.load(), 4);
    EXPECT_EQ(workers.load(), 0xfu);
  }
}

TEST(WorkPool, RethrowsJobExceptionAndStaysUsable) {
  WorkPool pool(3);
  EXPECT_THROW(
      pool.run([](int worker) {
        if (worker == 1) throw SpecError("boom");
      }),
      SpecError);
  std::atomic<int> ran{0};
  pool.run([&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

}  // namespace
}  // namespace rtcad
