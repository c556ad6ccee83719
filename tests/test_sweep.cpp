// Sweep determinism differential: a scenario sweep over a real CSC spec
// (mmu) must render byte-identical reports whether the variants are
// evaluated by one worker or eight, and whether the sweep runs in one
// process or is cut into shards that are serialized, re-parsed and
// merged. The per-variant outcome records, the undetected-fault list and
// the breaking-window list are all order-pinned by the variant
// enumeration, so a single byte of divergence fails the suite.
//
// The `_sweep` suffix routes this suite to the ctest "parallel" label,
// so the ASan/TSan CI jobs cover the sweep fan-out under both sanitizers.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

Stg mmu_spec() {
  return parse_stg_file(std::string(RTCAD_SPECS_DIR) + "/mmu.g");
}

/// Small but representative grid: every variant kind present, runtime in
/// the tens of milliseconds.
SweepOptions small_opts() {
  SweepOptions o;
  o.flow.mode = FlowMode::kRelativeTiming;
  o.fault.sim_time_ps = 20000.0;
  o.delay_variants = 24;
  o.env_variants = 12;
  return o;
}

std::string sweep_bytes(const Stg& spec, const SweepOptions& opts,
                        int threads) {
  FlowContext ctx;
  ctx.budget.corpus = threads;
  return to_sweep_json(run_sweep("mmu", spec, opts, ctx));
}

TEST(SweepDeterminism, ReportBytesAreThreadIndependent) {
  const Stg spec = mmu_spec();
  const SweepOptions opts = small_opts();
  const std::string t1 = sweep_bytes(spec, opts, 1);
  const std::string t8 = sweep_bytes(spec, opts, 8);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t8, t1);
}

TEST(SweepDeterminism, ShardedMergeMatchesDirectRunBytes) {
  const Stg spec = mmu_spec();
  const SweepOptions opts = small_opts();
  const std::string direct = sweep_bytes(spec, opts, 4);

  // Three shard processes at deliberately mixed thread counts, each
  // round-tripped through its JSON serialization — exactly what the CLI
  // merge path sees.
  const int threads[] = {1, 8, 2};
  std::vector<SweepShard> shards;
  for (std::size_t id = 0; id < 3; ++id) {
    FlowContext ctx;
    ctx.budget.corpus = threads[id];
    const SweepShard s = run_sweep_shard("mmu", spec, id, 3, opts, ctx);
    shards.push_back(parse_shard_json<SweepOutcome>(to_shard_json(s)));
  }
  EXPECT_EQ(to_sweep_json(merge_sweep_shards(shards)), direct);
}

TEST(SweepDeterminism, ReportContentIsSane) {
  const Stg spec = mmu_spec();
  const SweepOptions opts = small_opts();
  const SweepReport r = run_sweep("mmu", spec, opts, {});
  EXPECT_EQ(r.spec, "mmu");
  EXPECT_EQ(r.mode, "rt");
  EXPECT_EQ(r.fingerprint, sweep_fingerprint("mmu", opts));
  EXPECT_GT(r.nets, 0);
  EXPECT_GT(r.constraints, 0);  // the RT flow back-annotates assumptions
  EXPECT_GT(r.golden_cycles, 0);
  EXPECT_EQ(r.fault_total, 2 * r.nets);  // every net, both polarities
  EXPECT_EQ(r.delay_total, opts.delay_variants);
  EXPECT_EQ(r.env_total, opts.env_variants);
  EXPECT_EQ(r.outcomes.size(), static_cast<std::size_t>(
                                   r.fault_total + r.delay_total +
                                   r.env_total));
  EXPECT_EQ(r.fault_detected + static_cast<int>(r.undetected.size()),
            r.fault_total);
  // The extreme corners of the delay grid break RT assumptions — the
  // whole point of stressing them.
  EXPECT_GT(r.delay_broken, 0);
  EXPECT_EQ(r.breaking_windows.size(),
            static_cast<std::size_t>(r.delay_broken));
  EXPECT_EQ(r.coverage_x100(),
            static_cast<int>((100LL * r.fault_detected) / r.fault_total));
}

TEST(SweepDeterminism, MergeRejectsBrokenShardSets) {
  const Stg spec = mmu_spec();
  SweepOptions opts = small_opts();
  opts.faults = false;  // keep the error-path fixtures fast
  opts.delay_variants = 6;
  opts.env_variants = 3;
  const SweepShard s0 = run_sweep_shard("mmu", spec, 0, 2, opts, {});
  const SweepShard s1 = run_sweep_shard("mmu", spec, 1, 2, opts, {});

  EXPECT_THROW(merge_sweep_shards({}), Error);
  EXPECT_THROW(merge_sweep_shards({s0}), Error);          // incomplete
  EXPECT_THROW(merge_sweep_shards({s0, s0}), Error);      // duplicate id
  SweepShard other = s1;
  other.fingerprint = "0000000000000000";                 // foreign sweep
  EXPECT_THROW(merge_sweep_shards({s0, other}), Error);
  ASSERT_NO_THROW(merge_sweep_shards({s1, s0}));          // order-free
}

}  // namespace
}  // namespace rtcad
