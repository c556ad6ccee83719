// Massively parallel scenario sweeps — the ROADMAP's "robustness
// battery" workload. One spec is run through the flow ONCE, then fanned
// out over thousands of generated variants:
//
//   * fault variants    — every single-stuck-at site of the synthesized
//                         netlist (dft/faultsim), driven by the spec's
//                         own protocol per the RAPPID test methodology;
//   * delay variants    — absolute delay-window assignments sampled
//                         deterministically from a seeded grid and
//                         pushed through metric-timed reduction
//                         (timed/timedreduce), stress-testing the
//                         back-annotated RT constraints;
//   * environment variants — phase offsets of the protocol environment
//                         (sim/stgenv seeds and input-delay windows).
//
// Every variant is one unit of work of the ordered-work engine
// (flow/shard.hpp), written to its own slot, so the aggregated
// SweepReport — coverage, the undetected-fault list, the delay windows
// that break an RT assumption, and the per-variant outcome records — is
// byte-identical at any thread count. A sweep can also be cut into shards
// (variant index ≡ shard mod of, the batch shard convention) whose merge
// is byte-identical to the single-process report; `specs/golden_sweep.json`
// pins the artifact in CI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dft/faultsim.hpp"
#include "flow/context.hpp"
#include "flow/rtflow.hpp"
#include "flow/shard.hpp"
#include "timed/timedreduce.hpp"

namespace rtcad {

/// Version of the sweep report schema this build writes.
inline constexpr int kSweepSchema = 1;

struct SweepOptions {
  /// Flow settings for the one flow run that produces the netlist and the
  /// back-annotated constraints. `stop_after` is ignored: a sweep always
  /// runs through synthesis (it needs the netlist).
  FlowOptions flow;
  /// Protocol-drive settings shared by the fault and environment
  /// variants (sim horizon, base environment, watchdog cutoff).
  FaultSimOptions fault;
  bool faults = true;     ///< enumerate stuck-at variants
  int delay_variants = 96;
  int env_variants = 64;
  /// Seed of the variant grid sampler (delay scales, environment phases).
  std::uint64_t seed = 1;
  /// Delay-scale menu, percent of the TimedDelays defaults; each delay
  /// variant picks one factor per signal class.
  std::vector<int> delay_scales_x100 = {12, 25, 50, 100, 200, 400};
};

/// What kind of variation a variant applies to the base scenario.
enum class SweepKind { kFault, kDelay, kEnv };
const char* to_string(SweepKind kind);

/// One generated scenario. Exactly one of the payload fields is
/// meaningful, selected by `kind`; `target` is the stable human-readable
/// identity used in reports ("net/1", "int=5:11 out=7:17 in=18:56",
/// "seed=41 in=90:160").
struct SweepVariant {
  SweepKind kind = SweepKind::kFault;
  Fault fault;
  TimedDelays delays;
  StgEnvOptions env;
  std::string target;
};

/// One variant's result. `ok` always means "no robustness gap": a fault
/// variant is ok when the fault is DETECTED (testable), a delay variant
/// when no back-annotated RT constraint is guaranteed-violated, an
/// environment variant when the run conforms, makes progress and does not
/// deadlock. `outcome` is a stable word ("violation", "deadlock", "slow",
/// "undetected", "holds", "breaks:N", "conforms", "stalled"); `metric` is
/// the kind's headline statistic (protocol cycles for fault/env variants,
/// edges removed by timed reduction for delay variants).
struct SweepOutcome {
  std::string kind;
  std::string target;
  bool ok = false;
  std::string outcome;
  long long metric = 0;
};

/// The facts about the swept base scenario that every shard of one sweep
/// repeats in its header and the report carries.
struct SweepHeader {
  std::string spec;         ///< spec name as given to the runner
  std::string mode;         ///< "rt" or "si"
  int nets = 0;             ///< nets of the swept netlist
  long long constraints = 0;  ///< back-annotated RT constraints stressed
  /// The fault-free baseline: protocol cycles it achieved, and whether it
  /// conformed without deadlock. When golden_ok is false (choice-heavy
  /// specs the scripted environment cannot drive cleanly), fault detection
  /// degrades to the throughput watchdog alone and the coverage number
  /// must be read accordingly — the report says so instead of claiming
  /// vacuous 100% coverage.
  long long golden_cycles = 0;
  bool golden_ok = false;
};

/// Aggregated sweep result. `outcomes` is in variant-enumeration order —
/// faults (net-id order, stuck-0 then stuck-1), then delay variants, then
/// environment variants — regardless of thread count or sharding.
struct SweepReport : SweepHeader {
  std::string fingerprint;  ///< sweep_fingerprint(spec, opts)
  int fault_total = 0;
  int fault_detected = 0;
  int delay_total = 0;
  int delay_broken = 0;
  int env_total = 0;
  int env_conforming = 0;
  std::vector<std::string> undetected;        ///< fault targets, untestable
  std::vector<std::string> breaking_windows;  ///< delay targets, RT broken
  std::vector<SweepOutcome> outcomes;

  /// Fault coverage in truncated hundredths (see FaultSimResult).
  int coverage_x100() const {
    return fault_total == 0
               ? 100
               : static_cast<int>((100LL * fault_detected) / fault_total);
  }
};

/// Sweep shard files: the engine's envelope (flow/shard.hpp) with kind
/// "sweep-shard", the variant count as "variants", and the SweepHeader
/// fields after the fingerprint.
template <>
struct ShardFormat<SweepOutcome> {
  static constexpr const char* kKind = "sweep-shard";
  static constexpr const char* kTotal = "variants";
  static constexpr const char* kUnit = "sweep";
  using Header = SweepHeader;
  static void write_header(std::string* out, const Shard<SweepOutcome>& s);
  static Header read_header(const Json& root, const std::string& where);
  static std::string write_record(const SweepOutcome& outcome);
  static SweepOutcome read_record(const Json& rec, const std::string& where);
};

/// One shard's worth of a sweep: outcomes at variant indices ≡ shard
/// (mod of), in increasing index order.
using SweepShard = Shard<SweepOutcome>;

/// Identity of a sweep: FNV-1a over the spec name and every
/// report-shaping option. Shards from different specs, grids or flags
/// must never merge.
std::string sweep_fingerprint(const std::string& name,
                              const SweepOptions& opts);

/// Run the full sweep. The corpus level of `ctx.budget` is the variant
/// worker count; the graph level applies to the one state-graph build.
/// Throws (SpecError & friends) when the flow itself fails, or Error when
/// the fault-free protocol run makes no progress — a sweep of a
/// non-working base scenario would be meaningless.
SweepReport run_sweep(const std::string& name, const Stg& spec,
                      const SweepOptions& opts = {},
                      const FlowContext& ctx = {});

/// Run one shard of the sweep (variant index ≡ shard mod of). Every shard
/// process recomputes the same deterministic variant list, exactly like
/// batch shards recompute the corpus.
SweepShard run_sweep_shard(const std::string& name, const Stg& spec,
                           std::size_t shard, std::size_t of,
                           const SweepOptions& opts = {},
                           const FlowContext& ctx = {});

/// Canonical JSON rendering of the report. Stable byte-for-byte across
/// thread counts, locales and platforms — golden-diffed in CI.
std::string to_sweep_json(const SweepReport& report);

/// Reassemble a complete shard set into the report the single-process
/// sweep would produce (byte-identical through to_sweep_json). Throws on
/// incomplete, duplicated or mismatched shard sets.
SweepReport merge_sweep_shards(const std::vector<SweepShard>& shards);

}  // namespace rtcad
