#include "flow/sweep.hpp"

#include <cmath>
#include <utility>

#include "flow/json.hpp"
#include "flow/pipeline.hpp"
#include "sim/sim.hpp"
#include "sim/stgenv.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rtcad {
namespace {

const char* mode_name(FlowMode mode) {
  return mode == FlowMode::kRelativeTiming ? "rt" : "si";
}

/// Integer delay composition: every sampled window is llround(base) *
/// percent / 100, floored at 1 ps — locale- and FP-rounding-stable, so
/// the variant targets (which the golden artifact pins) are too.
long long scaled_ps(double base_ps, int percent_x100) {
  const long long v = std::llround(base_ps) * percent_x100 / 100;
  return v < 1 ? 1 : v;
}

void class_window(const TimedDelays& d, SignalKind kind, long long* lo,
                  long long* hi) {
  switch (kind) {
    case SignalKind::kInput:
      *lo = std::llround(d.input_min_ps);
      *hi = std::llround(d.input_max_ps);
      return;
    case SignalKind::kOutput:
      *lo = std::llround(d.output_min_ps);
      *hi = std::llround(d.output_max_ps);
      return;
    case SignalKind::kInternal:
      *lo = std::llround(d.internal_min_ps);
      *hi = std::llround(d.internal_max_ps);
      return;
  }
  *lo = *hi = 0;
}

/// Everything the per-variant workers share, read-only.
struct SweepSetup {
  FlowResult flow;
  StateGraph sg;
  GoldenRun golden;
  std::vector<RtConstraint> constraints;
  std::vector<SweepVariant> variants;
};

/// The deterministic variant list: faults in net-id order, then the
/// seeded delay grid, then the seeded environment phases. This order IS
/// the report order and the sharding key, so it must depend only on
/// (netlist, opts).
std::vector<SweepVariant> make_variants(const Netlist& netlist,
                                        const SweepOptions& opts) {
  std::vector<SweepVariant> variants;
  if (opts.faults) {
    for (const Fault& f : enumerate_faults(netlist)) {
      SweepVariant v;
      v.kind = SweepKind::kFault;
      v.fault = f;
      v.target = strprintf("%s/%d", netlist.net(f.net).name.c_str(),
                           f.stuck_value ? 1 : 0);
      variants.push_back(std::move(v));
    }
  }

  std::vector<int> menu = opts.delay_scales_x100;
  if (menu.empty()) menu.push_back(100);
  Rng rng(opts.seed);
  const auto pick = [&]() -> int {
    return menu[static_cast<std::size_t>(rng.below(menu.size()))];
  };

  const TimedDelays base;
  for (int i = 0; i < opts.delay_variants; ++i) {
    const int s_int = pick(), s_out = pick(), s_in = pick();
    SweepVariant v;
    v.kind = SweepKind::kDelay;
    v.delays.internal_min_ps =
        static_cast<double>(scaled_ps(base.internal_min_ps, s_int));
    v.delays.internal_max_ps =
        static_cast<double>(scaled_ps(base.internal_max_ps, s_int));
    v.delays.output_min_ps =
        static_cast<double>(scaled_ps(base.output_min_ps, s_out));
    v.delays.output_max_ps =
        static_cast<double>(scaled_ps(base.output_max_ps, s_out));
    v.delays.input_min_ps =
        static_cast<double>(scaled_ps(base.input_min_ps, s_in));
    v.delays.input_max_ps =
        static_cast<double>(scaled_ps(base.input_max_ps, s_in));
    v.target = strprintf(
        "int=%lld:%lld out=%lld:%lld in=%lld:%lld",
        static_cast<long long>(v.delays.internal_min_ps),
        static_cast<long long>(v.delays.internal_max_ps),
        static_cast<long long>(v.delays.output_min_ps),
        static_cast<long long>(v.delays.output_max_ps),
        static_cast<long long>(v.delays.input_min_ps),
        static_cast<long long>(v.delays.input_max_ps));
    variants.push_back(std::move(v));
  }

  for (int i = 0; i < opts.env_variants; ++i) {
    const std::uint64_t phase = 1 + rng.below(std::uint64_t{1} << 16);
    const int s_env = pick();
    SweepVariant v;
    v.kind = SweepKind::kEnv;
    v.env = opts.fault.env;
    v.env.seed = phase;
    v.env.input_delay_min_ps = static_cast<double>(
        scaled_ps(opts.fault.env.input_delay_min_ps, s_env));
    v.env.input_delay_max_ps = static_cast<double>(
        scaled_ps(opts.fault.env.input_delay_max_ps, s_env));
    v.target = strprintf("seed=%llu in=%lld:%lld",
                         static_cast<unsigned long long>(phase),
                         static_cast<long long>(v.env.input_delay_min_ps),
                         static_cast<long long>(v.env.input_delay_max_ps));
    variants.push_back(std::move(v));
  }
  return variants;
}

SweepSetup prepare_sweep(const std::string& name, const Stg& spec,
                         const SweepOptions& opts, const FlowContext& ctx) {
  // One flow run produces the base scenario: the synthesized netlist the
  // protocol drives and the back-annotated constraints the delay grid
  // stresses. A sweep always needs the netlist, so the stop point is
  // pinned to the synth stage regardless of what the caller's FlowOptions
  // said.
  FlowOptions flow_opts = opts.flow;
  flow_opts.stop_after.clear();
  const PipelineResult run =
      FlowPipeline::standard(flow_opts.mode).run(spec, flow_opts, ctx);
  if (!run.ok()) std::rethrow_exception(run.exception);

  SweepSetup setup;
  setup.flow = run.flow;
  if (setup.flow.rt) setup.constraints = setup.flow.rt->constraints;

  // The delay variants reduce the FULL state graph of the (post-encode)
  // spec — the metric-timed baseline of Section 3, rebuilt here because
  // the flow does not keep its graph alive.
  SgOptions sg_opts = flow_opts.sg;
  sg_opts.threads = ThreadBudget::resolve(ctx.budget.graph, sg_opts.threads);
  sg_opts.cancel = ctx.cancel;
  setup.sg = StateGraph::build(setup.flow.spec, sg_opts);

  // The protocol environment counts cycles on an output signal; a spec
  // without one cannot be protocol-driven (recoverable input error, not
  // the contract abort StgEnvironment would raise).
  bool has_output = false;
  for (int s = 0; s < setup.flow.spec.num_signals(); ++s)
    if (setup.flow.spec.signal(s).kind == SignalKind::kOutput) {
      has_output = true;
      break;
    }
  if (!has_output)
    throw SpecError(strprintf(
        "sweep: spec '%s' has no output signals; the protocol "
        "environment needs an output to observe cycles on",
        name.c_str()));

  setup.golden = golden_protocol_run(
      setup.flow.netlist(), setup.flow.spec, opts.fault);
  if (setup.golden.cycles <= 0)
    throw Error(strprintf(
        "sweep: the fault-free protocol run of '%s' made no progress "
        "(0 cycles in %lld ps); a sweep needs a working base scenario",
        name.c_str(), static_cast<long long>(opts.fault.sim_time_ps)));

  setup.variants = make_variants(setup.flow.netlist(), opts);
  return setup;
}

SweepOutcome evaluate_variant(const SweepSetup& setup, const SweepVariant& v,
                              const SweepOptions& opts) {
  SweepOutcome out;
  out.kind = to_string(v.kind);
  out.target = v.target;
  switch (v.kind) {
    case SweepKind::kFault: {
      const FaultOutcome fo =
          simulate_fault(setup.flow.netlist(), setup.flow.spec, v.fault,
                         setup.golden, opts.fault);
      out.ok = fo.detected;  // detected == testable == no DFT gap
      out.outcome = to_string(fo.cause);
      out.metric = fo.cycles;
      return out;
    }
    case SweepKind::kDelay: {
      const TimedReduceResult reduced = timed_reduce(setup.sg, v.delays);
      // A back-annotated constraint "before < after" is guaranteed
      // violated under this window assignment when the after-edge's
      // signal always completes before the before-edge's signal can even
      // start: max(after) < min(before).
      int broken = 0;
      for (const RtConstraint& c : setup.constraints) {
        long long before_lo = 0, before_hi = 0, after_lo = 0, after_hi = 0;
        class_window(v.delays,
                     setup.flow.spec.signal(c.before.signal).kind,
                     &before_lo, &before_hi);
        class_window(v.delays,
                     setup.flow.spec.signal(c.after.signal).kind,
                     &after_lo, &after_hi);
        if (after_hi < before_lo) ++broken;
      }
      out.ok = broken == 0;
      out.outcome = broken == 0 ? "holds" : strprintf("breaks:%d", broken);
      out.metric = reduced.edges_removed;
      return out;
    }
    case SweepKind::kEnv: {
      Simulator sim(setup.flow.netlist());
      StgEnvironment env(setup.flow.spec, sim, v.env);
      env.start();
      sim.run(opts.fault.sim_time_ps);
      out.metric = env.cycles();
      if (!env.conforms())
        out.outcome = "violation";
      else if (env.deadlocked())
        out.outcome = "deadlock";
      else if (env.cycles() == 0)
        out.outcome = "stalled";
      else
        out.outcome = "conforms";
      out.ok = out.outcome == "conforms";
      return out;
    }
  }
  return out;
}

/// Aggregate enumeration-ordered outcomes into the report. The direct
/// runner is the merge of its one shard, so every report is built here.
SweepReport finalize_report(const std::string& fingerprint,
                            const SweepHeader& header,
                            std::vector<SweepOutcome> outcomes) {
  SweepReport r;
  static_cast<SweepHeader&>(r) = header;
  r.fingerprint = fingerprint;
  r.outcomes = std::move(outcomes);
  for (const SweepOutcome& o : r.outcomes) {
    if (o.kind == "fault") {
      ++r.fault_total;
      if (o.ok)
        ++r.fault_detected;
      else
        r.undetected.push_back(o.target);
    } else if (o.kind == "delay") {
      ++r.delay_total;
      if (!o.ok) {
        ++r.delay_broken;
        r.breaking_windows.push_back(o.target);
      }
    } else if (o.kind == "env") {
      ++r.env_total;
      if (o.ok) ++r.env_conforming;
    }
  }
  return r;
}

}  // namespace

const char* to_string(SweepKind kind) {
  switch (kind) {
    case SweepKind::kFault: return "fault";
    case SweepKind::kDelay: return "delay";
    case SweepKind::kEnv: return "env";
  }
  return "?";
}

std::string sweep_fingerprint(const std::string& name,
                              const SweepOptions& opts) {
  // Shards cut from different specs, grids or report-shaping flags must
  // never merge.
  Fingerprint fp;
  fp.mix(name);
  fp.mix(mode_name(opts.flow.mode));
  fp.mix(std::to_string(opts.flow.sg.max_states));
  fp.mix(std::to_string(std::llround(opts.fault.sim_time_ps)));
  fp.mix(std::to_string(opts.fault.cycle_fraction_x100));
  fp.mix(std::to_string(opts.fault.env.seed));
  fp.mix(std::to_string(std::llround(opts.fault.env.input_delay_min_ps)));
  fp.mix(std::to_string(std::llround(opts.fault.env.input_delay_max_ps)));
  fp.mix(opts.faults ? "1" : "0");
  fp.mix(std::to_string(opts.delay_variants));
  fp.mix(std::to_string(opts.env_variants));
  fp.mix(std::to_string(opts.seed));
  for (const int scale : opts.delay_scales_x100) fp.mix(std::to_string(scale));
  return fp.hex();
}

SweepReport run_sweep(const std::string& name, const Stg& spec,
                      const SweepOptions& opts, const FlowContext& ctx) {
  return merge_sweep_shards({run_sweep_shard(name, spec, 0, 1, opts, ctx)});
}

SweepShard run_sweep_shard(const std::string& name, const Stg& spec,
                           std::size_t shard, std::size_t of,
                           const SweepOptions& opts, const FlowContext& ctx) {
  const SweepSetup setup = prepare_sweep(name, spec, opts, ctx);
  SweepShard out;
  out.shard = shard;
  out.of = of;
  out.total = setup.variants.size();
  out.fingerprint = sweep_fingerprint(name, opts);
  out.header = SweepHeader{name,
                           mode_name(opts.flow.mode),
                           setup.flow.netlist().num_nets(),
                           static_cast<long long>(setup.constraints.size()),
                           static_cast<long long>(setup.golden.cycles),
                           setup.golden.ok()};
  const std::vector<std::size_t> indices = shard_indices(out.total, shard, of);
  out.items.resize(indices.size());
  fan_out(indices.size(), ctx, [&](std::size_t k) {
    ctx.check_cancelled("sweep variant");
    out.items[k] = {indices[k],
                    evaluate_variant(setup, setup.variants[indices[k]], opts)};
  });
  return out;
}

std::string to_sweep_json(const SweepReport& r) {
  std::string out = "{\n";
  out += strprintf("  \"schema\": %d,\n", kSweepSchema);
  out += "  \"kind\": \"sweep\",\n";
  out += "  \"spec\": ";
  append_json_string(&out, r.spec);
  out += ",\n";
  out += "  \"mode\": \"" + r.mode + "\",\n";
  out += "  \"fingerprint\": \"" + r.fingerprint + "\",\n";
  out += strprintf("  \"nets\": %d,\n", r.nets);
  out += strprintf("  \"constraints\": %lld,\n", r.constraints);
  out += strprintf("  \"golden\": {\"cycles\": %lld, \"ok\": %s},\n",
                   r.golden_cycles, r.golden_ok ? "true" : "false");
  out += strprintf("  \"variants\": %zu,\n", r.outcomes.size());
  out += strprintf(
      "  \"faults\": {\"total\": %d, \"detected\": %d, "
      "\"coverage_x100\": %d, \"undetected\": [",
      r.fault_total, r.fault_detected, r.coverage_x100());
  for (std::size_t i = 0; i < r.undetected.size(); ++i) {
    if (i) out += ", ";
    append_json_string(&out, r.undetected[i]);
  }
  out += "]},\n";
  out += strprintf("  \"delays\": {\"total\": %d, \"breaking\": %d, "
                   "\"windows\": [",
                   r.delay_total, r.delay_broken);
  for (std::size_t i = 0; i < r.breaking_windows.size(); ++i) {
    if (i) out += ", ";
    append_json_string(&out, r.breaking_windows[i]);
  }
  out += "]},\n";
  out += strprintf("  \"env\": {\"total\": %d, \"conforming\": %d},\n",
                   r.env_total, r.env_conforming);
  out += "  \"items\": [\n";
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    out += strprintf("    {\"index\": %zu, \"record\": ", i);
    out += ShardFormat<SweepOutcome>::write_record(r.outcomes[i]);
    out += i + 1 < r.outcomes.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

void ShardFormat<SweepOutcome>::write_header(std::string* out,
                                             const SweepShard& s) {
  const SweepHeader& h = s.header;
  *out += "  \"spec\": ";
  append_json_string(out, h.spec);
  *out += ",\n";
  *out += "  \"mode\": \"" + h.mode + "\",\n";
  *out += strprintf("  \"nets\": %d,\n", h.nets);
  *out += strprintf("  \"constraints\": %lld,\n", h.constraints);
  *out += strprintf("  \"golden\": {\"cycles\": %lld, \"ok\": %s},\n",
                    h.golden_cycles, h.golden_ok ? "true" : "false");
}

SweepHeader ShardFormat<SweepOutcome>::read_header(const Json& root,
                                                   const std::string& where) {
  SweepHeader h;
  h.spec = json_require_string(root, "spec", where);
  h.mode = json_require_string(root, "mode", where);
  h.nets = static_cast<int>(json_require_int(root, "nets", where));
  h.constraints = json_require_int(root, "constraints", where);
  const Json& golden = json_require(root, "golden", where);
  const std::string golden_where = where + ": golden";
  h.golden_cycles = json_require_int(golden, "cycles", golden_where);
  h.golden_ok = json_require_bool(golden, "ok", golden_where);
  return h;
}

std::string ShardFormat<SweepOutcome>::write_record(const SweepOutcome& o) {
  std::string out = "{\"kind\": ";
  append_json_string(&out, o.kind);
  out += ", \"target\": ";
  append_json_string(&out, o.target);
  out += strprintf(", \"ok\": %s, \"outcome\": ", o.ok ? "true" : "false");
  append_json_string(&out, o.outcome);
  out += strprintf(", \"metric\": %lld}", o.metric);
  return out;
}

SweepOutcome ShardFormat<SweepOutcome>::read_record(const Json& rec,
                                                    const std::string& where) {
  SweepOutcome o;
  o.kind = json_require_string(rec, "kind", where);
  o.target = json_require_string(rec, "target", where);
  o.ok = json_require_bool(rec, "ok", where);
  o.outcome = json_require_string(rec, "outcome", where);
  o.metric = json_require_int(rec, "metric", where);
  return o;
}

SweepReport merge_sweep_shards(const std::vector<SweepShard>& shards) {
  std::vector<SweepOutcome> outcomes = merge_records(shards);
  return finalize_report(shards[0].fingerprint, shards[0].header,
                         std::move(outcomes));
}

}  // namespace rtcad
