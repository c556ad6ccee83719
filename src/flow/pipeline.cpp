#include "flow/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "rt/reduce.hpp"
#include "util/strings.hpp"

namespace rtcad {

const std::vector<StageInfo>& stage_registry() {
  // Ranks are the Figure 2 order; "synth" shares rank 5 with the two
  // mode-specific synthesis stages so `--to synth` cuts a mixed-mode
  // batch at one consistent line.
  static const std::vector<StageInfo> kRegistry = {
      {"specification", 0, true, true,
       "parse + validate the STG specification"},
      {"reachability", 1, true, true,
       "state-graph build and hazard/CSC analysis"},
      {"encode", 2, true, true, "timing-aware state encoding (CSC)"},
      {"generate-assumptions", 3, true, false,
       "relative-timing assumption generation"},
      {"reduce", 4, true, false, "lazy state graph (concurrency reduction)"},
      {"synth-rt", 5, true, false, "RT logic synthesis + back-annotation"},
      {"synth-si", 5, false, true, "speed-independent logic synthesis"},
      {"synth", 5, true, true, "alias for the mode's synthesis stage"},
      {"map", 6, true, true,
       "technology mapping + constraint lowering to nets"},
      {"size", 7, true, true, "transistor sizing for race margins"},
      {"verify-netlist", 8, true, true,
       "conformance check of the mapped netlist against the spec"},
  };
  return kRegistry;
}

int stage_rank(const std::string& name) {
  for (const StageInfo& s : stage_registry())
    if (name == s.name) return s.rank;
  return -1;
}

namespace {

/// Rank of the default stop point: the mode's synthesis stage.
constexpr int kSynthRank = 5;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Per-round candidate-search statistics as "evaluated/feasible" pairs,
/// e.g. "56/12, 90/3". Schedule-independent (the candidate set and each
/// candidate's score depend only on the spec), so safe inside the
/// canonical golden-diffed JSON at any --csc-threads value.
std::string candidate_stats(const EncodeResult& enc) {
  std::string s;
  for (const EncodeRoundStats& r : enc.rounds) {
    if (!s.empty()) s += ", ";
    s += strprintf("%d/%d", r.candidates, r.feasible);
  }
  return s.empty() ? "none" : s;
}

/// The blackboard every stage reads and writes. Options are the
/// *effective* ones — the FlowContext's thread budget and cancel token
/// already applied — so stage bodies look exactly like the historical
/// monolithic driver.
struct PipelineState {
  FlowOptions opts;           ///< effective flow options
  EncodeOptions encode_opts;  ///< derived: flow-wide cap + thread contract
  FlowResult result;          ///< legacy result being assembled
  std::optional<StateGraph> sg;
  std::optional<SgAnalysis> analysis;
  RtSynthOptions rt_opts;     ///< assumptions/overrides accumulate here
  std::optional<ReduceResult> reduction;
  bool reduction_from_encode = false;
  bool assumptions_from_encode = false;
};

/// Append a legacy FlowStage line — still the canonical JSON vocabulary —
/// and mirror it as the structured trace's summary when the trace has
/// none yet (the first line of a stage is its headline).
void legacy(PipelineState* st, StageTrace* trace, const std::string& name,
            const std::string& detail) {
  st->result.stages.push_back(FlowStage{name, detail});
  if (trace->summary.empty()) trace->summary = detail;
}

void metric(StageTrace* trace, const char* key, long long value) {
  trace->metrics.push_back(StageMetric{key, value});
}

// --- stage bodies -----------------------------------------------------------
// Each body is the corresponding block of the historical run_flow, moved
// verbatim: the golden corpus byte-diffs the equivalence.

void stage_specification(const Stg& input, PipelineState* st,
                         StageTrace* trace) {
  st->result.spec = input;
  st->result.spec.validate();
  const Stg& spec = st->result.spec;
  metric(trace, "signals", spec.num_signals());
  metric(trace, "transitions", spec.num_transitions());
  metric(trace, "places", spec.num_places());
  legacy(st, trace, "specification",
         strprintf("%d signals, %d transitions, %d places", spec.num_signals(),
                   spec.num_transitions(), spec.num_places()));
}

void stage_reachability(PipelineState* st, StageTrace* trace) {
  st->sg.emplace(StateGraph::build(st->result.spec, st->opts.sg));
  StateGraph& sg = *st->sg;
  st->result.states = sg.num_states();
  st->analysis.emplace(analyze(sg));
  const SgAnalysis& analysis = *st->analysis;
  metric(trace, "states", sg.num_states());
  metric(trace, "edges", sg.num_edges());
  metric(trace, "levels", sg.num_levels());
  metric(trace, "peak_frontier", sg.peak_frontier());
  metric(trace, "persistency_violations",
         static_cast<long long>(analysis.persistency.size()));
  metric(trace, "csc_conflicts",
         static_cast<long long>(analysis.csc_conflicts.size()));
  // Memory gauge for big graphs: marking-arena bytes plus CSR bytes (both
  // exact graph properties, identical at any thread count). Trace-only —
  // the canonical JSON below must not change.
  metric(trace, "arena_bytes", static_cast<long long>(sg.arena_bytes()));
  metric(trace, "csr_bytes", static_cast<long long>(sg.csr_bytes()));
  // Level stats come from the builder's BFS and are a property of the graph,
  // not of the schedule: identical at every sg.threads setting, so they are
  // safe inside the canonical (golden-diffed) JSON.
  legacy(st, trace, "reachability",
         strprintf("%d states, %d edges, %d levels, peak frontier %d, "
                   "%zu persistency violations, %zu CSC conflicts",
                   sg.num_states(), sg.num_edges(), sg.num_levels(),
                   sg.peak_frontier(), analysis.persistency.size(),
                   analysis.csc_conflicts.size()));
  if (!analysis.speed_independent())
    throw SpecError("specification is not output-persistent: " +
                    describe(sg, analysis.persistency.front()));
}

/// CSC resolution. In RT mode this first probes whether timing assumptions
/// alone restore CSC (keeping the reduction it computed for the probe, so
/// the graph is never reduced twice), escalating the delay model before
/// paying for a state signal; only then does it fall back to state-signal
/// insertion. Either insertion path rebuilds the state graph for the
/// augmented specification.
void stage_encode(PipelineState* st, StageTrace* trace) {
  const FlowOptions& opts = st->opts;
  if (st->analysis->has_csc()) {
    trace->status = StageStatus::kSkipped;
    trace->summary = "CSC already holds; no encoding needed";
    return;
  }
  StateGraph& sg = *st->sg;
  if (opts.mode == FlowMode::kRelativeTiming) {
    // Conflicts may disappear once timing prunes the straggler states.
    std::vector<RtAssumption> assumptions = opts.rt.user_assumptions;
    for (auto& a : generate_assumptions(sg, opts.rt.generate))
      assumptions.push_back(a);
    ReduceResult red = reduce(sg, assumptions);
    SgAnalysis reduced_analysis = analyze(red.sg);
    if (reduced_analysis.has_csc()) {
      metric(trace, "states_reduced", red.sg.num_states());
      legacy(st, trace, "state encoding",
             strprintf("CSC holds on the reduced graph (%d -> %d states); "
                       "no state signal needed",
                       sg.num_states(), red.sg.num_states()));
      st->rt_opts.assumptions_override = std::move(assumptions);
      st->reduction = std::move(red);
      st->reduction_from_encode = st->assumptions_from_encode = true;
    }
    if (!reduced_analysis.has_csc() && !opts.rt.generate.ring_environment) {
      // Escalate the delay model before paying for a state signal: the
      // ring-environment rules (cycle-start, head-start) target exactly
      // the straggler states that keep codes ambiguous on decoupled
      // specs like the paper's FIFO. Adopted only if the escalated
      // reduction restores CSC without deadlock or persistency loss.
      GenerateOptions escalated = opts.rt.generate;
      escalated.ring_environment = true;
      std::vector<RtAssumption> strong = opts.rt.user_assumptions;
      for (auto& a : generate_assumptions(sg, escalated))
        strong.push_back(a);
      ReduceResult red2 = reduce(sg, strong);
      const SgAnalysis escalated_analysis = analyze(red2.sg);
      if (red2.deadlocked_states == 0 && escalated_analysis.has_csc() &&
          escalated_analysis.speed_independent()) {
        st->rt_opts.generate = escalated;
        st->rt_opts.assumptions_override = std::move(strong);
        reduced_analysis = escalated_analysis;
        metric(trace, "states_reduced", red2.sg.num_states());
        metric(trace, "ring_escalated", 1);
        legacy(st, trace, "state encoding",
               strprintf("CSC holds after ring-environment escalation "
                         "(%d -> %d states); no state signal needed",
                         sg.num_states(), red2.sg.num_states()));
        st->reduction = std::move(red2);
        st->reduction_from_encode = st->assumptions_from_encode = true;
      }
    }
    if (!reduced_analysis.has_csc()) {
      const EncodeResult enc = solve_csc(st->result.spec, st->encode_opts);
      if (!enc.solved)
        throw SpecError(
            "CSC unsolvable: neither timing assumptions nor state-signal "
            "insertion resolve the conflicts");
      st->result.spec = enc.stg;
      st->result.state_signals_added = enc.signals_added;
      st->sg.emplace(StateGraph::build(st->result.spec, opts.sg));
      metric(trace, "state_signals", enc.signals_added);
      metric(trace, "rounds", static_cast<long long>(enc.rounds.size()));
      legacy(st, trace, "state encoding",
             strprintf("inserted %d state signal(s); %d states; "
                       "candidates evaluated/feasible per round: %s",
                       enc.signals_added, st->sg->num_states(),
                       candidate_stats(enc).c_str()));
    }
  } else {
    const EncodeResult enc = solve_csc(st->result.spec, st->encode_opts);
    if (!enc.solved)
      throw SpecError("CSC conflicts unsolvable by state-signal insertion "
                      "under speed-independent semantics");
    st->result.spec = enc.stg;
    st->result.state_signals_added = enc.signals_added;
    st->sg.emplace(StateGraph::build(st->result.spec, opts.sg));
    metric(trace, "state_signals", enc.signals_added);
    metric(trace, "rounds", static_cast<long long>(enc.rounds.size()));
    legacy(st, trace, "state encoding",
           strprintf("inserted %d state signal(s); %d states; "
                     "candidates evaluated/feasible per round: %s",
                     enc.signals_added, st->sg->num_states(),
                     candidate_stats(enc).c_str()));
  }
}

/// Assemble the assumption set the RT synthesizer will run under: user
/// assumptions first (they may unlock more automatic ones), then the
/// delay-model generation on the (possibly rebuilt) state graph — unless
/// the encode stage already validated a merged set during its feasibility
/// probe, which is reused untouched.
void stage_generate_assumptions(PipelineState* st, StageTrace* trace) {
  if (!st->rt_opts.assumptions_override) {
    std::vector<RtAssumption> assumptions = st->rt_opts.user_assumptions;
    for (auto& a : generate_assumptions(*st->sg, st->rt_opts.generate))
      assumptions.push_back(a);
    st->rt_opts.assumptions_override = std::move(assumptions);
  } else {
    trace->status = StageStatus::kSkipped;
    trace->summary = "reusing the set validated by the encode stage";
  }
  metric(trace, "assumptions",
         static_cast<long long>(st->rt_opts.assumptions_override->size()));
  metric(trace, "user_assumptions",
         static_cast<long long>(st->rt_opts.user_assumptions.size()));
  legacy(st, trace, "assumption generation",
         strprintf("%zu assumptions (%zu user)",
                   st->rt_opts.assumptions_override->size(),
                   st->rt_opts.user_assumptions.size()));
}

/// Concurrency reduction under the merged assumption set — the "lazy
/// state graph" box. Reuses the reduction the encode stage computed while
/// probing CSC, so the graph is never reduced twice. The deadlock check
/// lives here (it is a property of the reduction, not of synthesis); the
/// message is byte-identical to the one synthesize_rt raises for direct
/// callers.
void stage_reduce(PipelineState* st, StageTrace* trace) {
  if (!st->reduction) {
    st->reduction.emplace(reduce(*st->sg, *st->rt_opts.assumptions_override));
  } else {
    trace->status = StageStatus::kSkipped;
    trace->summary = "reusing the reduction from the encode stage";
  }
  metric(trace, "states_before", st->sg->num_states());
  metric(trace, "states_after", st->reduction->sg.num_states());
  metric(trace, "deadlocked_states", st->reduction->deadlocked_states);
  legacy(st, trace, "lazy state graph",
         strprintf("%d -> %d states", st->sg->num_states(),
                   st->reduction->sg.num_states()));
  if (st->reduction->deadlocked_states > 0)
    throw SpecError("RT assumptions deadlock the specification");
}

void stage_synth_si(PipelineState* st, StageTrace* trace) {
  FlowResult& result = st->result;
  result.si = synthesize_si(*st->sg, st->opts.si);
  metric(trace, "literals", result.si->literals);
  metric(trace, "transistors", result.si->netlist.transistor_count());
  legacy(st, trace, "logic synthesis",
         strprintf("SI style, %d literals, %d transistors",
                   result.si->literals,
                   result.si->netlist.transistor_count()));
  result.states_reduced = st->sg->num_states();
}

void stage_synth_rt(PipelineState* st, StageTrace* trace) {
  FlowResult& result = st->result;
  result.rt = synthesize_rt(*st->sg, st->rt_opts, &*st->reduction);
  result.states_reduced = result.rt->states_after;
  metric(trace, "literals", result.rt->literals);
  metric(trace, "transistors", result.rt->netlist.transistor_count());
  metric(trace, "constraints",
         static_cast<long long>(result.rt->constraints.size()));
  legacy(st, trace, "logic synthesis",
         strprintf("RT style, %d literals, %d transistors",
                   result.rt->literals,
                   result.rt->netlist.transistor_count()));
  legacy(st, trace, "back-annotation",
         strprintf("%zu required timing constraints",
                   result.rt->constraints.size()));
}

// --- the Figure 2 back end ---------------------------------------------------

/// Technology map checkpoint. The synthesizers already emit standard-cell
/// netlists, so the mapped netlist is a validated COPY of the synthesis
/// result (the size stage mutates the copy's drive scales, never the
/// synthesis artifact), plus the back-annotated RT constraints lowered
/// from signal edges to net orderings — the vocabulary of every stage
/// after this one.
void stage_map(PipelineState* st, StageTrace* trace) {
  FlowResult& result = st->result;
  MapReport rep;
  rep.netlist = result.netlist();
  rep.netlist.validate();
  if (result.rt) {
    for (const RtConstraint& c : result.rt->constraints)
      rep.constraints.push_back(
          NetConstraint{result.spec.signal(c.before.signal).name, c.before.pol,
                        result.spec.signal(c.after.signal).name, c.after.pol});
  }
  rep.cells = rep.netlist.num_gates();
  rep.nets = rep.netlist.num_nets();
  rep.transistors = rep.netlist.transistor_count();
  for (int n = 0; n < rep.netlist.num_nets(); ++n)
    if (rep.netlist.net(n).is_primary_output)
      rep.depth = std::max(rep.depth, rep.netlist.logic_depth(n));
  metric(trace, "cells", rep.cells);
  metric(trace, "nets", rep.nets);
  metric(trace, "transistors", rep.transistors);
  metric(trace, "depth", rep.depth);
  metric(trace, "net_constraints",
         static_cast<long long>(rep.constraints.size()));
  legacy(st, trace, "technology mapping",
         strprintf("%d cells, %d nets, %d transistors, depth %d, "
                   "%zu net constraints",
                   rep.cells, rep.nets, rep.transistors, rep.depth,
                   rep.constraints.size()));
  result.mapped = std::move(rep);
}

/// Sum over gates of transistors x delay_scale, in hundredths — an
/// integer, so canonical output never formats a raw double.
long long width_x100_of(const Netlist& nl) {
  long long total = 0;
  for (int g = 0; g < nl.num_gates(); ++g)
    total += std::llround(
        Library::standard().cell(nl.gate(g).cell).transistors *
        nl.gate(g).delay_scale * 100.0);
  return total;
}

/// Transistor sizing (Section 6): buy each lowered constraint's race
/// margin by scaling slow-side gate delays. SI netlists carry no lowered
/// constraints, so the stage is a recorded no-op there. A constraint the
/// separation analysis cannot lower to a path pair (no common causal
/// source) makes the report `inconclusive` — a reported property, never a
/// flow failure: the netlist keeps the scales applied up to that point.
void stage_size(PipelineState* st, StageTrace* trace) {
  FlowResult& result = st->result;
  MapReport& mapped = *result.mapped;
  SizeReport rep;
  if (mapped.constraints.empty()) {
    trace->status = StageStatus::kSkipped;
    trace->summary = "no timing constraints to size for";
    rep.result.feasible = true;
  } else {
    try {
      rep.result = size_for_constraints(&mapped.netlist, result.spec,
                                        mapped.constraints, st->opts.sizing);
    } catch (const FlowCancelled&) {
      throw;
    } catch (const Error& e) {
      rep.inconclusive = true;
      rep.note = e.what();
    }
  }
  for (int g = 0; g < mapped.netlist.num_gates(); ++g)
    if (mapped.netlist.gate(g).delay_scale > 1.0) ++rep.gates_scaled;
  rep.width_x100 = width_x100_of(mapped.netlist);
  int met = 0;
  for (const bool m : rep.result.met) met += m ? 1 : 0;
  metric(trace, "constraints",
         static_cast<long long>(mapped.constraints.size()));
  metric(trace, "feasible", rep.result.feasible ? 1 : 0);
  metric(trace, "met", met);
  metric(trace, "iterations", rep.result.iterations);
  metric(trace, "gates_scaled", rep.gates_scaled);
  metric(trace, "width_x100", rep.width_x100);
  if (trace->status != StageStatus::kSkipped) {
    std::string detail = strprintf(
        "%zu constraints, %d met in %d iterations, %d gates scaled, "
        "total width %lld.%02lld",
        mapped.constraints.size(), met, rep.result.iterations,
        rep.gates_scaled, rep.width_x100 / 100, rep.width_x100 % 100);
    if (rep.inconclusive) detail += "; inconclusive: " + rep.note;
    legacy(st, trace, "transistor sizing", detail);
  }
  result.sizing = std::move(rep);
}

/// Conformance verification of the sized netlist under unbounded delays
/// (Section 5), with the lowered RT constraints applied as interleaving
/// pruning. The checker walks the blackboard's state graph — the graph of
/// `result.spec` in both modes, rebuilt after any state-signal insertion —
/// instead of building its own. Non-conformance is a REPORTED property —
/// RT circuits are not speed-independent by design, that is the price of
/// removing the handshake overhead — and an exceeded cap (spec graph or
/// composed states) makes the verdict inconclusive; neither fails the
/// flow. A failing check's counterexample events go to the trace's notes,
/// never to canonical bytes. Netlists wider than the composed checker's
/// 64-net bound skip the stage (the checker would assert otherwise).
void stage_verify_netlist(PipelineState* st, StageTrace* trace) {
  FlowResult& result = st->result;
  const MapReport& mapped = *result.mapped;
  ConformanceReport rep;
  ConformanceOptions copts = st->opts.verify;
  for (const NetConstraint& c : mapped.constraints)
    copts.constraints.push_back(c);
  rep.constraints_applied = copts.constraints.size();
  if (mapped.netlist.num_nets() > 64) {
    rep.note = strprintf("netlist has %d nets; composed checker is bounded "
                         "at 64", mapped.netlist.num_nets());
    trace->status = StageStatus::kSkipped;
    trace->summary = rep.note;
    metric(trace, "conformant", 0);
    metric(trace, "states_checked", 0);
    metric(trace, "constraints",
           static_cast<long long>(rep.constraints_applied));
    metric(trace, "trace_events", 0);
    result.conformance = std::move(rep);
    return;
  }
  try {
    rep.result = verify_conformance(mapped.netlist, *st->sg, copts);
    rep.ran = true;
  } catch (const FlowCancelled&) {
    throw;
  } catch (const Error& e) {
    rep.ran = true;
    rep.note = e.what();
  }
  metric(trace, "conformant", rep.result.ok ? 1 : 0);
  metric(trace, "states_checked", rep.result.states_explored);
  metric(trace, "constraints",
         static_cast<long long>(rep.constraints_applied));
  metric(trace, "trace_events",
         static_cast<long long>(rep.result.trace.size()));
  std::string detail;
  if (!rep.note.empty()) {
    detail = "inconclusive: " + rep.note;
  } else if (rep.result.ok) {
    detail = strprintf("conforms under %zu constraints; %d composed states",
                       rep.constraints_applied, rep.result.states_explored);
  } else {
    detail = strprintf("%s; counterexample after %zu events "
                       "(%zu constraints, %d composed states)",
                       rep.result.failure.c_str(), rep.result.trace.size(),
                       rep.constraints_applied, rep.result.states_explored);
  }
  legacy(st, trace, "conformance", detail);
  if (!rep.result.trace.empty()) {
    std::string events = "counterexample:";
    for (const std::string& e : rep.result.trace) events += " " + e;
    trace->notes.push_back(std::move(events));
  }
  result.conformance = std::move(rep);
}

/// Map an in-flight exception to the batch diagnostic vocabulary. The
/// catch order mirrors flow/batchflow's historical mapping; FlowCancelled
/// gets its own kind so a killed run is never read as an infeasible spec.
std::string diagnostic_kind(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const ParseError&) {
    return "parse";
  } catch (const FlowCancelled&) {
    return "cancelled";
  } catch (const Error&) {
    return "spec";
  } catch (const std::exception&) {
    return "internal";
  }
}

std::string exception_message(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  }
}

/// Apply the context's budget and cancellation to the scattered per-stage
/// options — the single arbitration point for the whole flow.
FlowOptions effective_options(const FlowOptions& opts, const FlowContext& ctx) {
  FlowOptions eff = opts;
  eff.sg.threads = ThreadBudget::resolve(ctx.budget.graph, eff.sg.threads);
  eff.encode.threads =
      ThreadBudget::resolve(ctx.budget.candidate, eff.encode.threads);
  eff.rt.generate.threads =
      ThreadBudget::resolve(ctx.budget.candidate, eff.rt.generate.threads);
  if (ctx.cancel) {
    eff.sg.cancel = ctx.cancel;
    eff.encode.cancel = ctx.cancel;
    eff.encode.sg.cancel = ctx.cancel;
    eff.rt.generate.cancel = ctx.cancel;
    eff.sizing.cancel = ctx.cancel;
    eff.verify.cancel = ctx.cancel;
  }
  return eff;
}

}  // namespace

FlowPipeline::FlowPipeline(FlowMode mode) : mode_(mode) {
  names_ = {"specification", "reachability", "encode"};
  if (mode == FlowMode::kRelativeTiming) {
    names_.push_back("generate-assumptions");
    names_.push_back("reduce");
    names_.push_back("synth-rt");
  } else {
    names_.push_back("synth-si");
  }
  names_.push_back("map");
  names_.push_back("size");
  names_.push_back("verify-netlist");
}

FlowPipeline FlowPipeline::standard(FlowMode mode) {
  return FlowPipeline(mode);
}

PipelineResult FlowPipeline::run(const Stg& spec, const FlowOptions& opts,
                                 const FlowContext& ctx) const {
  PipelineResult out;
  PipelineState st;
  st.opts = effective_options(opts, ctx);
  st.opts.mode = mode_;
  st.rt_opts = st.opts.rt;
  // The CSC solver rebuilds candidate graphs; it must respect the stricter
  // of its own cap and the flow-wide one (both are safety bounds). The
  // graph-level thread setting is flow-wide by contract (FlowOptions::sg
  // governs every build in the flow), so it overrides the encode-local
  // one here; it only reaches the solver's per-round builds — candidate
  // builds are unconditionally sequential inside solve_csc.
  st.encode_opts = st.opts.encode;
  st.encode_opts.sg.max_states =
      std::min(st.opts.encode.sg.max_states, st.opts.sg.max_states);
  st.encode_opts.sg.threads = st.opts.sg.threads;

  // Resolve the stop point once, by rank: the default (empty) is the
  // mode's synthesis stage — the legacy end of the flow.
  int stop = kSynthRank;
  if (!st.opts.stop_after.empty()) {
    stop = stage_rank(st.opts.stop_after);
    if (stop < 0)
      throw Error("unknown flow stage '" + st.opts.stop_after +
                  "' (see list-stages)");
  }

  for (const std::string& name : names_) {
    if (stage_rank(name) > stop) break;
    StageTrace trace;
    trace.stage = name;
    const auto start = std::chrono::steady_clock::now();
    try {
      ctx.check_cancelled(name.c_str());
      if (name == "specification") {
        stage_specification(spec, &st, &trace);
      } else if (name == "reachability") {
        stage_reachability(&st, &trace);
      } else if (name == "encode") {
        stage_encode(&st, &trace);
      } else if (name == "generate-assumptions") {
        stage_generate_assumptions(&st, &trace);
      } else if (name == "reduce") {
        stage_reduce(&st, &trace);
      } else if (name == "synth-rt") {
        stage_synth_rt(&st, &trace);
      } else if (name == "synth-si") {
        stage_synth_si(&st, &trace);
      } else if (name == "map") {
        stage_map(&st, &trace);
      } else if (name == "size") {
        stage_size(&st, &trace);
      } else if (name == "verify-netlist") {
        stage_verify_netlist(&st, &trace);
      } else {
        RTCAD_ASSERT(!"unknown pipeline stage");
      }
    } catch (...) {
      const std::exception_ptr e = std::current_exception();
      trace.status = StageStatus::kFailed;
      trace.error_kind = diagnostic_kind(e);
      trace.error_message = exception_message(e);
      trace.wall_ms = ms_since(start);
      out.error =
          StageError{name, trace.error_kind, trace.error_message};
      out.exception = e;
      out.trace.push_back(std::move(trace));
      if (ctx.on_stage) ctx.on_stage(out.trace.back());
      out.flow = std::move(st.result);
      return out;
    }
    trace.wall_ms = ms_since(start);
    out.trace.push_back(std::move(trace));
    if (ctx.on_stage) ctx.on_stage(out.trace.back());
  }
  out.flow = std::move(st.result);
  return out;
}

}  // namespace rtcad
