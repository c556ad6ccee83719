// The staged-flow API: equivalence with the run_flow wrapper, structured
// stage traces, per-stage error channels, FlowContext thread-budget
// arbitration, cooperative cancellation, the stage registry, and the
// stop-after semantics of the Figure 2 back end.
#include <gtest/gtest.h>

#include "flow/flow.hpp"
#include "generated_stgs.hpp"
#include "stg/builders.hpp"

namespace rtcad {
namespace {

FlowOptions rt_opts() {
  FlowOptions o;
  o.mode = FlowMode::kRelativeTiming;
  return o;
}

FlowOptions si_opts() {
  FlowOptions o;
  o.mode = FlowMode::kSpeedIndependent;
  return o;
}

std::string render_stages(const FlowResult& r) {
  std::string out;
  for (const FlowStage& s : r.stages) out += s.name + ": " + s.detail + "\n";
  return out;
}

TEST(FlowPipeline, StageNamesMatchTheFigure2Sequence) {
  const FlowPipeline rt = FlowPipeline::standard(FlowMode::kRelativeTiming);
  EXPECT_EQ(rt.stage_names(),
            (std::vector<std::string>{"specification", "reachability",
                                      "encode", "generate-assumptions",
                                      "reduce", "synth-rt", "map", "size",
                                      "verify-netlist"}));
  const FlowPipeline si = FlowPipeline::standard(FlowMode::kSpeedIndependent);
  EXPECT_EQ(si.stage_names(),
            (std::vector<std::string>{"specification", "reachability",
                                      "encode", "synth-si", "map", "size",
                                      "verify-netlist"}));
}

TEST(FlowPipeline, StageRegistryIsTheAddressingVocabulary) {
  // Ranks are strictly the Figure 2 order; every executable stage name
  // resolves, the "synth" alias shares the synthesis rank, and unknown
  // names resolve to -1 (the CLI's exit-2 path).
  int prev = -1;
  for (const StageInfo& s : stage_registry()) {
    EXPECT_GE(s.rank, prev) << s.name;
    prev = s.rank;
    EXPECT_EQ(stage_rank(s.name), s.rank);
    EXPECT_TRUE(s.in_rt || s.in_si) << s.name;
  }
  EXPECT_EQ(stage_rank("synth"), stage_rank("synth-rt"));
  EXPECT_EQ(stage_rank("synth"), stage_rank("synth-si"));
  EXPECT_LT(stage_rank("synth"), stage_rank("map"));
  EXPECT_LT(stage_rank("map"), stage_rank("size"));
  EXPECT_LT(stage_rank("size"), stage_rank("verify-netlist"));
  EXPECT_EQ(stage_rank("no-such-stage"), -1);
  EXPECT_EQ(stage_rank(""), -1);
  // Every name the pipelines execute is registered.
  for (const FlowMode mode :
       {FlowMode::kRelativeTiming, FlowMode::kSpeedIndependent}) {
    const FlowPipeline pipeline = FlowPipeline::standard(mode);
    for (const std::string& name : pipeline.stage_names())
      EXPECT_GE(stage_rank(name), 0) << name;
  }
}

TEST(FlowPipeline, StopAfterCutsTheRunByRank) {
  FlowOptions early = rt_opts();
  early.stop_after = "reachability";
  const PipelineResult r = FlowPipeline::standard(FlowMode::kRelativeTiming)
                               .run(fifo_csc_stg(), early);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace.back().stage, "reachability");
  EXPECT_FALSE(r.flow.has_netlist());
  EXPECT_GT(r.flow.states, 0);

  FlowOptions to_map = rt_opts();
  to_map.stop_after = "map";
  const PipelineResult m = FlowPipeline::standard(FlowMode::kRelativeTiming)
                               .run(fifo_csc_stg(), to_map);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.trace.back().stage, "map");
  ASSERT_TRUE(m.flow.mapped.has_value());
  EXPECT_FALSE(m.flow.sizing.has_value());
  EXPECT_FALSE(m.flow.conformance.has_value());
  EXPECT_GT(m.flow.mapped->cells, 0);
  // RT constraints are lowered to net orderings during map.
  EXPECT_EQ(m.flow.mapped->constraints.size(),
            m.flow.rt->constraints.size());
}

TEST(FlowPipeline, SynthAliasMatchesTheDefaultStopPoint) {
  FlowOptions aliased = rt_opts();
  aliased.stop_after = "synth";
  const PipelineResult def = FlowPipeline::standard(FlowMode::kRelativeTiming)
                                 .run(fifo_csc_stg(), rt_opts());
  const PipelineResult ali = FlowPipeline::standard(FlowMode::kRelativeTiming)
                                 .run(fifo_csc_stg(), aliased);
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(ali.ok());
  EXPECT_EQ(render_stages(ali.flow), render_stages(def.flow));
  EXPECT_EQ(ali.trace.size(), def.trace.size());
  EXPECT_FALSE(def.flow.mapped.has_value());  // back end is opt-in
}

TEST(FlowPipeline, UnknownStopAfterThrows) {
  FlowOptions bad = rt_opts();
  bad.stop_after = "netlist";  // not a canonical name
  EXPECT_THROW(FlowPipeline::standard(FlowMode::kRelativeTiming)
                   .run(fifo_csc_stg(), bad),
               Error);
}

TEST(FlowPipeline, BackEndProducesTypedArtifacts) {
  FlowOptions full = rt_opts();
  full.stop_after = "verify-netlist";
  const PipelineResult r = FlowPipeline::standard(FlowMode::kRelativeTiming)
                               .run(fifo_csc_stg(), full);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.flow.mapped.has_value());
  ASSERT_TRUE(r.flow.sizing.has_value());
  ASSERT_TRUE(r.flow.conformance.has_value());
  const MapReport& map = *r.flow.mapped;
  EXPECT_EQ(map.cells, map.netlist.num_gates());
  EXPECT_EQ(map.transistors, map.netlist.transistor_count());
  EXPECT_GT(map.depth, 0);
  // The mapped netlist is a COPY: sizing never mutates the synth result.
  EXPECT_EQ(r.flow.netlist().num_gates(), map.netlist.num_gates());
  for (int g = 0; g < r.flow.netlist().num_gates(); ++g)
    EXPECT_EQ(r.flow.netlist().gate(g).delay_scale, 1.0);
  EXPECT_EQ(&r.flow.final_netlist(), &map.netlist);
  // fifo_csc's RT netlist is checked under its lowered constraints; the
  // verdict (it is NOT speed-independent — the price of removing the
  // handshake, per Section 5) is reported, never a stage failure.
  const SizeReport& size = *r.flow.sizing;
  EXPECT_GE(size.width_x100, 100LL * map.transistors);
  const ConformanceReport& conf = *r.flow.conformance;
  EXPECT_TRUE(conf.ran);
  EXPECT_EQ(conf.constraints_applied, map.constraints.size());
  EXPECT_FALSE(conf.result.ok);
  EXPECT_GT(conf.result.states_explored, 0);
  // Trace rows exist for all three stages with their headline metrics.
  EXPECT_GE(r.stage("map")->metric("cells"), 1);
  EXPECT_GE(r.stage("size")->metric("width_x100"), 100);
  EXPECT_GE(r.stage("verify-netlist")->metric("states_checked"), 1);
}

TEST(FlowPipeline, SiBackEndSkipsSizingAndVerifies) {
  // celement:SI synthesizes to the true C-element; with no RT constraints
  // the size stage is a recorded no-op and the netlist conforms.
  FlowOptions full = si_opts();
  full.stop_after = "verify-netlist";
  const PipelineResult r = FlowPipeline::standard(FlowMode::kSpeedIndependent)
                               .run(celement_stg(), full);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.stage("size")->status, StageStatus::kSkipped);
  ASSERT_TRUE(r.flow.sizing.has_value());
  EXPECT_TRUE(r.flow.sizing->result.feasible);
  EXPECT_EQ(r.flow.sizing->gates_scaled, 0);
  ASSERT_TRUE(r.flow.conformance.has_value());
  EXPECT_TRUE(r.flow.conformance->ran);
  EXPECT_TRUE(r.flow.conformance->result.ok)
      << r.flow.conformance->result.failure;
  // Skipped size contributes no legacy stage line.
  for (const FlowStage& s : r.flow.stages)
    EXPECT_NE(s.name, "transistor sizing");
}

TEST(FlowPipeline, GeneratedPipeline12RunsTheWholeFlowInBothModes) {
  // 8,192 states over 13 signals. The pinned sizes are also what
  // Quine-McCluskey prime generation produces. Conformance is reported,
  // not asserted here.
  const Stg spec = pipeline_stg(12);
  const struct {
    FlowOptions opts;
    int literals;
    int transistors;
    std::size_t constraints;
  } cases[] = {
      {si_opts(), 45, 250, 0},
      {rt_opts(), 42, 175, 4},
  };
  for (const auto& c : cases) {
    FlowOptions full = c.opts;
    full.stop_after = "verify-netlist";
    const PipelineResult r = FlowPipeline::standard(full.mode).run(spec, full);
    ASSERT_TRUE(r.ok()) << r.error->message;
    EXPECT_EQ(r.flow.states, 8192);
    EXPECT_EQ(r.flow.literals(), c.literals);
    EXPECT_EQ(r.flow.netlist().transistor_count(), c.transistors);
    EXPECT_EQ(r.flow.rt ? r.flow.rt->constraints.size() : 0, c.constraints);
    ASSERT_TRUE(r.flow.conformance.has_value());
    EXPECT_TRUE(r.flow.conformance->ran);
  }
}

TEST(FlowPipeline, MatchesRunFlowOnRepresentativeSpecs) {
  // One spec per interesting path: plain SI, SI with state-signal
  // insertion, RT with ring-environment escalation, RT with CSC holding
  // outright.
  const struct {
    const char* name;
    Stg spec;
    FlowOptions opts;
  } cases[] = {
      {"celement:SI", celement_stg(), si_opts()},
      {"toggle:SI", toggle_stg(), si_opts()},
      {"fifo:RT", fifo_stg(), rt_opts()},
      {"fifo_csc:RT", fifo_csc_stg(), rt_opts()},
  };
  for (const auto& c : cases) {
    const FlowResult direct = run_flow(c.spec, c.opts);
    const PipelineResult staged =
        FlowPipeline::standard(c.opts.mode).run(c.spec, c.opts);
    ASSERT_TRUE(staged.ok()) << c.name << ": " << staged.error->message;
    EXPECT_EQ(render_stages(staged.flow), render_stages(direct)) << c.name;
    EXPECT_EQ(staged.flow.states, direct.states) << c.name;
    EXPECT_EQ(staged.flow.states_reduced, direct.states_reduced) << c.name;
    EXPECT_EQ(staged.flow.state_signals_added, direct.state_signals_added)
        << c.name;
    EXPECT_EQ(staged.flow.literals(), direct.literals()) << c.name;
    EXPECT_EQ(staged.flow.netlist().transistor_count(),
              direct.netlist().transistor_count())
        << c.name;
  }
}

TEST(FlowPipeline, TraceRecordsEveryStageWithTypedMetrics) {
  const PipelineResult r =
      FlowPipeline::standard(FlowMode::kRelativeTiming).run(fifo_stg(),
                                                            rt_opts());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.trace.size(), 6u);
  const StageTrace* reach = r.stage("reachability");
  ASSERT_NE(reach, nullptr);
  EXPECT_EQ(reach->status, StageStatus::kOk);
  EXPECT_EQ(reach->metric("states"), 40);
  EXPECT_EQ(reach->metric("csc_conflicts"), 3);
  EXPECT_EQ(reach->metric("not_a_metric"), -1);
  // fifo resolves CSC by ring-environment escalation inside encode; the
  // later stages reuse its validated assumption set and reduction.
  const StageTrace* enc = r.stage("encode");
  ASSERT_NE(enc, nullptr);
  EXPECT_EQ(enc->status, StageStatus::kOk);
  EXPECT_EQ(enc->metric("ring_escalated"), 1);
  EXPECT_EQ(r.stage("generate-assumptions")->status, StageStatus::kSkipped);
  EXPECT_EQ(r.stage("reduce")->status, StageStatus::kSkipped);
  EXPECT_EQ(r.stage("synth-rt")->status, StageStatus::kOk);
}

TEST(FlowPipeline, EncodeIsSkippedWhenCscAlreadyHolds) {
  const PipelineResult r = FlowPipeline::standard(FlowMode::kSpeedIndependent)
                               .run(celement_stg(), si_opts());
  ASSERT_TRUE(r.ok());
  const StageTrace* enc = r.stage("encode");
  ASSERT_NE(enc, nullptr);
  EXPECT_EQ(enc->status, StageStatus::kSkipped);
  // Skipped stages still never contribute legacy stage lines.
  for (const FlowStage& s : r.flow.stages)
    EXPECT_NE(s.name, "state encoding");
}

TEST(FlowPipeline, StateOverflowIsAttributedToReachability) {
  FlowOptions capped = si_opts();
  capped.sg.max_states = 16;  // pipeline_stg(6) has 128 states
  const PipelineResult r = FlowPipeline::standard(FlowMode::kSpeedIndependent)
                               .run(pipeline_stg(6), capped);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->stage, "reachability");
  EXPECT_EQ(r.error->kind, "spec");
  EXPECT_NE(r.error->message.find("exceeds"), std::string::npos);
  // The failing stage is the last trace entry, marked failed with the
  // same error channel.
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.back().stage, "reachability");
  EXPECT_EQ(r.trace.back().status, StageStatus::kFailed);
  EXPECT_EQ(r.trace.back().error_message, r.error->message);
}

TEST(FlowPipeline, EncodeRebuildOverflowIsAttributedToEncode) {
  // toggle needs a state signal that grows the graph to 8 states; capping
  // at 7 passes reachability but makes the CSC solver's rebuilds overflow.
  FlowOptions capped = si_opts();
  capped.sg.max_states = 7;
  const PipelineResult r = FlowPipeline::standard(FlowMode::kSpeedIndependent)
                               .run(toggle_stg(), capped);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->stage, "encode");
  EXPECT_EQ(r.error->kind, "spec");
}

TEST(FlowPipeline, WrapperRethrowsTheOriginalExceptionType) {
  FlowOptions capped = si_opts();
  capped.sg.max_states = 16;
  EXPECT_THROW(run_flow(pipeline_stg(6), capped), SpecError);
}

TEST(FlowPipeline, ThreadBudgetOverridesAreByteIdentical) {
  // The context's graph/candidate levels override the scattered options;
  // determinism means any split yields identical results. toggle runs a
  // real candidate search, so both levels are exercised.
  const PipelineResult base =
      FlowPipeline::standard(FlowMode::kSpeedIndependent).run(toggle_stg(),
                                                              si_opts());
  FlowContext ctx;
  ctx.budget.graph = 8;
  ctx.budget.candidate = 2;
  const PipelineResult budgeted =
      FlowPipeline::standard(FlowMode::kSpeedIndependent)
          .run(toggle_stg(), si_opts(), ctx);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(render_stages(budgeted.flow), render_stages(base.flow));
  EXPECT_EQ(budgeted.flow.state_signals_added, base.flow.state_signals_added);
  EXPECT_EQ(budgeted.flow.literals(), base.flow.literals());
}

TEST(FlowPipeline, PreCancelledTokenFailsDeterministically) {
  CancelToken token;
  token.request_cancel();
  FlowContext ctx;
  ctx.cancel = &token;
  const PipelineResult r = FlowPipeline::standard(FlowMode::kRelativeTiming)
                               .run(fifo_stg(), rt_opts(), ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->kind, "cancelled");
  EXPECT_EQ(r.error->stage, "specification");
  EXPECT_EQ(r.error->message, "cancelled during specification");
}

TEST(FlowPipeline, PastDeadlineCancels) {
  CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  FlowContext ctx;
  ctx.cancel = &token;
  const PipelineResult r = FlowPipeline::standard(FlowMode::kSpeedIndependent)
                               .run(celement_stg(), si_opts(), ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->kind, "cancelled");
}

TEST(FlowPipeline, CancelReachesTheParallelEngines) {
  // A pre-cancelled token must produce the same FlowCancelled at any graph
  // thread count and through the candidate search.
  CancelToken token;
  token.request_cancel();
  SgOptions seq;
  seq.cancel = &token;
  SgOptions par = seq;
  par.threads = 8;
  std::string seq_err, par_err;
  try {
    StateGraph::build(pipeline_stg(4), seq);
  } catch (const FlowCancelled& e) {
    seq_err = e.what();
  }
  try {
    StateGraph::build(pipeline_stg(4), par);
  } catch (const FlowCancelled& e) {
    par_err = e.what();
  }
  EXPECT_EQ(seq_err, "cancelled during state-graph build");
  EXPECT_EQ(par_err, seq_err);

  EncodeOptions enc;
  enc.cancel = &token;
  EXPECT_THROW(solve_csc(toggle_stg(), enc), FlowCancelled);
}

TEST(FlowPipeline, CancelBytesAtTheBackEndBoundaries) {
  // Stage-entry checks use the stage's canonical name, so a cancel
  // observed at a back-end boundary has fixed bytes at any thread count.
  CancelToken token;
  token.request_cancel();
  for (const char* where : {"map", "size", "verify-netlist"}) {
    try {
      token.check(where);
      FAIL() << where;
    } catch (const FlowCancelled& e) {
      EXPECT_EQ(std::string(e.what()), std::string("cancelled during ") + where);
    }
  }
}

TEST(FlowPipeline, CancelInsideSizingHasStableBytes) {
  // The sizing engine polls its own token once per outer iteration; wire
  // it through FlowOptions directly (bypassing the context, whose check
  // would fire at the first stage) so the flow genuinely reaches the
  // size stage before cancelling — deterministically, because the token
  // is already fired when the stage starts the engine.
  CancelToken token;
  token.request_cancel();
  FlowOptions full = rt_opts();
  full.stop_after = "verify-netlist";
  full.sizing.cancel = &token;
  const PipelineResult r = FlowPipeline::standard(FlowMode::kRelativeTiming)
                               .run(fifo_csc_stg(), full);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->stage, "size");
  EXPECT_EQ(r.error->kind, "cancelled");
  EXPECT_EQ(r.error->message, "cancelled during sizing");
  // Everything up to the failing stage completed normally.
  EXPECT_TRUE(r.stage("map") != nullptr);
  EXPECT_EQ(r.trace.back().stage, "size");
  EXPECT_EQ(r.trace.back().status, StageStatus::kFailed);
}

TEST(FlowPipeline, CancelInsideConformanceHasStableBytes) {
  // Same engine-level wiring for the composed-state exploration: celement
  // in SI mode skips sizing (no constraints), so the first engine to see
  // the fired token is the conformance checker.
  CancelToken token;
  token.request_cancel();
  FlowOptions full = si_opts();
  full.stop_after = "verify-netlist";
  full.verify.cancel = &token;
  const PipelineResult r = FlowPipeline::standard(FlowMode::kSpeedIndependent)
                               .run(celement_stg(), full);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->stage, "verify-netlist");
  EXPECT_EQ(r.error->kind, "cancelled");
  EXPECT_EQ(r.error->message, "cancelled during conformance");
}

TEST(FlowPipeline, TraceNotesCarryTheCounterexampleOutsideTheJson) {
  // pipeline4 RT fails conformance; an on_stage observer reads the
  // counterexample events from the verify-netlist stage's notes, and the
  // item's canonical bytes are the same with and without the observer.
  FlowOptions full = rt_opts();
  full.stop_after = "verify-netlist";
  const std::vector<BatchSpec> corpus = load_corpus_files(
      {std::string(RTCAD_SPECS_DIR) + "/pipeline4.g"}, full);
  ASSERT_EQ(corpus.size(), 1u);
  std::vector<std::string> notes;
  FlowContext observed;
  observed.on_stage = [&notes](const StageTrace& t) {
    if (t.stage == "verify-netlist") notes = t.notes;
  };
  const BatchItemResult with = run_batch_item(corpus[0], observed);
  const BatchItemResult without = run_batch_item(corpus[0], FlowContext{});
  ASSERT_TRUE(with.ok) << with.diagnostic.message;
  EXPECT_EQ(notes, std::vector<std::string>{
                       "counterexample: in+ c1+ c2+ c3+ c2_rst_a0+ "
                       "c2_foot- c2-"});
  EXPECT_EQ(item_record_json(with), item_record_json(without));
  EXPECT_EQ(item_record_json(with).find("counterexample:"), std::string::npos);
}

TEST(FlowPipeline, BatchItemCarriesTheNetlistBytes) {
  // to_batch_item keeps the canonical netlist dump out of the record JSON
  // (the record byte-contract predates the back end) but carries it for
  // drivers to write as .nl files.
  FlowOptions full = rt_opts();
  full.stop_after = "verify-netlist";
  const PipelineResult r = FlowPipeline::standard(FlowMode::kRelativeTiming)
                               .run(fifo_csc_stg(), full);
  ASSERT_TRUE(r.ok());
  const BatchItemResult item = to_batch_item("fifo_csc:RT", r);
  EXPECT_EQ(item.netlist_text, r.flow.final_netlist().to_text());
  EXPECT_FALSE(item.netlist_text.empty());
  EXPECT_EQ(item_record_json(item).find(".input"), std::string::npos);

  // An early stop has no netlist at all: the synthesis statistics stay
  // zero instead of dereferencing an absent optional.
  FlowOptions early = rt_opts();
  early.stop_after = "encode";
  const PipelineResult e = FlowPipeline::standard(FlowMode::kRelativeTiming)
                               .run(fifo_csc_stg(), early);
  ASSERT_TRUE(e.ok());
  const BatchItemResult cut = to_batch_item("fifo_csc:RT", e);
  EXPECT_TRUE(cut.ok);
  EXPECT_EQ(cut.literals, 0);
  EXPECT_EQ(cut.transistors, 0);
  EXPECT_TRUE(cut.netlist_text.empty());
}

TEST(FlowPipeline, SpecsPastTheSignalLimitFailAsSpecItems) {
  // State codes hold 64 signals. A 65-signal spec fails validation, and a
  // 64-signal spec with CSC conflicts leaves encode no room for a state
  // signal: both end as `spec` diagnostics, never as a contract abort that
  // would take a serving daemon down with them.
  const BatchItemResult wide =
      run_batch_item(BatchSpec{"wide65", wide_ring_stg(65), rt_opts(), {}},
                     FlowContext{});
  EXPECT_FALSE(wide.ok);
  EXPECT_EQ(wide.diagnostic.kind, "spec");
  EXPECT_NE(wide.diagnostic.message.find("65 signals"), std::string::npos)
      << wide.diagnostic.message;

  FlowOptions to_encode = si_opts();
  to_encode.stop_after = "encode";
  const BatchItemResult full = run_batch_item(
      BatchSpec{"wide64", wide_ring_stg(64), to_encode, {}}, FlowContext{});
  EXPECT_FALSE(full.ok);
  EXPECT_EQ(full.diagnostic.kind, "spec");
}

TEST(FlowPipeline, SpecsPastTheTransitionLimitFailAsSpecItems) {
  // A state-graph edge holds its transition id in 16 bits. A spec with one
  // transition more fails validation as a `spec` diagnostic that names the
  // count, and build() refuses it the same way for a caller that never
  // validates; a spec at the limit passes validate().
  const Stg past = long_ring_stg(Stg::kMaxTransitions + 1);
  const BatchItemResult item =
      run_batch_item(BatchSpec{"long65537", past, rt_opts(), {}},
                     FlowContext{});
  EXPECT_FALSE(item.ok);
  EXPECT_EQ(item.diagnostic.kind, "spec");
  EXPECT_NE(item.diagnostic.message.find("65537 transitions"),
            std::string::npos)
      << item.diagnostic.message;
  EXPECT_THROW(StateGraph::build(past), SpecError);
  EXPECT_NO_THROW(long_ring_stg(Stg::kMaxTransitions).validate());
}

TEST(FlowPipeline, WideJohnsonChainsSynthesizeAndConformInBothModes) {
  // Synthesis keeps each function as its reachable ON and OFF codes, so
  // it holds every signal count a state code does. Chains of 21, 33 and
  // 64 signals (2n states, CSC holds) run the whole flow in both modes
  // and their netlists conform.
  for (const int n : {21, 33, 64}) {
    for (FlowOptions opts : {si_opts(), rt_opts()}) {
      opts.stop_after = "verify-netlist";
      const BatchItemResult item = run_batch_item(
          BatchSpec{"johnson" + std::to_string(n), johnson_stg(n), opts, {}},
          FlowContext{});
      ASSERT_TRUE(item.ok) << n << ": " << item.diagnostic.message;
      EXPECT_EQ(item.states, 2 * n);
      ASSERT_FALSE(item.stages.empty());
      EXPECT_EQ(item.stages.back().detail.rfind("conforms", 0), 0u)
          << n << ": " << item.stages.back().detail;
    }
  }
}

}  // namespace
}  // namespace rtcad
