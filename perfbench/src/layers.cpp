// The per-layer suite of a traced run. Each layer is timed by calling its
// public functions from here, on the inputs of the workload it serves:
//
//   flow stages, synth, verify, sg.encode -> the corpus (38 items);
//   sg, rt                                -> pipeline19 (2^20 states);
//   flow.serve / transport / cache        -> a warm in-process daemon.
//
// Every workload's traced run runs the whole suite, so a per-layer metric
// means the same thing whichever workload reported it.
#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "flow/pipeline.hpp"
#include "rt/generate.hpp"
#include "rt/reduce.hpp"
#include "sg/analysis.hpp"
#include "sg/encode.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "synth/gatesynth.hpp"
#include "synth/rtsynth.hpp"
#include "synth/sizing.hpp"
#include "util/check.hpp"
#include "verify/conformance.hpp"

namespace perfbench {
namespace {

constexpr int kPasses = 3;

/// Stage self time per pass: every corpus item through FlowPipeline, with
/// stage spans taken at the on_stage seam. Returns the last pass's runs,
/// in corpus order, for the direct layer calls.
std::vector<rtcad::PipelineResult> stage_passes(
    const std::vector<rtcad::BatchSpec>& corpus, const Options& opt,
    Tracer& tracer, RunResult* out) {
  std::map<std::string, std::vector<double>> per_pass;
  for (const rtcad::StageInfo& s : rtcad::stage_registry())
    if (std::string(s.name) != "synth") per_pass[s.name];
  CorpusChecker checker(load_golden(opt.golden));
  std::vector<rtcad::PipelineResult> runs;
  for (int pass = 0; pass < kPasses; ++pass) {
    runs.clear();
    std::map<std::string, double> total;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const rtcad::BatchSpec& item = corpus[i];
      const int id = static_cast<int>(i);
      std::vector<std::pair<std::string, double>> stages;
      flow_call(
          single_thread_context(),
          [&](const rtcad::FlowContext& ctx) {
            runs.push_back(rtcad::FlowPipeline::standard(item.opts.mode)
                               .run(item.spec, item.opts, ctx));
          },
          &tracer, "flow.pipeline", id, &stages);
      for (const auto& [stage, ms] : stages) total[stage] += ms;
      const std::string why =
          checker.check(item, rtcad::to_batch_item(item.name, runs.back()));
      out->check(why.empty(), why);
    }
    for (auto& [stage, v] : per_pass) v.push_back(total[stage]);
  }
  for (const auto& [stage, v] : per_pass)
    out->metric("stage." + stage + ".ms", median(v), "ms");
  return runs;
}

void corpus_layers(const Options& opt, Tracer& tracer, RunResult* out) {
  const std::vector<rtcad::BatchSpec> corpus = load_corpus();
  const std::vector<rtcad::PipelineResult> runs =
      stage_passes(corpus, opt, tracer, out);
  const rtcad::FlowOptions defaults;

  std::vector<double> si_ms, rt_ms, verify_ms, encode_ms;
  long long literals = 0, size_iterations = 0, states_checked = 0;
  long long candidates = 0, feasible = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    double si = 0, rt = 0, verify = 0, encode = 0;
    literals = size_iterations = states_checked = candidates = feasible = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const rtcad::BatchSpec& item = corpus[i];
      const int id = static_cast<int>(i);
      const bool is_rt = item.opts.mode == rtcad::FlowMode::kRelativeTiming;
      // stg and the encode search run once per spec (on its RT item).
      if (is_rt) {
        rtcad::Stg spec;
        timed(tracer, "stg.parse",
              [&] { spec = rtcad::parse_stg_file(item.name); }, -1, id);
        timed(tracer, "stg.validate", [&] { spec.validate(); }, -1, id);
        std::optional<rtcad::StateGraph> sg;
        timed(tracer, "sg.build",
              [&] { sg.emplace(rtcad::StateGraph::build(spec)); }, -1, id);
        std::optional<rtcad::SgAnalysis> a;
        timed(tracer, "sg.analyze", [&] { a.emplace(rtcad::analyze(*sg)); }, -1,
              id);
        if (!a->has_csc()) {
          rtcad::EncodeOptions eo = defaults.encode;
          eo.threads = 1;
          eo.sg.threads = 1;
          eo.sg.max_states = std::min(eo.sg.max_states, defaults.sg.max_states);
          std::optional<rtcad::EncodeResult> enc;
          encode += timed(
              tracer, "sg.solve_csc",
              [&] { enc.emplace(rtcad::solve_csc(spec, eo)); }, -1, id);
          for (const rtcad::EncodeRoundStats& r : enc->rounds) {
            candidates += r.candidates;
            feasible += r.feasible;
          }
        }
      }
      const rtcad::PipelineResult& run = runs[i];
      if (!run.ok() || !run.flow.has_netlist()) continue;
      const rtcad::FlowResult& flow = run.flow;
      std::optional<rtcad::StateGraph> sg;
      timed(tracer, "sg.build",
            [&] { sg.emplace(rtcad::StateGraph::build(flow.spec)); }, -1, id);
      int lits = 0;
      if (is_rt) {
        std::optional<rtcad::ReduceResult> red;
        timed(
            tracer, "rt.reduce",
            [&] { red.emplace(rtcad::reduce(*sg, flow.rt->assumptions)); },
            -1, id);
        rtcad::RtSynthOptions ro = item.opts.rt;
        ro.assumptions_override = flow.rt->assumptions;
        rt += timed(tracer, "synth.rt", [&] {
          lits = rtcad::synthesize_rt(*sg, ro, &*red).literals;
        }, -1, id);
        out->check(lits == flow.rt->literals,
                   item.name + " (rt): direct synthesize_rt literals differ");
      } else {
        si += timed(tracer, "synth.si", [&] {
          lits = rtcad::synthesize_si(*sg, item.opts.si).literals;
        }, -1, id);
        out->check(lits == flow.si->literals,
                   item.name + " (si): direct synthesize_si literals differ");
      }
      literals += lits;

      // Sizing starts from the synthesis netlist and the net-level
      // constraints the map stage lowered.
      if (flow.mapped && !flow.mapped->constraints.empty() &&
          !flow.sizing->inconclusive) {
        rtcad::Netlist nl = flow.netlist();
        rtcad::SizingResult sr;
        timed(tracer, "synth.size", [&] {
          sr = rtcad::size_for_constraints(&nl, flow.spec,
                                           flow.mapped->constraints,
                                           item.opts.sizing);
        }, -1, id);
        size_iterations += sr.iterations;
        out->check(nl.to_text() == flow.final_netlist().to_text(),
                   item.name + ": direct sizing differs from the size stage");
      }
      if (flow.conformance && flow.conformance->ran &&
          flow.conformance->note.empty()) {
        rtcad::ConformanceOptions co = item.opts.verify;
        for (const rtcad::NetConstraint& c : flow.mapped->constraints)
          co.constraints.push_back(c);
        int states = 0;
        verify += timed(tracer, "verify.conformance", [&] {
          states =
              rtcad::verify_conformance(flow.final_netlist(), flow.spec, co)
                  .states_explored;
        }, -1, id);
        out->check(states == flow.conformance->result.states_explored,
                   item.name + ": direct conformance state count differs");
        states_checked += states;
      }
    }
    si_ms.push_back(si);
    rt_ms.push_back(rt);
    verify_ms.push_back(verify);
    encode_ms.push_back(encode);
  }
  out->metric("synth.si_ms", median(si_ms), "ms");
  out->metric("synth.rt_ms", median(rt_ms), "ms");
  out->metric("synth.literals", static_cast<double>(literals), "count");
  out->metric("synth.size.iterations", static_cast<double>(size_iterations),
              "count");
  out->metric("verify.states_checked", static_cast<double>(states_checked),
              "count");
  out->metric("verify.us_per_state",
              states_checked ? 1000 * median(verify_ms) / states_checked : 0,
              "us");
  out->metric("sg.encode.candidates", static_cast<double>(candidates), "count");
  out->metric("sg.encode.feasible_ratio",
              candidates ? static_cast<double>(feasible) / candidates : 0,
              "ratio");
  out->metric("sg.encode.us_per_candidate",
              candidates ? 1000 * median(encode_ms) / candidates : 0, "us");
}

void bigstate_layers(const Options& opt, Tracer& tracer, RunResult* out) {
  const int n = opt.graph_threads_n;
  const rtcad::Stg spec = *rtcad::generated_spec("pipeline19");
  rtcad::SgOptions so;
  so.threads = 1;
  std::optional<rtcad::StateGraph> g;
  const auto build = [&] { g.emplace(rtcad::StateGraph::build(spec, so)); };
  const double build_t1 = timed(tracer, "sg.build.t1", build);
  const long long edges = g->num_edges();
  g.reset();
  so.threads = n;
  const double build_tn = timed(tracer, "sg.build.tN", build);
  out->check(g->num_states() == 1048576 && g->num_edges() == 5767168 &&
                 edges == g->num_edges(),
             "pipeline19 graph is not 1048576 states / 5767168 edges");
  out->metric("sg.build_ms.t1", build_t1, "ms");
  out->metric("sg.build_ms.tN", build_tn, "ms");
  out->metric("sg.build_speedup", build_t1 / build_tn, "x");
  out->metric("sg.build_ns_per_edge",
              build_t1 * 1e6 / static_cast<double>(edges), "ns");
  out->metric("sg.analyze_ms",
              timed(tracer, "sg.analyze", [&] { rtcad::analyze(*g); }), "ms");

  std::vector<double> tr1, trn, ex1, exn;
  for (int rep = 0; rep < kPasses; ++rep) {
    tr1.push_back(timed(tracer, "sg.transpose.t1",
                        [&] { g->rebuild_reverse_csr(1); }));
    trn.push_back(timed(tracer, "sg.transpose.tN",
                        [&] { g->rebuild_reverse_csr(n); }));
    ex1.push_back(timed(tracer, "sg.excite.t1",
                        [&] { g->recompute_excitation(1); }));
    exn.push_back(timed(tracer, "sg.excite.tN",
                        [&] { g->recompute_excitation(n); }));
  }
  out->metric("sg.transpose_ms.t1", median(tr1), "ms");
  out->metric("sg.transpose_ms.tN", median(trn), "ms");
  out->metric("sg.excite_ms.t1", median(ex1), "ms");
  out->metric("sg.excite_ms.tN", median(exn), "ms");
  constexpr double kMiB = 1 << 20;
  out->metric("sg.arena_mb", static_cast<double>(g->arena_bytes()) / kMiB,
              "MB");
  out->metric("sg.csr_mb", static_cast<double>(g->csr_bytes()) / kMiB, "MB");

  rtcad::GenerateOptions go = rtcad::FlowOptions{}.rt.generate;
  go.threads = 1;
  std::vector<rtcad::RtAssumption> assumptions;
  out->metric("rt.generate_ms", timed(tracer, "rt.generate", [&] {
                assumptions = rtcad::generate_assumptions(*g, go);
              }), "ms");
  int states_after = 0;
  out->metric("rt.reduce_ms", timed(tracer, "rt.reduce", [&] {
                states_after = rtcad::reduce(*g, assumptions).sg.num_states();
              }), "ms");
  out->metric("rt.states_after", states_after, "count");
}

}  // namespace

void run_layer_suite(const Options& opt, Tracer& tracer, RunResult* out) {
  corpus_layers(opt, tracer, out);
  bigstate_layers(opt, tracer, out);
  serve_layer_metrics(opt, tracer, out);
}

}  // namespace perfbench
