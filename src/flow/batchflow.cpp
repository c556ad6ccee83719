#include "flow/batchflow.hpp"

#include <chrono>
#include <cmath>
#include <filesystem>

#include "flow/json.hpp"
#include "flow/pipeline.hpp"
#include "flow/shard.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "util/strings.hpp"

namespace rtcad {
namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

// Failure isolation comes for free: FlowPipeline::run never throws for
// flow-level reasons, and its StageError already speaks the
// BatchDiagnostic vocabulary.
BatchItemResult run_batch_item(const BatchSpec& item, const FlowContext& ctx) {
  BatchItemResult r;
  r.name = item.name;
  if (item.load_error) {
    r.diagnostic = *item.load_error;
    return r;
  }
  const auto start = std::chrono::steady_clock::now();
  r = to_batch_item(item.name,
                    FlowPipeline::standard(item.opts.mode)
                        .run(item.spec, item.opts, ctx));
  r.wall_ms = ms_since(start);
  return r;
}

BatchItemResult to_batch_item(const std::string& name,
                              const PipelineResult& run) {
  BatchItemResult r;
  r.name = name;
  if (run.ok()) {
    const FlowResult& flow = run.flow;
    r.ok = true;
    r.states = flow.states;
    r.states_reduced = flow.states_reduced;
    r.state_signals_added = flow.state_signals_added;
    // Early stop points (stop_after before the synth stage) have no
    // netlist; the synthesis statistics stay zero.
    if (flow.has_netlist()) {
      r.literals = flow.literals();
      r.transistors = flow.netlist().transistor_count();
    }
    r.constraints = flow.rt ? flow.rt->constraints.size() : 0;
    r.stages = flow.stages;
    if (flow.mapped) r.netlist_text = flow.final_netlist().to_text();
  } else {
    r.diagnostic = BatchDiagnostic{run.error->kind, run.error->message};
  }
  return r;
}

BatchResult run_batch(const std::vector<BatchSpec>& corpus,
                      const FlowContext& ctx) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<BatchItemResult> items(corpus.size());
  fan_out(corpus.size(), ctx, [&corpus, &items, &ctx](std::size_t i) {
    items[i] = run_batch_item(corpus[i], ctx);
  });
  BatchResult result = tally(std::move(items));
  result.wall_ms = ms_since(start);
  return result;
}

BatchResult tally(std::vector<BatchItemResult> items) {
  BatchResult result;
  result.items = std::move(items);
  for (const BatchItemResult& item : result.items)
    (item.ok ? result.ok_count : result.failed_count) += 1;
  return result;
}

std::vector<BatchSpec> builtin_corpus(int max_pipeline_stages) {
  RTCAD_EXPECTS(max_pipeline_stages >= 1);
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  FlowOptions rt;
  rt.mode = FlowMode::kRelativeTiming;

  std::vector<BatchSpec> corpus;
  const auto add = [&corpus](std::string name, Stg spec,
                             const FlowOptions& opts) {
    corpus.push_back(BatchSpec{std::move(name), std::move(spec), opts, {}});
  };
  add("fifo:RT", fifo_stg(), rt);
  add("fifo_csc:SI", fifo_csc_stg(), si);
  add("fifo_csc:RT", fifo_csc_stg(), rt);
  add("fifo_si:SI", fifo_si_stg(), si);
  add("celement:SI", celement_stg(), si);
  add("toggle:SI", toggle_stg(), si);
  add("vme:SI", vme_stg(), si);
  add("call:SI", call_stg(), si);
  for (int n = 2; n <= max_pipeline_stages; ++n)
    add(strprintf("pipeline%d:SI", n), pipeline_stg(n), si);
  return corpus;
}

std::vector<BatchSpec> load_corpus_files(const std::vector<std::string>& paths,
                                         const FlowOptions& opts) {
  std::vector<BatchSpec> corpus;
  corpus.reserve(paths.size());
  for (const std::string& path : paths) {
    BatchSpec item;
    item.name = path;
    item.opts = opts;
    try {
      // Generated-spec names ("pipeline20", "ring12") resolve to builders
      // when no file of that name exists — the scaling families cross 10^6
      // states, which no one wants as checked-in .g files. A real file
      // always wins, so a spec named like a generated one stays loadable.
      std::optional<Stg> generated;
      if (!std::filesystem::exists(path)) generated = generated_spec(path);
      item.spec = generated ? std::move(*generated) : parse_stg_file(path);
    } catch (const SpecError& e) {
      // Read, but rejected as a specification (Stg::validate(), or a
      // generated-spec size out of range): the flow's verdict for a spec
      // it rejects, not a syntax error.
      item.load_error = BatchDiagnostic{"spec", e.what()};
    } catch (const Error& e) {
      item.load_error = BatchDiagnostic{"parse", e.what()};
    }
    corpus.push_back(std::move(item));
  }
  return corpus;
}

namespace {

// printf's %f honors LC_NUMERIC (arbitrary decimal separators); JSON
// requires '.'. Compose from integers, which are locale-proof.
std::string json_number(double ms) {
  long long micros = std::llround(ms * 1000.0);
  if (micros < 0) micros = 0;
  return strprintf("%lld.%03lld", micros / 1000, micros % 1000);
}

}  // namespace

std::string item_record_json(const BatchItemResult& item,
                             bool include_timings) {
  std::string out = "{\"name\": ";
  append_json_string(&out, item.name);
  out += strprintf(", \"ok\": %s", item.ok ? "true" : "false");
  if (item.ok) {
    out += strprintf(
        ", \"states\": %d, \"states_reduced\": %d, \"state_signals\": %d, "
        "\"literals\": %d, \"transistors\": %d, \"constraints\": %zu",
        item.states, item.states_reduced, item.state_signals_added,
        item.literals, item.transistors, item.constraints);
    out += ", \"stages\": [";
    for (std::size_t s = 0; s < item.stages.size(); ++s) {
      if (s) out += ", ";
      out += "{\"name\": ";
      append_json_string(&out, item.stages[s].name);
      out += ", \"detail\": ";
      append_json_string(&out, item.stages[s].detail);
      out += "}";
    }
    out += "]";
  } else {
    out += ", \"diagnostic\": {\"kind\": ";
    append_json_string(&out, item.diagnostic.kind);
    out += ", \"message\": ";
    append_json_string(&out, item.diagnostic.message);
    out += "}";
  }
  if (include_timings) out += ", \"wall_ms\": " + json_number(item.wall_ms);
  out += "}";
  return out;
}

std::string to_json(const BatchResult& result, bool include_timings) {
  std::string out = "{\n";
  out += strprintf("  \"corpus\": %zu,\n", result.items.size());
  out += strprintf("  \"ok\": %d,\n", result.ok_count);
  out += strprintf("  \"failed\": %d,\n", result.failed_count);
  if (include_timings)
    out += "  \"wall_ms\": " + json_number(result.wall_ms) + ",\n";
  out += "  \"items\": [\n";
  for (std::size_t i = 0; i < result.items.size(); ++i) {
    out += "    " + item_record_json(result.items[i], include_timings);
    out += i + 1 < result.items.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace rtcad
