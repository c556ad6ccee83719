// bigstate: the generated pipeline19 spec (2^20 states) in RT mode through
// --to reduce, one item at a time, alternating graph threads 1 and
// min(4, nproc) in seeded order. State-graph construction and the RT
// passes do almost all the work; synthesis does none. The two thread
// counts sit on either side of the sequential/parallel builder choice.
#include <optional>

#include "bench.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kStates = 1048576;
constexpr const char* kReachability = "1048576 states, 5767168 edges";

class BigstateWorkload : public Workload {
 public:
  explicit BigstateWorkload(const Options& opt) : opt_(opt), rng_(opt.seed) {}

  double setup(RunResult* out) override {
    // The output-quality metrics come from one single-threaded corpus pass,
    // which is not this workload's set-up and so is not timed.
    CorpusChecker checker(load_golden(opt_.golden));
    std::vector<rtcad::BatchItemResult> pass;
    for (const rtcad::BatchSpec& item : load_corpus()) {
      pass.push_back(rtcad::run_batch_item(item, single_thread_context()));
      const std::string why = checker.check(item, pass.back());
      out->check(why.empty(), why);
    }
    quality_ = corpus_quality(pass);

    // A set-up generates the spec, reads it back as .g text, as a submitted
    // file would be, and runs one untimed warm-up item at one graph thread,
    // as corpus runs a warm-up pass. Reading the spec alone takes a fifth
    // of a millisecond, too short to time steadily on a shared host.
    constexpr int kSetups = 3;
    std::vector<double> setup_s;
    for (int k = 0; k < kSetups; ++k) {
      const auto t0 = Clock::now();
      const std::optional<rtcad::Stg> generated =
          rtcad::generated_spec("pipeline19");
      if (!generated) throw rtcad::Error("pipeline19 is not a generated spec");
      item_.name = "pipeline19";
      item_.spec = rtcad::parse_stg_string(rtcad::write_stg(*generated),
                                           item_.name);
      item_.spec.validate();
      item_.opts.mode = rtcad::FlowMode::kRelativeTiming;
      item_.opts.stop_after = "reduce";
      check(call(1, 0, nullptr), 1, out);
      setup_s.push_back(ms_since(t0) / 1000.0);
    }
    return median(setup_s);
  }

  void window(double seconds, Tracer& tracer, RunResult* out) override {
    samples_.clear();
    const auto start = Clock::now();
    auto last_end = start;
    while (ms_since(start) < seconds * 1000.0) {
      // Each pair runs both thread counts; the seed picks which goes first.
      // A traced run traces every other pair.
      const bool parallel_first = rng_.chance(0.5);
      const bool traced = tracer.sample();
      for (const bool parallel : {parallel_first, !parallel_first}) {
        const int threads = parallel ? opt_.graph_threads_n : 1;
        rtcad::BatchItemResult r =
            call(threads, parallel ? 1 : 0, traced ? &tracer : nullptr);
        last_end = Clock::now();
        samples_.push_back(
            CallSample{parallel ? 1 : 0, r.wall_ms, true, traced});
        check(r, threads, out);
        if (ms_since(start) >= seconds * 1000.0) break;
      }
    }
    const double elapsed = ms_between(start, last_end);
    ips_ = elapsed > 0 ? 1000.0 * static_cast<double>(samples_.size()) / elapsed
                       : 0;
  }

  void report(RunResult* out, bool metrics) override {
    if (metrics)
      add_call_metrics(samples_, ips_, quality_, out);
    else
      add_tracing_note(samples_, out);
  }

 private:
  rtcad::BatchItemResult call(int threads, int item, Tracer* tracer) {
    rtcad::FlowContext ctx = single_thread_context();
    ctx.budget.graph = threads;
    rtcad::BatchItemResult r;
    r.wall_ms = flow_call(
        ctx,
        [&](const rtcad::FlowContext& c) { r = rtcad::run_batch_item(item_, c); },
        tracer,
        threads == 1 ? "flow.run_batch_item.t1" : "flow.run_batch_item.tN",
        item);
    return r;
  }

  void check(const rtcad::BatchItemResult& r, int threads, RunResult* out) {
    const std::string record = rtcad::item_record_json(r);
    const std::string tag = "pipeline19 at " + std::to_string(threads) +
                            " graph thread(s)";
    out->check(r.ok, tag + " failed: " + r.diagnostic.message);
    out->check(r.states == kStates && record.find(kReachability) !=
                                          std::string::npos,
               tag + ": expected " + kReachability);
    if (reference_.empty()) reference_ = record;
    out->check(record == reference_,
               tag + ": record differs from the first record of this run");
  }

  const Options& opt_;
  rtcad::Rng rng_;
  rtcad::BatchSpec item_;
  std::string reference_;
  std::vector<CallSample> samples_;
  Quality quality_;
  double ips_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_bigstate_workload(const Options& opt) {
  return std::make_unique<BigstateWorkload>(opt);
}

}  // namespace perfbench
