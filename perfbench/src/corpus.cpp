// corpus: the real design traffic. The 19 checked-in specs x {rt, si} run
// through --to verify-netlist by a closed loop of workers, each calling
// run_batch_item on the next item of a seeded shuffle. Synthesis, encode,
// size and verify do most of the work here; reachability almost none.
#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

class CorpusWorkload : public Workload {
 public:
  explicit CorpusWorkload(const Options& opt) : opt_(opt), rng_(opt.seed) {}

  double setup(RunResult* out) override {
    // Each set-up is complete: parse the corpus and the golden, then one
    // untimed warm-up pass over every item.
    constexpr int kSetups = 15;
    std::vector<double> setup_s;
    for (int k = 0; k < kSetups; ++k) {
      const auto t0 = Clock::now();
      corpus_ = load_corpus();
      checker_ = std::make_unique<CorpusChecker>(load_golden(opt_.golden));
      cursor_ = 0;
      order_.clear();
      Tracer off;
      loop(0, off);
      setup_s.push_back(ms_since(t0) / 1000.0);
      merge_checks(out);
    }
    quality_ = corpus_quality(pass_results_);
    return median(setup_s);
  }

  void window(double seconds, Tracer& tracer, RunResult* out) override {
    ips_ = loop(seconds, tracer);
    merge_checks(out);
  }

  void report(RunResult* out, bool metrics) override {
    out->notes.push_back(
        "corpus: RT records checked byte-equal to " + opt_.golden +
        "; SI records have no golden and are checked for determinism only");
    if (!coverage_.empty())
      out->notes.push_back(
          "stage spans cover " + std::to_string(100 * median(coverage_)) +
          "% of a traced item's wall time (median; min " +
          std::to_string(100 * quantile(coverage_, 0)) +
          "%); the rest is flow.run_batch_item self time, building the record");
    if (metrics)
      add_call_metrics(samples_, ips_, quality_, out);
    else
      add_tracing_note(samples_, out);
  }

 private:
  /// Next corpus index of the seeded call sequence: a fresh shuffle of
  /// the corpus per pass.
  int next_item() {
    std::lock_guard<std::mutex> lock(mu_);
    if (cursor_ == order_.size()) {
      std::vector<int> pass(corpus_.size());
      for (std::size_t i = 0; i < pass.size(); ++i)
        pass[i] = static_cast<int>(i);
      for (std::size_t i = pass.size(); i > 1; --i)
        std::swap(pass[i - 1], pass[rng_.below(i)]);
      order_.insert(order_.end(), pass.begin(), pass.end());
    }
    return order_[cursor_++];
  }

  /// Run calls on opt_.corpus_workers threads until `seconds` pass; with
  /// seconds == 0, run exactly one pass (the warm-up). Returns completed
  /// calls per second, timed to the last completion.
  double loop(double seconds, Tracer& tracer) {
    const std::size_t one_pass = corpus_.size();
    std::atomic<std::size_t> claimed{0};
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const int workers = opt_.corpus_workers;
    std::vector<std::vector<CallSample>> samples(workers);
    std::vector<std::vector<double>> coverage(workers);
    std::vector<Clock::time_point> last_end(workers, start);
    std::vector<std::pair<int, rtcad::BatchItemResult>> pass;
    std::mutex pass_mu;

    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (;;) {
          if (seconds == 0 ? claimed.fetch_add(1) >= one_pass
                           : Clock::now() >= deadline)
            break;
          const int i = next_item();
          const bool traced = tracer.sample();
          rtcad::BatchItemResult r =
              call(i, traced ? &tracer : nullptr, &coverage[w]);
          last_end[w] = Clock::now();
          samples[w].push_back(CallSample{i, r.wall_ms, true, traced});
          std::string why = checker_->check(corpus_[i], r);
          std::lock_guard<std::mutex> lock(pass_mu);
          checks_.emplace_back(std::move(why));
          if (seconds == 0) pass.emplace_back(i, std::move(r));
        }
      });
    }
    for (std::thread& t : threads) t.join();

    samples_.clear();
    for (int w = 0; w < workers; ++w) {
      samples_.insert(samples_.end(), samples[w].begin(), samples[w].end());
      coverage_.insert(coverage_.end(), coverage[w].begin(), coverage[w].end());
    }
    if (seconds == 0) {
      std::sort(pass.begin(), pass.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      pass_results_.clear();
      for (auto& [i, r] : pass) pass_results_.push_back(std::move(r));
    }
    const double elapsed =
        ms_between(start, *std::max_element(last_end.begin(), last_end.end()));
    return elapsed > 0 ? 1000.0 * static_cast<double>(samples_.size()) / elapsed
                       : 0;
  }

  /// One timed run_batch_item call; a traced one also records how much of
  /// its wall time the stage spans cover.
  rtcad::BatchItemResult call(int i, Tracer* tracer,
                              std::vector<double>* coverage) {
    rtcad::BatchItemResult r;
    std::vector<std::pair<std::string, double>> stages;
    r.wall_ms = flow_call(
        single_thread_context(),
        [&](const rtcad::FlowContext& ctx) {
          r = rtcad::run_batch_item(corpus_[i], ctx);
        },
        tracer, "flow.run_batch_item", i, &stages);
    if (tracer) {
      double covered = 0;
      for (const auto& [stage, ms] : stages) covered += ms;
      coverage->push_back(r.wall_ms > 0 ? covered / r.wall_ms : 1);
    }
    return r;
  }

  void merge_checks(RunResult* out) {
    for (const std::string& why : checks_) out->check(why.empty(), why);
    checks_.clear();
  }

  const Options& opt_;
  rtcad::Rng rng_;
  std::vector<rtcad::BatchSpec> corpus_;
  std::unique_ptr<CorpusChecker> checker_;
  std::mutex mu_;  // guards cursor_, order_, rng_
  std::size_t cursor_ = 0;
  std::vector<int> order_;
  std::vector<std::string> checks_;  // one per call: "" or the failure
  std::vector<rtcad::BatchItemResult> pass_results_;  // warm-up, corpus order
  std::vector<CallSample> samples_;
  std::vector<double> coverage_;  // traced calls: stage spans / wall time
  Quality quality_;
  double ips_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_corpus_workload(const Options& opt) {
  return std::make_unique<CorpusWorkload>(opt);
}

}  // namespace perfbench
