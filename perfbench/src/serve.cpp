// serve: an in-process FlowService on a Unix socket with a fresh result
// store, driven by closed-loop clients calling serve_submit over the 38
// corpus items. By seed, 75% of requests repeat an already-served (name,
// spec, mode) — a cache read — and 25% carry a fresh display name, which
// forces a flow run plus a store. Transport, gate and cache do most of the
// work here and nowhere else; reads and writes share the store.
//
// The daemon keeps one thread per connection until it stops, and each
// parked thread holds two memory mappings, so one daemon can serve only a
// few ten thousand requests. The workload therefore restarts it on the
// same store every kRequestsPerDaemon requests; restarts are not timed.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "flow/cache.hpp"
#include "flow/metrics.hpp"
#include "flow/service.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr long long kRequestsPerDaemon = 6000;
constexpr double kMissShare = 0.25;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Bucket counts of one histogram in a metrics snapshot.
std::vector<long long> histogram_counts(const std::string& snapshot,
                                        const std::string& name) {
  std::vector<long long> counts;
  std::size_t at = snapshot.find("\"" + name + "\":");
  if (at == std::string::npos) return counts;
  at = snapshot.find("\"counts\":[", at);
  if (at == std::string::npos) return counts;
  std::istringstream in(snapshot.substr(at + 10));
  long long v = 0;
  char sep = 0;
  while (in >> v) {
    counts.push_back(v);
    if (!(in >> sep) || sep != ',') break;
  }
  return counts;
}

/// Quantile of a bucketed histogram in ms, linear within a bucket.
double histogram_quantile_ms(const std::vector<long long>& counts, double q) {
  const auto& bounds = rtcad::Histogram::bucket_bounds_us();
  long long total = 0;
  for (long long c : counts) total += c;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double lo = b == 0 ? 0 : static_cast<double>(bounds[b - 1]);
    const double hi =
        static_cast<double>(bounds[std::min(b, bounds.size() - 1)]);
    if (seen + static_cast<double>(counts[b]) >= rank)
      return (lo + (hi - lo) * (rank - seen) / static_cast<double>(counts[b])) /
             1000.0;
    seen += static_cast<double>(counts[b]);
  }
  return static_cast<double>(bounds.back()) / 1000.0;
}

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const Options& opt, int setups)
      : opt_(opt), setups_(setups) {}
  ~ServeWorkload() override { shut_down(); }

  double setup(RunResult* out) override {
    // References first: the in-process record of every item, itself
    // checked like a corpus call. They are the benchmark's, not set-up.
    corpus_ = load_corpus();
    CorpusChecker checker(load_golden(opt_.golden));
    for (const rtcad::BatchSpec& item : corpus_) {
      refs_.push_back(rtcad::run_batch_item(item, single_thread_context()));
      const std::string why = checker.check(item, refs_.back());
      out->check(why.empty(), why);
      if (!spec_text_.count(item.name))
        spec_text_[item.name] = read_file(item.name);
    }
    for (int c = 0; c < opt_.corpus_workers; ++c)
      clients_.push_back(Client{rtcad::Rng(opt_.seed * 7919 + c + 1), c});

    // A complete set-up: fresh store, daemon start, a warm pass that
    // serves every item once (all misses) and so fills the store.
    std::vector<double> setup_s;
    for (int k = 0; k < setups_; ++k) {
      shut_down();
      const auto t0 = Clock::now();
      dir_ = ".bench_build/run/serve-" + std::to_string(::getpid()) + "-" +
             std::to_string(k);
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_);
      start_daemon();
      warm_pass(out);
      setup_s.push_back(ms_since(t0) / 1000.0);
    }
    return median(setup_s);
  }

  void window(double seconds, Tracer& tracer, RunResult* out) override {
    samples_.clear();
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    double active_ms = 0;
    while (Clock::now() < deadline) {
      if (kRequestsPerDaemon - daemon_requests_ < opt_.corpus_workers) {
        stop_daemon();
        start_daemon();
      }
      const long long quota =
          (kRequestsPerDaemon - daemon_requests_) / opt_.corpus_workers;
      active_ms += epoch(quota, deadline, tracer, out);
    }
    ips_ = active_ms > 0
               ? 1000.0 * static_cast<double>(samples_.size()) / active_ms
               : 0;
  }

  void report(RunResult* out, bool metrics) override {
    check_counters(out);
    if (metrics)
      add_call_metrics(samples_, ips_, corpus_quality(refs_), out);
    else
      add_tracing_note(samples_, out);
    shut_down();
  }

  /// Per-layer numbers of the serving path: one epoch of `per_client`
  /// requests per client against a warm daemon, bracketed by metrics
  /// snapshots, plus pings and direct result-store calls.
  void layer_metrics(long long per_client, Tracer& tracer, RunResult* out) {
    const rtcad::Endpoint ep = endpoint();
    const std::string before = rtcad::serve_metrics(ep);
    const rtcad::ServeStats s0 = service_->stats();
    samples_.clear();
    epoch(per_client, Clock::time_point::max(), tracer, out);
    const std::string after = rtcad::serve_metrics(ep);
    const rtcad::ServeStats s1 = service_->stats();

    std::vector<long long> counts = histogram_counts(after, "serve.request_us");
    const std::vector<long long> counts0 =
        histogram_counts(before, "serve.request_us");
    for (std::size_t b = 0; b < counts.size() && b < counts0.size(); ++b)
      counts[b] -= counts0[b];
    std::vector<double> all, hits;
    for (const CallSample& c : samples_) {
      all.push_back(c.ms);
      if (!c.flow) hits.push_back(c.ms);
    }
    const double server_p50 = histogram_quantile_ms(counts, 0.5);
    out->metric("flow.serve.server_ms_p50", server_p50, "ms");
    out->metric("flow.serve.overhead_ms_p50", median(all) - server_p50, "ms");
    out->metric("flow.serve.hit_ms_p50", median(hits), "ms");
    out->metric("flow.serve.hit_ms_p99", quantile(hits, 0.99), "ms");

    std::vector<double> ping;
    for (int i = 0; i < 200; ++i) {
      ping.push_back(timed(tracer, "flow.transport.ping", [&] {
        out->check(rtcad::serve_control(ep, "ping") == "pong", "ping failed");
      }));
    }
    out->metric("flow.transport.ping_ms_p50", median(ping), "ms");

    const long long hit = s1.cache_hits - s0.cache_hits;
    const long long miss = s1.cache_misses - s0.cache_misses;
    out->metric("flow.cache.hit_ratio",
                hit + miss > 0 ? static_cast<double>(hit) / (hit + miss) : 0,
                "ratio");
    const rtcad::ResultCache::DirStats st =
        rtcad::ResultCache(dir_ + "/store").scan();
    out->metric("flow.cache.entry_kb",
                st.entries ? static_cast<double>(st.bytes) / st.entries / 1024
                           : 0,
                "KiB");

    // The store on its own: every reference record stored once into an
    // empty directory, then looked up five times.
    const rtcad::ResultCache cache(dir_ + "/direct");
    std::vector<double> store_ms, lookup_ms;
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      keys.push_back(rtcad::cache_key(corpus_[i]));
      store_ms.push_back(timed(tracer, "flow.cache.store",
                               [&] { cache.store(keys.back(), refs_[i]); }));
    }
    for (int round = 0; round < 5; ++round)
      for (std::size_t i = 0; i < keys.size(); ++i)
        lookup_ms.push_back(timed(tracer, "flow.cache.lookup", [&] {
          const auto hit_entry = cache.lookup(keys[i]);
          out->check(hit_entry && hit_entry->name == refs_[i].name,
                     "direct cache lookup missed " + corpus_[i].name);
        }));
    out->metric("flow.cache.store_ms_p50", median(store_ms), "ms");
    out->metric("flow.cache.lookup_ms_p50", median(lookup_ms), "ms");
    check_counters(out);
    shut_down();
  }

 private:
  struct Client {
    rtcad::Rng rng;
    int id = 0;
    long long fresh = 0;  ///< fresh display names issued so far
  };

  rtcad::Endpoint endpoint() const {
    return rtcad::Endpoint::unix_path(dir_ + "/serve.sock");
  }

  void start_daemon() {
    rtcad::ServeOptions so;
    so.socket_path = dir_ + "/serve.sock";
    so.cache_dir = dir_ + "/store";
    so.budget.corpus = opt_.corpus_workers;
    so.budget.graph = 1;
    so.budget.candidate = 1;
    service_ = std::make_unique<rtcad::FlowService>(so);
    service_->start();
    daemon_requests_ = 0;
  }

  void stop_daemon() {
    if (!service_) return;
    const rtcad::ServeStats s = service_->stats();
    daemon_hits_ += s.cache_hits;
    daemon_misses_ += s.cache_misses;
    service_->stop();
    service_.reset();
  }

  /// Stop the daemon; its hit and miss counters, summed over every daemon
  /// of the run, must equal what the clients saw.
  void check_counters(RunResult* out) {
    stop_daemon();
    out->check(daemon_hits_ == client_hits_ && daemon_misses_ == client_misses_,
               "daemon counted " + std::to_string(daemon_hits_) + " hits / " +
                   std::to_string(daemon_misses_) + " misses, clients saw " +
                   std::to_string(client_hits_) + " / " +
                   std::to_string(client_misses_));
  }

  void shut_down() {
    stop_daemon();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_.clear();
  }

  rtcad::SubmitRequest request(int i, const std::string& name) const {
    rtcad::SubmitRequest req;
    req.name = name;
    req.spec_text = spec_text_.at(corpus_[i].name);
    req.mode = corpus_[i].opts.mode;
    req.stop_after = corpus_[i].opts.stop_after;
    return req;
  }

  /// Submit one request and check the answer; returns the check failure
  /// ("" when it passed).
  std::string submit(int i, const std::string& name, bool expect_miss,
                     Tracer& tracer, double* ms) {
    const rtcad::SubmitRequest req = request(i, name);
    rtcad::SubmitResult res;
    const char* span =
        expect_miss ? "flow.serve_submit.miss" : "flow.serve_submit.hit";
    *ms = timed(tracer, span,
                [&] { res = rtcad::serve_submit(endpoint(), req); }, -1, i);
    if (!res.protocol_ok)
      return name + ": " + (res.transport_failure ? "transport failure: "
                                                  : "protocol error: ") +
             res.error;
    if (res.cache_status != (expect_miss ? "miss" : "hit"))
      return name + ": expected a cache " + (expect_miss ? "miss" : "hit") +
             ", got " + res.cache_status;
    rtcad::BatchItemResult expected = refs_[i];
    expected.name = name;
    if (res.record_json != rtcad::item_record_json(expected))
      return name + ": served record differs from the in-process record";
    return {};
  }

  /// Serve every item once under its own name, split across the clients.
  void warm_pass(RunResult* out) {
    std::vector<std::string> why(corpus_.size());
    std::vector<std::thread> threads;
    for (int c = 0; c < opt_.corpus_workers; ++c)
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < corpus_.size(); i += opt_.corpus_workers) {
          double ms = 0;
          why[i] = submit(static_cast<int>(i), corpus_[i].name, true,
                          untraced_, &ms);
        }
      });
    for (std::thread& t : threads) t.join();
    for (const std::string& w : why) out->check(w.empty(), w);
    client_misses_ += static_cast<long long>(corpus_.size());
    daemon_requests_ += static_cast<long long>(corpus_.size());
  }

  /// Every client issues up to `quota` requests or runs until `deadline`.
  /// Returns the epoch's wall time to its last completed request.
  double epoch(long long quota, Clock::time_point deadline, Tracer& tracer,
               RunResult* out) {
    const auto start = Clock::now();
    const int n = opt_.corpus_workers;
    std::vector<std::vector<CallSample>> samples(n);
    std::vector<std::vector<std::string>> failures(n);
    std::vector<long long> hits(n, 0), misses(n, 0);
    std::vector<Clock::time_point> last_end(n, start);
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c)
      threads.emplace_back([&, c] {
        Client& cl = clients_[c];
        for (long long k = 0; k < quota && Clock::now() < deadline; ++k) {
          const int i = static_cast<int>(cl.rng.below(corpus_.size()));
          const bool miss = cl.rng.chance(kMissShare);
          const std::string name =
              miss ? corpus_[i].name + "#" + std::to_string(cl.id) + "-" +
                         std::to_string(++cl.fresh)
                   : corpus_[i].name;
          double ms = 0;
          const bool traced = tracer.sample();
          failures[c].push_back(
              submit(i, name, miss, traced ? tracer : untraced_, &ms));
          last_end[c] = Clock::now();
          samples[c].push_back(CallSample{i, ms, miss, traced});
          ++(miss ? misses[c] : hits[c]);
        }
      });
    for (std::thread& t : threads) t.join();
    for (int c = 0; c < n; ++c) {
      for (const std::string& w : failures[c]) out->check(w.empty(), w);
      samples_.insert(samples_.end(), samples[c].begin(), samples[c].end());
      client_hits_ += hits[c];
      client_misses_ += misses[c];
      daemon_requests_ += hits[c] + misses[c];
    }
    return ms_between(start,
                      *std::max_element(last_end.begin(), last_end.end()));
  }

  const Options& opt_;
  const int setups_;
  std::vector<rtcad::BatchSpec> corpus_;
  std::vector<rtcad::BatchItemResult> refs_;
  std::map<std::string, std::string> spec_text_;
  std::vector<Client> clients_;
  std::string dir_;
  std::unique_ptr<rtcad::FlowService> service_;
  std::vector<CallSample> samples_;
  Tracer untraced_;  // records nothing
  long long daemon_requests_ = 0;  // served by the current daemon
  long long client_hits_ = 0, client_misses_ = 0;
  long long daemon_hits_ = 0, daemon_misses_ = 0;  // of stopped daemons
  double ips_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const Options& opt) {
  return std::make_unique<ServeWorkload>(opt, 7);
}

void serve_layer_metrics(const Options& opt, Tracer& tracer, RunResult* out) {
  ServeWorkload w(opt, 1);
  w.setup(out);
  w.layer_metrics(400, tracer, out);
}

}  // namespace perfbench
