// rtbench: the rtcad benchmark driver. Usually started by run.py, which
// builds it first:
//
//   rtbench --workload corpus|bigstate|serve --seed N --seconds S --trace 0|1
//           [--golden FILE] [--commit ID] [--source-digest HEX]
//
// Run from the repository root (it reads specs/). The last line of stdout
// is the result: {"correct", "attempted", "failed", "metrics"}; the line
// before it records provenance. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the per-layer ones, and the run also
// writes a Chrome trace to .bench_build/traces/<workload>-seed<N>.json and
// prints a self-time table and the tracing
// overhead (every other call of the window is traced) on stderr.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef RTBENCH_BUILD_TYPE
#define RTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef RTBENCH_COMPILER
#define RTBENCH_COMPILER "unknown"
#endif
#ifndef RTBENCH_SANITIZED
#define RTBENCH_SANITIZED 0
#endif

namespace perfbench {
namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "rtbench: %s\nusage: rtbench --workload corpus|bigstate|serve "
               "--seed N --seconds S --trace 0|1 [--golden FILE] "
               "[--commit ID] [--source-digest HEX]\n",
               why);
  return 2;
}

/// Parses argv into `opt`; returns an error message, or "" when valid.
std::string parse_args(int argc, char** argv, Options* opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return "missing value for " + flag;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (value != "corpus" && value != "bigstate" && value != "serve")
        return "unknown workload '" + value + "'";
      opt->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end) return "--seed needs an unsigned integer";
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end || !(opt->seconds > 0) || opt->seconds > 600)
        return "--seconds needs a number in (0, 600]";
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return "--trace needs 0 or 1";
      opt->trace = value == "1";
    } else if (flag == "--golden") {
      opt->golden = value;
    } else if (flag == "--commit") {
      opt->commit = value;
    } else if (flag == "--source-digest") {
      opt->source_digest = value;
    } else {
      return "unknown flag " + flag;
    }
  }
  if (!have_workload) return "--workload is required";
  return {};
}

void print_provenance(const Options& opt) {
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"nproc\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"sanitizers\": %s, \"threads\": {\"corpus_workers\": %d, "
      "\"serve_clients\": %d, \"serve_budget\": {\"corpus\": %d, \"graph\": 1, "
      "\"candidate\": 1}, \"bigstate_graph_threads\": [1, %d], "
      "\"flow_graph_threads\": 1, \"flow_candidate_threads\": 1}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.commit.c_str(),
      opt.source_digest.c_str(), opt.nproc, RTBENCH_BUILD_TYPE,
      RTBENCH_COMPILER, RTBENCH_SANITIZED ? "true" : "false",
      opt.corpus_workers, opt.corpus_workers, opt.corpus_workers,
      opt.graph_threads_n);
}

void print_result(const RunResult& res) {
  std::string out = "{\"correct\": ";
  out += res.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Options& opt) {
  RunResult res;
  std::unique_ptr<Workload> w = opt.workload == "corpus"
                                    ? make_corpus_workload(opt)
                                : opt.workload == "bigstate"
                                    ? make_bigstate_workload(opt)
                                    : make_serve_workload(opt);
  const double setup_s = w->setup(&res);
  if (!opt.trace) {
    Tracer off;
    w->window(opt.seconds, off, &res);
    w->report(&res, true);
    res.metric("setup_s", setup_s, "s");
    res.metric("ok_rate",
               1.0 - static_cast<double>(res.failed) /
                         static_cast<double>(std::max(1LL, res.attempted)),
               "ratio");
  } else {
    Tracer on(true);
    w->window(opt.seconds, on, &res);
    w->report(&res, false);
    res.notes.push_back(std::to_string(on.size()) + " workload spans");
    run_layer_suite(opt, on, &res);
    on.print_self_time_table();
    const std::string trace_file = ".bench_build/traces/" + opt.workload +
                                   "-seed" + std::to_string(opt.seed) +
                                   ".json";
    on.write_chrome_json(trace_file);
    res.notes.push_back("trace written to " + trace_file);
  }
  for (const std::string& n : res.notes)
    std::fprintf(stderr, "%s\n", n.c_str());
  for (const std::string& f : res.failures)
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  print_result(res);
  return res.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  const std::string why = parse_args(argc, argv, &opt);
  if (!why.empty()) return usage(why.c_str());
  if (std::strcmp(RTBENCH_BUILD_TYPE, "Release") != 0 || RTBENCH_SANITIZED) {
    std::fprintf(stderr,
                 "rtbench: REFUSING TO MEASURE a %s%s build; rebuild with "
                 "CMAKE_BUILD_TYPE=Release and no sanitizers\n",
                 RTBENCH_BUILD_TYPE, RTBENCH_SANITIZED ? " sanitizer" : "");
    return 2;
  }
  // Cores this process may run on, as `nproc` counts them.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  opt.nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                  ? std::max(1, CPU_COUNT(&cpus))
                  : static_cast<int>(
                        std::max(1u, std::thread::hardware_concurrency()));
  opt.corpus_workers = std::min(2, opt.nproc);
  opt.graph_threads_n = std::min(4, opt.nproc);
  print_provenance(opt);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtbench: error: %s\n", e.what());
    return 3;
  }
}
