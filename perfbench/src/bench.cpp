#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "stg/parse.hpp"
#include "util/check.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

// --- the corpus -------------------------------------------------------------

std::vector<rtcad::BatchSpec> load_corpus() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator("specs"))
    if (entry.path().extension() == ".g")
      paths.push_back("specs/" + entry.path().filename().string());
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) throw rtcad::Error("no specs/*.g files found");

  std::vector<rtcad::BatchSpec> corpus;
  for (const std::string& path : paths) {
    const rtcad::Stg spec = rtcad::parse_stg_file(path);
    for (const rtcad::FlowMode mode : {rtcad::FlowMode::kRelativeTiming,
                                       rtcad::FlowMode::kSpeedIndependent}) {
      rtcad::BatchSpec item;
      item.name = path;
      item.spec = spec;
      item.opts.mode = mode;
      item.opts.stop_after = "verify-netlist";
      corpus.push_back(std::move(item));
    }
  }
  return corpus;
}

std::map<std::string, std::string> load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw rtcad::Error("cannot read golden file " + path);
  std::map<std::string, std::string> records;
  const std::string prefix = "{\"name\": \"";
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t b = line.find_first_not_of(' ');
    if (b == std::string::npos || line.compare(b, prefix.size(), prefix) != 0)
      continue;
    std::string record = line.substr(b);
    if (!record.empty() && record.back() == ',') record.pop_back();
    const std::size_t name_end = record.find('"', prefix.size());
    records[record.substr(prefix.size(), name_end - prefix.size())] = record;
  }
  if (records.empty()) throw rtcad::Error("no item records in " + path);
  return records;
}

std::string CorpusChecker::check(const rtcad::BatchSpec& item,
                                 const rtcad::BatchItemResult& r) {
  if (!r.ok &&
      (r.diagnostic.kind == "internal" || r.diagnostic.kind == "cancelled"))
    return item.name + ": " + r.diagnostic.kind + " diagnostic: " +
           r.diagnostic.message;
  const std::string record = rtcad::item_record_json(r);
  if (item.opts.mode == rtcad::FlowMode::kRelativeTiming) {
    const auto it = golden_.find(item.name);
    if (it == golden_.end()) return item.name + " (rt): no golden record";
    if (it->second != record)
      return item.name + " (rt): record differs from the golden";
    return {};
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, fresh] = si_first_.emplace(item.name, record);
  if (!fresh && it->second != record)
    return item.name + " (si): record differs from this run's first one";
  return {};
}

namespace {

bool conforms(const rtcad::BatchItemResult& r) {
  for (const rtcad::FlowStage& s : r.stages)
    if (s.name == "conformance" && s.detail.rfind("conforms", 0) == 0)
      return true;
  return false;
}

}  // namespace

Quality corpus_quality(const std::vector<rtcad::BatchItemResult>& results) {
  Quality q;
  for (const rtcad::BatchItemResult& r : results) {
    if (!r.ok) continue;
    q.transistors += r.transistors;
    q.conformant += conforms(r) ? 1 : 0;
  }
  return q;
}

rtcad::FlowContext single_thread_context() {
  rtcad::FlowContext ctx;
  ctx.budget.corpus = 1;
  ctx.budget.graph = 1;
  ctx.budget.candidate = 1;
  return ctx;
}

void add_call_metrics(const std::vector<CallSample>& samples,
                      double items_per_s, const Quality& q, RunResult* out) {
  std::map<int, std::vector<double>> flow_by_item;
  std::vector<double> all;
  for (const CallSample& s : samples) {
    all.push_back(s.ms);
    if (s.flow) flow_by_item[s.item].push_back(s.ms);
  }
  std::vector<double> item_p10, item_medians;
  std::size_t flow_calls = 0;
  for (const auto& [item, ms] : flow_by_item) {
    item_p10.push_back(quantile(ms, 0.1));
    item_medians.push_back(median(ms));
    flow_calls += ms.size();
  }
  out->metric("items_per_s", items_per_s, "1/s");
  // A shared host slows calls in spells that cover anywhere from none to
  // most of a run, which moves an item's median from run to run; its 10th
  // percentile stays with the calls no spell touched.
  out->metric("item_ms_p10_geomean", geomean(item_p10), "ms");
  out->metric("peak_rss_mb", peak_rss_mb(), "MB");
  out->metric("transistors_total", static_cast<double>(q.transistors), "count");
  out->metric("conformant_items", static_cast<double>(q.conformant), "count");
  // The medians and the tail are printed, not gated on: run to run they
  // spread too widely on a shared host to hold any bound.
  out->notes.push_back(
      "calls timed: " + std::to_string(all.size()) +
      " (flow runs: " + std::to_string(flow_calls) +
      ", distinct items run: " + std::to_string(flow_by_item.size()) +
      "); geomean of item medians " + std::to_string(geomean(item_medians)) +
      " ms; all calls p50 " + std::to_string(median(all)) + " ms, p99 " +
      std::to_string(quantile(all, 0.99)) + " ms");
}

void add_tracing_note(const std::vector<CallSample>& samples, RunResult* out) {
  std::map<int, std::vector<double>> on, off;
  for (const CallSample& s : samples)
    (s.traced ? on : off)[s.item].push_back(s.ms);
  std::vector<double> ratios;
  for (const auto& [item, ms] : on)
    if (off.count(item)) ratios.push_back(median(ms) / median(off[item]));
  if (ratios.empty()) {
    out->notes.push_back(
        "tracing overhead: not measured; no item ran both traced and untraced");
    return;
  }
  const double overhead = geomean(ratios) - 1;
  out->notes.push_back(
      "tracing overhead: a traced call takes " +
      std::to_string(100 * overhead) +
      "% longer than an untraced one (geomean over " +
      std::to_string(ratios.size()) +
      " items of the median ratio), so traced items_per_s is " +
      std::to_string(1 / (1 + overhead)) + " x untraced");
}

// --- tracing ----------------------------------------------------------------

double flow_call(rtcad::FlowContext ctx,
                 const std::function<void(const rtcad::FlowContext&)>& call,
                 Tracer* tracer, const std::string& name, int item,
                 std::vector<std::pair<std::string, double>>* stage_ms) {
  std::vector<std::pair<std::string, Clock::time_point>> ends;
  if (tracer)
    ctx.on_stage = [&ends](const rtcad::StageTrace& t) {
      ends.emplace_back(t.stage, Clock::now());
    };
  const auto t0 = Clock::now();
  call(ctx);
  const auto t1 = Clock::now();
  if (tracer) {
    const int parent = tracer->add(name, t0, t1, -1, item);
    auto prev = t0;
    for (const auto& [stage, end] : ends) {
      tracer->add("flow.stage." + stage, prev, end, parent, item);
      if (stage_ms) stage_ms->emplace_back(stage, ms_between(prev, end));
      prev = end;
    }
  }
  return ms_between(t0, t1);
}

int Tracer::add(const std::string& name, Clock::time_point start,
                Clock::time_point end, int parent, int item) {
  if (!enabled_) return -1;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  const std::size_t tid_key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) return -1;
  const auto [it, fresh] =
      tids_.emplace(tid_key, static_cast<int>(tids_.size()));
  spans_.push_back(Span{name, us(start), us(end), parent, item, it->second});
  return static_cast<int>(spans_.size() - 1);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double us = spans_[i].end_us - spans_[i].start_us - child_us[i];
    self[spans_[i].name] += std::max(0.0, us) / 1000.0;
  }
  return self;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::map<std::string, double> layers;
  for (const auto& [name, ms] : self_ms_by_name())
    layers[name.substr(0, name.find('.'))] += ms;
  return layers;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  if (!out) throw rtcad::Error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"cat\": \""
        << s.name.substr(0, s.name.find('.')) << "\", \"ph\": \"X\"";
    std::snprintf(buf, sizeof buf,
                  ", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"item\": %d}}",
                  s.start_us, s.end_us - s.start_us, s.tid, i, s.parent,
                  s.item);
    out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

void Tracer::print_self_time_table() const {
  std::map<std::string, std::pair<long long, double>> count_total;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      auto& [n, total] = count_total[s.name];
      ++n;
      total += (s.end_us - s.start_us) / 1000.0;
    }
  }
  const auto self = self_ms_by_name();
  std::fprintf(stderr, "%-34s %9s %12s %12s\n", "span", "count", "total ms",
               "self ms");
  for (const auto& [name, ct] : count_total)
    std::fprintf(stderr, "%-34s %9lld %12.3f %12.3f\n", name.c_str(), ct.first,
                 ct.second, self.at(name));
  std::fprintf(stderr, "%-34s %9s %12s %12s\n", "layer", "", "", "self ms");
  for (const auto& [layer, ms] : self_ms_by_layer())
    std::fprintf(stderr, "%-34s %9s %12s %12.3f\n", layer.c_str(), "", "", ms);
}

}  // namespace perfbench
