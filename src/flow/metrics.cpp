#include "flow/metrics.hpp"

#include <cmath>

#include "flow/context.hpp"
#include "util/strings.hpp"

namespace rtcad {

const std::vector<long long>& Histogram::bucket_bounds_us() {
  // One fixed ladder for every histogram in the process: ~1-2.5-5 decade
  // steps from 100µs to 10s. Changing this ladder is a metrics-schema
  // change and must bump the documented schema in docs/CLI.md.
  static const std::vector<long long> kBounds = {
      100,     250,     500,      1000,     2500,     5000,
      10000,   25000,   50000,    100000,   250000,   500000,
      1000000, 2500000, 5000000,  10000000, 25000000,
  };
  return kBounds;
}

void Histogram::observe_us(long long us) {
  if (us < 0) us = 0;
  const auto& bounds = bucket_bounds_us();
  std::size_t i = 0;
  while (i < bounds.size() && us > bounds[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(us, std::memory_order_relaxed);
}

std::vector<long long> Histogram::bucket_counts() const {
  std::vector<long long> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

long long MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

void MetricsRegistry::observe_stage(const StageTrace& trace) {
  histogram("stage_us." + trace.stage)
      .observe_us(static_cast<long long>(trace.wall_ms * 1000.0));
  counter("stage_total." + trace.stage + "." + status_word(trace.status))
      .add(1);
}

std::string MetricsRegistry::to_json() const {
  // std::map keeps names sorted, which is what makes the rendered
  // schema deterministic given a deterministic set of instrument names.
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\"schema\":1,\"kind\":\"metrics\",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += strprintf("\"%s\":%lld", name.c_str(), c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += strprintf("\"%s\":%lld", name.c_str(), g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += strprintf("\"%s\":{\"bounds_us\":[", name.c_str());
    const auto& bounds = Histogram::bucket_bounds_us();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(bounds[i]);
    }
    out += "],\"counts\":[";
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(counts[i]);
    }
    out += strprintf("],\"count\":%lld,\"sum_us\":%lld}", h->count(),
                     h->sum_us());
  }
  out += "}}";
  return out;
}

}  // namespace rtcad
