#include "sim/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "sim/jsonlite.hpp"

namespace decentnet::sim {

Histogram::Histogram(std::size_t max_samples, std::uint64_t reservoir_seed)
    : max_samples_(max_samples), reservoir_rng_(reservoir_seed) {}

void Histogram::record(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  sum_sq_ += value * value;
  if (samples_.size() < max_samples_) {
    samples_.push_back(value);
    sorted_ = false;
  } else {
    // Reservoir sampling: keep each of the `count_` samples with equal
    // probability max_samples_/count_.
    const std::uint64_t j = reservoir_rng_.uniform_int(count_);
    if (j < max_samples_) {
      samples_[static_cast<std::size_t>(j)] = value;
      sorted_ = false;
    }
  }
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::stddev() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1);
  return var > 0 ? std::sqrt(var) : 0.0;
}

double Histogram::min() const { return count_ == 0 ? 0.0 : min_; }
double Histogram::max() const { return count_ == 0 ? 0.0 : max_; }

void Histogram::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Histogram::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  p = std::clamp(p, 0.0, 100.0);
  // Linear interpolation between closest ranks.
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1 - frac) + samples_[hi] * frac;
}

double Histogram::fraction_below(double threshold) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it =
      std::upper_bound(samples_.begin(), samples_.end(), threshold);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  // `seen` tracks the effective sample-stream length so downsampling keeps
  // reservoir semantics when the pool is already full.
  std::uint64_t seen = count_;
  for (const double v : other.samples_) {
    ++seen;
    if (samples_.size() < max_samples_) {
      samples_.push_back(v);
      sorted_ = false;
    } else {
      const std::uint64_t j = reservoir_rng_.uniform_int(seen);
      if (j < max_samples_) {
        samples_[static_cast<std::size_t>(j)] = v;
        sorted_ = false;
      }
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

void Histogram::clear() {
  count_ = 0;
  sum_ = sum_sq_ = min_ = max_ = 0;
  samples_.clear();
  sorted_ = true;
}

Counter& MetricRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     std::size_t max_samples) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram(max_samples))
      .first->second;
}

void MetricRegistry::merge_from(const MetricRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name).add(c.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h.max_samples()).merge(h);
  }
}

std::string MetricRegistry::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;  // scoped names contain no characters needing escapes
    out += "\":";
    out += std::to_string(c.value());
  }
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":{\"count\":";
    out += std::to_string(h.count());
    out += ",\"mean\":";
    out += jsonlite::format_double(h.mean());
    out += ",\"p50\":";
    out += jsonlite::format_double(h.percentile(50));
    out += ",\"p90\":";
    out += jsonlite::format_double(h.percentile(90));
    out += ",\"p99\":";
    out += jsonlite::format_double(h.percentile(99));
    out += ",\"max\":";
    out += jsonlite::format_double(h.max());
    out += '}';
  }
  out += '}';
  return out;
}

}  // namespace decentnet::sim
