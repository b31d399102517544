// Measurement primitives used by every experiment.
//
// Histogram keeps raw samples (with optional reservoir downsampling) so the
// benches can report exact percentiles; Counter is a simple scalar. A
// MetricRegistry maps scoped names ("<layer>/<name>", e.g. "net/bytes_sent",
// "chain/blocks_mined") to metric objects with *stable addresses*: components
// look a handle up once at construction and record through the reference on
// the hot path — no per-record string hashing or map walks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.hpp"

namespace decentnet::sim {

/// Collects double-valued samples and answers summary-statistics queries.
///
/// Stores every sample up to `max_samples`, then switches to reservoir
/// sampling (Vitter's algorithm R) so memory stays bounded while percentile
/// estimates remain unbiased. count()/sum()/mean() are always exact.
class Histogram {
 public:
  explicit Histogram(std::size_t max_samples = 1 << 20,
                     std::uint64_t reservoir_seed = 0x5EED);

  void record(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// Percentile in [0, 100]. Returns 0 when empty.
  double percentile(double p) const;
  double median() const { return percentile(50); }

  /// Fraction of samples <= threshold (empirical CDF). Returns 0 when empty.
  double fraction_below(double threshold) const;

  /// Fold `other`'s data into this histogram. count/sum/mean/min/max stay
  /// exact; the sample pool is the concatenation of both pools (reservoir-
  /// downsampled past capacity), so percentiles are exact whenever neither
  /// side overflowed its reservoir. Deterministic in the merge order — the
  /// parallel experiment runner merges per-point registries in submission
  /// order so artifacts don't depend on thread scheduling.
  void merge(const Histogram& other);

  std::size_t max_samples() const { return max_samples_; }
  const std::vector<double>& samples() const { return samples_; }
  void clear();

 private:
  void ensure_sorted() const;

  std::size_t max_samples_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
  mutable bool sorted_ = true;
  mutable std::vector<double> samples_;
  mutable Rng reservoir_rng_;
};

/// Monotonically increasing count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// A named collection of counters and histograms, shared across the
/// components of one experiment.
///
/// Handle contract: counter()/histogram() return references that stay valid
/// for the registry's lifetime (node-based storage), so the idiomatic use is
///
///   class FullNode {
///     sim::Counter& blocks_accepted_;   // bound once in the ctor
///     ...
///     FullNode(net::Network& net, ...)
///         : blocks_accepted_(net.metrics().counter("chain/blocks_accepted"))
///   };
///
/// and the hot path is a plain integer add through the reference.
class MetricRegistry {
 public:
  /// Look up or create the counter under `name` (scoped "<layer>/<name>").
  Counter& counter(std::string_view name);
  /// Look up or create the histogram under `name`. `max_samples` only
  /// applies when the call creates the histogram.
  Histogram& histogram(std::string_view name,
                       std::size_t max_samples = 1 << 20);

  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  /// Fold every metric of `other` into this registry (counters add, same-name
  /// histograms merge). Used by the parallel experiment runner to combine
  /// per-sweep-point registries deterministically.
  void merge_from(const MetricRegistry& other);

  /// All metrics as one deterministic JSON object: counters map to integer
  /// values, histograms to {count, mean, p50, p90, p99, max} objects.
  std::string to_json() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace decentnet::sim
