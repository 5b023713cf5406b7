// Shared plumbing of the benchmark: clocks, percentiles, seeded draws and
// the result record every workload fills in.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace svsbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured phase length (wall)
  bool trace = false;
  std::string out_dir = "svsbench/out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operation counts, the check verdict, and the
/// metrics of both modes (main.cpp prints the set the mode asks for).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed correctness checks
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // human-readable lines (traced report)

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

std::int64_t mono_ns();
/// Seconds since this process started (static initialisation time).
double since_process_start_s();
double process_cpu_s();
double thread_cpu_s();
double peak_rss_mb();

/// Nearest-rank quantile, q in [0, 1].  0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Latency histogram with log-linear buckets: exact below 1024 ns, then 512
/// buckets per power of two (relative resolution 0.2%).  Fixed size, so the
/// harness's own memory does not grow with the run's length and blur
/// peak_rss_mb.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}
  void add_ns(std::int64_t ns) {
    ++counts_[index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
    ++total_;
  }
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// Nearest-rank quantile in ms, interpolated within its bucket; 0 when
  /// empty.
  [[nodiscard]] double quantile_ms(double q) const;

 private:
  static constexpr unsigned kSubBits = 10;
  static constexpr std::size_t kBuckets = (1u << kSubBits) + 64 * 512;
  static std::size_t index(std::uint64_t v);

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// splitmix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }
  /// Failures before the first success of a Bernoulli(p) trial, p in (0, 1).
  std::uint64_t geometric(double p) {
    return static_cast<std::uint64_t>(
        std::floor(std::log1p(-uniform()) / std::log1p(-p)));
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed for part `index` of a run.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t index) {
  return Rng(seed ^ (index * 0xD1B54A32D192ED03ULL)).next();
}

}  // namespace svsbench
