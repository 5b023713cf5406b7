#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>

namespace svsbench {
namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Initialised before main() runs: the origin of setup_s.
const std::int64_t kProcessStartNs = clock_ns(CLOCK_MONOTONIC);

}  // namespace

std::int64_t mono_ns() { return clock_ns(CLOCK_MONOTONIC); }

double since_process_start_s() {
  return static_cast<double>(mono_ns() - kProcessStartNs) / 1e9;
}

double process_cpu_s() {
  return static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID)) / 1e9;
}

double thread_cpu_s() {
  return static_cast<double>(clock_ns(CLOCK_THREAD_CPUTIME_ID)) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

std::size_t Histogram::index(std::uint64_t v) {
  if (v < (1u << kSubBits)) return static_cast<std::size_t>(v);
  const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
  const unsigned shift = msb - (kSubBits - 1);  // keeps the top 10 bits
  const std::uint64_t top = v >> shift;           // in [512, 1024)
  return (1u << kSubBits) + (shift - 1) * 512 + static_cast<std::size_t>(top - 512);
}

double Histogram::quantile_ms(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen < rank) continue;
    if (i < (1u << kSubBits)) return static_cast<double>(i) / 1e6;
    const std::size_t rel = i - (1u << kSubBits);
    const unsigned shift = static_cast<unsigned>(rel / 512) + 1;
    const double low = static_cast<double>((512 + rel % 512) << shift);
    const double width = static_cast<double>(std::uint64_t{1} << shift);
    // The bucket's samples are taken as spread evenly over its width.
    const double in_bucket =
        static_cast<double>(rank - (seen - counts_[i])) - 0.5;
    return (low + width * in_bucket / static_cast<double>(counts_[i])) / 1e6;
  }
  return 0.0;
}

}  // namespace svsbench
