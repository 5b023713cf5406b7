#include "layers.hpp"

#include <cstdio>
#include <filesystem>

namespace svsbench {
namespace {

const Tracer::Totals* find(const std::vector<Tracer::Totals>& totals,
                           const std::string& name) {
  for (const auto& t : totals) {
    if (name == t.name) return &t;
  }
  return nullptr;
}

}  // namespace

LayerReport::LayerReport(Result& result, const Options& options,
                         const std::vector<const Tracer*>& tracers,
                         std::string root, double ops)
    : result_(result),
      totals_(merge_totals(tracers)),
      root_(std::move(root)),
      ops_(ops) {
  for (const Tracer* t : tracers) spans_ += t->spans_recorded();
  if (!options.trace) return;
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  trace_path_ = options.out_dir + "/trace_" + options.workload + "_seed" +
                std::to_string(options.seed) + ".json";
  if (!write_chrome_trace(trace_path_, tracers)) {
    result_.problems.push_back("cannot write " + trace_path_);
  }
}

void LayerReport::time_per_call(const std::string& metric,
                                const std::string& span) {
  const auto* t = find(totals_, span);
  result_.layer(metric,
                t == nullptr ? 0.0
                             : ratio(static_cast<double>(t->total_ns),
                                     static_cast<double>(t->count)),
                "ns");
}

void LayerReport::self_per_op(const std::string& metric,
                              const std::string& span) {
  const auto* t = find(totals_, span);
  result_.layer(
      metric,
      t == nullptr ? 0.0 : ratio(static_cast<double>(t->self_ns) / 1e3, ops_),
      "us");
}

void LayerReport::overhead(const std::string& figure, double untraced,
                           double traced, const std::string& unit) {
  const auto* root = find(totals_, root_);
  const double root_ns = root == nullptr ? 0.0
                                         : static_cast<double>(root->total_ns);
  char line[256];
  result_.notes.push_back("traced spans (self time per operation, " +
                          std::to_string(static_cast<long long>(ops_)) +
                          " traced operations):");
  std::snprintf(line, sizeof(line), "  %-22s %12s %14s %8s", "span", "calls",
                "self us/op", "share");
  result_.notes.push_back(line);
  double layers_us = 0.0;
  for (const auto& t : totals_) {
    const double self_us = ratio(static_cast<double>(t.self_ns) / 1e3, ops_);
    if (root_ != t.name) layers_us += self_us;
    std::snprintf(line, sizeof(line), "  %-22s %12llu %14.3f %7.1f%%",
                  root_ == t.name ? (root_ + " (unattributed)").c_str()
                                  : t.name,
                  static_cast<unsigned long long>(t.count), self_us,
                  100.0 * ratio(static_cast<double>(t.self_ns), root_ns));
    result_.notes.push_back(line);
  }
  std::snprintf(line, sizeof(line),
                "  layers sum %.3f us/op; untraced %s %.3f %s, traced %.3f "
                "%s; gap (untraced - layers) %.3f us/op",
                layers_us, figure.c_str(), untraced, unit.c_str(), traced,
                unit.c_str(), untraced - layers_us);
  result_.notes.push_back(line);
  if (!trace_path_.empty()) {
    result_.notes.push_back("  chrome trace: " + trace_path_);
  }
  result_.layer("trace.unattributed_share",
                root == nullptr ? 0.0
                                : ratio(static_cast<double>(root->self_ns),
                                        root_ns),
                "ratio");
  result_.layer("trace.overhead_share",
                untraced > 0 ? traced / untraced - 1.0 : 0.0, "ratio");
  result_.layer("trace.spans", static_cast<double>(spans_), "count");
}

}  // namespace svsbench
