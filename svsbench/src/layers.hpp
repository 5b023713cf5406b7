// Per-layer figures of the traced mode, derived from the spans.
//
// Every workload has one root span per measured unit of work (a KV round,
// a member thread's run, a view change).  Layer spans nest inside it; the
// root's self time is the time no layer span covers, reported as the
// unattributed share.  The report also sets the tracing overhead: the
// end-to-end figure of the traced part of the run against the untraced
// part of the same run.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace svsbench {

class LayerReport {
 public:
  /// `ops` is the operation count of the traced part of the run.  Writes
  /// the Chrome trace of `tracers` under options.out_dir.
  LayerReport(Result& result, const Options& options,
              const std::vector<const Tracer*>& tracers, std::string root,
              double ops);

  /// Mean wall time of one call of span `span`, in ns.
  void time_per_call(const std::string& metric, const std::string& span);
  /// Self time of span `span` per operation, in us.
  void self_per_op(const std::string& metric, const std::string& span);
  /// Closes the report: self-time table next to the untraced end-to-end
  /// figure, trace.overhead_share, trace.unattributed_share, trace.spans.
  void overhead(const std::string& figure, double untraced, double traced,
                const std::string& unit);

 private:
  Result& result_;
  std::vector<Tracer::Totals> totals_;
  std::string root_;
  double ops_;
  std::uint64_t spans_ = 0;
  std::string trace_path_;
};

}  // namespace svsbench
