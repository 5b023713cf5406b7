// In-memory span recorder for the traced mode (--trace 1).
//
// A span is opened around one call the benchmark makes into a layer
// (KvStore::put, Node::multicast, Node::try_deliver, Simulator::run_until,
// ...).  Each span has a name, a start, an end, the span that was open when
// it began (its parent) and an operation identifier shared by the spans of
// one write, one multicast or one view change.  Self time -- a span's
// duration minus the part its children cover -- is aggregated per name for
// every span; the first kMaxKept spans are also kept for the Chrome
// trace-event file (chrome://tracing, ui.perfetto.dev) written at the end.
//
// One Tracer per thread; it is not synchronised.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace svsbench {

class Tracer {
 public:
  static constexpr std::size_t kMaxKept = 300'000;

  struct Totals {
    const char* name = nullptr;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit Tracer(std::uint32_t tid) : tid_(tid) {}

  /// Spans are recorded only while enabled (the traced mode alternates
  /// traced and untraced rounds to measure its own overhead).
  bool enabled = false;

  /// Opens a span; returns a handle for end(), or -1 when disabled.
  std::int64_t begin(const char* name, std::uint64_t op_id);
  void end(std::int64_t handle);
  /// Sets the operation identifier of an open span (when it is known only
  /// from the call's result, as for a delivery).
  void set_op(std::int64_t handle, std::uint64_t op_id) {
    stack_[static_cast<std::size_t>(handle)].op_id = op_id;
  }

  [[nodiscard]] const std::vector<Totals>& totals() const { return totals_; }
  [[nodiscard]] std::uint64_t spans_recorded() const { return next_seq_; }
  [[nodiscard]] std::uint32_t tid() const { return tid_; }

  struct Kept {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // sequence number of the parent span, -1 = root
    std::uint64_t seq;
    std::uint64_t op_id;
  };
  [[nodiscard]] const std::vector<Kept>& kept() const { return kept_; }

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t seq;
    std::uint64_t op_id;
  };

  Totals& totals_of(const char* name);

  std::uint32_t tid_;
  std::uint64_t next_seq_ = 0;
  std::vector<Open> stack_;
  std::vector<Totals> totals_;
  std::vector<Kept> kept_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t op_id = 0)
      : tracer_(tracer),
        handle_(tracer != nullptr && tracer->enabled
                    ? tracer->begin(name, op_id)
                    : -1) {}
  ~Span() {
    if (handle_ >= 0) tracer_->end(handle_);
  }
  void op(std::uint64_t op_id) {
    if (handle_ >= 0) tracer_->set_op(handle_, op_id);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t handle_;
};

/// Sums the per-name totals of several tracers (one per thread).
std::vector<Tracer::Totals> merge_totals(
    const std::vector<const Tracer*>& tracers);

/// Writes the kept spans of every tracer as Chrome trace-event JSON.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers);

}  // namespace svsbench
