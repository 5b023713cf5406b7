#include "trace.hpp"

#include <cstdio>
#include <cstring>

#include "common.hpp"

namespace svsbench {

std::int64_t Tracer::begin(const char* name, std::uint64_t op_id) {
  stack_.push_back(Open{name, mono_ns(), 0, next_seq_++, op_id});
  return static_cast<std::int64_t>(stack_.size() - 1);
}

void Tracer::end(std::int64_t handle) {
  const std::int64_t now = mono_ns();
  // Spans are strictly nested (RAII), so the handle is the stack top.
  const Open open = stack_[static_cast<std::size_t>(handle)];
  stack_.resize(static_cast<std::size_t>(handle));
  const std::int64_t dur = now - open.start_ns;
  Totals& t = totals_of(open.name);
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - open.child_ns;
  std::int64_t parent = -1;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    parent = static_cast<std::int64_t>(stack_.back().seq);
  }
  if (kept_.size() < kMaxKept) {
    kept_.push_back(
        Kept{open.name, open.start_ns, now, parent, open.seq, open.op_id});
  }
}

Tracer::Totals& Tracer::totals_of(const char* name) {
  for (auto& t : totals_) {
    if (t.name == name || std::strcmp(t.name, name) == 0) return t;
  }
  totals_.push_back(Totals{name, 0, 0, 0});
  return totals_.back();
}

std::vector<Tracer::Totals> merge_totals(
    const std::vector<const Tracer*>& tracers) {
  std::vector<Tracer::Totals> merged;
  for (const Tracer* tracer : tracers) {
    for (const auto& t : tracer->totals()) {
      bool found = false;
      for (auto& m : merged) {
        if (std::strcmp(m.name, t.name) == 0) {
          m.count += t.count;
          m.total_ns += t.total_ns;
          m.self_ns += t.self_ns;
          found = true;
          break;
        }
      }
      if (!found) merged.push_back(t);
    }
  }
  return merged;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const Tracer* tracer : tracers) {
    for (const auto& k : tracer->kept()) {
      if (!have_origin || k.start_ns < origin) origin = k.start_ns;
      have_origin = true;
    }
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Tracer* tracer : tracers) {
    for (const auto& k : tracer->kept()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"seq\":%llu,"
                   "\"parent\":%lld,\"op\":%llu}}",
                   first ? "" : ",", k.name, tracer->tid(),
                   static_cast<double>(k.start_ns - origin) / 1e3,
                   static_cast<double>(k.end_ns - k.start_ns) / 1e3,
                   static_cast<unsigned long long>(k.seq),
                   static_cast<long long>(k.parent),
                   static_cast<unsigned long long>(k.op_id));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace svsbench
