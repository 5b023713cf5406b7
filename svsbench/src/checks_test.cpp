// Negative tests of the benchmark's correctness checks: each check passes
// on consistent data and fails once its independent expectation is
// tampered with, so no check can pass vacuously.  The latency histogram
// the metrics are read from is checked against exact quantiles.
//
// Run: ctest in the benchmark's build directory, or
//      python3 svsbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

using svsbench::KvReplica;
using svsbench::KvWrite;

// Three keys; key 0 written by writes 0, 2 and 3, key 1 by writes 1 and 3
// (write 3 is a put_all), key 2 never.  The stores apply key 0 under item
// id 700 and key 1 under 701.  Replica A applied everything; replica B
// skipped writes 0 and 2 to key 0, which write 3 obsoletes.
std::vector<KvWrite> kv_log() {
  return {KvWrite{{{0, 10}}}, KvWrite{{{1, 11}}}, KvWrite{{{0, 12}}},
          KvWrite{{{0, 13}, {1, 14}}}};
}
std::vector<KvReplica> kv_replicas() {
  KvReplica a;
  a.applied = {{700, 10}, {701, 11}, {700, 12}, {700, 13}, {701, 14}};
  a.final_values = {13, 14, std::nullopt};
  KvReplica b;
  b.applied = {{701, 11}, {700, 13}, {701, 14}};
  b.final_values = {13, 14, std::nullopt};
  return {a, b};
}

void kv_tests() {
  std::uint64_t failed = 0;
  auto problems = svsbench::check_kv(kv_log(), 3, kv_replicas(), failed);
  expect(problems.empty() && failed == 0, "kv: consistent run passes");

  // A wrong last value: the log's last write to key 1 says 15.
  auto log = kv_log();
  log[3].puts[1].second = 15;
  problems = svsbench::check_kv(log, 3, kv_replicas(), failed);
  expect(!problems.empty(), "kv: wrong last value in the log is caught");

  // A replica that ends on a stale value.
  auto reps = kv_replicas();
  reps[1].final_values[0] = 12;
  problems = svsbench::check_kv(kv_log(), 3, reps, failed);
  expect(!problems.empty(), "kv: stale final value is caught");

  // Write order swapped in the log: 12 now precedes 10 for key 0.
  log = kv_log();
  std::swap(log[0], log[2]);
  problems = svsbench::check_kv(log, 3, kv_replicas(), failed);
  expect(!problems.empty(), "kv: applied values out of write order caught");

  // A replica that applied a value twice.
  reps = kv_replicas();
  reps[0].applied.push_back({700, 13});
  problems = svsbench::check_kv(kv_log(), 3, reps, failed);
  expect(!problems.empty(), "kv: a value applied twice is caught");

  // A mis-keyed apply: key 0's write 12 lands under key 1's item.
  reps = kv_replicas();
  reps[0].applied[2].first = 701;
  problems = svsbench::check_kv(kv_log(), 3, reps, failed);
  expect(!problems.empty(), "kv: a value applied under another key's item");

  // A replica whose store applies all of key 1 under key 0's item.
  reps = kv_replicas();
  for (auto& [item, value] : reps[1].applied) item = 700;
  problems = svsbench::check_kv(kv_log(), 3, reps, failed);
  expect(!problems.empty(), "kv: two keys applied under one item id");

  // Only obsolete writes may be missing: without write 3 in the log, the
  // writes replica B skipped have no later write.
  log = kv_log();
  log.pop_back();
  reps = kv_replicas();
  for (auto& r : reps) {
    r.applied.resize(r.applied.size() - 2);  // drop write 3's puts
    r.final_values = {12, 11, std::nullopt};
  }
  problems = svsbench::check_kv(log, 3, reps, failed);
  expect(!problems.empty() && failed > 0,
         "kv: a missing write that nothing obsoletes is caught and counted");
}

void per_sender_tests() {
  const std::vector<std::vector<std::uint64_t>> log = {{5, 6, 7}, {8, 9}};
  const std::vector<std::vector<std::vector<std::uint64_t>>> delivered = {
      {{5, 6, 7}, {8, 9}}, {{5, 6, 7}, {8, 9}}};
  std::uint64_t failed = 0;
  auto problems = svsbench::check_per_sender(log, delivered, failed);
  expect(problems.empty() && failed == 0, "per-sender: consistent run passes");

  // A swapped per-sender order in the expectation.
  auto swapped = log;
  std::swap(swapped[0][0], swapped[0][1]);
  problems = svsbench::check_per_sender(swapped, delivered, failed);
  expect(!problems.empty() && failed > 0,
         "per-sender: swapped order in the log is caught");

  // A member missing a delivery, and one delivering twice.
  auto short_of_one = delivered;
  short_of_one[1][1].pop_back();
  problems = svsbench::check_per_sender(log, short_of_one, failed);
  expect(!problems.empty() && failed == 1,
         "per-sender: missing delivery is caught and counted");
  auto doubled = delivered;
  doubled[0][0].push_back(7);
  problems = svsbench::check_per_sender(log, doubled, failed);
  expect(!problems.empty(), "per-sender: duplicate delivery is caught");

  // A multicast the log has but nobody delivered.
  auto longer = log;
  longer[1].push_back(10);
  problems = svsbench::check_per_sender(longer, delivered, failed);
  expect(!problems.empty() && failed == 1,
         "per-sender: an extra logged multicast is caught");
}

void view_change_tests() {
  const std::vector<std::uint32_t> alive = {0, 2, 3};
  std::vector<svsbench::SurvivorView> observed;
  for (const auto m : alive) observed.push_back({m, true, 7, alive});
  auto problems = svsbench::check_view_change(alive, observed);
  expect(problems.empty(), "view change: consistent run passes");

  // A survivor set missing a member.
  problems = svsbench::check_view_change({0, 2}, observed);
  expect(!problems.empty(), "view change: survivor set missing a member");

  // A survivor set with an extra (crashed) member.
  problems = svsbench::check_view_change({0, 1, 2, 3}, observed);
  expect(!problems.empty(), "view change: survivor set with a crashed member");

  // Survivors that disagree on the view, or never installed it.
  auto split = observed;
  split[2].view_id = 8;
  problems = svsbench::check_view_change(alive, split);
  expect(!problems.empty(), "view change: survivors disagreeing on the view");
  auto late = observed;
  late[1].installed = false;
  problems = svsbench::check_view_change(alive, late);
  expect(!problems.empty(), "view change: a survivor past the deadline");
}

// The latency histogram the metrics are read from agrees with an exact
// nearest-rank quantile to its 0.2% resolution.
void histogram_tests() {
  svsbench::Histogram h;
  std::vector<double> exact;
  svsbench::Rng rng(42);
  for (int i = 0; i < 100'000; ++i) {
    const auto ns = static_cast<std::int64_t>(rng.exponential(1.0 / 3e6));
    h.add_ns(ns);
    exact.push_back(static_cast<double>(ns) / 1e6);
  }
  bool close = true;
  for (const double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
    const double want = svsbench::quantile(exact, q);
    const double got = h.quantile_ms(q);
    close = close && std::abs(got - want) <= want * 0.002 + 1e-6;
  }
  expect(close && h.count() == 100'000,
         "histogram: quantiles within 0.2% of the exact ones");
  svsbench::Histogram small;
  small.add_ns(700);
  expect(small.quantile_ms(0.5) == 0.0007, "histogram: exact below 1024 ns");
}

}  // namespace

int main() {
  histogram_tests();
  kv_tests();
  per_sender_tests();
  view_change_tests();
  std::printf("%s\n", failures == 0 ? "all checks behave" : "FAILURES");
  return failures == 0 ? 0 : 1;
}
