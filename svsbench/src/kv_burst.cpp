// kv_burst -- the paper's own scenario: a replicated KV store whose slow
// replica is kept near the writer by obsolescence purging.
//
// Five app::KvStore replicas over the sim backend (Network::Config's 1 ms
// one-way delay), the k-enum relation and buffers of 16.  Replica 0 is the
// primary and the only writer; replica 4 consumes at 500 deliveries/s, the
// others instantly.  The writer runs an open loop: Poisson arrivals at
// 1000 writes/s with a 1 s burst at 3000 writes/s every 5 s, and Zipf(0.99)
// keys over 32 keys.  The number of keys per write follows the calibrated
// game workload (GameTraceGenerator's defaults for a round that updates
// items), so about 28% of writes are multi-key put_all transactions.  Each
// round is a fresh group fed 30 virtual seconds of writes and run until
// every replica holds the last write of every key.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "core/group.hpp"
#include "layers.hpp"
#include "obs/relation.hpp"
#include "trace.hpp"
#include "util/pool.hpp"
#include "workload/item_op.hpp"
#include "workloads.hpp"

namespace svsbench {
namespace {

using namespace svs;

constexpr std::size_t kReplicas = 5;
constexpr std::size_t kSlow = 4;
constexpr std::size_t kKeys = 32;
constexpr double kZipfExponent = 0.99;
constexpr double kBaseRate = 1000.0;   // writes/s
constexpr double kBurstRate = 3000.0;  // writes/s
constexpr double kCycle = 5.0;         // s between burst starts
constexpr double kBurstLength = 1.0;   // s
constexpr double kSlowRate = 500.0;    // deliveries/s at the slow replica
// Keys per write: 1 + geometric(1 - kUpdateContinue), plus
// 1 + below(kBurstExtraMax) more with kBurstProbability -- the defaults of
// workload::GameTraceGenerator::Config (update_continue, burst_probability,
// burst_extra_max), calibrated to the paper's 1.39 items per round.  72% of
// writes are single puts; the mean is 1.47 keys.
constexpr double kUpdateContinue = 0.25;
constexpr double kBurstProbability = 0.04;
constexpr std::size_t kBurstExtraMax = 6;
constexpr std::size_t kBuffer = 16;    // delivery and outgoing capacity
constexpr double kRoundSeconds = 30.0;        // virtual write phase
constexpr double kDrainDeadlineSeconds = 120.0;  // virtual, after writes end
constexpr std::int64_t kSliceMs = 100;

// A delivered value names its write and key: value = (write + 1) * 64 + key.
constexpr std::uint64_t kKeySlots = 64;
static_assert(kKeys <= kKeySlots);
std::uint64_t encode(std::size_t write, std::uint32_t key) {
  return (static_cast<std::uint64_t>(write) + 1) * kKeySlots + key;
}
std::size_t write_of(std::uint64_t value) {
  return static_cast<std::size_t>(value / kKeySlots - 1);
}

struct Schedule {
  std::vector<KvWrite> log;
  std::vector<double> due_s;  // virtual due time of each write
};

Schedule generate(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> cdf(kKeys);
  double total = 0.0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  const auto zipf = [&] {
    const double u = rng.uniform() * total;
    return static_cast<std::uint32_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };
  Schedule s;
  double t = 0.0;
  for (;;) {
    const bool burst = std::fmod(t, kCycle) >= kCycle - kBurstLength;
    t += rng.exponential(burst ? kBurstRate : kBaseRate);
    if (t >= kRoundSeconds) break;
    const std::size_t w = s.log.size();
    KvWrite write;
    std::size_t keys = 1 + rng.geometric(1.0 - kUpdateContinue);
    if (rng.uniform() < kBurstProbability) keys += 1 + rng.below(kBurstExtraMax);
    keys = std::min(keys, kKeys);
    while (write.puts.size() < keys) {
      const std::uint32_t k = std::min<std::uint32_t>(zipf(), kKeys - 1);
      const bool dup = std::any_of(write.puts.begin(), write.puts.end(),
                                   [k](const auto& p) { return p.first == k; });
      if (!dup) write.puts.emplace_back(k, encode(w, k));
    }
    s.log.push_back(std::move(write));
    s.due_s.push_back(t);
  }
  return s;
}

std::string key_name(std::uint32_t k) { return "key" + std::to_string(k); }

/// Per-round figures; the run reports medians or sums over rounds.
struct RoundFigures {
  bool traced = false;
  std::uint64_t writes = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t failed = 0;
};

/// Counters summed over rounds (layer metrics are per write).
struct Totals {
  std::uint64_t writes = 0;
  net::NetworkStats net;
  core::NodeStats nodes;       // summed over replicas
  core::NodeStats slow;        // the slow replica
  std::uint64_t slow_scan_steps = 0;
  std::uint64_t sim_events = 0;
  std::size_t outbox_peak = 0;
  std::size_t own_debts_peak = 0;
  std::size_t merged_debts_peak = 0;
  std::size_t retained_peak = 0;
  Histogram slow_lag;
};

void add(core::NodeStats& into, const core::NodeStats& s) {
  into.multicasts += s.multicasts;
  into.multicast_blocked += s.multicast_blocked;
  into.delivered_data += s.delivered_data;
  into.purged_delivery += s.purged_delivery;
  into.suppressed_obsolete += s.suppressed_obsolete;
  into.refused_data += s.refused_data;
  into.debts_recorded += s.debts_recorded;
  into.debts_collected += s.debts_collected;
  into.frontier_piggybacks += s.frontier_piggybacks;
  into.gossip_rounds_suppressed += s.gossip_rounds_suppressed;
  into.digest_rows_sent += s.digest_rows_sent;
}

RoundFigures run_round(std::uint64_t seed, Tracer* tracer, Totals& totals,
                       std::vector<std::string>& problems,
                       std::optional<double>& setup_s) {
  const Schedule schedule = generate(seed);
  const std::size_t n_writes = schedule.log.size();

  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = kReplicas;
  cfg.node.relation = std::make_shared<obs::KEnumRelation>();
  cfg.node.delivery_capacity = kBuffer;
  cfg.node.out_capacity = kBuffer;
  core::Group group(sim, cfg);

  std::vector<std::unique_ptr<app::KvStore>> stores;
  std::vector<KvReplica> records(kReplicas);
  for (std::size_t r = 0; r < kReplicas; ++r) {
    stores.push_back(
        std::make_unique<app::KvStore>(group.node(r), app::KvStore::Config{}));
  }
  std::vector<sim::TimePoint> slow_applied(n_writes);
  std::vector<bool> slow_seen(n_writes, false);
  // Per replica, the items delivered since the last commit.  The store
  // applies them at the commit; the record then reads each back from it.
  std::vector<std::vector<workload::ItemId>> pending(kReplicas);

  // The benchmark's own consumer loop, so every try_deliver is timed here.
  const auto deliver_one = [&](std::size_t r) {
    std::optional<core::Delivery> d;
    const workload::ItemOp* op = nullptr;
    {
      Span span(tracer, "node.try_deliver");
      d = group.node(r).try_deliver();
      if (d.has_value()) {
        if (const auto* data = std::get_if<core::DataDelivery>(&*d)) {
          op = dynamic_cast<const workload::ItemOp*>(
              data->message->payload().get());
          if (op != nullptr) span.op(write_of(op->value()));
        }
      }
    }
    if (!d.has_value()) return false;
    stores[r]->apply(*d);
    if (op == nullptr) return true;
    // An item may repeat in one apply: the earlier batch's commit was
    // purged and its other items ride with the next commit.  The store
    // keeps the last value, so each item is read back once.
    if (std::find(pending[r].begin(), pending[r].end(), op->item()) ==
        pending[r].end()) {
      pending[r].push_back(op->item());
    }
    if (!op->commit()) return true;
    for (const workload::ItemId item : pending[r]) {
      const auto held = stores[r]->table().get(item);
      const std::uint64_t value = held.has_value() ? held->value : 0;
      records[r].applied.emplace_back(item, value);  // 0: nothing written
      const std::size_t w = write_of(value);
      if (r == kSlow && value >= kKeySlots && w < n_writes) {
        slow_applied[w] = sim.now();
        slow_seen[w] = true;
      }
    }
    pending[r].clear();
    return true;
  };
  for (std::size_t r = 0; r < kReplicas; ++r) {
    if (r == kSlow) continue;
    group.node(r).set_deliverable_callback([&, r] {
      while (deliver_one(r)) {
      }
    });
  }
  // The slow replica is busy for 1/kSlowRate after each delivery.
  bool slow_waiting = false;
  bool slow_busy = false;
  std::function<void()> slow_take = [&] {
    if (!deliver_one(kSlow)) {
      slow_waiting = true;
      return;
    }
    slow_busy = true;
    sim.schedule_after(sim::Duration::seconds(1.0 / kSlowRate), [&] {
      slow_busy = false;
      slow_take();
    });
  };
  group.node(kSlow).set_deliverable_callback([&] {
    if (slow_busy || !slow_waiting) return;
    slow_waiting = false;
    slow_take();
  });

  // Initial view in place at every replica before the first write.
  for (std::size_t r = 0; r < kReplicas; ++r) {
    if (r != kSlow) {
      while (deliver_one(r)) {
      }
    }
  }
  slow_take();
  sim.run_until(sim.now() + sim::Duration::millis(10));
  if (!stores[0]->is_primary()) {
    problems.push_back("replica 0 is not the primary after start-up");
  }

  // The open-loop writer: each write fires at its due time, whatever the
  // state of the group (writes blocked by flow control wait in the store's
  // outbox, and their lag still counts from the due time).
  const sim::TimePoint origin = sim.now();
  std::size_t next = 0;
  std::vector<std::string> names;
  for (std::uint32_t k = 0; k < kKeys; ++k) names.push_back(key_name(k));
  std::function<void()> issue = [&] {
    const KvWrite& w = schedule.log[next];
    bool ok = false;
    {
      Span span(tracer, "app.put", next);
      if (w.puts.size() == 1) {
        ok = stores[0]->put(names[w.puts[0].first], w.puts[0].second);
      } else {
        std::vector<std::pair<std::string, std::uint64_t>> kvs;
        for (const auto& [k, v] : w.puts) kvs.emplace_back(names[k], v);
        ok = stores[0]->put_all(kvs);
      }
    }
    if (!ok) problems.push_back("put refused at the primary");
    totals.outbox_peak = std::max(totals.outbox_peak, stores[0]->outbox_depth());
    if (++next < n_writes) {
      sim.schedule_at(origin + sim::Duration::seconds(schedule.due_s[next]),
                      issue);
    }
  };
  if (n_writes > 0) {
    sim.schedule_at(origin + sim::Duration::seconds(schedule.due_s[0]), issue);
  }

  std::vector<std::optional<std::uint64_t>> last(kKeys);
  for (const auto& w : schedule.log) {
    for (const auto& [k, v] : w.puts) last[k] = v;
  }
  const auto converged = [&] {
    if (next < n_writes || stores[0]->outbox_depth() != 0) return false;
    for (std::size_t r = 0; r < kReplicas; ++r) {
      if (group.node(r).has_deliverable()) return false;
      for (std::uint32_t k = 0; k < kKeys; ++k) {
        if (stores[r]->get(names[k]) != last[k]) return false;
      }
    }
    return true;
  };

  if (!setup_s.has_value()) setup_s = since_process_start_s();
  const std::uint64_t events_before = sim.executed();
  const double cpu0 = process_cpu_s();
  const std::int64_t wall0 = mono_ns();
  const sim::TimePoint deadline =
      origin + sim::Duration::seconds(kRoundSeconds + kDrainDeadlineSeconds);
  {
    Span round_span(tracer, "kv.round", seed);
    while (!converged() && sim.now() < deadline) {
      {
        Span span(tracer, "sim.run_until");
        sim.run_until(sim.now() + sim::Duration::millis(kSliceMs));
      }
      for (std::size_t r = 0; r < kReplicas; ++r) {
        const auto& node = group.node(r);
        const auto& ledger = node.stability_ledger();
        totals.own_debts_peak =
            std::max(totals.own_debts_peak, ledger.own_debts());
        totals.merged_debts_peak =
            std::max(totals.merged_debts_peak, ledger.merged_debts());
        totals.retained_peak =
            std::max(totals.retained_peak, node.delivered_retained());
      }
    }
  }
  RoundFigures fig;
  fig.traced = tracer != nullptr && tracer->enabled;
  fig.wall_s = static_cast<double>(mono_ns() - wall0) / 1e9;
  fig.cpu_s = process_cpu_s() - cpu0;
  fig.writes = n_writes;

  for (std::size_t r = 0; r < kReplicas; ++r) {
    records[r].final_values.resize(kKeys);
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      records[r].final_values[k] = stores[r]->get(names[k]);
    }
  }
  auto found = check_kv(schedule.log, kKeys, records, fig.failed);
  for (auto& p : found) {
    problems.push_back("round seed " + std::to_string(seed) + ": " + p);
  }

  totals.writes += n_writes;
  totals.net += group.network().stats();
  for (std::size_t r = 0; r < kReplicas; ++r) {
    add(totals.nodes, group.node(r).stats());
  }
  add(totals.slow, group.node(kSlow).stats());
  const auto& dq = group.node(kSlow).delivery_queue().stats();
  totals.slow_scan_steps += dq.purge_scan_steps + dq.cover_scan_steps;
  totals.sim_events += sim.executed() - events_before;
  for (std::size_t w = 0; w < n_writes; ++w) {
    if (!slow_seen[w]) continue;
    const auto due = origin + sim::Duration::seconds(schedule.due_s[w]);
    totals.slow_lag.add_ns((slow_applied[w] - due).as_micros() * 1000);
  }
  return fig;
}

}  // namespace

Result run_kv_burst(const Options& options) {
  Result result;
  Tracer tracer(1);
  Totals totals;
  std::vector<RoundFigures> rounds;
  std::optional<double> setup_s;
  const util::PoolStats pool_before = util::Pool::aggregate();
  const std::int64_t start = mono_ns();
  const auto elapsed = [&] {
    return static_cast<double>(mono_ns() - start) / 1e9;
  };
  // Whole rounds until the measured time is used up; the traced mode
  // alternates untraced and traced rounds (at least one of each) so the
  // tracing overhead is measured in the same process.
  for (std::uint64_t round = 0;; ++round) {
    const bool enough = elapsed() >= options.seconds;
    if (enough && (!options.trace || round >= 2)) break;
    tracer.enabled = options.trace && round % 2 == 1;
    rounds.push_back(run_round(derive(options.seed, round),
                               options.trace ? &tracer : nullptr, totals,
                               result.problems, setup_s));
  }

  std::vector<double> rate, cpu_us, rate_traced, cpu_us_traced;
  std::uint64_t traced_writes = 0;
  for (const auto& r : rounds) {
    result.attempted += r.writes;
    result.failed += r.failed;
    (r.traced ? rate_traced : rate).push_back(ratio(r.writes, r.wall_s));
    (r.traced ? cpu_us_traced : cpu_us)
        .push_back(ratio(r.cpu_s * 1e6, r.writes));
    if (r.traced) traced_writes += r.writes;
  }
  const double w = static_cast<double>(totals.writes);
  result.e2e("setup_s", setup_s.value_or(0.0), "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  result.e2e("latency_p50_ms", totals.slow_lag.quantile_ms(0.50), "ms");
  result.e2e("wire_bytes_per_op", ratio(totals.net.bytes_sent, w), "B");
  result.e2e("msgs_per_op", ratio(totals.net.sent, w), "count");
  result.layer("e2e_ref.ops_per_s", median(rate), "1/s");
  result.layer("e2e_ref.cpu_us_per_op", median(cpu_us), "us");
  result.layer("e2e_ref.latency_p99_ms", totals.slow_lag.quantile_ms(0.99),
               "ms");

  const auto slow_arrivals = static_cast<double>(
      totals.slow.delivered_data + totals.slow.purged_delivery +
      totals.slow.suppressed_obsolete);
  LayerReport layers(result, options, {&tracer}, "kv.round",
                     static_cast<double>(traced_writes));
  layers.time_per_call("app.put_ns", "app.put");
  layers.time_per_call("node.try_deliver_ns", "node.try_deliver");
  layers.self_per_op("sim.run_until_us_per_op", "sim.run_until");
  result.layer("app.outbox_peak", static_cast<double>(totals.outbox_peak),
               "count");
  result.layer("node.multicast_blocked",
               ratio(totals.nodes.multicast_blocked, w), "count/op");
  result.layer("dq.scan_steps_per_arrival",
               ratio(totals.slow_scan_steps, slow_arrivals), "count");
  result.layer("dq.purged", ratio(totals.slow.purged_delivery, w),
               "count/op");
  result.layer("dq.suppressed_obsolete",
               ratio(totals.slow.suppressed_obsolete, w), "count/op");
  result.layer("dq.refused", ratio(totals.slow.refused_data, w), "count/op");
  result.layer("ledger.own_debts_peak",
               static_cast<double>(totals.own_debts_peak), "count");
  result.layer("ledger.merged_debts_peak",
               static_cast<double>(totals.merged_debts_peak), "count");
  result.layer("ledger.debts_recorded",
               ratio(totals.nodes.debts_recorded, w), "count/op");
  result.layer("ledger.debts_collected",
               ratio(totals.nodes.debts_collected, w), "count/op");
  result.layer("ledger.retained_peak",
               static_cast<double>(totals.retained_peak), "count");
  result.layer("ledger.piggybacks",
               ratio(totals.nodes.frontier_piggybacks, w), "count/op");
  result.layer("ledger.gossip_suppressed",
               ratio(totals.nodes.gossip_rounds_suppressed, w), "count/op");
  result.layer("ledger.digest_rows", ratio(totals.nodes.digest_rows_sent, w),
               "count/op");
  result.layer("net.msgs_per_op", ratio(totals.net.sent, w), "count");
  result.layer("net.bytes_purged", ratio(totals.net.bytes_purged, w), "B/op");
  result.layer("net.window_scanned",
               ratio(totals.net.purge_window_scanned, w), "count/op");
  result.layer("net.refusals", ratio(totals.net.refusals, w), "count/op");
  result.layer("sim.events_per_op", ratio(totals.sim_events, w), "count");
  const util::PoolStats pool_after = util::Pool::aggregate();
  const double hits = static_cast<double>(pool_after.hits - pool_before.hits);
  const double misses =
      static_cast<double>(pool_after.misses - pool_before.misses);
  result.layer("pool.hit_ratio", ratio(hits, hits + misses), "ratio");
  layers.overhead("cpu_us_per_op", median(cpu_us), median(cpu_us_traced),
                  "us");
  return result;
}

}  // namespace svsbench
