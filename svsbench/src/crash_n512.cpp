// crash_n512 -- failure detection, flush, consensus and install at n=512.
//
// 512 members on the sim backend (Network::Config's 1 ms one-way delay)
// with SWIM (seed 0x516), ring-aggregated stability digests and
// auto_membership, and the EmptyRelation.  Set-up multicasts a paced flood
// of 64 messages from 8 seeded senders; then each round crash-stops one
// seeded member, at a seeded phase of SWIM's protocol period, and runs
// until every survivor has installed the view that excludes it.  The data
// path is almost idle.
#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

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

constexpr std::size_t kMembers = 512;
constexpr std::uint64_t kFlood = 64;
constexpr std::size_t kFloodSenders = 8;
constexpr std::int64_t kSliceUs = 1'000;
constexpr double kChangeDeadlineS = 30.0;  // virtual, crash to install
constexpr double kSettleS = 0.5;           // virtual, between rounds
constexpr double kIdleWindowS = 2.0;       // virtual, traced mode only;
                                           // after as long a settle

struct Change {
  bool traced = false;
  bool done = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double detect_ms = 0.0;
  double detect_wall_s = 0.0;
  double agree_ms = 0.0;
  double agree_wall_s = 0.0;
  double msgs_per_member = 0.0;
  double bytes_per_member = 0.0;
};

double ms_between(sim::TimePoint from, sim::TimePoint to) {
  return static_cast<double>((to - from).as_micros()) / 1e3;
}

}  // namespace

Result run_crash_n512(const Options& options) {
  Result result;
  Tracer tracer(1);
  Tracer* const tr = options.trace ? &tracer : nullptr;
  Rng rng(derive(options.seed, 0));

  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = kMembers;
  cfg.node.relation = std::make_shared<obs::EmptyRelation>();
  cfg.fd_kind = core::Group::FdKind::swim;
  cfg.swim.seed = 0x516;
  cfg.auto_membership = true;
  core::Group group(sim, cfg);

  std::vector<bool> alive(kMembers, true);
  std::vector<sim::TimePoint> installed_at(kMembers);
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> received(
      kMembers);
  for (std::size_t i = 0; i < kMembers; ++i) {
    group.node(i).subscribe_install(
        [&, i](const core::View&) { installed_at[i] = sim.now(); });
  }
  const auto drain = [&] {
    for (std::size_t i = 0; i < kMembers; ++i) {
      if (!alive[i]) continue;
      auto& node = group.node(i);
      while (node.has_deliverable()) {
        const std::optional<core::Delivery> d = [&] {
          Span span(tr, "node.try_deliver");
          return node.try_deliver();
        }();
        if (!d.has_value()) break;
        if (const auto* data = std::get_if<core::DataDelivery>(&*d)) {
          if (const auto* op = dynamic_cast<const workload::ItemOp*>(
                  data->message->payload().get())) {
            received[i].emplace_back(data->message->sender().value(),
                                     op->value());
          }
        }
      }
    }
  };
  const auto run_for = [&](double seconds, std::int64_t slice_us) {
    const auto until = sim.now() + sim::Duration::seconds(seconds);
    while (sim.now() < until) {
      {
        Span span(tr, "sim.run_until");
        sim.run_until(std::min(until, sim.now() + sim::Duration::micros(slice_us)));
      }
      drain();
    }
  };

  // The flood: seeded senders, one multicast per virtual millisecond.
  std::vector<std::uint32_t> senders;
  while (senders.size() < kFloodSenders) {
    const auto s = static_cast<std::uint32_t>(rng.below(kMembers));
    if (std::find(senders.begin(), senders.end(), s) == senders.end()) {
      senders.push_back(s);
    }
  }
  std::vector<std::vector<std::uint64_t>> flood_log(kMembers);
  drain();
  for (std::uint64_t k = 0; k < kFlood; ++k) {
    const std::uint32_t s = senders[k % kFloodSenders];
    const std::uint64_t value = rng.next() >> 16;
    auto payload = std::make_shared<workload::ItemOp>(
        workload::OpKind::update, s, value, k, true);
    bool ok = false;
    for (int attempt = 0; attempt < 1000 && !ok; ++attempt) {
      {
        // Only the multicast itself is traced in the flood: the set-up's
        // simulation time is no part of any view change.
        tracer.enabled = options.trace;
        Span span(tr, "node.multicast", k);
        ok = group.node(s).multicast(payload, obs::Annotation::none())
                 .has_value();
      }
      tracer.enabled = false;
      run_for(0.001, kSliceUs);
    }
    if (ok) {
      flood_log[s].push_back(value);
    } else {
      result.problems.push_back("flood multicast " + std::to_string(k) +
                                " refused for 1 s");
    }
  }
  run_for(kSettleS, 50'000);

  double idle_bytes_per_member_s = 0.0;
  if (options.trace) {
    // Let stability gossip settle, so the window measures the idle state.
    run_for(kIdleWindowS, 50'000);
    const auto before = group.network().stats().bytes_sent;
    run_for(kIdleWindowS, 50'000);
    idle_bytes_per_member_s =
        static_cast<double>(group.network().stats().bytes_sent - before) /
        (kIdleWindowS * static_cast<double>(kMembers));
  }

  std::uint64_t refutations_before = 0;
  for (std::size_t i = 0; i < kMembers; ++i) {
    refutations_before += group.swim_detector(i)->counters().refutations;
  }
  core::NodeStats sum_before;
  const auto sum_stats = [&] {
    core::NodeStats s;
    for (std::size_t i = 0; i < kMembers; ++i) {
      if (!alive[i]) continue;
      const auto& n = group.node(i).stats();
      s.flushed_in += n.flushed_in;
      s.last_flush_total += n.last_flush_total;
      s.frontier_piggybacks += n.frontier_piggybacks;
      s.gossip_rounds_suppressed += n.gossip_rounds_suppressed;
      s.digest_rows_sent += n.digest_rows_sent;
    }
    return s;
  };

  const double setup_s = since_process_start_s();
  const util::PoolStats pool_before = util::Pool::aggregate();
  const std::uint64_t events_before = sim.executed();
  const net::NetworkStats net_before = group.network().stats();
  std::vector<Change> changes;
  Histogram install;
  std::uint64_t flushed_in = 0, pred_sizes = 0, survivors_total = 0;
  std::uint64_t piggybacks = 0, suppressed = 0, digest_rows = 0;
  const std::int64_t start = mono_ns();
  std::size_t alive_count = kMembers;

  // Whole rounds until the measured time is used up; the traced mode
  // alternates untraced and traced rounds (at least one of each).
  for (std::uint64_t round = 0;; ++round) {
    const bool enough =
        static_cast<double>(mono_ns() - start) / 1e9 >= options.seconds;
    if (enough && (!options.trace || round >= 2)) break;
    if (alive_count <= kMembers / 2 + 1) break;
    // Crash at a seeded phase of the SWIM protocol period: the detectors'
    // periods share one phase, so crashes at a fixed phase would make every
    // detection time a whole number of periods.
    run_for(rng.uniform() * cfg.swim.period.as_seconds(), kSliceUs);
    std::uint32_t victim = 0;
    do {
      victim = static_cast<std::uint32_t>(rng.below(kMembers));
    } while (!alive[victim]);
    // The victim leaves the survivor set before the snapshot, so the
    // per-change deltas of the summed counters are over survivors only.
    alive[victim] = false;
    --alive_count;
    sum_before = sum_stats();
    std::uint64_t prev_view = 0;
    for (std::size_t i = 0; i < kMembers; ++i) {
      if (alive[i]) {
        prev_view = group.node(i).current_view().id().value();
        break;
      }
    }

    Change c;
    c.traced = options.trace && round % 2 == 1;
    tracer.enabled = c.traced;
    const net::NetworkStats net0 = group.network().stats();
    const double cpu0 = process_cpu_s();
    const std::int64_t wall0 = mono_ns();
    const sim::TimePoint crash_at = sim.now();
    const auto deadline = crash_at + sim::Duration::seconds(kChangeDeadlineS);
    std::optional<sim::TimePoint> first_blocked;
    std::int64_t blocked_wall = 0;
    {
      Span root(tr, "vc.change", round);
      group.crash(victim);
      const auto installed_everywhere = [&] {
        for (std::size_t i = 0; i < kMembers; ++i) {
          if (alive[i] &&
              (group.node(i).current_view().id().value() <= prev_view ||
               group.node(i).current_view().contains(
                   net::ProcessId(victim)))) {
            return false;
          }
        }
        return true;
      };
      while (sim.now() < deadline) {
        {
          Span span(tr, "sim.run_until", round);
          sim.run_until(sim.now() + sim::Duration::micros(kSliceUs));
        }
        drain();
        if (!first_blocked.has_value()) {
          for (std::size_t i = 0; i < kMembers; ++i) {
            if (alive[i] && group.node(i).blocked()) {
              first_blocked = sim.now();
              blocked_wall = mono_ns();
              break;
            }
          }
        }
        if (installed_everywhere()) {
          c.done = true;
          break;
        }
      }
    }
    const std::int64_t wall1 = mono_ns();
    c.wall_s = static_cast<double>(wall1 - wall0) / 1e9;
    c.cpu_s = process_cpu_s() - cpu0;
    const auto& net1 = group.network().stats();
    const auto n = static_cast<double>(alive_count + 1);  // group size at crash
    c.msgs_per_member = static_cast<double>(net1.sent - net0.sent) / n;
    c.bytes_per_member =
        static_cast<double>(net1.bytes_sent - net0.bytes_sent) / n;
    sim::TimePoint last_install = crash_at;
    std::vector<SurvivorView> observed;
    for (std::size_t i = 0; i < kMembers; ++i) {
      if (!alive[i]) continue;
      const auto& view = group.node(i).current_view();
      SurvivorView sv;
      sv.member = static_cast<std::uint32_t>(i);
      sv.installed = view.id().value() > prev_view;
      sv.view_id = view.id().value();
      for (const auto p : view.members()) sv.view_members.push_back(p.value());
      observed.push_back(std::move(sv));
      if (c.done) {
        install.add_ns((installed_at[i] - crash_at).as_micros() * 1000);
        last_install = std::max(last_install, installed_at[i]);
      }
    }
    if (first_blocked.has_value()) {
      c.detect_ms = ms_between(crash_at, *first_blocked);
      c.detect_wall_s = static_cast<double>(blocked_wall - wall0) / 1e9;
      c.agree_ms = ms_between(*first_blocked, last_install);
      c.agree_wall_s = static_cast<double>(wall1 - blocked_wall) / 1e9;
    }
    std::vector<std::uint32_t> expected_alive;
    for (std::size_t i = 0; i < kMembers; ++i) {
      if (alive[i]) expected_alive.push_back(static_cast<std::uint32_t>(i));
    }
    const auto view_problems = check_view_change(expected_alive, observed);
    for (const auto& p : view_problems) {
      result.problems.push_back("crash of " + std::to_string(victim) + ": " +
                                p);
    }
    const core::NodeStats after = sum_stats();
    flushed_in += after.flushed_in - sum_before.flushed_in;
    pred_sizes += after.last_flush_total;
    survivors_total += alive_count;
    piggybacks += after.frontier_piggybacks - sum_before.frontier_piggybacks;
    suppressed +=
        after.gossip_rounds_suppressed - sum_before.gossip_rounds_suppressed;
    digest_rows += after.digest_rows_sent - sum_before.digest_rows_sent;
    ++result.attempted;
    if (!c.done || !view_problems.empty()) {
      ++result.failed;
    }
    changes.push_back(c);
    tracer.enabled = false;
    run_for(kSettleS, 50'000);
  }

  // The flood: every survivor delivered every flood message exactly once,
  // in its sender's order, as the generator logged it.
  std::vector<std::vector<std::vector<std::uint64_t>>> delivered;
  for (std::size_t i = 0; i < kMembers; ++i) {
    if (!alive[i]) continue;
    std::vector<std::vector<std::uint64_t>> per_sender(kMembers);
    for (const auto& [s, v] : received[i]) {
      if (s < kMembers) per_sender[s].push_back(v);
    }
    delivered.push_back(std::move(per_sender));
  }
  std::uint64_t flood_failed = 0;
  for (auto& p : check_per_sender(flood_log, delivered, flood_failed)) {
    result.problems.push_back("flood: " + std::move(p));
  }

  std::vector<double> rate, cpu_us, cpu_us_traced, msgs, bytes;
  std::vector<double> detect_ms, detect_wall, agree_ms, agree_wall;
  std::uint64_t traced_changes = 0;
  for (const auto& c : changes) {
    if (c.traced) {
      cpu_us_traced.push_back(c.cpu_s * 1e6);
      ++traced_changes;
      continue;
    }
    rate.push_back(ratio(1.0, c.wall_s));
    cpu_us.push_back(c.cpu_s * 1e6);
  }
  for (const auto& c : changes) {
    detect_ms.push_back(c.detect_ms);
    detect_wall.push_back(c.detect_wall_s);
    agree_ms.push_back(c.agree_ms);
    agree_wall.push_back(c.agree_wall_s);
    msgs.push_back(c.msgs_per_member);
    bytes.push_back(c.bytes_per_member);
  }
  const double ops = static_cast<double>(changes.size());
  result.e2e("setup_s", setup_s, "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  result.e2e("latency_p50_ms", install.quantile_ms(0.50), "ms");
  result.e2e("wire_bytes_per_op", median(bytes), "B");
  result.e2e("msgs_per_op", median(msgs), "count");
  result.layer("e2e_ref.ops_per_s", median(rate), "1/s");
  result.layer("e2e_ref.cpu_us_per_op", median(cpu_us), "us");
  result.layer("e2e_ref.latency_p99_ms", install.quantile_ms(0.99), "ms");

  LayerReport layers(result, options, {&tracer}, "vc.change",
                     static_cast<double>(traced_changes));
  layers.time_per_call("node.multicast_ns", "node.multicast");
  layers.time_per_call("node.try_deliver_ns", "node.try_deliver");
  layers.self_per_op("sim.run_until_us_per_op", "sim.run_until");
  const net::NetworkStats& net_after = group.network().stats();
  result.layer("net.msgs_per_op", ratio(net_after.sent - net_before.sent, ops),
               "count");
  result.layer("sim.events_per_op",
               ratio(sim.executed() - events_before, ops), "count");
  result.layer("vc.detect_ms", median(detect_ms), "ms");
  result.layer("vc.detect_wall_s", median(detect_wall), "s");
  result.layer("vc.agree_ms", median(agree_ms), "ms");
  result.layer("vc.agree_wall_s", median(agree_wall), "s");
  result.layer("vc.flushed_in", ratio(flushed_in, survivors_total), "count");
  result.layer("vc.pred_view_size", ratio(pred_sizes, survivors_total),
               "count");
  std::uint64_t refutations = 0;
  for (std::size_t i = 0; i < kMembers; ++i) {
    refutations += group.swim_detector(i)->counters().refutations;
  }
  result.layer("swim.false_suspicions",
               ratio(refutations - refutations_before, ops), "count/op");
  result.layer("swim.idle_control_bytes_per_member_s", idle_bytes_per_member_s,
               "B/s");
  result.layer("ledger.piggybacks", ratio(piggybacks, ops), "count/op");
  result.layer("ledger.gossip_suppressed", ratio(suppressed, ops), "count/op");
  result.layer("ledger.digest_rows", ratio(digest_rows, ops), "count/op");
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
