// udp_group -- three group members in one process, one thread each, every
// message crossing the kernel through 127.0.0.1.
//
// Each member has its own sim::Simulator and a net::UdpTransport in
// distributed mode (bind_local + add_peer), driven by
// runtime::RealTimeDriver, with the lane settings, HeartbeatDetector and
// MembershipPolicy of tools/svs_proc and the EmptyRelation.  The inner
// network's modeled delay is 0, so latency is the real stack's.  Each
// member multicasts once per millisecond on a fixed open-loop schedule
// (seeded phase per member); a multicast refused by flow control is
// retried, and its latency still counts from when it was due.
#include <atomic>
#include <functional>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "core/membership.hpp"
#include "core/node.hpp"
#include "fd/heartbeat.hpp"
#include "layers.hpp"
#include "net/udp_transport.hpp"
#include "obs/relation.hpp"
#include "runtime/real_time.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "util/pool.hpp"
#include "workload/item_op.hpp"
#include "workloads.hpp"

namespace svsbench {
namespace {

using namespace svs;

constexpr std::uint32_t kMembers = 3;
constexpr std::int64_t kPeriodNs = 1'000'000;  // one multicast/ms/member
constexpr std::int64_t kTailNs = 10'000'000'000;  // convergence deadline
constexpr std::int64_t kRetryUs = 100;  // flow-control retry pacing

struct Member {
  explicit Member(std::uint32_t id_) : id(id_), tracer(id_ + 1) {}

  std::uint32_t id;
  sim::Simulator sim;
  std::unique_ptr<net::UdpTransport> transport;
  std::unique_ptr<fd::HeartbeatDetector> detector;
  std::unique_ptr<core::Node> node;
  std::unique_ptr<core::MembershipPolicy> policy;
  Tracer tracer;

  std::vector<std::vector<std::uint64_t>> delivered;  // per sender
  Histogram latency;  // remote deliveries only
  std::uint64_t produced = 0;
  std::uint64_t produced_at_mid = 0;
  std::uint64_t iterations = 0;
  double cpu_start = 0.0, cpu_mid = 0.0, cpu_end = 0.0;
  std::int64_t end_ns = 0;
  std::string error;
};

struct Shared {
  std::int64_t t0 = 0;
  std::int64_t mid = 0;
  std::int64_t end = 0;  // production end
  std::uint64_t per_member = 0;
  std::vector<std::int64_t> phase;
  std::atomic<std::uint64_t> delivered[kMembers]{};
  bool trace = false;

  [[nodiscard]] std::int64_t due(std::uint32_t sender, std::uint64_t k) const {
    return t0 + phase[sender] + static_cast<std::int64_t>(k) * kPeriodNs;
  }
  [[nodiscard]] bool all_delivered() const {
    for (const auto& d : delivered) {
      if (d.load(std::memory_order_acquire) < per_member * kMembers) {
        return false;
      }
    }
    return true;
  }
};

std::uint64_t op_id(std::uint32_t sender, std::uint64_t k) {
  return (static_cast<std::uint64_t>(sender) << 40) | k;
}

void build(Member& m) {
  net::UdpTransport::Config tc;
  tc.bind_local = true;
  tc.network.delay = sim::Duration::zero();
  // tools/svs_proc's lane settings.
  tc.link.window = 64;
  tc.link.rto_base_us = 10'000;
  tc.link.rto_max_us = 250'000;
  tc.link.max_retries = 14;
  m.transport = std::make_unique<net::UdpTransport>(m.sim, tc);
}

void wire(Member& m, const std::vector<std::uint16_t>& ports) {
  std::vector<net::ProcessId> members, peers;
  for (std::uint32_t j = 0; j < kMembers; ++j) {
    members.emplace_back(j);
    if (j == m.id) continue;
    peers.emplace_back(j);
    m.transport->add_peer(net::ProcessId(j), ports[j]);
  }
  fd::HeartbeatDetector::Config hb;
  hb.interval = sim::Duration::millis(100);
  hb.initial_timeout = sim::Duration::seconds(2.0);
  hb.max_timeout = sim::Duration::seconds(5.0);
  m.detector = std::make_unique<fd::HeartbeatDetector>(
      m.sim, *m.transport, net::ProcessId(m.id), peers, hb);
  core::NodeConfig nc;
  nc.relation = std::make_shared<obs::EmptyRelation>();
  nc.delivery_capacity = 64;
  nc.out_capacity = 64;
  m.node = std::make_unique<core::Node>(
      m.sim, *m.transport, *m.detector, net::ProcessId(m.id),
      core::View(core::ViewId(0), members), nc);
  fd::HeartbeatDetector* detector = m.detector.get();
  m.node->set_control_sink(
      [detector](net::ProcessId from, const net::MessagePtr& message) {
        if (message->type() == net::MessageType::heartbeat) {
          detector->on_heartbeat(from);
        }
      });
  m.detector->start();
  core::MembershipPolicy::Config mc;
  mc.suspicion_grace = sim::Duration::millis(300);
  m.policy =
      std::make_unique<core::MembershipPolicy>(m.sim, *m.node, *m.detector, mc);
  m.delivered.assign(kMembers, {});
}

void member_main(Member& m, Shared& shared, std::latch& go) {
  core::Node& node = *m.node;
  const auto drain = [&] {
    for (;;) {
      std::optional<core::Delivery> d;
      {
        Span span(&m.tracer, "node.try_deliver");
        d = node.try_deliver();
        if (d.has_value()) {
          if (const auto* data = std::get_if<core::DataDelivery>(&*d)) {
            if (const auto* op = dynamic_cast<const workload::ItemOp*>(
                    data->message->payload().get())) {
              span.op(op_id(data->message->sender().value(), op->value()));
            }
          }
        }
      }
      if (!d.has_value()) return;
      const auto* data = std::get_if<core::DataDelivery>(&*d);
      if (data == nullptr) continue;
      const auto* op = dynamic_cast<const workload::ItemOp*>(
          data->message->payload().get());
      const std::uint32_t sender = data->message->sender().value();
      if (op == nullptr || sender >= kMembers) continue;
      m.delivered[sender].push_back(op->value());
      if (sender != m.id) {
        m.latency.add_ns(mono_ns() - shared.due(sender, op->value()));
      }
      shared.delivered[m.id].fetch_add(1, std::memory_order_release);
    }
  };
  node.set_deliverable_callback(drain);

  std::function<void()> produce = [&] {
    const std::int64_t now = mono_ns();
    bool refused = false;
    while (m.produced < shared.per_member &&
           shared.due(m.id, m.produced) <= now) {
      auto payload = std::make_shared<workload::ItemOp>(
          workload::OpKind::update, m.id, m.produced, m.produced, true);
      bool ok = false;
      {
        Span span(&m.tracer, "node.multicast", op_id(m.id, m.produced));
        ok = node.multicast(std::move(payload), obs::Annotation::none())
                 .has_value();
      }
      if (!ok) {
        refused = true;
        break;
      }
      ++m.produced;
    }
    if (m.produced >= shared.per_member) return;
    std::int64_t wait_us =
        (shared.due(m.id, m.produced) - mono_ns()) / 1000;
    if (refused) wait_us = kRetryUs;
    m.sim.schedule_after(sim::Duration::micros(std::max<std::int64_t>(wait_us, 1)),
                         produce);
  };

  go.arrive_and_wait();
  runtime::RealTimeDriver driver(m.sim, *m.transport);
  const auto stop = [&] {
    ++m.iterations;
    return shared.all_delivered();
  };
  const auto run_until = [&](std::int64_t until_ns) {
    const std::int64_t left = until_ns - mono_ns();
    if (left > 0) driver.run(sim::Duration::micros(left / 1000), stop);
  };
  try {
    m.cpu_start = thread_cpu_s();
    const std::int64_t first_due = shared.due(m.id, 0);
    m.sim.schedule_after(
        sim::Duration::micros(std::max<std::int64_t>(
            (first_due - mono_ns()) / 1000, 1)),
        produce);
    drain();
    const std::int64_t deadline = shared.end + kTailNs;
    if (shared.trace) {
      // First half untraced, second half traced: the overhead of tracing
      // is the difference, measured in the same run.
      run_until(shared.mid);
      m.cpu_mid = thread_cpu_s();
      m.produced_at_mid = m.produced;
      m.tracer.enabled = true;
      Span root(&m.tracer, "udp.member");
      run_until(deadline);
    } else {
      run_until(deadline);
    }
    m.cpu_end = thread_cpu_s();
  } catch (const std::exception& e) {
    m.error = e.what();
    m.cpu_end = thread_cpu_s();
  }
  m.end_ns = mono_ns();
}

}  // namespace

Result run_udp_group(const Options& options) {
  Result result;
  Shared shared;
  shared.trace = options.trace;
  shared.per_member = static_cast<std::uint64_t>(options.seconds * 1e9) /
                      static_cast<std::uint64_t>(kPeriodNs);
  Rng rng(derive(options.seed, 0));
  for (std::uint32_t i = 0; i < kMembers; ++i) {
    shared.phase.push_back(static_cast<std::int64_t>(rng.below(kPeriodNs)));
  }

  std::vector<std::unique_ptr<Member>> members;
  std::vector<std::uint16_t> ports;
  for (std::uint32_t i = 0; i < kMembers; ++i) {
    members.push_back(std::make_unique<Member>(i));
    build(*members.back());
    ports.push_back(members.back()->transport->local_port(net::ProcessId(i)));
  }
  for (auto& m : members) wire(*m, ports);

  const util::PoolStats pool_before = util::Pool::aggregate();
  std::latch go(kMembers + 1);
  std::vector<std::thread> threads;
  for (auto& m : members) {
    threads.emplace_back(member_main, std::ref(*m), std::ref(shared),
                         std::ref(go));
  }
  // Schedule origin a little ahead, so every thread is waiting on it.
  shared.t0 = mono_ns() + 2'000'000;
  shared.end = shared.t0 +
               static_cast<std::int64_t>(shared.per_member) * kPeriodNs;
  shared.mid = shared.t0 + (shared.end - shared.t0) / 2;
  const double setup_s =
      since_process_start_s() + static_cast<double>(shared.t0 - mono_ns()) / 1e9;
  go.arrive_and_wait();
  for (auto& t : threads) t.join();
  const util::PoolStats pool_after = util::Pool::aggregate();

  // Checks: every member delivered every member's multicasts exactly once,
  // in each sender's order, as each sender logged them (0, 1, 2, ...).
  std::vector<std::vector<std::uint64_t>> log(kMembers);
  std::vector<std::vector<std::vector<std::uint64_t>>> delivered;
  for (auto& m : members) {
    for (std::uint64_t k = 0; k < m->produced; ++k) log[m->id].push_back(k);
    delivered.push_back(m->delivered);
    if (!m->error.empty()) {
      result.problems.push_back("member " + std::to_string(m->id) +
                                " stopped: " + m->error);
    }
  }
  std::uint64_t failed = 0;
  for (auto& p : check_per_sender(log, delivered, failed)) {
    result.problems.push_back(std::move(p));
  }
  net::UdpLaneStats lane;
  net::NetworkStats inner;
  std::uint64_t blocked = 0, iterations = 0, events = 0;
  Histogram latency;
  double cpu = 0.0, cpu_first = 0.0, cpu_second = 0.0;
  std::uint64_t produced = 0, second_half = 0;
  std::int64_t end_ns = shared.t0;
  for (auto& m : members) {
    lane += m->transport->lane_stats();
    inner += m->transport->stats();
    blocked += m->node->stats().multicast_blocked;
    iterations += m->iterations;
    events += m->sim.executed();
    latency.merge(m->latency);
    cpu += m->cpu_end - m->cpu_start;
    cpu_first += m->cpu_mid - m->cpu_start;
    cpu_second += m->cpu_end - m->cpu_mid;
    produced += m->produced;
    second_half += m->produced - m->produced_at_mid;
    end_ns = std::max(end_ns, m->end_ns);
    failed += shared.per_member - m->produced;  // never multicast
  }
  if (lane.malformed_datagrams != 0 || lane.link_resets != 0) {
    result.problems.push_back(
        "lane counted " + std::to_string(lane.malformed_datagrams) +
        " malformed datagrams and " + std::to_string(lane.link_resets) +
        " link resets");
  }
  result.attempted = shared.per_member * kMembers;
  result.failed = failed;

  const double mc = static_cast<double>(produced);
  const double wall = static_cast<double>(end_ns - shared.t0) / 1e9;
  result.e2e("setup_s", setup_s, "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  result.e2e("latency_p50_ms", latency.quantile_ms(0.50), "ms");
  result.e2e("wire_bytes_per_op", ratio(lane.datagram_bytes_sent, mc), "B");
  result.e2e("msgs_per_op", ratio(lane.datagrams_sent, mc), "count");
  const double first_half = static_cast<double>(produced - second_half);
  const double untraced_cpu_us = options.trace
                                     ? ratio(cpu_first * 1e6, first_half)
                                     : ratio(cpu * 1e6, mc);
  result.layer("e2e_ref.ops_per_s", ratio(mc, wall), "1/s");
  result.layer("e2e_ref.cpu_us_per_op", untraced_cpu_us, "us");
  result.layer("e2e_ref.latency_p99_ms", latency.quantile_ms(0.99), "ms");

  std::vector<const Tracer*> tracers;
  for (auto& m : members) tracers.push_back(&m->tracer);
  LayerReport layers(result, options, tracers, "udp.member",
                     static_cast<double>(second_half));
  layers.time_per_call("node.multicast_ns", "node.multicast");
  layers.time_per_call("node.try_deliver_ns", "node.try_deliver");
  const double data_dgrams =
      static_cast<double>(lane.datagrams_sent - lane.ack_datagrams);
  result.layer("node.multicast_blocked", ratio(blocked, mc), "count/op");
  result.layer("net.msgs_per_op", ratio(inner.sent, mc), "count");
  result.layer("sim.events_per_op", ratio(events, mc), "count");
  result.layer("lane.datagrams_per_multicast", ratio(lane.datagrams_sent, mc),
               "count");
  result.layer("lane.ack_datagrams_per_multicast",
               ratio(lane.ack_datagrams, mc), "count");
  result.layer("lane.frames_per_datagram",
               ratio(lane.frames_delivered,
                     static_cast<double>(lane.datagrams_received) -
                         static_cast<double>(lane.ack_datagrams)),
               "count");
  result.layer("lane.retx_per_datagram",
               ratio(lane.retransmissions, data_dgrams), "count");
  result.layer("lane.duplicate_drops", ratio(lane.duplicate_drops, mc),
               "count/op");
  result.layer("lane.inbound_stalls", ratio(lane.inbound_stalls, mc),
               "count/op");
  const double syscalls =
      static_cast<double>(lane.syscalls_sent + lane.syscalls_recvd);
  result.layer("io.syscalls_per_multicast", ratio(syscalls, mc), "count");
  result.layer("io.datagrams_per_syscall",
               ratio(static_cast<double>(lane.datagrams_sent +
                                         lane.datagrams_received),
                     syscalls),
               "count");
  result.layer("codec.frame_encodes_per_multicast",
               ratio(lane.frame_encodes, mc), "count");
  result.layer("codec.datagram_bytes_per_multicast",
               ratio(lane.datagram_bytes_sent, mc), "B");
  result.layer("wheel.cascades_per_s", ratio(lane.wheel_cascades, wall),
               "1/s");
  const double hits = static_cast<double>(pool_after.hits - pool_before.hits);
  const double misses =
      static_cast<double>(pool_after.misses - pool_before.misses);
  result.layer("pool.hit_ratio", ratio(hits, hits + misses), "ratio");
  result.layer("runtime.busy_share", ratio(cpu, wall * kMembers), "ratio");
  result.layer("runtime.iterations_per_multicast", ratio(iterations, mc),
               "count");
  layers.overhead("cpu_us_per_op", untraced_cpu_us,
                  ratio(cpu_second * 1e6, static_cast<double>(second_half)),
                  "us");
  return result;
}

}  // namespace svsbench
