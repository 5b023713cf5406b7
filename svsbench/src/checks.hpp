// Correctness checks of the three workloads.  Each compares what the
// library produced with an expectation the benchmark computed on its own,
// from its generator's log or its own crash bookkeeping -- never from the
// library's state.  Pure functions over plain data, so checks_test.cpp can
// tamper with an expectation and show every check fails.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace svsbench {

/// One write of the KV generator: a put (one key) or a put_all (several
/// distinct keys), as (key, value) pairs.  Every value is unique.
struct KvWrite {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> puts;
};

/// What one replica did: every (item id, value) its store applied, in
/// apply order, and the value KvStore::get returns for each key at the end.
/// The item id is the store's own (ItemOp::item()); the check learns which
/// key a value belongs to from the log, never from the id.
struct KvReplica {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> applied;
  std::vector<std::optional<std::uint64_t>> final_values;  // per key
};

/// kv_burst: (1) every replica's final value of every key is the last
/// write to it in `log`; (2) per replica and key, applied values appear in
/// write order, each at most once, and every value of one key is applied
/// under the same item id, which no other key's values use; (3) every write
/// a replica did not apply has a later write to the same key.  Returns the
/// problems found; sets `failed_writes` to the writes neither applied nor
/// obsoleted everywhere.
std::vector<std::string> check_kv(const std::vector<KvWrite>& log,
                                  std::size_t num_keys,
                                  const std::vector<KvReplica>& replicas,
                                  std::uint64_t& failed_writes);

/// Per-sender delivery sequences (udp_group, and the crash_n512 flood):
/// `log[s]` is what sender s multicast, in order; `delivered[m][s]` is what
/// member m delivered from s, in order.  Every member must deliver every
/// logged message exactly once, in its sender's order.  Sets `failed` to
/// the logged messages some member did not deliver in place.
std::vector<std::string> check_per_sender(
    const std::vector<std::vector<std::uint64_t>>& log,
    const std::vector<std::vector<std::vector<std::uint64_t>>>& delivered,
    std::uint64_t& failed);

/// A survivor's view after one crash-triggered view change.
struct SurvivorView {
  std::uint32_t member = 0;
  bool installed = false;  // installed a newer view within the deadline
  std::uint64_t view_id = 0;
  std::vector<std::uint32_t> view_members;
};

/// crash_n512: every expected survivor reports, installed in time, and all
/// installed the same view whose membership is exactly `expected_alive`
/// (the members the benchmark has not crashed).
std::vector<std::string> check_view_change(
    const std::vector<std::uint32_t>& expected_alive,
    const std::vector<SurvivorView>& observed);

}  // namespace svsbench
