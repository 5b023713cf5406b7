#include "checks.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace svsbench {

std::vector<std::string> check_kv(const std::vector<KvWrite>& log,
                                  std::size_t num_keys,
                                  const std::vector<KvReplica>& replicas,
                                  std::uint64_t& failed_writes) {
  std::vector<std::string> problems;
  // Per key: the values written to it, in write order, and which write
  // wrote each.
  std::vector<std::vector<std::uint64_t>> per_key(num_keys);
  std::vector<std::vector<std::size_t>> writer(num_keys);
  for (std::size_t w = 0; w < log.size(); ++w) {
    for (const auto& [k, value] : log[w].puts) {
      if (k >= num_keys) {
        problems.push_back("log names key " + std::to_string(k) +
                           " outside the key space");
        continue;
      }
      per_key[k].push_back(value);
      writer[k].push_back(w);
    }
  }
  // Key and position in its key's write order of every logged value.
  std::map<std::uint64_t, std::pair<std::uint32_t, std::size_t>> position;
  for (std::size_t k = 0; k < num_keys; ++k) {
    for (std::size_t i = 0; i < per_key[k].size(); ++i) {
      position[per_key[k][i]] = {static_cast<std::uint32_t>(k), i};
    }
  }
  // The item id each key's values are applied under, at every replica.
  std::vector<std::optional<std::uint64_t>> item_of_key(num_keys);
  std::map<std::uint64_t, std::uint32_t> key_of_item;
  // Writes neither applied nor obsoleted at some replica.
  std::set<std::size_t> failed;

  for (std::size_t r = 0; r < replicas.size(); ++r) {
    const auto& rep = replicas[r];
    const std::string who = "replica " + std::to_string(r);
    if (rep.final_values.size() != num_keys) {
      problems.push_back(who + " reports " +
                         std::to_string(rep.final_values.size()) +
                         " keys, expected " + std::to_string(num_keys));
      continue;
    }
    // (1) Final values.
    for (std::size_t k = 0; k < num_keys; ++k) {
      const std::optional<std::uint64_t> expected =
          per_key[k].empty() ? std::nullopt
                             : std::optional(per_key[k].back());
      if (rep.final_values[k] != expected) {
        problems.push_back(
            who + " key " + std::to_string(k) + " ends at " +
            (rep.final_values[k] ? std::to_string(*rep.final_values[k])
                                 : std::string("<absent>")) +
            ", last write is " +
            (expected ? std::to_string(*expected) : std::string("<none>")));
      }
    }
    // (2) Applied values per key follow write order, each at most once,
    // under one item id per key.
    std::vector<std::vector<bool>> applied(num_keys);
    for (std::size_t k = 0; k < num_keys; ++k) {
      applied[k].assign(per_key[k].size(), false);
    }
    std::vector<std::int64_t> last_pos(num_keys, -1);
    std::size_t order_errors = 0;
    const auto report = [&](const std::string& what) {
      if (order_errors++ == 0) problems.push_back(who + " " + what);
    };
    for (const auto& [item, value] : rep.applied) {
      const auto it = position.find(value);
      if (it == position.end()) {
        report("applied item " + std::to_string(item) + " = " +
               std::to_string(value) + ", which was never written");
        continue;
      }
      const auto [k, index] = it->second;
      if (!item_of_key[k].has_value()) item_of_key[k] = item;
      const auto owner = key_of_item.emplace(item, k).first->second;
      if (*item_of_key[k] != item || owner != k) {
        report("applied write " + std::to_string(value) + " of key " +
               std::to_string(k) + " under item " + std::to_string(item) +
               ", which carries key " + std::to_string(owner) +
               "; key " + std::to_string(k) + " uses item " +
               std::to_string(*item_of_key[k]));
        continue;
      }
      const auto pos = static_cast<std::int64_t>(index);
      if (pos <= last_pos[k]) {
        report("applied key " + std::to_string(k) + " = " +
               std::to_string(value) + " out of write order");
        continue;
      }
      last_pos[k] = pos;
      applied[k][index] = true;
    }
    if (order_errors > 1) {
      problems.push_back(who + ": " + std::to_string(order_errors) +
                         " applied values out of order or unknown");
    }
    // (3) Only obsolete writes may be missing: a missing one must have a
    // later write to the same key.
    for (std::size_t k = 0; k < num_keys; ++k) {
      for (std::size_t i = 0; i < per_key[k].size(); ++i) {
        const bool obsolete = i + 1 < per_key[k].size();
        if (!applied[k][i] && !obsolete) {
          if (failed.insert(writer[k][i]).second) {
            problems.push_back(who + " never applied write " +
                               std::to_string(per_key[k][i]) + " to key " +
                               std::to_string(k) +
                               ", and no later write obsoletes it");
          }
        }
      }
    }
  }
  failed_writes = failed.size();
  return problems;
}

std::vector<std::string> check_per_sender(
    const std::vector<std::vector<std::uint64_t>>& log,
    const std::vector<std::vector<std::vector<std::uint64_t>>>& delivered,
    std::uint64_t& failed) {
  std::vector<std::string> problems;
  // Per sender, the first log position some member got wrong.
  std::vector<std::size_t> good_prefix(log.size());
  for (std::size_t s = 0; s < log.size(); ++s) good_prefix[s] = log[s].size();
  for (std::size_t m = 0; m < delivered.size(); ++m) {
    if (delivered[m].size() != log.size()) {
      problems.push_back("member " + std::to_string(m) + " reports " +
                         std::to_string(delivered[m].size()) +
                         " senders, expected " + std::to_string(log.size()));
      for (auto& g : good_prefix) g = 0;
      continue;
    }
    for (std::size_t s = 0; s < log.size(); ++s) {
      const auto& got = delivered[m][s];
      const auto& want = log[s];
      std::size_t i = 0;
      while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
      if (i == want.size() && got.size() == want.size()) continue;
      good_prefix[s] = std::min(good_prefix[s], i);
      std::string detail;
      if (i < got.size() && i < want.size()) {
        detail = "delivered " + std::to_string(got[i]) + " where " +
                 std::to_string(want[i]) + " was multicast";
      } else if (got.size() > want.size()) {
        detail = "delivered " + std::to_string(got.size() - want.size()) +
                 " more than were multicast";
      } else {
        detail = "missing the last " + std::to_string(want.size() - i);
      }
      problems.push_back("member " + std::to_string(m) + " from sender " +
                         std::to_string(s) + ": position " +
                         std::to_string(i) + " " + detail);
    }
  }
  failed = 0;
  for (std::size_t s = 0; s < log.size(); ++s) {
    failed += log[s].size() - good_prefix[s];
  }
  return problems;
}

std::vector<std::string> check_view_change(
    const std::vector<std::uint32_t>& expected_alive,
    const std::vector<SurvivorView>& observed) {
  std::vector<std::string> problems;
  std::vector<std::uint32_t> want = expected_alive;
  std::sort(want.begin(), want.end());
  std::set<std::uint32_t> reported;
  const SurvivorView* reference = nullptr;
  for (const auto& v : observed) {
    reported.insert(v.member);
    const std::string who = "survivor " + std::to_string(v.member);
    if (!std::binary_search(want.begin(), want.end(), v.member)) {
      problems.push_back(who + " was crashed, yet reports a view");
      continue;
    }
    if (!v.installed) {
      problems.push_back(who + " installed no new view by the deadline");
      continue;
    }
    std::vector<std::uint32_t> members = v.view_members;
    std::sort(members.begin(), members.end());
    if (members != want) {
      problems.push_back(who + " installed view " +
                         std::to_string(v.view_id) + " with " +
                         std::to_string(members.size()) +
                         " members; the benchmark expects " +
                         std::to_string(want.size()));
    }
    if (reference == nullptr) {
      reference = &v;
    } else if (v.view_id != reference->view_id ||
               v.view_members != reference->view_members) {
      problems.push_back(who + " installed view " + std::to_string(v.view_id) +
                         ", survivor " + std::to_string(reference->member) +
                         " view " + std::to_string(reference->view_id));
    }
  }
  for (const auto m : want) {
    if (!reported.contains(m)) {
      problems.push_back("survivor " + std::to_string(m) + " is missing");
    }
  }
  return problems;
}

}  // namespace svsbench
