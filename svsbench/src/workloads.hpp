// The three workloads (see svsbench/README.md for what each runs and why).
#pragma once

#include "common.hpp"

namespace svsbench {

Result run_kv_burst(const Options& options);
Result run_udp_group(const Options& options);
Result run_crash_n512(const Options& options);

}  // namespace svsbench
