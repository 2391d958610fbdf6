// Per-layer rungs measured in isolation (see ladder.cpp).
#pragma once

#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

// Measure every rung; failures are appended to `errors`.
std::vector<Metric> measure_ladder(std::vector<std::string>* errors);

}  // namespace perfbench
