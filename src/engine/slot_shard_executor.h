// Kept only because perfbench/negbench.cpp includes it and reports
// resolve_threads(); every run is one serial slot walk.
#pragma once

namespace negotiator {

struct SlotShardExecutor {
  static constexpr int resolve_threads(int) { return 1; }
};

}  // namespace negotiator
