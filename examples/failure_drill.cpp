// Fault-tolerance drill (§3.6.1): run a loaded fabric, break a fraction of
// the optical fibres mid-run, watch detection/exclusion keep traffic
// flowing, then repair and watch bandwidth recover.
//
//   ./failure_drill [failure_percent] [horizon_ms]
#include <cstdio>
#include <cstdlib>

#include "engine/fault_scenario.h"
#include "engine/runner.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

using namespace negotiator;

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "failure_drill: %s\n"
                       "usage: failure_drill [failure_percent] [horizon_ms]\n",
               message);
  std::exit(2);
}

/// Strict decimal parse: the whole argument must be a number.
double parse_number(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') usage("arguments must be numbers");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) usage("too many arguments");
  const double fail_pct = argc > 1 ? parse_number(argv[1]) : 8.0;
  const double horizon_ms = argc > 2 ? parse_number(argv[2]) : 4.5;
  if (!(fail_pct >= 0.0 && fail_pct <= 100.0)) {
    usage("failure_percent must be in [0, 100]");
  }
  // Need at least one full 1/45-horizon measurement window (>= 1 ns each),
  // or the window arithmetic below degenerates; the upper bound keeps the
  // nanosecond horizon inside int64.
  if (!(horizon_ms * kMilli >= 45) || horizon_ms > 1e9) {
    usage("horizon_ms must be in [0.000045, 1e9]");
  }
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;

  // Phases and the measurement window scale with the horizon; the defaults
  // (4.5 ms -> 100 us windows, fail at 1.5 ms, repair at 3.0 ms) match the
  // paper's drill.
  const Nanos end = static_cast<Nanos>(horizon_ms * kMilli);
  const Nanos window = end / 45;
  Runner runner(cfg, window);

  // Saturating all-pairs backlog makes bandwidth limited by links alone.
  FlowId id = 0;
  for (TorId s = 0; s < cfg.num_tors; ++s) {
    for (TorId d = 0; d < cfg.num_tors; ++d) {
      if (s == d) continue;
      Flow f;
      f.id = id++;
      f.src = s;
      f.dst = d;
      f.size = 1'000'000'000;
      f.arrival = 0;
      runner.fabric().add_flow(f);
    }
  }

  const Nanos fail_at = end / 3;
  const Nanos repair_at = 2 * end / 3;
  Rng rng(11);
  const ScenarioTimeline failed =
      FaultScenario()
          .uniform_burst({fail_pct / 100.0, fail_at, repair_at})
          .install(runner.fabric(), rng);
  std::printf("drill: %zu of %d directed fibres fail at %.1f ms, repaired "
              "at %.1f ms\n\n",
              failed.failure_count(), runner.fabric().links().total_links(),
              fail_at / 1e6, repair_at / 1e6);

  runner.fabric().goodput().set_measure_interval(0, end);
  runner.fabric().run_until(end);

  std::printf("network-wide delivered bandwidth per %.0f us window:\n",
              window / 1e3);
  const auto& goodput = runner.fabric().goodput();
  double pre = 0, during = 0, post = 0;
  int pre_n = 0, during_n = 0, post_n = 0;
  for (std::size_t w = 0; w < static_cast<std::size_t>(end / window); ++w) {
    double bytes = 0;
    for (TorId t = 0; t < cfg.num_tors; ++t) {
      const auto& series = goodput.tor_window_series(t);
      if (w < series.size()) bytes += static_cast<double>(series[w]);
    }
    const double tbps = bytes * 8.0 / static_cast<double>(window) / 1e3;
    const Nanos t0 = static_cast<Nanos>(w) * window;
    const char* phase = t0 < fail_at ? "healthy "
                        : t0 < repair_at ? "FAILED  "
                                         : "repaired";
    if (w % 3 == 0) std::printf("  %5.1f ms  %s  %6.2f Tbps\n", t0 / 1e6, phase, tbps);
    if (t0 >= window * 4 && t0 < fail_at) { pre += tbps; ++pre_n; }
    if (t0 >= fail_at + 5 * window && t0 < repair_at) { during += tbps; ++during_n; }
    if (t0 >= repair_at + 5 * window && t0 < end) { post += tbps; ++post_n; }
  }
  std::printf("\nbandwidth: pre-failure %.2f Tbps, under failures %.2f Tbps "
              "(%.1f%%), post-repair %.2f Tbps (%.1f%% of pre)\n",
              pre / pre_n, during / during_n,
              100.0 * (during / during_n) / (pre / pre_n), post / post_n,
              100.0 * (post / post_n) / (pre / pre_n));
  return 0;
}
