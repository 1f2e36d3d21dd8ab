// Data-plane loss sweep: what raw chunk loss does to flow completion
// (core/data_channel.h), and how completely the end-host selective-repeat
// ARQ (tor/host_transport.h) repairs it.
//
// Each row runs a Hadoop-style Poisson workload at fixed load with every
// hop class (first-hop, relay, second-hop) dropping chunks at the row's
// rate plus a fixed 1% corruption rate — the same mix the data-loss
// goldens pin. Without ARQ, dropped bytes are terminal: the affected
// flows never complete, and the table shows completions sinking with the
// drop rate. With ARQ, the transport retransmits until acked, so the
// damage shows up as retransmitted bytes and FCT inflation instead.
//
// Reported per row:
//   - completed        flows finished within the measurement horizon;
//   - mice p99 / all mean   FCT percentiles (ms);
//   - dropped/corrupt MB    channel damage (terminal without ARQ);
//   - retx MB / rto fires / spurious   ARQ recovery work.
//
// The second table is the acceptance bar: with ARQ on, every system at
// every drop rate <= 5% must deliver >= 99.9% of the offered bytes after
// a bounded drain (in practice 100%: abandonment needs max_retries
// consecutive attempted-and-lost rounds), and the mean FCT over the
// measurement window must stay within 3x the lossless run's mean — loss
// recovery is allowed to cost tail latency, not goodput.
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

namespace {

struct LossRow {
  const char* system;
  double drop;
  bool arq;
};

NetworkConfig lossy_config(TopologyKind topo, SchedulerKind sched,
                           double drop, bool arq) {
  NetworkConfig cfg = paper_config(topo, sched);
  if (drop > 0.0) {
    cfg.data_fault.enabled = true;
    cfg.data_fault.first_hop_drop = drop;
    cfg.data_fault.relay_drop = drop;
    cfg.data_fault.second_hop_drop = drop;
    cfg.data_fault.corrupt_prob = 0.01;
    cfg.data_fault.arq = arq;
  }
  return cfg;
}

}  // namespace

int main() {
  print_header("Data-plane loss: completion damage and ARQ recovery");
  const Nanos duration = bench_duration(0.5);
  const double kLoad = 0.6;
  const struct {
    const char* name;
    TopologyKind topo;
    SchedulerKind sched;
  } systems[] = {
      {"negotiator/parallel", TopologyKind::kParallel,
       SchedulerKind::kNegotiator},
      {"negotiator/thin-clos", TopologyKind::kThinClos,
       SchedulerKind::kNegotiator},
      {"oblivious/thin-clos", TopologyKind::kThinClos,
       SchedulerKind::kOblivious},
  };
  const double drops[] = {0.0, 0.01, 0.02, 0.05};

  std::vector<SweepPoint> points;
  std::vector<LossRow> rows;
  auto add_point = [&](const char* name, TopologyKind topo,
                       SchedulerKind sched, double drop, bool arq) {
    rows.push_back({name, drop, arq});
    const NetworkConfig cfg = lossy_config(topo, sched, drop, arq);
    points.push_back(custom_point(
        [cfg, duration, kLoad](const SweepPoint&) {
          Runner runner(cfg);
          runner.add_flows(load_workload(cfg, SizeDistribution::hadoop(),
                                         kLoad, duration, cfg.seed));
          const RunResult r = runner.run(duration, duration / 2);
          const FabricCounters c = runner.fabric().counters();
          SweepOutcome out;
          out.metrics = {static_cast<double>(r.completed),
                         r.mice.p99_ns,
                         r.all_flows.mean_ns,
                         static_cast<double>(c.data_dropped_bytes),
                         static_cast<double>(c.data_corrupted_bytes),
                         static_cast<double>(c.retransmitted_bytes),
                         static_cast<double>(c.rto_fires),
                         static_cast<double>(c.spurious_retx)};
          return out;
        },
        std::string(name) + " drop " + fmt(drop, 2) + (arq ? " +arq" : "")));
  };

  for (const auto& sys : systems) {
    for (const double drop : drops) {
      add_point(sys.name, sys.topo, sys.sched, drop, false);
      if (drop > 0.0) add_point(sys.name, sys.topo, sys.sched, drop, true);
    }
  }
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"system", "drop", "arq", "completed", "mice p99 ms",
                      "all mean ms", "dropped MB", "corrupt MB", "retx MB",
                      "rto fires", "spurious"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& m = outcomes[i].metrics;
    table.add_row({rows[i].system,
                   rows[i].drop > 0.0 ? fmt(rows[i].drop, 2) : "-",
                   rows[i].drop > 0.0 ? (rows[i].arq ? "on" : "off") : "-",
                   fmt(m[0], 0), fct_ms(m[1]), fct_ms(m[2]),
                   fmt(m[3] / 1e6, 3), fmt(m[4] / 1e6, 3),
                   fmt(m[5] / 1e6, 3), fmt(m[6], 0), fmt(m[7], 0)});
  }
  table.print();

  // --- Acceptance bar: ARQ goodput and bounded FCT inflation ---
  // Each point runs to the horizon, then drains (bounded settle rounds)
  // so every retransmission timer still pending gets its chance; the
  // delivered fraction counts actual flow-table bytes against the offered
  // workload. metrics: {delivered, offered, abandoned, all_mean_ns,
  // completed, flows}.
  std::vector<SweepPoint> bar_points;
  std::vector<LossRow> bar_rows;
  for (const auto& sys : systems) {
    for (const double drop : drops) {
      bar_rows.push_back({sys.name, drop, drop > 0.0});
      const NetworkConfig cfg =
          lossy_config(sys.topo, sys.sched, drop, /*arq=*/true);
      bar_points.push_back(custom_point(
          [cfg, duration, kLoad](const SweepPoint&) {
            Runner runner(cfg);
            const auto flows = load_workload(
                cfg, SizeDistribution::hadoop(), kLoad, duration, cfg.seed);
            double offered = 0;
            for (const Flow& f : flows) {
              offered += static_cast<double>(f.size);
            }
            runner.add_flows(flows);
            const RunResult r = runner.run(duration, duration / 2);
            FabricSim& fab = runner.fabric();
            const Nanos round = 500 * cfg.epoch_length_ns();
            for (int i = 0; i < 40 && fab.total_backlog() > 0; ++i) {
              fab.run_until(fab.now() + round);
            }
            double delivered = 0;
            for (const FctSample& s : fab.fct().samples()) {
              delivered += static_cast<double>(s.size);
            }
            SweepOutcome out;
            out.metrics = {delivered,
                           offered,
                           static_cast<double>(fab.total_backlog()),
                           r.all_flows.mean_ns,
                           static_cast<double>(fab.fct().completed()),
                           static_cast<double>(flows.size())};
            return out;
          },
          std::string(sys.name) + " bar drop " + fmt(drop, 2)));
    }
  }
  const auto bar = run_sweep(bar_points);

  std::printf("\nARQ acceptance bar (drained runs, arq on):\n");
  ConsoleTable bar_table({"system", "drop", "delivered frac", "stranded B",
                          "all mean ms", "FCT vs lossless", "completed"});
  bool bar_holds = true;
  // Rows group per system: index 0 of each group is the lossless baseline.
  const std::size_t per_system = std::size(drops);
  for (std::size_t i = 0; i < bar_rows.size(); ++i) {
    const auto& m = bar[i].metrics;
    const auto& base = bar[i - (i % per_system)].metrics;
    const double frac = m[1] > 0 ? m[0] / m[1] : 0.0;
    const double inflation = base[3] > 0 ? m[3] / base[3] : 0.0;
    bar_table.add_row({bar_rows[i].system, fmt(bar_rows[i].drop, 2),
                       fmt(frac, 5), fmt(m[2], 0), fct_ms(m[3]),
                       fmt(inflation, 2),
                       fmt(m[4], 0) + "/" + fmt(m[5], 0)});
    if (frac < 0.999) {
      bar_holds = false;
      std::printf("GOODPUT REGRESSION: %s drop %.2f delivered %.5f < 0.999\n",
                  bar_rows[i].system, bar_rows[i].drop, frac);
    }
    if (inflation > 3.0) {
      bar_holds = false;
      std::printf("FCT REGRESSION: %s drop %.2f mean inflation %.2fx > 3x\n",
                  bar_rows[i].system, bar_rows[i].drop, inflation);
    }
  }
  bar_table.print();

  std::printf(
      "\nwithout ARQ completions sink with the drop rate; with ARQ every "
      "system\n%s >= 99.9%% of offered bytes at <= 5%% drop within 3x mean "
      "FCT.\n",
      bar_holds ? "delivers" : "FAILED to deliver");
  return bar_holds ? 0 : 1;
}
