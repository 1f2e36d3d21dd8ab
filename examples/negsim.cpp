// negsim — command-line driver for arbitrary fabric experiments.
//
//   negsim [--topology parallel|thin-clos]
//          [--scheduler negotiator|oblivious|iterative|informative-size|
//                       informative-hol|stateful|selective-relay|projector|
//                       centralized]
//          [--workload hadoop|web-search|google|fixed:<bytes>]
//          [--load 0.5] [--duration-ms 4] [--seed 1]
//          [--tors 128] [--ports 8] [--speedup 2]
//          [--no-piggyback] [--no-pq] [--iterations 3]
//          [--data-drop 0.01] [--arq]
//          [--csv out.csv]
//
// Prints a one-line result; with --csv, appends a machine-readable row.
// Malformed numbers and invalid configurations exit 2 with a message.
// --load is a fraction of host bandwidth (§4.1) and must lie in (0, 1];
// --duration-ms must give a horizon of at least 1 ns. A workload that
// would generate more than kMaxFlows flows (a tiny fixed flow size over a
// long horizon) exits 2 before generating any. A run with no completed
// mice flow prints its mice FCT as n/a (empty CSV fields).
// --data-drop turns on the lossy data plane (core/data_channel.h) with
// that drop probability on every hop; --arq adds end-host
// selective-repeat retransmission (tor/host_transport.h), without which
// dropped bytes are lost for good.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "engine/runner.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

using namespace negotiator;

namespace {

/// Flow-count ceiling. A flow costs ~130 B of peak memory (generated list,
/// flow table, arrival event), so this caps that at ~1.3 GB; the largest
/// paper-horizon workload (Google sizes, N=128, load 1.0, 30 ms) makes
/// ~2.2 M flows.
constexpr double kMaxFlows = 1e7;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "negsim: %s\n(see the header of examples/negsim.cpp "
                       "for the full flag list)\n",
               message);
  std::exit(2);
}

/// Strict numeric parses: the whole argument must be one in-range number.
long long parse_integer(const char* text, long long lo, long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    usage((std::string("bad integer '") + text + "'").c_str());
  }
  return v;
}

int parse_int(const char* text) {
  return static_cast<int>(parse_integer(text, INT_MIN, INT_MAX));
}

double parse_double(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) {
    usage((std::string("bad number '") + text + "'").c_str());
  }
  return v;
}

SchedulerKind parse_scheduler(const std::string& name) {
  if (name == "negotiator") return SchedulerKind::kNegotiator;
  if (name == "oblivious") return SchedulerKind::kOblivious;
  if (name == "iterative") return SchedulerKind::kNegotiatorIterative;
  if (name == "informative-size") {
    return SchedulerKind::kNegotiatorInformativeSize;
  }
  if (name == "informative-hol") {
    return SchedulerKind::kNegotiatorInformativeHol;
  }
  if (name == "stateful") return SchedulerKind::kNegotiatorStateful;
  if (name == "selective-relay") {
    return SchedulerKind::kNegotiatorSelectiveRelay;
  }
  if (name == "projector") return SchedulerKind::kProjector;
  if (name == "centralized") return SchedulerKind::kCentralized;
  usage("unknown scheduler");
}

SizeDistribution parse_workload(const std::string& name) {
  if (name == "hadoop") return SizeDistribution::hadoop();
  if (name == "web-search") return SizeDistribution::web_search();
  if (name == "google") return SizeDistribution::google();
  if (name.rfind("fixed:", 0) == 0) {
    return SizeDistribution::fixed(
        parse_integer(name.c_str() + 6, LLONG_MIN, LLONG_MAX));
  }
  usage("unknown workload");
}

}  // namespace

int main(int argc, char** argv) {
  NetworkConfig cfg;
  std::string workload = "hadoop";
  double load = 0.5;
  double duration_ms = 4.0;
  std::string csv_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--topology") {
      const std::string v = value();
      if (v == "parallel") {
        cfg.topology = TopologyKind::kParallel;
      } else if (v == "thin-clos") {
        cfg.topology = TopologyKind::kThinClos;
      } else {
        usage("unknown topology");
      }
    } else if (arg == "--scheduler") {
      cfg.scheduler = parse_scheduler(value());
    } else if (arg == "--workload") {
      workload = value();
    } else if (arg == "--load") {
      load = parse_double(value());
    } else if (arg == "--duration-ms") {
      duration_ms = parse_double(value());
    } else if (arg == "--seed") {
      cfg.seed =
          static_cast<std::uint64_t>(parse_integer(value(), 0, LLONG_MAX));
    } else if (arg == "--tors") {
      cfg.num_tors = parse_int(value());
    } else if (arg == "--ports") {
      cfg.ports_per_tor = parse_int(value());
    } else if (arg == "--speedup") {
      cfg.speedup = parse_double(value());
    } else if (arg == "--iterations") {
      cfg.variant.iterations = parse_int(value());
    } else if (arg == "--no-piggyback") {
      cfg.piggyback = false;
    } else if (arg == "--no-pq") {
      cfg.pias.enabled = false;
    } else if (arg == "--data-drop") {
      const double p = parse_double(value());
      cfg.data_fault.enabled = true;
      cfg.data_fault.first_hop_drop = p;
      cfg.data_fault.relay_drop = p;
      cfg.data_fault.second_hop_drop = p;
    } else if (arg == "--arq") {
      cfg.data_fault.enabled = true;
      cfg.data_fault.arq = true;
    } else if (arg == "--csv") {
      csv_path = value();
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  // Load is a fraction of host bandwidth; the generator's arrival rate
  // scales with it, so a load far above 1 never finishes generating.
  if (load <= 0 || load > 1) usage("load must be in (0, 1]");
  // Keeps the nanosecond horizon inside int64.
  if (duration_ms > 1e9) usage("duration must be at most 1e9 ms");
  const auto duration = static_cast<Nanos>(duration_ms * kMilli);
  if (duration < 1) usage("duration must be at least 1 ns (1e-6 ms)");
  const SizeDistribution sizes = [&] {
    try {
      cfg.validate();
      return parse_workload(workload);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), load,
                        Rng(cfg.seed));
  const double expected_flows =
      gen.flow_rate_per_ns() * static_cast<double>(duration);
  if (expected_flows > kMaxFlows) {
    char message[160];
    std::snprintf(message, sizeof(message),
                  "workload would generate ~%.3g flows (limit %.0e); use "
                  "larger flows, fewer ToRs or a shorter horizon",
                  expected_flows, kMaxFlows);
    usage(message);
  }
  Runner runner(cfg);
  runner.add_flows(gen.generate(0, duration));
  const RunResult r = runner.run(duration, duration / 2);

  // No completed mice flow means no FCT to report, not a zero FCT.
  const bool have_mice = r.mice.count > 0;
  char mice_fct[64] = "n/a";
  if (have_mice) {
    std::snprintf(mice_fct, sizeof(mice_fct), "%.1f / %.1f us",
                  r.mice.p99_ns / 1e3, r.mice.mean_ns / 1e3);
  }
  std::printf("%s | %s load=%.2f %gms\n", cfg.summary().c_str(),
              workload.c_str(), load, duration_ms);
  std::printf("mice 99p/mean FCT: %s | goodput %.3f | match ratio %.3f | "
              "%zu flows completed\n",
              mice_fct, r.goodput, r.mean_match_ratio, r.completed);

  if (!csv_path.empty()) {
    const bool fresh = !std::ifstream(csv_path).good();
    std::ofstream csv(csv_path, std::ios::app);
    if (!csv) usage("cannot open csv output");
    if (fresh) {
      csv << "topology,scheduler,workload,load,duration_ms,seed,"
             "mice_p99_us,mice_mean_us,goodput,match_ratio,completed\n";
    }
    csv << to_string(cfg.topology) << ',' << to_string(cfg.scheduler) << ','
        << workload << ',' << load << ',' << duration_ms << ',' << cfg.seed
        << ',';
    if (have_mice) {
      csv << r.mice.p99_ns / 1e3 << ',' << r.mice.mean_ns / 1e3;
    } else {
      csv << ',';
    }
    csv << ',' << r.goodput << ',' << r.mean_match_ratio << ','
        << r.completed << '\n';
  }
  return 0;
}
