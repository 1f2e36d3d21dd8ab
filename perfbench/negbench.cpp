// negbench: runs one workload of the repository benchmark (README.md) and
// prints one JSON record per line on stdout:
//
//   {"kind":"env",...}     once, first: build and host record
//   {"kind":"point",...}   once per experiment point, as soon as it ends
//   {"kind":"done",...}    once, last: process-wide peak RSS
//
// perfbench/run.py builds this binary, aggregates the point records into
// medians and prints the benchmark's result line. A point that aborts
// leaves its record unwritten; run.py counts it as attempted and failed.
//
// An experiment point is: generate the workload's flows from the seed, build
// the fabric, add the flows, run to the horizon, summarize. Untraced points
// time those steps from outside with one run_until call. Traced points step
// run_until one epoch at a time, drive a read-only shadow scheduler beside
// the fabric, sample ToR state per epoch, and record one span per layer
// boundary; the spans are written as JSON when the process exits.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "core/fault_detector.h"
#include "core/negotiator_scheduler.h"
#include "engine/network.h"
#include "engine/runner.h"
#include "engine/slot_shard_executor.h"
#include "stats/fct_recorder.h"
#include "stats/percentile.h"
#include "topo/topology_factory.h"
#include "workload/generator.h"
#include "workload/incast.h"
#include "workload/size_distribution.h"

namespace {

using namespace negotiator;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- workloads

/// One benchmark workload: a §4.1 fabric plus a pre-generated open-loop
/// Poisson flow trace over [0, horizon). Statistics cover the second half
/// of the horizon, as bench/bench_common.h's measure() does.
struct Workload {
  std::string name;
  NetworkConfig config;
  SizeDistribution sizes = SizeDistribution::hadoop();
  double load{0.0};
  bool incast{false};  // add the Fig. 13a-style incast mix
  Nanos horizon{0};
};

// The horizons keep one untraced point at or under a second of wall time
// on one core, so a 30 s run takes the median of 30 or more points, and
// keep the lossy workload's ARQ state (~150 MB per simulated ms) small.
constexpr Nanos kParallelHorizon = 2 * kMilli;
constexpr Nanos kObliviousHorizon = kMilli / 2;
constexpr Nanos kLossyHorizon = 3 * kMilli / 2;

/// Workload by name; throws std::invalid_argument for an unknown one.
/// `horizon` > 0 overrides the workload's own (the self-test's short runs).
Workload make_workload(const std::string& name, std::uint64_t seed,
                       Nanos horizon = 0) {
  Workload w;
  w.name = name;
  NetworkConfig& c = w.config;
  if (name == "negotiator-parallel-hadoop") {
    c.topology = TopologyKind::kParallel;
    c.scheduler = SchedulerKind::kNegotiator;
    c.num_tors = 128;
    w.load = 0.75;
    w.horizon = kParallelHorizon;
  } else if (name == "oblivious-thinclos-hadoop") {
    c.topology = TopologyKind::kThinClos;
    c.scheduler = SchedulerKind::kOblivious;
    c.num_tors = 256;
    w.load = 0.5;
    w.horizon = kObliviousHorizon;
  } else if (name == "negotiator-thinclos-lossy-incast") {
    c.topology = TopologyKind::kThinClos;
    c.scheduler = SchedulerKind::kNegotiator;
    c.num_tors = 128;
    w.sizes = SizeDistribution::web_search();
    w.load = 0.5;
    w.incast = true;
    c.control_fault.enabled = true;
    c.control_fault.request_drop = 0.02;
    c.control_fault.grant_drop = 0.02;
    c.control_fault.accept_drop = 0.02;
    c.control_fault.delay_prob = 0.05;
    c.control_fault.max_delay_epochs = 2;
    c.control_fault.duplicate_prob = 0.01;
    c.control_fault.fallback = true;
    c.data_fault.enabled = true;
    c.data_fault.first_hop_drop = 0.002;
    c.data_fault.corrupt_prob = 0.0005;
    c.data_fault.arq = true;
    // Arms the MatchingValidator and the ConservationAuditor in Release.
    c.validate_matching = true;
    w.horizon = kLossyHorizon;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  c.seed = seed;
  if (horizon > 0) w.horizon = horizon;
  c.validate();
  return w;
}

const char* const kWorkloads[] = {
    "negotiator-parallel-hadoop",
    "oblivious-thinclos-hadoop",
    "negotiator-thinclos-lossy-incast",
};

/// The workload's flows, a pure function of (workload, seed). Background
/// flows take ids 0..n-1; incast flows follow in group 1.
std::vector<Flow> generate_flows(const Workload& w, std::uint64_t seed) {
  Rng root(seed);
  WorkloadGenerator gen(w.sizes, w.config.num_tors, w.config.host_rate(),
                        w.load, root.fork());
  std::vector<Flow> flows = gen.generate(0, w.horizon);
  if (w.incast) {
    Rng incast_rng = root.fork();
    const auto incasts = make_incast_mix(
        w.config.num_tors, /*degree=*/32, 4_KB, /*bandwidth_fraction=*/0.02,
        w.config.host_rate(), 0, w.horizon, incast_rng,
        static_cast<FlowId>(flows.size()), /*group=*/1);
    flows.insert(flows.end(), incasts.begin(), incasts.end());
  }
  return flows;
}

// ----------------------------------------------------------- fingerprints

/// FNV-1a accumulator over 64-bit words.
struct Fnv {
  std::uint64_t h{0xcbf29ce484222325ULL};
  void mix(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void mix(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
};

std::uint64_t flows_fingerprint(const std::vector<Flow>& flows) {
  Fnv f;
  for (const Flow& fl : flows) {
    f.mix(static_cast<std::uint64_t>(fl.id));
    f.mix(static_cast<std::uint64_t>(fl.src));
    f.mix(static_cast<std::uint64_t>(fl.dst));
    f.mix(static_cast<std::uint64_t>(fl.size));
    f.mix(static_cast<std::uint64_t>(fl.arrival));
    f.mix(static_cast<std::uint64_t>(fl.group));
  }
  return f.h;
}

/// The run's complete observable output: every FCT sample, the summary and
/// the logical event count (the recipe bench_perf_engine's rows use).
std::uint64_t result_fingerprint(FabricSim& fabric, const RunResult& r) {
  Fnv f;
  for (const FctSample& s : fabric.fct().samples()) {
    f.mix(static_cast<std::uint64_t>(s.flow));
    f.mix(static_cast<std::uint64_t>(s.size));
    f.mix(static_cast<std::uint64_t>(s.arrival));
    f.mix(static_cast<std::uint64_t>(s.fct));
    f.mix(static_cast<std::uint64_t>(s.group));
  }
  f.mix(static_cast<std::uint64_t>(r.completed));
  f.mix(static_cast<std::uint64_t>(r.backlog));
  f.mix(r.goodput);
  f.mix(r.mean_match_ratio);
  f.mix(r.mice.p99_ns);
  f.mix(r.mice.mean_ns);
  f.mix(r.all_flows.p99_ns);
  f.mix(r.all_flows.p50_ns);
  f.mix(r.all_flows.mean_ns);
  f.mix(r.all_flows.max_ns);
  f.mix(fabric.events_executed());
  return f.h;
}

// ----------------------------------------------------------------- spans

/// In-memory span log. A span is one call into a layer, timed by the
/// benchmark around that call; `parent` is the index of the enclosing span
/// (-1 for a point's root) and `run` the point it belongs to.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(const char* name, int parent, int run) {
    spans_.push_back(Span{name, since_origin(), 0, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in ns.
  std::int64_t close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = since_origin();
    return s.end_ns - s.start_ns;
  }

  bool write_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"clock\": \"steady_clock ns since process start\", "
                      "\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"name\": \"%s\", \"start\": %" PRId64
                   ", \"end\": %" PRId64 ", \"parent\": %d, \"run\": %d}%s\n",
                   i, s.name, s.start_ns, s.end_ns, s.parent, s.run,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    int run;
  };
  std::int64_t since_origin() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------- host speed

/// Times a fixed piece of work of the kind the simulator does most: a
/// binary heap of timestamped events and a hash map under random keys,
/// about 30 ms on one core. It uses nothing from the library, so a change
/// to the simulator cannot move it, but the host's speed moves it: on a
/// shared host that speed drifts by 20-40% over minutes, and run.py
/// rescales each point's wall times by this time measured just before it.
double reference_work_s() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  const auto t0 = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(1 << 16);
  std::uint64_t x = 12345, sum = 0;
  for (std::uint32_t i = 0; i < 150'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    events.emplace(x >> 20, i);
    if (events.size() > 40'000) events.pop();
    table[(x >> 40) & 0xffff] += x;
    if (i % 3 == 0) {
      const auto it = table.find((x >> 24) & 0xffff);
      if (it != table.end()) sum += it->second;
    }
  }
  // Publish a result so the work cannot be optimised away.
  volatile std::uint64_t sink = sum + events.top().first;
  (void)sink;
  return seconds_between(t0, Clock::now());
}

// ----------------------------------------------------------------- points

/// Per-layer values of one traced point, in emission order.
using Layers = std::vector<std::pair<const char*, double>>;

struct Point {
  bool ok{true};
  std::string error;
  std::uint64_t fingerprint{0};
  std::uint64_t flows_fp{0};
  double generate_s{0}, construct_s{0}, add_flows_s{0};
  double run_s{0}, summary_s{0}, point_s{0};
  double reference_s{0};  // reference_work_s() just before the point
  Layers layers;
};

/// Per-epoch samples of a traced run.
struct EpochSamples {
  std::vector<double> run_until_us;     // fabric.run_until, one epoch
  std::vector<double> begin_epoch_us;   // shadow scheduler begin_epoch
  std::vector<double> deliver_pair_us;  // shadow deliver_pair walk
  std::vector<double> out_pairs;
  std::vector<double> backlog_mb;
  std::vector<double> active_sources;
};

/// Runs the fabric to `horizon` one epoch at a time. With `tracer`, each
/// epoch gets a span tree, and a negotiator fabric gets a shadow scheduler:
/// a second scheduler on the same topology that reads the fabric as its
/// DemandView (through a healthy FaultPlane) and never writes to it, so its
/// begin_epoch and deliver_pair walk time the scheduler's compute on the
/// run's real demand without changing the run.
void run_stepped(FabricSim& fabric, Nanos horizon, Tracer* tracer,
                 int parent, int run, EpochSamples* samples) {
  const NetworkConfig& cfg = fabric.config();
  const Nanos step = cfg.epoch_length_ns();
  auto* negotiator = dynamic_cast<NegotiatorFabric*>(&fabric);
  std::unique_ptr<FlatTopology> topo;
  std::unique_ptr<NegotiatorScheduler> shadow;
  std::unique_ptr<FaultPlane> healthy;
  if (tracer != nullptr && negotiator != nullptr) {
    topo = make_topology(cfg);
    shadow = make_negotiator_scheduler(cfg, *topo, Rng(cfg.seed).fork());
    healthy = std::make_unique<FaultPlane>(cfg.num_tors, cfg.ports_per_tor);
  }
  for (std::int64_t e = 0; e * step < horizon; ++e) {
    const Nanos until = std::min(horizon, (e + 1) * step);
    if (tracer == nullptr) {
      fabric.run_until(until);
      continue;
    }
    const int epoch_span = tracer->open("epoch", parent, run);
    if (shadow) {
      int s = tracer->open("core.begin_epoch", epoch_span, run);
      shadow->begin_epoch(e, e * step, *negotiator, *healthy);
      samples->begin_epoch_us.push_back(tracer->close(s) / 1e3);
      const auto pairs = shadow->epoch_out_pairs();
      samples->out_pairs.push_back(static_cast<double>(pairs.size()));
      s = tracer->open("core.deliver_pair", epoch_span, run);
      for (const auto& [src, dst] : pairs) shadow->deliver_pair(src, dst, true);
      samples->deliver_pair_us.push_back(tracer->close(s) / 1e3);
    }
    int s = tracer->open("engine.run_until", epoch_span, run);
    fabric.run_until(until);
    samples->run_until_us.push_back(tracer->close(s) / 1e3);
    s = tracer->open("tor.sample", epoch_span, run);
    samples->backlog_mb.push_back(
        static_cast<double>(fabric.total_backlog()) / 1e6);
    samples->active_sources.push_back(
        negotiator != nullptr
            ? static_cast<double>(negotiator->active_sources().size())
            : 0.0);
    tracer->close(s);
    tracer->close(epoch_span);
  }
}

/// The metrics a user reads off one experiment point; the same assembly
/// as Runner::run, timed apart from the run.
RunResult summarize(FabricSim& fabric) {
  RunResult out;
  out.mice = fabric.fct().mice_summary();
  out.all_flows = fabric.fct().all_summary();
  out.goodput = fabric.goodput().normalized_goodput(fabric.config().host_rate());
  out.mean_match_ratio = mean(fabric.match_ratio_series());
  out.epoch_ns = fabric.config().epoch_length_ns();
  out.completed = fabric.fct().completed();
  out.backlog = fabric.total_backlog();
  return out;
}

/// Output checks; returns the first violation, or "" when all hold.
std::string check_outputs(const Workload& w, FabricSim& fabric,
                          const std::vector<Flow>& flows, const RunResult& r) {
  char buf[256];
  if (r.completed > flows.size()) {
    std::snprintf(buf, sizeof(buf), "completed %zu > injected %zu",
                  r.completed, flows.size());
    return buf;
  }
  Bytes offered = 0;
  for (const Flow& f : flows) offered += f.size;
  std::vector<bool> seen(flows.size(), false);
  Bytes completed_bytes = 0;
  for (const FctSample& s : fabric.fct().samples()) {
    const auto id = static_cast<std::size_t>(s.flow);
    if (s.flow < 0 || id >= flows.size() || seen[id] ||
        flows[id].size != s.size || flows[id].arrival != s.arrival ||
        flows[id].group != s.group) {
      std::snprintf(buf, sizeof(buf),
                    "FCT sample for flow %" PRId64
                    " matches no injected flow (or repeats)",
                    static_cast<std::int64_t>(s.flow));
      return buf;
    }
    if (s.fct <= 0) {
      std::snprintf(buf, sizeof(buf), "non-positive FCT %" PRId64
                    " for flow %" PRId64,
                    static_cast<std::int64_t>(s.fct),
                    static_cast<std::int64_t>(s.flow));
      return buf;
    }
    seen[id] = true;
    completed_bytes += s.size;
  }
  // Bytes of completed flows, and bytes delivered inside the measure
  // window, each plus the bytes still owed, cannot exceed what was offered.
  if (completed_bytes + r.backlog > offered ||
      fabric.goodput().delivered_bytes() + r.backlog > offered) {
    std::snprintf(buf, sizeof(buf),
                  "delivered + backlog exceeds offered (%" PRId64
                  " / %" PRId64 " + %" PRId64 " > %" PRId64 ")",
                  completed_bytes, fabric.goodput().delivered_bytes(),
                  r.backlog, offered);
    return buf;
  }
  if (w.config.data_fault.enabled) {
    auto* nf = dynamic_cast<NegotiatorFabric*>(&fabric);
    if (!w.config.validate_matching || nf == nullptr ||
        nf->conservation_auditor() == nullptr ||
        nf->conservation_auditor()->checks() == 0) {
      return "lossy run without an armed validator and auditor";
    }
  }
  return "";
}

/// One experiment point. Untraced when `tracer` is null.
Point run_point(const std::string& workload, std::uint64_t seed,
                Nanos horizon, Tracer* tracer, int run) {
  Point p;
  EpochSamples ep;
  const auto t0 = Clock::now();
  const int root = tracer ? tracer->open("point", -1, run) : -1;
  auto span = [&](const char* name) {
    return tracer ? tracer->open(name, root, run) : -1;
  };
  auto close = [&](int id) {
    if (tracer) tracer->close(id);
  };
  {
    const Workload w = make_workload(workload, seed, horizon);
    int s = span("workload.generate");
    const std::vector<Flow> flows = generate_flows(w, seed);
    close(s);
    const auto t1 = Clock::now();
    s = span("engine.construct");
    Runner runner(w.config);
    close(s);
    const auto t2 = Clock::now();
    s = span("engine.add_flows");
    runner.add_flows(flows);
    close(s);
    const auto t3 = Clock::now();
    FabricSim& fabric = runner.fabric();
    fabric.fct().set_measure_from(w.horizon / 2);
    fabric.goodput().set_measure_interval(w.horizon / 2, w.horizon);
    s = span("engine.run");
    if (tracer) {
      run_stepped(fabric, w.horizon, tracer, s, run, &ep);
    } else {
      fabric.run_until(w.horizon);
    }
    close(s);
    const auto t4 = Clock::now();
    s = span("stats.summary");
    const RunResult r = summarize(fabric);
    close(s);
    const auto t5 = Clock::now();

    p.generate_s = seconds_between(t0, t1);
    p.construct_s = seconds_between(t1, t2);
    p.add_flows_s = seconds_between(t2, t3);
    p.run_s = seconds_between(t3, t4);
    p.summary_s = seconds_between(t4, t5);
    p.flows_fp = flows_fingerprint(flows);
    p.fingerprint = result_fingerprint(fabric, r);
    p.error = check_outputs(w, fabric, flows, r);
    p.ok = p.error.empty();

    if (tracer) {
      Bytes offered = 0;
      for (const Flow& f : flows) offered += f.size;
      auto* nf = dynamic_cast<NegotiatorFabric*>(&fabric);
      const HostTransport* tp = nf ? nf->host_transport() : nullptr;
      const double run_until_us = std::accumulate(
          ep.run_until_us.begin(), ep.run_until_us.end(), 0.0);
      const double shadow_us =
          std::accumulate(ep.begin_epoch_us.begin(), ep.begin_epoch_us.end(),
                          0.0) +
          std::accumulate(ep.deliver_pair_us.begin(),
                          ep.deliver_pair_us.end(), 0.0);
      const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
      const double deliveries = static_cast<double>(fabric.deliveries());
      p.layers = {
          {"workload.generate_s", p.generate_s},
          {"workload.flows", static_cast<double>(flows.size())},
          {"workload.offered_mb", static_cast<double>(offered) / 1e6},
          {"engine.construct_s", p.construct_s},
          {"engine.add_flows_s", p.add_flows_s},
          {"engine.epoch_us_p50", percentile(ep.run_until_us, 50)},
          {"engine.epoch_us_p99", percentile(ep.run_until_us, 99)},
          {"engine.epoch_us_max", percentile(ep.run_until_us, 100)},
          {"engine.ns_per_delivery", ratio(run_until_us * 1e3, deliveries)},
          {"engine.deliveries_per_dispatch",
           ratio(deliveries,
                 static_cast<double>(fabric.delivery_dispatches()))},
          {"engine.sim_threads", static_cast<double>(fabric.sim_threads())},
          {"engine.sharded_slots",
           static_cast<double>(fabric.sharded_slots())},
          {"sim.events", static_cast<double>(fabric.events_executed())},
          {"sim.events_per_dispatch",
           ratio(static_cast<double>(fabric.events_executed()),
                 static_cast<double>(fabric.events_dispatched()))},
          {"core.begin_epoch_us_p50", percentile(ep.begin_epoch_us, 50)},
          {"core.begin_epoch_us_p99", percentile(ep.begin_epoch_us, 99)},
          {"core.deliver_pair_us_per_epoch", mean(ep.deliver_pair_us)},
          {"core.run_share", ratio(shadow_us, run_until_us)},
          {"core.out_pairs_per_epoch", mean(ep.out_pairs)},
          {"core.match_ratio", r.mean_match_ratio},
          {"core.match_slot_use",
           nf ? ratio(static_cast<double>(nf->match_slots_used()),
                      static_cast<double>(nf->match_slots_offered()))
              : 0.0},
          {"core.piggyback_packets",
           nf ? static_cast<double>(nf->piggyback_packets()) : 0.0},
          {"core.control_dropped",
           nf && nf->control_channel()
               ? static_cast<double>(nf->control_channel()->dropped())
               : 0.0},
          {"core.data_dropped",
           nf && nf->data_channel()
               ? static_cast<double>(nf->data_channel()->dropped())
               : 0.0},
          {"core.degraded_slots",
           nf ? static_cast<double>(nf->degraded_slots()) : 0.0},
          {"core.fallback_mb",
           nf ? static_cast<double>(nf->fallback_bytes()) / 1e6 : 0.0},
          {"tor.backlog_mb_p50", percentile(ep.backlog_mb, 50)},
          {"tor.backlog_mb_max", percentile(ep.backlog_mb, 100)},
          {"tor.active_sources_mean", mean(ep.active_sources)},
          {"tor.retransmitted_mb",
           tp ? static_cast<double>(tp->retransmitted_bytes()) / 1e6 : 0.0},
          {"tor.rto_fires", tp ? static_cast<double>(tp->rto_fires()) : 0.0},
          {"tor.spurious_retx",
           tp ? static_cast<double>(tp->spurious_retx()) : 0.0},
          {"stats.summary_ms", p.summary_s * 1e3},
          {"stats.mice_fct_p50_us", r.mice.p50_ns / 1e3},
          {"stats.mice_fct_p99_us", r.mice.p99_ns / 1e3},
          {"stats.all_fct_p99_us", r.all_flows.p99_ns / 1e3},
          {"stats.goodput", r.goodput},
          {"stats.completed_share",
           ratio(static_cast<double>(r.completed),
                 static_cast<double>(flows.size()))},
      };
    }
  }  // flows and fabric are freed inside the point's time
  close(root);
  p.point_s = seconds_between(t0, Clock::now());
  return p;
}

// ----------------------------------------------------------------- output

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::int64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void print_point(int index, bool traced, const Point& p) {
  std::printf("{\"kind\": \"point\", \"index\": %d, \"traced\": %s, "
              "\"ok\": %s, \"error\": \"%s\", "
              "\"fingerprint\": \"%016" PRIx64 "\", "
              "\"flows_fingerprint\": \"%016" PRIx64 "\", "
              "\"generate_s\": %.9g, \"construct_s\": %.9g, "
              "\"add_flows_s\": %.9g, \"run_s\": %.9g, \"summary_s\": %.9g, "
              "\"point_s\": %.9g, \"reference_s\": %.9g, "
              "\"layers\": {",
              index, traced ? "true" : "false", p.ok ? "true" : "false",
              json_escape(p.error).c_str(), p.fingerprint, p.flows_fp,
              p.generate_s, p.construct_s, p.add_flows_s, p.run_s,
              p.summary_s, p.point_s, p.reference_s);
  for (std::size_t i = 0; i < p.layers.size(); ++i) {
    std::printf("%s\"%s\": %.9g", i ? ", " : "", p.layers[i].first,
                p.layers[i].second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

void print_env(const Workload& w, std::uint64_t seed) {
  std::printf("{\"kind\": \"env\", \"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"num_tors\": %d, \"topology\": \"%s\", \"scheduler\": \"%s\", "
              "\"load\": %g, \"horizon_ms\": %g, \"sim_threads\": %d, "
              "\"hardware_concurrency\": %u, \"cpu_model\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"cxx_flags\": \"%s\", \"lto\": %s}\n",
              w.name.c_str(), seed, w.config.num_tors,
              to_string(w.config.topology), to_string(w.config.scheduler),
              w.load, static_cast<double>(w.horizon) / kMilli,
              // Resolved the way the fabric resolves it (config 0 defers to
              // NEG_SIM_THREADS); the point records confirm it per run.
              SlotShardExecutor::resolve_threads(w.config.sim_threads),
              std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(), NEGBENCH_COMPILER,
              NEGBENCH_BUILD_TYPE, NEGBENCH_CXX_FLAGS,
              NEGBENCH_LTO ? "true" : "false");
  std::fflush(stdout);
}

// -------------------------------------------------------------- self-test

/// Short-horizon determinism checks on every workload: the generator is a
/// function of its seed, and one run_until call, epoch stepping, and the
/// traced run (shadow scheduler included) all give one fingerprint.
int self_test(std::uint64_t seed) {
  constexpr Nanos kShort = 150 * kMicro;
  int failures = 0;
  auto expect = [&failures](bool cond, const std::string& what) {
    std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what.c_str());
    if (!cond) ++failures;
  };
  for (const char* name : kWorkloads) {
    const Workload w = make_workload(name, seed, kShort);
    const std::string tag = std::string(name) + ": ";
    const auto a = flows_fingerprint(generate_flows(w, seed));
    const auto b = flows_fingerprint(generate_flows(w, seed));
    const auto c = flows_fingerprint(generate_flows(w, seed + 1));
    expect(a == b, tag + "generator is deterministic for a seed");
    expect(a != c, tag + "generator differs across seeds");

    auto fingerprint_of = [&](bool stepped) {
      const std::vector<Flow> flows = generate_flows(w, seed);
      Runner runner(w.config);
      runner.add_flows(flows);
      FabricSim& fabric = runner.fabric();
      fabric.fct().set_measure_from(w.horizon / 2);
      fabric.goodput().set_measure_interval(w.horizon / 2, w.horizon);
      if (stepped) {
        run_stepped(fabric, w.horizon, nullptr, -1, 0, nullptr);
      } else {
        fabric.run_until(w.horizon);
      }
      return result_fingerprint(fabric, summarize(fabric));
    };
    const auto single = fingerprint_of(false);
    expect(single == fingerprint_of(true),
           tag + "epoch stepping reproduces the single-call fingerprint");
    const Point untraced = run_point(name, seed, kShort, nullptr, 0);
    Tracer tracer(Clock::now());
    const Point traced = run_point(name, seed, kShort, &tracer, 1);
    expect(untraced.ok && traced.ok,
           tag + "untraced and traced points pass the output checks");
    expect(untraced.fingerprint == single && traced.fingerprint == single,
           tag + "traced run, shadow scheduler included, reproduces the "
                 "untraced fingerprint");
  }
  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: negbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\n"
               "       negbench --self-test [--seed <n>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string spans_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--self-test") {
        selftest = true;
      } else if (arg == "--workload" && has_value) {
        workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        trace = std::stoi(argv[++i]) != 0;
      } else if (arg == "--spans" && has_value) {
        spans_path = argv[++i];
      } else {
        return usage();
      }
    }
    if (selftest) return self_test(seed);
    if (workload.empty()) return usage();
    print_env(make_workload(workload, seed), seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "negbench: %s\n", e.what());
    return 2;
  }

  // Untraced runs repeat the point until `seconds` have passed. Traced runs
  // alternate untraced and traced points, so the trace overhead is measured
  // within one process under the same conditions.
  const auto start = Clock::now();
  Tracer tracer(start);
  const int min_points = trace ? 2 : 3;
  int index = 0;
  while (index < min_points || seconds_between(start, Clock::now()) < seconds) {
    const bool traced = trace && index % 2 == 1;
    const double reference_s = reference_work_s();
    Point p;
    try {
      p = run_point(workload, seed, 0, traced ? &tracer : nullptr, index);
    } catch (const std::exception& e) {
      p.ok = false;
      p.error = std::string("exception: ") + e.what();
    }
    // Hand the freed heap back to the kernel, so every point starts from
    // the memory state of a fresh process (which pays the page faults a
    // user's one-point run pays) and the peak RSS is that of one point.
    malloc_trim(0);
    p.reference_s = reference_s;
    print_point(index, traced, p);
    ++index;
  }
  bool spans_ok = true;
  if (trace && !spans_path.empty()) spans_ok = tracer.write_json(spans_path);
  std::printf("{\"kind\": \"done\", \"points\": %d, \"peak_rss_kb\": %" PRId64
              ", \"spans_written\": %s}\n",
              index, peak_rss_kb(), spans_ok ? "true" : "false");
  return 0;
}
