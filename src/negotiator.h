// Umbrella header: the public API of the NegotiaToR reproduction.
//
//   #include "negotiator.h"
//
//   negotiator::NetworkConfig cfg;              // §4.1 defaults
//   negotiator::Runner runner(cfg);
//   negotiator::WorkloadGenerator gen(
//       negotiator::SizeDistribution::hadoop(), cfg.num_tors,
//       cfg.host_rate(), /*load=*/0.5, negotiator::Rng(1));
//   runner.add_flows(gen.generate(0, 2 * negotiator::kMilli));
//   const auto result = runner.run(2 * negotiator::kMilli);
//
// Finer-grained headers remain directly includable; this file only
// aggregates the surface a typical experiment needs.
#pragma once

#include "common/config.h"      // NetworkConfig and all knobs
#include "common/rng.h"         // deterministic randomness
#include "common/types.h"       // Nanos, Bytes, TorId, ...
#include "common/units.h"       // Rate, byte literals
#include "core/clock_sync.h"    // §3.6.3 guardband sizing
#include "engine/fault_scenario.h"    // §4.3 fault drills
#include "engine/network.h"     // FabricSim / make_fabric
#include "engine/runner.h"      // Runner / RunResult
#include "stats/fct_recorder.h"
#include "stats/goodput_meter.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "workload/all_to_all.h"
#include "workload/flow.h"
#include "workload/generator.h"
#include "workload/incast.h"
#include "workload/size_distribution.h"
#include "workload/trace.h"
