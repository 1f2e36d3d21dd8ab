// One snapshot of every count a fabric keeps, and the one JSON writer the
// benches, the chaos harness and the tests share. Each count is stored
// once, by the component that owns the fact; FabricSim::counters() reads
// them all into this plain struct, and a component the config leaves out
// reads as 0.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

namespace negotiator {

/// Every count, once, in JSON key order. The groups:
///   - event engine and delivery flush (both fabrics);
///   - NegotiaToR scheduled phase (0 on the oblivious fabric);
///   - link faults: the fabric counts bytes sent into a dark, not yet
///     excluded link (blackholed) and bytes delivered while some link was
///     down (degraded); failures through recovery_sum_ns come from an
///     attached ResilienceRecorder (0 without one);
///   - lossy control plane and its oblivious fallback; grants and accepts
///     (Fig. 14: the accepts of epoch e answer the grants of e-1) are
///     summed only while a lossy control channel exists;
///   - lossy data plane, end-host ARQ and the conservation auditor.
#define NEG_FABRIC_COUNTERS(X)                                           \
  X(events_executed)                                                     \
  X(events_dispatched)                                                   \
  X(deliveries)                                                          \
  X(delivery_dispatches)                                                 \
  X(total_matches)                                                       \
  X(match_slots_offered)                                                 \
  X(match_slots_used)                                                    \
  X(piggyback_packets)                                                   \
  X(blackholed_bytes)                                                    \
  X(degraded_delivered_bytes)                                            \
  X(failures)                                                            \
  X(repairs)                                                             \
  X(exclusions)                                                          \
  X(inclusions)                                                          \
  X(detection_count)                                                     \
  X(detection_sum_ns)                                                    \
  X(recovery_count)                                                      \
  X(recovery_sum_ns)                                                     \
  X(control_dropped)                                                     \
  X(control_delayed)                                                     \
  X(control_duplicated)                                                  \
  X(control_grants)                                                      \
  X(control_accepts)                                                     \
  X(degraded_slots)                                                      \
  X(fallback_bytes)                                                      \
  X(data_dropped)                                                        \
  X(data_corrupted)                                                      \
  X(data_dropped_bytes)                                                  \
  X(data_corrupted_bytes)                                                \
  X(retransmitted_bytes)                                                 \
  X(spurious_retx)                                                       \
  X(rto_fires)                                                           \
  X(max_backoff_reached)                                                 \
  X(abandoned_units)                                                     \
  X(conservation_checks)

struct FabricCounters {
#define NEG_COUNTER_MEMBER(name) std::int64_t name{0};
  NEG_FABRIC_COUNTERS(NEG_COUNTER_MEMBER)
#undef NEG_COUNTER_MEMBER

  /// Exclusions + re-inclusions: how much the exclusion set thrashed.
  std::int64_t exclusion_churn() const { return exclusions + inclusions; }
  double detection_mean_ns() const {
    return mean(detection_sum_ns, detection_count);
  }
  double recovery_mean_ns() const {
    return mean(recovery_sum_ns, recovery_count);
  }
  /// Accepts / grants under control loss (0 when no grant was seen).
  double control_match_ratio() const {
    return mean(control_accepts, control_grants);
  }

  /// Field-wise sum (aggregates a sweep of runs).
  FabricCounters& operator+=(const FabricCounters& other);
  bool operator==(const FabricCounters&) const = default;

  /// Version of the JSON key set. Bump whenever a field is added, removed
  /// or reordered, so artifact diffs tell a schema change from a metrics
  /// change.
  static constexpr int kSchemaVersion = 3;

 private:
  static double mean(std::int64_t sum, std::int64_t count) {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// One named field of the snapshot.
struct CounterField {
  const char* name;
  std::int64_t FabricCounters::*member;
};

/// Every field once, in JSON key order.
#define NEG_COUNTER_FIELD(name) {#name, &FabricCounters::name},
inline constexpr CounterField kCounterFields[] = {
    NEG_FABRIC_COUNTERS(NEG_COUNTER_FIELD)};
#undef NEG_COUNTER_FIELD

/// Run-level labels a caller prepends to the counters (e.g. a sweep's case
/// counts), written right after schema_version.
using CounterContext =
    std::initializer_list<std::pair<const char*, std::int64_t>>;

/// One-line JSON object: `schema_version`, then `context`, then every
/// counter in kCounterFields order, all as integers.
std::string to_json(const FabricCounters& counters,
                    CounterContext context = {});

}  // namespace negotiator
