#include "stats/fabric_counters.h"

namespace negotiator {

FabricCounters& FabricCounters::operator+=(const FabricCounters& other) {
  for (const CounterField& f : kCounterFields) {
    this->*f.member += other.*f.member;
  }
  return *this;
}

std::string to_json(const FabricCounters& counters, CounterContext context) {
  std::string out =
      "{\"schema_version\": " + std::to_string(FabricCounters::kSchemaVersion);
  auto append = [&out](const char* name, std::int64_t value) {
    out.append(", \"").append(name).append("\": ") += std::to_string(value);
  };
  for (const auto& [name, value] : context) append(name, value);
  for (const CounterField& f : kCounterFields) {
    append(f.name, counters.*f.member);
  }
  out += "}";
  return out;
}

}  // namespace negotiator
