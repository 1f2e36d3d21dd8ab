// Flow-trace persistence: a simple CSV format (id,src,dst,size,arrival_ns,
// group) so experiments can be re-run on recorded workloads.
#pragma once

#include <string>
#include <vector>

#include "workload/flow.h"

namespace negotiator {

/// Writes `flows` to `path`. Throws std::runtime_error on I/O failure.
void save_trace(const std::string& path, const std::vector<Flow>& flows);

/// Reads a trace written by save_trace. Throws std::runtime_error on I/O or
/// parse failure, and on a flow no fabric accepts: negative or equal
/// endpoints, size < 1 or a negative arrival. Endpoints are not checked
/// against a ToR count; the trace does not know one.
std::vector<Flow> load_trace(const std::string& path);

}  // namespace negotiator
