#include "workload/trace.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace negotiator {

void save_trace(const std::string& path, const std::vector<Flow>& flows) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_trace: cannot open " + path);
  out << "id,src,dst,size,arrival_ns,group\n";
  for (const Flow& f : flows) {
    out << f.id << ',' << f.src << ',' << f.dst << ',' << f.size << ','
        << f.arrival << ',' << f.group << '\n';
  }
  if (!out) throw std::runtime_error("save_trace: write failed for " + path);
}

std::vector<Flow> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trace: cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("load_trace: empty file " + path);
  }
  std::vector<Flow> flows;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    Flow f;
    std::array<char, 5> sep{};
    const bool parsed =
        static_cast<bool>(ls >> f.id >> sep[0] >> f.src >> sep[1] >> f.dst >>
                          sep[2] >> f.size >> sep[3] >> f.arrival >> sep[4] >>
                          f.group);
    const bool commas = std::all_of(sep.begin(), sep.end(),
                                    [](char c) { return c == ','; });
    if (!parsed || !commas || !(ls >> std::ws).eof()) {
      throw std::runtime_error("load_trace: malformed line: " + line);
    }
    // Reject what the fabrics would assert on: a trace is outside input.
    if (f.src < 0 || f.dst < 0 || f.src == f.dst || f.size < 1 ||
        f.arrival < 0) {
      throw std::runtime_error("load_trace: invalid flow: " + line);
    }
    flows.push_back(f);
  }
  return flows;
}

}  // namespace negotiator
