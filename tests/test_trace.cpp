#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Trace, RoundTrip) {
  const auto sizes = SizeDistribution::hadoop();
  WorkloadGenerator gen(sizes, 16, Rate::from_gbps(400), 0.3, Rng(1));
  const auto flows = gen.generate(0, 200'000, 10, 3);
  const std::string path = temp_path("neg_trace_roundtrip.csv");
  save_trace(path, flows);
  const auto loaded = load_trace(path);
  ASSERT_EQ(loaded.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(loaded[i].id, flows[i].id);
    EXPECT_EQ(loaded[i].src, flows[i].src);
    EXPECT_EQ(loaded[i].dst, flows[i].dst);
    EXPECT_EQ(loaded[i].size, flows[i].size);
    EXPECT_EQ(loaded[i].arrival, flows[i].arrival);
    EXPECT_EQ(loaded[i].group, flows[i].group);
  }
  std::remove(path.c_str());
}

TEST(Trace, EmptyTraceRoundTrips) {
  const std::string path = temp_path("neg_trace_empty.csv");
  save_trace(path, {});
  EXPECT_TRUE(load_trace(path).empty());
  std::remove(path.c_str());
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/dir/flows.csv"), std::runtime_error);
}

/// Writes a trace holding the header plus `row` and expects load_trace to
/// reject it with std::runtime_error.
void expect_row_rejected(const char* file, const char* row) {
  const std::string path = temp_path(file);
  {
    std::ofstream out(path);
    out << "id,src,dst,size,arrival_ns,group\n";
    out << row << "\n";
  }
  EXPECT_THROW(load_trace(path), std::runtime_error) << row;
  std::remove(path.c_str());
}

TEST(Trace, MalformedLineThrows) {
  expect_row_rejected("neg_trace_bad.csv", "1,2,three,4,5,6");
}

TEST(Trace, NonCommaSeparatorThrows) {
  expect_row_rejected("neg_trace_semicolon.csv", "1;2;3;4;5;6");
}

TEST(Trace, NegativeEndpointThrows) {
  expect_row_rejected("neg_trace_negative_src.csv", "1,-2,3,4,5,0");
}

TEST(Trace, SelfFlowThrows) {
  expect_row_rejected("neg_trace_self_flow.csv", "1,2,2,400,5,0");
}

TEST(Trace, NonPositiveSizeThrows) {
  expect_row_rejected("neg_trace_negative_size.csv", "1,2,3,-400,5,0");
}

TEST(Trace, NegativeArrivalThrows) {
  expect_row_rejected("neg_trace_negative_arrival.csv", "1,2,3,400,-5,0");
}

TEST(Trace, TrailingCharactersThrow) {
  expect_row_rejected("neg_trace_trailing.csv", "1,2,3,400,5,0junk");
}

}  // namespace
}  // namespace negotiator
