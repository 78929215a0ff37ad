#include "measurement/exporter.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ycsbt {
namespace {

RunSummary CewSummary() {
  RunSummary s;
  s.runtime_ms = 124619.0;
  s.throughput_ops_sec = 8024.46;
  s.operations = 1000000;
  s.has_validation = true;
  s.validation_passed = false;
  s.extra = {{"TOTAL CASH", "1000000"},
             {"COUNTED CASH", "999971"},
             {"ACTUAL OPERATIONS", "1000000"},
             {"ANOMALY SCORE", "2.9e-05"}};
  return s;
}

std::vector<OpStats> SampleOps() {
  OpStats read;
  read.name = "READ";
  read.operations = 1110103;
  read.average_latency_us = 1522.26;
  read.min_latency_us = 1174;
  read.max_latency_us = 165508;
  read.p50_latency_us = 1500;
  read.p95_latency_us = 2100;
  read.p99_latency_us = 4000;
  read.p999_latency_us = 21000;
  read.return_counts["OK"] = 1110103;
  OpStats idle;
  idle.name = "NEVER-RAN";
  return {read, idle};
}

TEST(TextExporterTest, MatchesListing3Shape) {
  std::string out = TextExporter::Export(CewSummary(), SampleOps());
  EXPECT_NE(out.find("Validation failed"), std::string::npos);
  EXPECT_NE(out.find("[TOTAL CASH], 1000000"), std::string::npos);
  EXPECT_NE(out.find("[COUNTED CASH], 999971"), std::string::npos);
  EXPECT_NE(out.find("[ANOMALY SCORE], 2.9e-05"), std::string::npos);
  EXPECT_NE(out.find("Database validation failed"), std::string::npos);
  EXPECT_NE(out.find("[OVERALL], RunTime(ms), 124619"), std::string::npos);
  EXPECT_NE(out.find("[OVERALL], Throughput(ops/sec), 8024.46"), std::string::npos);
  EXPECT_NE(out.find("[READ], Operations, 1110103"), std::string::npos);
  EXPECT_NE(out.find("[READ], AverageLatency(us), 1522.26"), std::string::npos);
  EXPECT_NE(out.find("[READ], MinLatency(us), 1174"), std::string::npos);
  EXPECT_NE(out.find("[READ], MaxLatency(us), 165508"), std::string::npos);
  EXPECT_NE(out.find("[READ], 99.9thPercentileLatency(us), 21000"),
            std::string::npos);
  EXPECT_NE(out.find("[READ], Return=OK, 1110103"), std::string::npos);
}

TEST(TextExporterTest, SkipsEmptySeries) {
  std::string out = TextExporter::Export(CewSummary(), SampleOps());
  EXPECT_EQ(out.find("NEVER-RAN"), std::string::npos);
}

TEST(TextExporterTest, PassedValidationHeader) {
  RunSummary s = CewSummary();
  s.validation_passed = true;
  std::string out = TextExporter::Export(s, {});
  EXPECT_NE(out.find("Database validation passed"), std::string::npos);
  EXPECT_EQ(out.find("Database validation failed"), std::string::npos);
}

TEST(TextExporterTest, NoValidationNoHeader) {
  RunSummary s;
  s.runtime_ms = 10;
  s.throughput_ops_sec = 100;
  std::string out = TextExporter::Export(s, {});
  EXPECT_EQ(out.find("validation"), std::string::npos);
  EXPECT_NE(out.find("[OVERALL], RunTime(ms), 10"), std::string::npos);
}

TEST(JsonExporterTest, WellFormedAndComplete) {
  std::string out = JsonExporter::Export(CewSummary(), SampleOps());
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.back(), '}');
  EXPECT_NE(out.find("\"runtime_ms\":124619"), std::string::npos);
  EXPECT_NE(out.find("\"validation_passed\":false"), std::string::npos);
  EXPECT_NE(out.find("\"TOTAL CASH\":\"1000000\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"READ\""), std::string::npos);
  EXPECT_NE(out.find("\"returns\":{\"OK\":1110103}"), std::string::npos);
  // Balanced braces (cheap well-formedness check).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < out.size(); ++i) {
    char c = out[i];
    if (c == '"' && (i == 0 || out[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TextExporterTest, EmitsIntervalTrajectory) {
  RunSummary s = CewSummary();
  s.intervals = {{1.0, 8123, 8123.0, 117.2}, {2.0, 8200, 8200.0, 115.9}};
  std::string out = TextExporter::Export(s, {});
  EXPECT_NE(out.find("[INTERVAL], EndTime(s), Operations, Throughput(ops/sec), "
                     "AverageLatency(us)"),
            std::string::npos);
  EXPECT_NE(out.find("[INTERVAL], 1, 8123, 8123, 117.2"), std::string::npos);
  EXPECT_NE(out.find("[INTERVAL], 2, 8200, 8200, 115.9"), std::string::npos);
}

TEST(TextExporterTest, NoIntervalsNoTrajectoryBlock) {
  std::string out = TextExporter::Export(CewSummary(), SampleOps());
  EXPECT_EQ(out.find("[INTERVAL]"), std::string::npos);
}

TEST(JsonExporterTest, EmitsIntervalArray) {
  RunSummary s = CewSummary();
  s.intervals = {{0.5, 100, 200.0, 50.0}};
  std::string out = JsonExporter::Export(s, {});
  EXPECT_NE(out.find("\"intervals\":[{\"end_s\":0.5,\"ops\":100,"
                     "\"ops_per_sec\":200,\"avg_us\":50}]"),
            std::string::npos);
  std::string without = JsonExporter::Export(CewSummary(), {});
  EXPECT_EQ(without.find("intervals"), std::string::npos);
}

TEST(TextExporterTest, OpenLoopExtendsIntervalColumns) {
  RunSummary s = CewSummary();
  s.open_loop = true;
  IntervalSample w;
  w.end_seconds = 1.0;
  w.operations = 8123;
  w.ops_per_sec = 8123.0;
  w.avg_latency_us = 117.2;
  w.sched_lag_avg_us = 950.5;
  w.backlog = 12;
  w.arrival_drops = 3;
  s.intervals = {w};
  std::string out = TextExporter::Export(s, {});
  EXPECT_NE(out.find("AverageLatency(us), SchedLag(us), Backlog, ArrivalDrops"),
            std::string::npos);
  EXPECT_NE(out.find("[INTERVAL], 1, 8123, 8123, 117.2, 950.5, 12, 3"),
            std::string::npos);
  // Closed-loop output never grows the columns, whatever the sample holds.
  s.open_loop = false;
  out = TextExporter::Export(s, {});
  EXPECT_EQ(out.find("SchedLag"), std::string::npos);
  EXPECT_NE(out.find("[INTERVAL], 1, 8123, 8123, 117.2\n"), std::string::npos);
}

TEST(JsonExporterTest, OpenLoopExtendsIntervalObjects) {
  RunSummary s = CewSummary();
  s.open_loop = true;
  IntervalSample w;
  w.end_seconds = 0.5;
  w.operations = 100;
  w.ops_per_sec = 200.0;
  w.avg_latency_us = 50.0;
  w.sched_lag_avg_us = 75.25;
  w.backlog = 7;
  w.arrival_drops = 2;
  s.intervals = {w};
  std::string out = JsonExporter::Export(s, {});
  EXPECT_NE(out.find("\"avg_us\":50,\"sched_lag_us\":75.25,\"backlog\":7,"
                     "\"arrival_drops\":2}"),
            std::string::npos);
  s.open_loop = false;
  out = JsonExporter::Export(s, {});
  EXPECT_EQ(out.find("sched_lag_us"), std::string::npos);
}

TEST(JsonExporterTest, EscapesSpecialCharacters) {
  RunSummary s;
  s.extra = {{"KEY \"quoted\"", "line\nbreak\\slash"}};
  std::string out = JsonExporter::Export(s, {});
  EXPECT_NE(out.find("KEY \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(out.find("line\\nbreak\\\\slash"), std::string::npos);
}

TEST(JsonExporterTest, EscapesEveryControlCharacter) {
  RunSummary s;
  s.extra = {{"CKPT-SCRUB REASON", "tab\there\x01" "ctl\r"}};
  OpStats op;
  op.name = "OP\tNAME";
  op.operations = 1;
  std::string out = JsonExporter::Export(s, {op});
  EXPECT_NE(out.find("\"tab\\there\\u0001ctl\\r\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"name\":\"OP\\tNAME\""), std::string::npos) << out;
  EXPECT_TRUE(std::none_of(out.begin(), out.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20;
  })) << "raw control character in " << out;
}

}  // namespace
}  // namespace ycsbt
