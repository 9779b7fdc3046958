#include "bench/util/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "src/common/trial_farm.hpp"

namespace sensornet::bench {
namespace {

TEST(Report, NestsBlocksAndLinesWithCommas) {
  std::ostringstream os;
  Json j(os);
  j.object()
      .field("a", 1)
      .key("rows")
      .array()
      .object(Json::kLine)
      .field("x", 1)
      .field("y", "z")
      .end()
      .object(Json::kLine)
      .end()
      .end()
      .key("empty")
      .array()
      .end()
      .key("inner")
      .object()
      .field("ok", true)
      .key("nothing")
      .raw("null")
      .end()
      .key("list")
      .array(Json::kLine)
      .value(1)
      .value(-2)
      .value("three")
      .end()
      .end();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"rows\": [\n"
            "    {\"x\": 1, \"y\": \"z\"},\n"
            "    {}\n"
            "  ],\n"
            "  \"empty\": [],\n"
            "  \"inner\": {\n"
            "    \"ok\": true,\n"
            "    \"nothing\": null\n"
            "  },\n"
            "  \"list\": [1, -2, \"three\"]\n"
            "}");
  EXPECT_EQ(j.depth(), 0u);
}

TEST(Report, WritesDoublesAtFixedDecimals) {
  std::ostringstream os;
  Json j(os);
  j.array(Json::kLine)
      .value(2.0, 1)
      .value(22.0812, 3)
      .value(0.23943, 4)
      .value(-4.8594, 3)
      .value(1e9 / 3, 0)
      .value(0.000001, 6)
      .end();
  EXPECT_EQ(os.str(), "[2.0, 22.081, 0.2394, -4.859, 333333333, 0.000001]");
}

TEST(Report, EscapesStringsAndKeys) {
  std::ostringstream os;
  Json j(os);
  j.object(Json::kLine)
      .field("quote\"key", "a \"b\" c:\\d")
      .field("ctl", std::string("tab\tnl\ncr\rbs\bff\f\x01\x1f") + '\0')
      .field("utf8", "caf\xc3\xa9")
      .end();
  EXPECT_EQ(os.str(),
            "{\"quote\\\"key\": \"a \\\"b\\\" c:\\\\d\", "
            "\"ctl\": \"tab\\u0009nl\\u000acr\\u000dbs\\u0008ff\\u000c"
            "\\u0001\\u001f\\u0000\", "
            "\"utf8\": \"caf\xc3\xa9\"}");
}

TEST(Report, WritesNonFiniteNumbersAsNull) {
  std::ostringstream os;
  Json j(os);
  j.object(Json::kLine)
      .field("nan", std::numeric_limits<double>::quiet_NaN(), 3)
      .field("inf", std::numeric_limits<double>::infinity(), 1)
      .field("ninf", -std::numeric_limits<double>::infinity(), 2)
      .end();
  EXPECT_EQ(os.str(), "{\"nan\": null, \"inf\": null, \"ninf\": null}");
}

TEST(Report, WritesTheCommonHeader) {
  std::ostringstream os;
  Json j(os);
  j.object();
  write_header(j, "BENCH_X", /*quick=*/true, /*threads=*/2);
  j.end();
  EXPECT_EQ(os.str(), "{\n"
                      "  \"bench\": \"BENCH_X\",\n"
                      "  \"schema_version\": 1,\n"
                      "  \"quick\": true,\n"
                      "  \"threads\": 2,\n"
                      "  \"hardware_threads\": " +
                          std::to_string(resolve_thread_count(0)) +
                          "\n"
                          "}");
}

TEST(Report, EmbedsRawJsonAtTheCurrentDepth) {
  std::ostringstream os;
  Json j(os);
  j.object().key("registry");
  EXPECT_EQ(j.depth(), 1u);
  j.raw("{\n    \"m\": 1\n  }").field("after", 2).end();
  EXPECT_EQ(os.str(),
            "{\n  \"registry\": {\n    \"m\": 1\n  },\n  \"after\": 2\n}");
}

TEST(Report, GateCollectorSetsTheExitStatus) {
  std::ostringstream err;
  Gates gates(err);
  EXPECT_TRUE(gates.gate(true, "never printed"));
  EXPECT_EQ(gates.exit_code(), 0);
  EXPECT_EQ(err.str(), "");

  EXPECT_FALSE(gates.gate(false, "shipped ", 7, " bits vs ", 3));
  EXPECT_TRUE(gates.gate(true, "still fine"));
  EXPECT_FALSE(gates.gate(false, "second"));
  EXPECT_EQ(gates.exit_code(), 1);
  EXPECT_EQ(err.str(), "FATAL: shipped 7 bits vs 3\nFATAL: second\n");
}

TEST(Report, DeterminismGatesAndWritesItsRows) {
  Determinism det;
  det.rows = {{1, 0xabcu}, {2, 0xabcu}};
  std::ostringstream err;
  Gates ok(err);
  det.gate(ok);
  EXPECT_TRUE(det.agree());
  EXPECT_EQ(ok.exit_code(), 0);

  std::ostringstream os;
  Json j(os);
  j.object();
  det.write(j);
  j.end();
  EXPECT_EQ(os.str(), "{\n  \"determinism\": [\n"
                      "    {\"threads\": 1, \"checksum\": \"abc\"},\n"
                      "    {\"threads\": 2, \"checksum\": \"abc\"}\n"
                      "  ]\n}");

  det.rows.emplace_back(8, 0xdefu);
  Gates bad(err);
  det.gate(bad);
  EXPECT_FALSE(det.agree());
  EXPECT_EQ(bad.exit_code(), 1);
  EXPECT_EQ(err.str(), "FATAL: answer-stream checksum diverged at 8 workers\n");

  Determinism one;
  one.rows = {{1, 5u}};
  Gates short_lane(err);
  one.gate(short_lane);
  EXPECT_EQ(short_lane.exit_code(), 1);
}

TEST(Report, WriteReportRoundTripsAFile) {
  const std::string path = testing::TempDir() + "report_test.json";
  write_report(path, [](Json& j) { j.field("k", 1); });
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str(), "{\n  \"k\": 1\n}\n");
}

TEST(ReportDeathTest, UnwritablePathExitsNonzero) {
  const std::string path = testing::TempDir() + "no-such-dir/report.json";
  EXPECT_EXIT(write_report(path, [](Json& j) { j.field("k", 1); }),
              testing::ExitedWithCode(1), "cannot write .*no-such-dir");
}

}  // namespace
}  // namespace sensornet::bench
