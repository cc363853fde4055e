// `osapd instrument` on a cell whose run aborts: the command reports the
// failure (exit 1, an ok:false record) and still leaves the --counters
// and --trace files of the run up to the abort. The binary's path comes
// in as the OSAPD_BIN compile definition.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Instrument, AbortedCellExitsOneAndKeepsItsFiles) {
  const fs::path dir = fs::path(testing::TempDir()) / "osapd_instrument_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path counters = dir / "counters.json";
  const fs::path trace = dir / "trace.json";
  // The plan crashes node 9 of a 4-node cluster: the injector finds no
  // such node when the crash fires at t=40, mid-run.
  const std::string cmd = std::string(OSAPD_BIN) +
                          " instrument 'workload=trace;nodes=4;faults=crash 40 9'" +
                          " --counters " + counters.string() + " --trace " + trace.string() +
                          " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string record;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) record += buf;
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1) << record;
  EXPECT_NE(record.find("\"ok\":false"), std::string::npos) << record;
  EXPECT_NE(record.find("unknown node_9"), std::string::npos) << record;

  const std::string c = slurp(counters);
  EXPECT_EQ(c.rfind("{\n\"events_processed\":", 0), 0u) << c;
  EXPECT_NE(c.find("\"audit_sweeps\":{"), std::string::npos) << c;
  EXPECT_EQ(c.substr(c.size() >= 5 ? c.size() - 5 : 0), "]}\n}\n") << c;
  const std::string t = slurp(trace);
  EXPECT_NE(t.find("\"traceEvents\""), std::string::npos) << t;
  EXPECT_NE(t.find("node_crash"), std::string::npos) << t;
  fs::remove_all(dir);
}

}  // namespace
