// Deterministic fault injection: registry mechanics (nth-hit plans,
// probability determinism, disarm) and one test per FIXREP_FAULT site,
// driving every recovery path a real fault would take. The whole suite
// skips when the build compiles fault sites out.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/status.h"
#include "relation/csv.h"
#include "repair/crepair.h"
#include "repair/lrepair.h"
#include "repair/driver.h"
#include "repair/recovery.h"
#include "rules/rule_io.h"
#include "testing_util.h"

namespace fixrep {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFaultInjectionEnabled) {
      GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
    }
    FaultRegistry::Global().DisarmAll();
    MetricsRegistry::Global().ResetAllForTest();
  }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }

  std::string TempPath(const std::string& name) {
    return testing::TestTempPath(name);
  }

  std::shared_ptr<ValuePool> pool_ = std::make_shared<ValuePool>();
  std::shared_ptr<const Schema> schema_ = std::make_shared<Schema>(
      "R", std::vector<std::string>{"country", "capital"});

  RuleSet MakeRules() {
    return ParseRulesFromString(
        "RULE\n"
        "  IF country = China\n"
        "  WRONG capital IN Shanghai\n"
        "  THEN capital = Beijing\n"
        "END\n",
        schema_, pool_);
  }

  Table MakeTable(size_t rows) {
    Table table(schema_, pool_);
    for (size_t r = 0; r < rows; ++r) {
      table.AppendRowStrings({"China", r % 2 == 0 ? "Shanghai" : "Beijing"});
    }
    return table;
  }
};

// ------------------------------------------------- registry mechanics --

TEST_F(FaultInjectionTest, NthHitPlanFiresExactWindow) {
  auto& registry = FaultRegistry::Global();
  FaultPlan plan;
  plan.skip_hits = 2;
  plan.max_fires = 3;
  registry.Arm("test.point", plan);
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(registry.ShouldFail("test.point"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true, false,
                                      false, false}));
  EXPECT_EQ(registry.HitCount("test.point"), 8u);
  EXPECT_EQ(registry.FireCount("test.point"), 3u);
}

TEST_F(FaultInjectionTest, ProbabilityPlanIsSeedDeterministic) {
  auto& registry = FaultRegistry::Global();
  FaultPlan plan;
  plan.probability = 0.5;
  plan.seed = 42;
  const auto run = [&registry, &plan] {
    registry.Arm("test.point", plan);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(registry.ShouldFail("test.point"));
    }
    return fired;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  const uint64_t fires = registry.FireCount("test.point");
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);

  plan.seed = 43;
  registry.Arm("test.point", plan);
  std::vector<bool> reseeded;
  for (int i = 0; i < 64; ++i) {
    reseeded.push_back(registry.ShouldFail("test.point"));
  }
  EXPECT_NE(reseeded, first);
}

TEST_F(FaultInjectionTest, DisarmStopsFiringAndArmResetsCounters) {
  auto& registry = FaultRegistry::Global();
  registry.Arm("test.point", FaultPlan{});
  EXPECT_TRUE(registry.ShouldFail("test.point"));
  registry.Disarm("test.point");
  registry.Arm("test.other", FaultPlan{});  // keep the registry active
  EXPECT_FALSE(registry.ShouldFail("test.point"));
  registry.Arm("test.point", FaultPlan{});
  EXPECT_EQ(registry.HitCount("test.point"), 0u);
  EXPECT_EQ(registry.FireCount("test.point"), 0u);
  registry.DisarmAll();
  // With nothing armed the fast path doesn't even count hits.
  const uint64_t hits = registry.HitCount("test.point");
  EXPECT_FALSE(registry.ShouldFail("test.point"));
  EXPECT_EQ(registry.HitCount("test.point"), hits);
}

// ------------------------------------------------------- ingest sites --

TEST_F(FaultInjectionTest, CsvOpenReadFault) {
  const std::string path = TempPath("read.csv");
  { std::ofstream(path) << "country,capital\nChina,Shanghai\n"; }
  FaultRegistry::Global().Arm("csv.open_read", FaultPlan{});
  const StatusOr<Table> failed =
      ReadCsvFileLenient(path, "R", std::make_shared<ValuePool>());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_NE(failed.status().message().find("cannot open"), std::string::npos);
  FaultRegistry::Global().Disarm("csv.open_read");
  EXPECT_TRUE(
      ReadCsvFileLenient(path, "R", std::make_shared<ValuePool>()).ok());
}

TEST_F(FaultInjectionTest, CsvAppendRowFaultQuarantinesExactRow) {
  FaultPlan plan;
  plan.skip_hits = 1;
  plan.max_fires = 1;
  FaultRegistry::Global().Arm("csv.append_row", plan);
  std::istringstream in("a,b\nr0,0\nr1,1\nr2,2\n");
  CsvReadOptions options;
  options.on_error = OnErrorPolicy::kQuarantine;
  VectorQuarantineSink sink;
  options.quarantine = &sink;
  StatusOr<Table> table =
      ReadCsvLenient(in, "R", std::make_shared<ValuePool>(), options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.diagnostics()[0].line, 1u);
  EXPECT_EQ(sink.diagnostics()[0].code, StatusCode::kInternal);
  EXPECT_EQ(sink.diagnostics()[0].raw_text, "r1,1");

  // Abort mode propagates the same failure fail-fast.
  FaultRegistry::Global().Arm("csv.append_row", FaultPlan{});
  std::istringstream retry("a,b\nr0,0\n");
  const StatusOr<Table> aborted =
      ReadCsvLenient(retry, "R", std::make_shared<ValuePool>());
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kInternal);
}

TEST_F(FaultInjectionTest, CsvWriteFaults) {
  const Table table = MakeTable(4);
  const std::string path = TempPath("write.csv");
  FaultRegistry::Global().Arm("csv.open_write", FaultPlan{});
  Status status = TryWriteCsvFile(table, path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("cannot open"), std::string::npos);
  FaultRegistry::Global().Disarm("csv.open_write");

  std::remove(path.c_str());
  FaultRegistry::Global().Arm("csv.write_flush", FaultPlan{});
  status = TryWriteCsvFile(table, path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // Writes stage through a unique path.tmp.* (common/atomic_file.h):
  // the failure names the staging file and the final path never appears.
  EXPECT_NE(status.message().find("write.csv.tmp."), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("' failed"), std::string::npos);
  EXPECT_FALSE(std::ifstream(path).good());
  FaultRegistry::Global().Disarm("csv.write_flush");
  EXPECT_TRUE(TryWriteCsvFile(table, path).ok());
}

TEST_F(FaultInjectionTest, RulesOpenReadFault) {
  const std::string path = TempPath("rules.txt");
  { std::ofstream(path) << "RULE\n  WRONG capital IN X\n"
                           "  THEN capital = Y\nEND\n"; }
  FaultRegistry::Global().Arm("rules.open_read", FaultPlan{});
  const StatusOr<RuleSet> failed =
      ParseRulesFileLenient(path, schema_, pool_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  FaultRegistry::Global().Disarm("rules.open_read");
  EXPECT_TRUE(ParseRulesFileLenient(path, schema_, pool_).ok());
}

TEST_F(FaultInjectionTest, RulesWriteFaults) {
  const RuleSet rules = MakeRules();
  const std::string path = TempPath("rules_out.txt");
  FaultRegistry::Global().Arm("rules.open_write", FaultPlan{});
  Status status = TryWriteRulesFile(rules, path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("cannot open"), std::string::npos);
  FaultRegistry::Global().Disarm("rules.open_write");

  FaultRegistry::Global().Arm("rules.write_flush", FaultPlan{});
  status = TryWriteRulesFile(rules, path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("write failed"), std::string::npos);
  FaultRegistry::Global().Disarm("rules.write_flush");
  EXPECT_TRUE(TryWriteRulesFile(rules, path).ok());
}

// The strict CHECK-ing wrappers die with the Status message when the
// same faults hit; arming inside the statement keeps the plan local to
// the death-test child for either death-test style.
TEST_F(FaultInjectionTest, StrictWrappersDieOnWriteFaults) {
  const Table table = MakeTable(1);
  const RuleSet rules = MakeRules();
  EXPECT_DEATH(
      {
        FaultRegistry::Global().Arm("csv.write_flush", FaultPlan{});
        WriteCsvFile(table, TempPath("strict.csv"));
      },
      "failed");
  EXPECT_DEATH(
      {
        FaultRegistry::Global().Arm("rules.write_flush", FaultPlan{});
        WriteRulesFile(rules, TempPath("strict_rules.txt"));
      },
      "write failed");
}

// ------------------------------------------------------- repair sites --

TEST_F(FaultInjectionTest, RepairTupleFaultIsolatedAndRecoverable) {
  const RuleSet rules = MakeRules();
  FaultPlan plan;
  plan.max_fires = 1;

  FastRepairer fast(&rules);
  Table table = MakeTable(1);
  const Tuple original = table.row(0).ToTuple();
  FaultRegistry::Global().Arm("repair.tuple", plan);
  size_t changed = 1;
  Status status = fast.TryRepairTuple(table.WriteRow(0), &changed);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(changed, 0u);
  EXPECT_EQ(table.row(0), original);
  // The plan is spent; the retry chases to the fix.
  ASSERT_TRUE(fast.TryRepairTuple(table.WriteRow(0), &changed).ok());
  EXPECT_EQ(table.CellString(0, 1), "Beijing");

  ChaseRepairer chase(&rules);
  Table chase_table = MakeTable(1);
  FaultRegistry::Global().Arm("repair.tuple", plan);
  status = chase.TryRepairTuple(chase_table.WriteRow(0), &changed);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(chase_table.row(0), original);
}

TEST_F(FaultInjectionTest, SerialLenientRepairQuarantinesExactRows) {
  const RuleSet rules = MakeRules();
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
  Table table = MakeTable(8);
  FaultPlan plan;
  plan.skip_hits = 2;
  plan.max_fires = 2;
  FaultRegistry::Global().Arm("repair.tuple", plan);
  VectorQuarantineSink sink;
  RepairDriver driver(*dict, {.on_error = OnErrorPolicy::kQuarantine,
                              .quarantine = &sink});
  driver.Run(&table);
  EXPECT_EQ(driver.failures().size(), 2u);
  ASSERT_EQ(sink.size(), 2u);
  // Serial execution visits rows in order, so hits 3 and 4 are rows 2, 3.
  EXPECT_EQ(sink.diagnostics()[0].line, 2u);
  EXPECT_EQ(sink.diagnostics()[1].line, 3u);
  EXPECT_EQ(table.CellString(2, 1), "Shanghai");  // preserved original
  EXPECT_EQ(table.CellString(0, 1), "Beijing");   // clean rows repaired
  EXPECT_EQ(table.CellString(4, 1), "Beijing");
}

TEST_F(FaultInjectionTest, ParallelLenientRepairSurvivesWorkerFaults) {
  const RuleSet rules = MakeRules();
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
  Table table = MakeTable(256);
  FaultPlan plan;
  plan.skip_hits = 5;
  plan.max_fires = 3;
  FaultRegistry::Global().Arm("repair.tuple", plan);
  VectorQuarantineSink sink;
  RepairDriver driver(*dict, {.threads = 4,
                              .on_error = OnErrorPolicy::kQuarantine,
                              .quarantine = &sink});
  const RepairStats stats = driver.Run(&table);
  // Which rows draw the three fires depends on worker interleaving, but
  // the count is exact and the batch always completes.
  EXPECT_EQ(driver.failures().size(), 3u);
  ASSERT_EQ(sink.size(), 3u);
  EXPECT_EQ(FaultRegistry::Global().FireCount("repair.tuple"), 3u);
  EXPECT_EQ(FaultRegistry::Global().HitCount("repair.tuple"), 256u);
  size_t previous_line = 0;
  for (size_t i = 0; i < sink.size(); ++i) {
    const Diagnostic& d = sink.diagnostics()[i];
    EXPECT_EQ(d.code, StatusCode::kInternal);
    EXPECT_LT(d.line, table.num_rows());
    if (i > 0) {
      EXPECT_GT(d.line, previous_line);  // sorted by row
    }
    previous_line = d.line;
  }
  EXPECT_EQ(stats.tuples_examined, 256u);
  const Counter* counter =
      MetricsRegistry::Global().FindCounter("fixrep.quarantine.tuples");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->Value(), 3u);
}

// Coverage check that each FIXREP_FAULT point in the codebase sits on a
// reachable path. Arming an unrelated point activates hit-counting
// without making anything fire, so one pass through the normal
// read/write/repair flow must touch every site.
TEST_F(FaultInjectionTest, AllFaultSitesSeen) {
  FaultRegistry::Global().Arm("test.coverage", FaultPlan{});

  const std::string csv_path = TempPath("coverage.csv");
  ASSERT_TRUE(TryWriteCsvFile(MakeTable(2), csv_path).ok());
  ASSERT_TRUE(
      ReadCsvFileLenient(csv_path, "R", std::make_shared<ValuePool>()).ok());

  const RuleSet rules = MakeRules();
  const std::string rules_path = TempPath("coverage_rules.txt");
  ASSERT_TRUE(TryWriteRulesFile(rules, rules_path).ok());
  ASSERT_TRUE(ParseRulesFileLenient(rules_path, schema_, pool_).ok());

  FastRepairer repairer(&rules);
  Table table = MakeTable(1);
  size_t changed = 0;
  ASSERT_TRUE(
      repairer.TryRepairTuple(table.WriteRow(0), &changed).ok());

  // Durable-streaming sites: one journaled chunk commit walks the WAL
  // open/append/fsync paths and all three crash sites
  // (docs/durability.md).
  const std::string wal_path = TempPath("coverage.wal");
  WalRunHeader header;
  header.attribute_names = {"country", "capital"};
  header.chunk_rows = 1;
  StatusOr<ChunkJournal> journal = ChunkJournal::Create(wal_path, header);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->BeginChunk(1, 0, 1).ok());
  ASSERT_TRUE(journal->Commit(1, 1, 0, 0).ok());
  ASSERT_TRUE(journal->Close().ok());

  const std::vector<std::string> seen = FaultRegistry::Global().SeenPoints();
  for (const char* point :
       {"csv.open_read", "csv.append_row", "csv.open_write",
        "csv.write_flush", "rules.open_read", "rules.open_write",
        "rules.write_flush", "repair.tuple", "atomic_file.open",
        "atomic_file.write", "atomic_file.fsync", "wal.open", "wal.append",
        "wal.fsync", "wal.crash_after_append", "wal.crash_before_commit",
        "wal.crash_after_commit"}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), point), seen.end())
        << "fault site never exercised: " << point;
  }
}

}  // namespace
}  // namespace fixrep
