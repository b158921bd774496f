// RepairSession (repair/session.h): the unified facade must be
// bit-identical — repaired cells, reports, quarantine diagnostics, AND
// published metrics — to calling the engines directly (RepairDriver,
// FastRepairer, ChaseRepairer) for every engine/threads/error-policy
// combination it routes.

#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/status.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "repair/crepair.h"
#include "repair/driver.h"
#include "repair/lrepair.h"
#include "repair/session.h"
#include "repair/streaming.h"
#include "rulegen/rulegen.h"
#include "rules/rule_io.h"
#include "testing_util.h"

namespace fixrep {
namespace {

using ::fixrep::testing::TestTempPath;

void ExpectSameRows(const Table& got, const Table& want,
                    const std::string& context) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << context;
  for (size_t r = 0; r < want.num_rows(); ++r) {
    ASSERT_EQ(got.row(r), want.row(r)) << context << " row " << r;
  }
}

// Counter snapshot of the repair-related metric namespaces, for
// facade-vs-engine delta comparison.
std::map<std::string, uint64_t> RepairCounters() {
  std::map<std::string, uint64_t> values;
  for (const char* name :
       {"fixrep.lrepair.tuples_examined", "fixrep.lrepair.tuples_changed",
        "fixrep.lrepair.cells_changed", "fixrep.lrepair.rule_applications",
        "fixrep.lrepair.index_builds", "fixrep.quarantine.tuples"}) {
    const Counter* c = MetricsRegistry::Global().FindCounter(name);
    values[name] = c == nullptr ? 0 : c->Value();
  }
  return values;
}

TEST(RepairSessionTest, DefaultConfigMatchesFastRepairer) {
  TravelExample example;
  Table direct = example.dirty;
  FastRepairer repairer(&example.rules);
  repairer.RepairTable(&direct);

  Table via_session = example.dirty;
  RepairSession session(&example.rules);
  const StatusOr<RepairReport> report = session.Repair(&via_session);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ExpectSameRows(via_session, direct, "default config");
  EXPECT_EQ(report->rows, example.dirty.num_rows());
  EXPECT_EQ(report->cells_changed, repairer.stats().cells_changed);
  EXPECT_EQ(report->tuples_quarantined, 0u);
}

TEST(RepairSessionTest, CRepairEngineMatchesChaseRepairer) {
  TravelExample example;
  Table direct = example.dirty;
  ChaseRepairer chase(&example.rules);
  chase.RepairTable(&direct);

  Table via_session = example.dirty;
  RepairConfig config;
  config.engine = RepairEngine::kCRepair;
  RepairSession session(&example.rules, config);
  const StatusOr<RepairReport> report = session.Repair(&via_session);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ExpectSameRows(via_session, direct, "crepair");
}

TEST(RepairSessionTest, ThreadedConfigsMatchSerialOnGeneratedData) {
  HospOptions options;
  options.rows = 6000;
  options.num_hospitals = 250;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  RuleGenOptions rulegen;
  rulegen.max_rules = 300;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);

  Table serial = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&serial);

  for (const size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    for (const bool use_memo : {false, true}) {
      RepairConfig config;
      config.threads = threads;
      config.use_memo = use_memo;
      RepairSession session(&rules, config);
      Table table = dirty;
      const StatusOr<RepairReport> report = session.Repair(&table);
      ASSERT_TRUE(report.ok());
      ExpectSameRows(table, serial,
                     "threads=" + std::to_string(threads) +
                         " memo=" + std::to_string(use_memo));
      EXPECT_EQ(report->cells_changed, repairer.stats().cells_changed);
    }
  }
}

TEST(RepairSessionTest, MetricsDeltasEqualDirectEngineCall) {
  // The acceptance bar for the facade: zero behavior change, observable
  // through identical metric deltas for the same work.
  if (!kMetricsEnabled) {
    GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  }
  TravelExample example;
  auto& registry = MetricsRegistry::Global();

  registry.ResetAllForTest();
  Table direct = example.dirty;
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(example.rules);
  RepairDriver(*dict, RepairConfig{}).Run(&direct);
  const auto direct_counters = RepairCounters();

  registry.ResetAllForTest();
  Table via_session = example.dirty;
  RepairSession session(&example.rules);
  ASSERT_TRUE(session.Repair(&via_session).ok());
  const auto session_counters = RepairCounters();

  EXPECT_EQ(session_counters, direct_counters);
}

// Cascading rules (from the quarantine suite): (name = flag) tuples need
// two chase pops, so max_chase_steps = 1 fails exactly those tuples.
RuleSet CascadeRules(std::shared_ptr<const Schema> schema,
                     std::shared_ptr<ValuePool> pool) {
  const std::string text =
      "RULE\n"
      "  IF country = China\n"
      "  WRONG capital IN Shanghai | Hongkong\n"
      "  THEN capital = Beijing\n"
      "END\n"
      "RULE\n"
      "  IF name = flag\n"
      "  WRONG country IN Chn\n"
      "  THEN country = China\n"
      "END\n";
  return ParseRulesFromString(text, std::move(schema), std::move(pool));
}

class RepairSessionLenientTest : public ::testing::Test {
 protected:
  std::shared_ptr<ValuePool> pool_ = std::make_shared<ValuePool>();
  std::shared_ptr<const Schema> schema_ = std::make_shared<Schema>(
      "R", std::vector<std::string>{"country", "capital", "name"});
  RuleSet rules_ = CascadeRules(schema_, pool_);

  Table MakeTable() {
    Table table(schema_, pool_);
    table.AppendRowStrings({"China", "Shanghai", "x"});
    table.AppendRowStrings({"Chn", "Shanghai", "flag"});  // budget fail
    table.AppendRowStrings({"France", "Paris", "y"});
    table.AppendRowStrings({"Chn", "Hongkong", "flag"});  // budget fail
    return table;
  }
};

TEST_F(RepairSessionLenientTest, QuarantineMatchesLenientEngine) {
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  Table direct = MakeTable();
  VectorQuarantineSink direct_sink;
  RepairDriver driver(*dict, {.on_error = OnErrorPolicy::kQuarantine,
                              .quarantine = &direct_sink,
                              .max_chase_steps = 1});
  driver.Run(&direct);
  ASSERT_EQ(driver.failures().size(), 2u);

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    Table via_session = MakeTable();
    VectorQuarantineSink sink;
    RepairConfig config;
    config.threads = threads;
    config.on_error = OnErrorPolicy::kQuarantine;
    config.quarantine = &sink;
    config.max_chase_steps = 1;
    RepairSession session(&rules_, config);
    const StatusOr<RepairReport> report = session.Repair(&via_session);
    ASSERT_TRUE(report.ok());
    const std::string context = "threads=" + std::to_string(threads);
    ExpectSameRows(via_session, direct, context);
    EXPECT_EQ(report->tuples_quarantined, 2u) << context;
    ASSERT_EQ(sink.size(), direct_sink.size()) << context;
    for (size_t i = 0; i < sink.size(); ++i) {
      EXPECT_EQ(sink.diagnostics()[i].line,
                direct_sink.diagnostics()[i].line)
          << context;
      EXPECT_EQ(sink.diagnostics()[i].raw_text,
                direct_sink.diagnostics()[i].raw_text)
          << context;
    }
  }
}

TEST_F(RepairSessionLenientTest, CRepairLenientMatchesDirectChaseLoop) {
  // Lenient cRepair (a RepairDriver slot holding a ChaseRepairer) must
  // match driving ChaseRepairer::TryRepairTuple by hand. The chase
  // budget counts rule examinations, so 2 passes already-clean tuples
  // but trips every tuple that needs an application.
  const size_t kBudget = 2;
  Table direct = MakeTable();
  ChaseRepairer chase(&rules_);
  chase.set_max_chase_steps(kBudget);
  std::vector<size_t> failed;
  for (size_t r = 0; r < direct.num_rows(); ++r) {
    size_t cells = 0;
    if (!chase.TryRepairTuple(direct.WriteRow(r), &cells).ok()) {
      failed.push_back(r);
    }
  }
  ASSERT_GT(failed.size(), 0u);  // the budget must bite...
  ASSERT_LT(failed.size(), direct.num_rows());  // ...but not on everything

  Table via_session = MakeTable();
  VectorQuarantineSink sink;
  RepairConfig config;
  config.engine = RepairEngine::kCRepair;
  config.on_error = OnErrorPolicy::kQuarantine;
  config.quarantine = &sink;
  config.max_chase_steps = kBudget;
  RepairSession session(&rules_, config);
  const StatusOr<RepairReport> report = session.Repair(&via_session);
  ASSERT_TRUE(report.ok());
  ExpectSameRows(via_session, direct, "crepair lenient");
  EXPECT_EQ(report->tuples_quarantined, failed.size());
  ASSERT_EQ(sink.size(), failed.size());
  for (size_t i = 0; i < failed.size(); ++i) {
    EXPECT_EQ(sink.diagnostics()[i].line, failed[i]) << "diagnostic " << i;
  }
}

// cRepair routes like lRepair — any width or shard count, and streams —
// with one refusal left: a stream with a WAL, whose header does not
// record the engine a resume would have to chase with.
TEST(RepairSessionTest, RejectsUnroutableConfigs) {
  TravelExample example;
  Table want = example.dirty;
  ChaseRepairer(&example.rules).RepairTable(&want);
  std::ostringstream want_csv;
  WriteCsv(want, want_csv);
  std::ostringstream dirty_csv;
  WriteCsv(example.dirty, dirty_csv);
  for (const RepairConfig& width :
       {RepairConfig{.threads = 4}, RepairConfig{.shards = 2}}) {
    RepairConfig config = width;
    config.engine = RepairEngine::kCRepair;
    const std::string context = "threads=" + std::to_string(config.threads) +
                                " shards=" + std::to_string(config.shards);
    RepairSession session(&example.rules, config);
    Table table = example.dirty;
    const StatusOr<RepairReport> report = session.Repair(&table);
    ASSERT_TRUE(report.ok()) << context << ": " << report.status();
    ExpectSameRows(table, want, context);

    std::istringstream in(dirty_csv.str());
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(in, "stream", example.pool);
    ASSERT_TRUE(reader.ok());
    std::ostringstream out;
    StreamInput input(&reader.value(), config.chunk_rows);
    const StatusOr<RepairReport> streamed = session.RepairStream(&input, out);
    ASSERT_TRUE(streamed.ok()) << context << ": " << streamed.status();
    EXPECT_EQ(out.str(), want_csv.str()) << context;
  }
  {
    RepairConfig config;
    config.engine = RepairEngine::kCRepair;
    config.wal_path = TestTempPath("crepair.wal");
    RepairSession session(&example.rules, config);
    std::istringstream in(dirty_csv.str());
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(in, "stream", example.pool);
    ASSERT_TRUE(reader.ok());
    std::ostringstream out;
    StreamInput input(&reader.value(), config.chunk_rows);
    const StatusOr<RepairReport> report = session.RepairStream(&input, out);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kMalformedInput);
    EXPECT_FALSE(std::filesystem::exists(config.wal_path));
    EXPECT_TRUE(out.str().empty());
  }
}

// The session's image is bound to each call's schema, by attribute name:
// a table of the rules' arity under other names is refused, not chased
// by position.
TEST(RepairSessionTest, RefusesATableWhoseAttributesDifferFromTheRules) {
  TravelExample example;
  std::vector<std::string> names = example.schema->attribute_names();
  names[0] += "_renamed";
  Table table(std::make_shared<Schema>("other", names), example.pool);
  table.AppendRow(example.dirty.row(0).ToTuple());
  for (const RepairEngine engine :
       {RepairEngine::kLRepair, RepairEngine::kCRepair}) {
    RepairSession session(&example.rules, {.engine = engine});
    const StatusOr<RepairReport> report = session.Repair(&table);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kMalformedInput);
  }
}

TEST(RepairSessionTest, StreamMatchesInMemoryRepairBytes) {
  TravelExample example;
  Table repaired = example.dirty;
  FastRepairer repairer(&example.rules);
  repairer.RepairTable(&repaired);
  std::ostringstream want;
  WriteCsv(repaired, want);

  std::ostringstream dirty_csv;
  WriteCsv(example.dirty, dirty_csv);

  for (const RepairEngine engine :
       {RepairEngine::kLRepair, RepairEngine::kCRepair}) {
    std::istringstream in(dirty_csv.str());
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(in, "stream", example.pool);
    ASSERT_TRUE(reader.ok());
    RepairConfig config;
    config.engine = engine;
    config.chunk_rows = 2;
    RepairSession session(&example.rules, config);
    std::ostringstream out;
    StreamInput input(&reader.value(), config.chunk_rows);
    const StatusOr<RepairReport> report = session.RepairStream(&input, out);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_EQ(out.str(), want.str()) << "engine=" << static_cast<int>(engine);
    EXPECT_EQ(report->rows, example.dirty.num_rows());
    EXPECT_EQ(report->chunks, 2u);
  }
}

}  // namespace
}  // namespace fixrep
