// The quarantine (dead-letter) pipeline: lenient CSV ingestion, lenient
// rule parsing, and failure-isolating repair, including the property
// that on clean inputs quarantine mode is bit-identical to abort mode,
// serial and parallel.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/random.h"
#include "common/status.h"
#include "relation/csv.h"
#include "repair/crepair.h"
#include "repair/lrepair.h"
#include "repair/driver.h"
#include "rules/rule_io.h"
#include "testing_util.h"

namespace fixrep {
namespace {

uint64_t CounterValue(const char* name) {
  const Counter* counter = MetricsRegistry::Global().FindCounter(name);
  return counter == nullptr ? 0 : counter->Value();
}

class QuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().ResetAllForTest(); }
};

// ---------------------------------------------------------------- CSV --

StatusOr<Table> ReadLenient(const std::string& text,
                            const CsvReadOptions& options) {
  std::istringstream in(text);
  return ReadCsvLenient(in, "test", std::make_shared<ValuePool>(), options);
}

TEST_F(QuarantineTest, CsvCleanInputMatchesStrict) {
  const std::string text = "a,b\n1,2\n\"x,y\",3\n";
  CsvReadOptions options;
  options.on_error = OnErrorPolicy::kQuarantine;
  VectorQuarantineSink sink;
  options.quarantine = &sink;
  StatusOr<Table> lenient = ReadLenient(text, options);
  ASSERT_TRUE(lenient.ok());
  std::istringstream in(text);
  const Table strict = ReadCsv(in, "test", std::make_shared<ValuePool>());
  ASSERT_EQ(lenient->num_rows(), strict.num_rows());
  for (size_t r = 0; r < strict.num_rows(); ++r) {
    for (size_t a = 0; a < strict.schema().arity(); ++a) {
      EXPECT_EQ(lenient->CellString(r, static_cast<AttrId>(a)),
                strict.CellString(r, static_cast<AttrId>(a)));
    }
  }
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(CounterValue("fixrep.quarantine.rows"), 0u);
}

TEST_F(QuarantineTest, CsvQuarantinesArityMismatch) {
  CsvReadOptions options;
  options.on_error = OnErrorPolicy::kQuarantine;
  VectorQuarantineSink sink;
  options.quarantine = &sink;
  StatusOr<Table> table = ReadLenient("a,b\n1,2\n1,2,3\nx,y\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->CellString(1, 0), "x");
  ASSERT_EQ(sink.size(), 1u);
  const Diagnostic& d = sink.diagnostics()[0];
  EXPECT_EQ(d.line, 1u);  // 0-based data-record ordinal
  EXPECT_EQ(d.code, StatusCode::kMalformedInput);
  EXPECT_NE(d.message.find("arity mismatch"), std::string::npos);
  EXPECT_EQ(d.raw_text, "1,2,3");
  EXPECT_EQ(CounterValue("fixrep.quarantine.rows"), 1u);
}

TEST_F(QuarantineTest, CsvQuarantinesUnterminatedQuoteAtEof) {
  CsvReadOptions options;
  options.on_error = OnErrorPolicy::kQuarantine;
  VectorQuarantineSink sink;
  options.quarantine = &sink;
  StatusOr<Table> table = ReadLenient("a,b\n1,2\n\"oops,3\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_NE(sink.diagnostics()[0].message.find("unterminated"),
            std::string::npos);
  EXPECT_EQ(CounterValue("fixrep.quarantine.rows"), 1u);
}

TEST_F(QuarantineTest, CsvSkipModeDropsSilently) {
  CsvReadOptions options;
  options.on_error = OnErrorPolicy::kSkip;
  StatusOr<Table> table = ReadLenient("a,b\n1,2,3\nx,y\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(CounterValue("fixrep.quarantine.rows"), 1u);
}

TEST_F(QuarantineTest, CsvAbortModeReturnsFirstError) {
  const StatusOr<Table> table = ReadLenient("a,b\n1,2,3\n", {});
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kMalformedInput);
  EXPECT_NE(table.status().message().find("arity mismatch"),
            std::string::npos);
}

TEST_F(QuarantineTest, CsvHeaderProblemsAreFatalInEveryMode) {
  for (const OnErrorPolicy policy :
       {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
        OnErrorPolicy::kQuarantine}) {
    CsvReadOptions options;
    options.on_error = policy;
    EXPECT_FALSE(ReadLenient("", options).ok());
    const StatusOr<Table> duplicate = ReadLenient("a,b,a\n1,2,3\n", options);
    ASSERT_FALSE(duplicate.ok());
    EXPECT_NE(duplicate.status().message().find("duplicate CSV header"),
              std::string::npos);
    const StatusOr<Table> unterminated = ReadLenient("a,\"b\n", options);
    ASSERT_FALSE(unterminated.ok());
    EXPECT_NE(unterminated.status().message().find("unterminated"),
              std::string::npos);
  }
}

TEST(QuarantineDeathTest, StrictReadCsvDiesOnUnterminatedQuote) {
  std::istringstream in("a,b\n\"oops,3\n");
  EXPECT_DEATH(ReadCsv(in, "t", std::make_shared<ValuePool>()),
               "unterminated");
}

TEST(QuarantineDeathTest, StrictReadCsvDiesOnDuplicateHeader) {
  std::istringstream in("a,a\n1,2\n");
  EXPECT_DEATH(ReadCsv(in, "t", std::make_shared<ValuePool>()),
               "duplicate CSV header");
}

// --------------------------------------------------------------- rules --

class RuleQuarantineTest : public QuarantineTest {
 protected:
  std::shared_ptr<ValuePool> pool_ = std::make_shared<ValuePool>();
  std::shared_ptr<const Schema> schema_ = std::make_shared<Schema>(
      "R", std::vector<std::string>{"name", "country", "capital"});

  StatusOr<RuleSet> Parse(const std::string& text,
                          const RuleParseOptions& options) {
    std::istringstream in(text);
    return ParseRulesLenient(in, schema_, pool_, options);
  }
};

constexpr char kGoodRule[] =
    "RULE\n"
    "  IF country = China\n"
    "  WRONG capital IN Shanghai | Hongkong\n"
    "  THEN capital = Beijing\n"
    "END\n";

TEST_F(RuleQuarantineTest, CleanRulesMatchStrict) {
  RuleParseOptions options;
  options.on_error = OnErrorPolicy::kQuarantine;
  VectorQuarantineSink sink;
  options.quarantine = &sink;
  StatusOr<RuleSet> rules = Parse(kGoodRule, options);
  ASSERT_TRUE(rules.ok());
  const RuleSet strict = ParseRulesFromString(kGoodRule, schema_, pool_);
  ASSERT_EQ(rules->size(), strict.size());
  EXPECT_EQ(rules->rule(0), strict.rule(0));
  EXPECT_TRUE(sink.empty());
}

TEST_F(RuleQuarantineTest, BadBlockQuarantinedRestKept) {
  const std::string text = std::string(kGoodRule) +
                           "RULE\n"
                           "  WHEN x = y\n"
                           "  WRONG capital IN X\n"
                           "  THEN capital = Y\n"
                           "END\n" +
                           kGoodRule;
  RuleParseOptions options;
  options.on_error = OnErrorPolicy::kQuarantine;
  VectorQuarantineSink sink;
  options.quarantine = &sink;
  StatusOr<RuleSet> rules = Parse(text, options);
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 2u);
  ASSERT_EQ(sink.size(), 1u);
  const Diagnostic& d = sink.diagnostics()[0];
  EXPECT_EQ(d.code, StatusCode::kMalformedInput);
  EXPECT_NE(d.message.find("unknown directive"), std::string::npos);
  // The whole block, RULE through END, is preserved verbatim.
  EXPECT_NE(d.raw_text.find("WHEN x = y"), std::string::npos);
  EXPECT_NE(d.raw_text.find("END"), std::string::npos);
  EXPECT_EQ(CounterValue("fixrep.quarantine.rules"), 1u);
}

TEST_F(RuleQuarantineTest, UnknownAttributeQuarantined) {
  const std::string text =
      "RULE\n"
      "  IF planet = Mars\n"
      "  WRONG capital IN X\n"
      "  THEN capital = Y\n"
      "END\n" +
      std::string(kGoodRule);
  RuleParseOptions options;
  options.on_error = OnErrorPolicy::kSkip;
  StatusOr<RuleSet> rules = Parse(text, options);
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 1u);
  EXPECT_EQ(CounterValue("fixrep.quarantine.rules"), 1u);
}

TEST_F(RuleQuarantineTest, MalformedRuleVariantsAllRecovered) {
  // One bad block of each kind, a good rule in between each.
  const std::vector<std::string> bad_blocks = {
      // missing WRONG
      "RULE\n  IF country = China\nEND\n",
      // missing THEN
      "RULE\n  WRONG capital IN X\nEND\n",
      // THEN/WRONG attribute mismatch
      "RULE\n  WRONG capital IN X\n  THEN name = Y\nEND\n",
      // fact inside the negative patterns
      "RULE\n  WRONG capital IN X | Y\n  THEN capital = X\nEND\n",
      // duplicate evidence attribute
      "RULE\n  IF country = China\n  IF country = Japan\n"
      "  WRONG capital IN X\n  THEN capital = Y\nEND\n",
      // target repeated in the evidence
      "RULE\n  IF capital = Tokyo\n  WRONG capital IN X\n"
      "  THEN capital = Y\nEND\n",
      // missing '=' in an assignment
      "RULE\n  IF country China\n  WRONG capital IN X\n"
      "  THEN capital = Y\nEND\n",
      // empty negative pattern
      "RULE\n  WRONG capital IN X | | Y\n  THEN capital = Z\nEND\n",
      // duplicate WRONG
      "RULE\n  WRONG capital IN X\n  WRONG capital IN Y\n"
      "  THEN capital = Z\nEND\n",
      // THEN before WRONG
      "RULE\n  THEN capital = Z\n  WRONG capital IN X\nEND\n",
  };
  std::string text;
  for (const std::string& block : bad_blocks) {
    text += block;
    text += kGoodRule;
  }
  RuleParseOptions options;
  options.on_error = OnErrorPolicy::kQuarantine;
  VectorQuarantineSink sink;
  options.quarantine = &sink;
  StatusOr<RuleSet> rules = Parse(text, options);
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), bad_blocks.size());
  EXPECT_EQ(sink.size(), bad_blocks.size());
  EXPECT_EQ(CounterValue("fixrep.quarantine.rules"), bad_blocks.size());
  // Abort mode rejects each block on its own.
  for (const std::string& block : bad_blocks) {
    EXPECT_FALSE(Parse(block, {}).ok()) << block;
  }
}

TEST_F(RuleQuarantineTest, StrayTopLevelLineQuarantined) {
  const std::string text =
      "IF country = China\n" + std::string(kGoodRule);
  RuleParseOptions options;
  options.on_error = OnErrorPolicy::kQuarantine;
  VectorQuarantineSink sink;
  options.quarantine = &sink;
  StatusOr<RuleSet> rules = Parse(text, options);
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 1u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.diagnostics()[0].line, 1u);  // 1-based source line
  EXPECT_NE(sink.diagnostics()[0].message.find("outside RULE"),
            std::string::npos);
}

TEST_F(RuleQuarantineTest, UnterminatedTrailingBlockQuarantined) {
  const std::string text =
      std::string(kGoodRule) + "RULE\n  IF country = China\n";
  RuleParseOptions options;
  options.on_error = OnErrorPolicy::kQuarantine;
  VectorQuarantineSink sink;
  options.quarantine = &sink;
  StatusOr<RuleSet> rules = Parse(text, options);
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 1u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_NE(sink.diagnostics()[0].message.find("unterminated RULE"),
            std::string::npos);
}

TEST_F(RuleQuarantineTest, NestedRuleStartsFreshBlock) {
  const std::string text =
      "RULE\n"
      "  IF country = China\n"
      "RULE\n"
      "  WRONG capital IN Shanghai\n"
      "  THEN capital = Beijing\n"
      "END\n";
  RuleParseOptions options;
  options.on_error = OnErrorPolicy::kQuarantine;
  VectorQuarantineSink sink;
  options.quarantine = &sink;
  StatusOr<RuleSet> rules = Parse(text, options);
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 1u);  // the second block is a valid rule
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_NE(sink.diagnostics()[0].message.find("nested RULE"),
            std::string::npos);
  // The dead block's raw text does not swallow the new RULE line.
  EXPECT_EQ(sink.diagnostics()[0].raw_text, "RULE\n  IF country = China\n");
}

// -------------------------------------------------------------- repair --

// Cascading pair: a tuple matching (name = flag) needs rule 2 (country
// fix) to unlock rule 1 (capital fix) — two chase applications. Rule 2
// carries evidence so that tuples not in the cascade never enqueue it,
// keeping their Ω-pop count at one.
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

class RepairQuarantineTest : public QuarantineTest {
 protected:
  std::shared_ptr<ValuePool> pool_ = std::make_shared<ValuePool>();
  std::shared_ptr<const Schema> schema_ = std::make_shared<Schema>(
      "R", std::vector<std::string>{"country", "capital", "name"});
  RuleSet rules_ = CascadeRules(schema_, pool_);

  Table MakeTable(const std::vector<std::vector<std::string>>& rows) {
    Table table(schema_, pool_);
    for (const auto& row : rows) table.AppendRowStrings(row);
    return table;
  }
};

TEST_F(RepairQuarantineTest, FastRepairerBudgetRestoresTuple) {
  FastRepairer repairer(&rules_);
  repairer.set_max_chase_steps(1);
  Table table = MakeTable({{"Chn", "Shanghai", "flag"}});
  const Tuple original = table.row(0).ToTuple();
  const size_t applications_before = repairer.stats().rule_applications;
  size_t changed = 1;
  const Status status =
      repairer.TryRepairTuple(table.WriteRow(0), &changed);
  EXPECT_EQ(status.code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(changed, 0u);
  EXPECT_EQ(table.row(0), original);
  EXPECT_EQ(repairer.stats().rule_applications, applications_before);
  EXPECT_EQ(repairer.stats().cells_changed, 0u);
  EXPECT_EQ(repairer.stats().tuples_changed, 0u);

  // With an adequate budget the same tuple chases to its fix.
  repairer.set_max_chase_steps(16);
  ASSERT_TRUE(
      repairer.TryRepairTuple(table.WriteRow(0), &changed).ok());
  EXPECT_EQ(changed, 2u);
  EXPECT_EQ(table.CellString(0, 0), "China");
  EXPECT_EQ(table.CellString(0, 1), "Beijing");
}

TEST_F(RepairQuarantineTest, ChaseRepairerBudgetRestoresTuple) {
  ChaseRepairer repairer(&rules_);
  repairer.set_max_chase_steps(1);
  Table table = MakeTable({{"Chn", "Shanghai", "flag"}});
  const Tuple original = table.row(0).ToTuple();
  const size_t applications_before = repairer.stats().rule_applications;
  size_t changed = 1;
  const Status status =
      repairer.TryRepairTuple(table.WriteRow(0), &changed);
  EXPECT_EQ(status.code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(changed, 0u);
  EXPECT_EQ(table.row(0), original);
  EXPECT_EQ(repairer.stats().rule_applications, applications_before);

  repairer.set_max_chase_steps(64);
  ASSERT_TRUE(
      repairer.TryRepairTuple(table.WriteRow(0), &changed).ok());
  EXPECT_EQ(changed, 2u);
  EXPECT_EQ(table.CellString(0, 1), "Beijing");
}

TEST_F(RepairQuarantineTest, TryRepairTupleRejectsWrongArity) {
  FastRepairer fast(&rules_);
  ChaseRepairer chase(&rules_);
  Tuple short_tuple(2, kNullValue);
  size_t changed = 0;
  EXPECT_EQ(fast.TryRepairTuple(short_tuple, &changed).code(),
            StatusCode::kMalformedInput);
  EXPECT_EQ(chase.TryRepairTuple(short_tuple, &changed).code(),
            StatusCode::kMalformedInput);
}

TEST_F(RepairQuarantineTest, LenientRepairQuarantinesPathologicalTuples) {
  const std::vector<std::vector<std::string>> rows = {
      {"China", "Shanghai", "x"},  // one Ω pop: fine under budget 1
      {"Chn", "Shanghai", "flag"},  // cascade, two pops: budget-exhausted
      {"France", "Paris", "y"},     // untouched
      {"Chn", "Hongkong", "flag"},  // cascade: budget-exhausted
  };
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    MetricsRegistry::Global().ResetAllForTest();
    Table table = MakeTable(rows);
    const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
    VectorQuarantineSink sink;
    RepairDriver driver(*dict, {.threads = threads,
                                .on_error = OnErrorPolicy::kQuarantine,
                                .quarantine = &sink,
                                .max_chase_steps = 1});
    const RepairStats stats = driver.Run(&table);
    EXPECT_EQ(driver.failures().size(), 2u) << threads;
    ASSERT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.diagnostics()[0].line, 1u);
    EXPECT_EQ(sink.diagnostics()[1].line, 3u);
    for (const Diagnostic& d : sink.diagnostics()) {
      EXPECT_EQ(d.code, StatusCode::kBudgetExhausted);
      EXPECT_NE(d.raw_text.find("Chn"), std::string::npos)
          << "original values preserved in the diagnostic";
    }
    // Clean rows repaired, bad rows preserved untouched.
    EXPECT_EQ(table.CellString(0, 1), "Beijing");
    EXPECT_EQ(table.CellString(1, 0), "Chn");
    EXPECT_EQ(table.CellString(1, 1), "Shanghai");
    EXPECT_EQ(table.CellString(2, 1), "Paris");
    EXPECT_EQ(table.CellString(3, 0), "Chn");
    EXPECT_EQ(CounterValue("fixrep.quarantine.tuples"), 2u);
    EXPECT_EQ(stats.tuples_examined, rows.size());
    EXPECT_EQ(stats.cells_changed, 1u);
  }
}

// Property: on clean inputs, quarantine mode is a no-op — the repaired
// table is bit-identical to the fail-fast engines', serial and parallel,
// and serial/parallel lenient runs agree on stats and diagnostics.
TEST_F(QuarantineTest, LenientRepairCleanInputsBitIdenticalToStrict) {
  testing::RandomRuleUniverse universe;
  Rng rng(20260806);
  for (int round = 0; round < 20; ++round) {
    RuleSet rules(universe.schema, universe.pool);
    const size_t num_rules = 1 + rng.Uniform(12);
    for (size_t i = 0; i < num_rules; ++i) {
      rules.Add(universe.RandomRule(&rng));
    }
    Table table(universe.schema, universe.pool);
    const size_t num_rows = 1 + rng.Uniform(200);
    for (size_t r = 0; r < num_rows; ++r) {
      table.AppendRow(universe.RandomTuple(&rng));
    }

    Table strict_serial = table;
    FastRepairer strict(&rules);
    strict.RepairTable(&strict_serial);

    const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
    Table strict_parallel = table;
    RepairDriver(*dict, {.threads = 4}).Run(&strict_parallel);

    Table lenient_serial = table;
    VectorQuarantineSink serial_sink;
    RepairDriver serial_driver(*dict, {.on_error = OnErrorPolicy::kQuarantine,
                                       .quarantine = &serial_sink});
    const RepairStats serial_stats = serial_driver.Run(&lenient_serial);

    Table lenient_parallel = table;
    VectorQuarantineSink parallel_sink;
    RepairDriver parallel_driver(*dict,
                                 {.threads = 4,
                                  .on_error = OnErrorPolicy::kQuarantine,
                                  .quarantine = &parallel_sink});
    const RepairStats parallel_stats = parallel_driver.Run(&lenient_parallel);

    EXPECT_EQ(serial_driver.failures().size(), 0u);
    EXPECT_EQ(parallel_driver.failures().size(), 0u);
    EXPECT_TRUE(serial_sink.empty());
    EXPECT_TRUE(parallel_sink.empty());
    for (size_t r = 0; r < num_rows; ++r) {
      ASSERT_EQ(lenient_serial.row(r), strict_serial.row(r)) << round;
      ASSERT_EQ(lenient_parallel.row(r), strict_serial.row(r)) << round;
      ASSERT_EQ(strict_parallel.row(r), strict_serial.row(r)) << round;
    }
    EXPECT_EQ(serial_stats.tuples_examined, parallel_stats.tuples_examined);
    EXPECT_EQ(serial_stats.cells_changed, parallel_stats.cells_changed);
    EXPECT_EQ(serial_stats.rule_applications,
              parallel_stats.rule_applications);
    EXPECT_EQ(serial_stats.per_rule_applications,
              parallel_stats.per_rule_applications);
  }
}

}  // namespace
}  // namespace fixrep
