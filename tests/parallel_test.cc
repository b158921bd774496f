#include <algorithm>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "relation/csv.h"
#include "repair/driver.h"
#include "repair/lrepair.h"
#include "rulegen/rulegen.h"

namespace fixrep {
namespace {

// A pooled RepairDriver run over a private index for `rules`; threads 0
// is the pool's full width.
RepairStats PooledRepair(const RuleSet& rules, Table* table,
                         size_t threads = 0) {
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
  return RepairDriver(*dict, {.threads = threads}).Run(table);
}

TEST(ParallelRepairTest, MatchesSerialOnTravelExample) {
  TravelExample example;
  Table serial = example.dirty;
  FastRepairer repairer(&example.rules);
  repairer.RepairTable(&serial);
  for (const size_t threads : {1u, 2u, 4u, 16u}) {
    Table parallel = example.dirty;
    const RepairStats stats =
        PooledRepair(example.rules, &parallel, threads);
    for (size_t r = 0; r < serial.num_rows(); ++r) {
      EXPECT_EQ(parallel.row(r), serial.row(r)) << "threads " << threads;
    }
    EXPECT_EQ(stats.cells_changed, repairer.stats().cells_changed);
  }
}

TEST(ParallelRepairTest, MatchesSerialOnGeneratedData) {
  HospOptions options;
  options.rows = 8000;
  options.num_hospitals = 300;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  RuleGenOptions rulegen;
  rulegen.max_rules = 400;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);

  Table serial = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&serial);

  Table parallel = dirty;
  const RepairStats stats = PooledRepair(rules, &parallel, 4);
  for (size_t r = 0; r < serial.num_rows(); ++r) {
    ASSERT_EQ(parallel.row(r), serial.row(r)) << "row " << r;
  }
  EXPECT_EQ(stats.tuples_examined, dirty.num_rows());
  EXPECT_EQ(stats.cells_changed, repairer.stats().cells_changed);
  EXPECT_EQ(stats.per_rule_applications,
            repairer.stats().per_rule_applications);
}

TEST(ParallelRepairTest, MoreThreadsThanRows) {
  TravelExample example;
  Table table = example.dirty;
  const RepairStats stats = PooledRepair(example.rules, &table, 64);
  EXPECT_EQ(stats.tuples_examined, 4u);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(table.row(r), example.clean.row(r));
  }
}

TEST(ParallelRepairTest, RegistryCountsMatchSerialBaseline) {
  // Metrics published by the sharded parallel run (worker stats merged
  // after the join) must agree with a single-threaded FastRepairer run.
  if (!kMetricsEnabled) {
    GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  }
  HospOptions options;
  options.rows = 4000;
  options.num_hospitals = 200;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  RuleGenOptions rulegen;
  rulegen.max_rules = 200;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);

  Table serial = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&serial);
  const RepairStats baseline = repairer.stats();

  auto& registry = MetricsRegistry::Global();
  registry.ResetAllForTest();
  Table parallel = dirty;
  PooledRepair(rules, &parallel, 4);

  const auto counter = [&](const char* name) {
    const Counter* c =
        registry.FindCounter(std::string("fixrep.lrepair.") + name);
    return c == nullptr ? uint64_t{0} : c->Value();
  };
  EXPECT_EQ(counter("tuples_examined"), baseline.tuples_examined);
  EXPECT_EQ(counter("tuples_changed"), baseline.tuples_changed);
  EXPECT_EQ(counter("cells_changed"), baseline.cells_changed);
  EXPECT_EQ(counter("rule_applications"), baseline.rule_applications);

  const CounterVector* per_rule =
      registry.FindCounterVector("fixrep.lrepair.per_rule_applications");
  ASSERT_NE(per_rule, nullptr);
  const std::vector<uint64_t> registry_counts = per_rule->Values();
  ASSERT_EQ(registry_counts.size(), baseline.per_rule_applications.size());
  for (size_t i = 0; i < registry_counts.size(); ++i) {
    EXPECT_EQ(registry_counts[i], baseline.per_rule_applications[i])
        << "rule " << i;
  }
}

TEST(ParallelRepairTest, PooledAndMemoizedConfigsMatchSerial) {
  // Every engine configuration — shared index, pooled workers, memo on
  // or off — must be bit-identical to the plain serial chase.
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

  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
  for (const bool use_memo : {false, true}) {
    for (const size_t threads : {2u, 4u, 16u}) {
      Table parallel = dirty;
      const RepairStats stats =
          RepairDriver(*dict, {.threads = threads, .use_memo = use_memo})
              .Run(&parallel);
      for (size_t r = 0; r < serial.num_rows(); ++r) {
        ASSERT_EQ(parallel.row(r), serial.row(r))
            << "row " << r << " threads " << threads << " memo "
            << use_memo;
      }
      EXPECT_EQ(stats.tuples_examined, repairer.stats().tuples_examined);
      EXPECT_EQ(stats.cells_changed, repairer.stats().cells_changed);
      EXPECT_EQ(stats.per_rule_applications,
                repairer.stats().per_rule_applications);
    }
  }
}

TEST(ParallelRepairTest, IndexBuiltOncePerRuleSetNotPerWorkerOrCall) {
  // Regression guard for the old design, which rebuilt the inverted
  // index once per worker per pooled repair call: with one shared
  // compiled image, fixrep.lrepair.index_builds ticks exactly once
  // per rule set no matter how many workers or repair calls follow.
  if (!kMetricsEnabled) {
    GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  }
  TravelExample example;
  auto& registry = MetricsRegistry::Global();
  const uint64_t before =
      registry.GetCounter("fixrep.lrepair.index_builds")->Value();
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(example.rules);
  for (int call = 0; call < 3; ++call) {
    Table table = example.dirty;
    RepairDriver(*dict, {.threads = 4}).Run(&table);
  }
  EXPECT_EQ(registry.GetCounter("fixrep.lrepair.index_builds")->Value(),
            before + 1);
}

TEST(ParallelRepairTest, EmptyTable) {
  TravelExample example;
  Table empty(example.schema, example.pool);
  const RepairStats stats = PooledRepair(example.rules, &empty, 4);
  EXPECT_EQ(stats.tuples_examined, 0u);
  EXPECT_EQ(stats.cells_changed, 0u);
}

TEST(ParallelRepairTest, DefaultThreadCount) {
  TravelExample example;
  Table table = example.dirty;
  PooledRepair(example.rules, &table);  // threads = 0 -> hardware
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(table.row(r), example.clean.row(r));
  }
}

TEST(ParallelRepairTest, ParticipantsAreCappedAtThePoolWidth) {
  const ThreadPool& pool = ThreadPool::Global();
  const size_t width = pool.num_workers() + 1;
  EXPECT_EQ(pool.Participants(0, 1000), width);
  EXPECT_EQ(pool.Participants(20000, 1000), width);
  EXPECT_EQ(pool.Participants(20000, 3), std::min<size_t>(width, 3));
  EXPECT_EQ(pool.Participants(1, 1000), 1u);
  EXPECT_EQ(pool.Participants(5, 0), 1u);

  HospOptions options;
  options.rows = 3000;
  options.num_hospitals = 120;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, {});
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
  Table serial = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&serial);
  std::ostringstream want;
  WriteCsv(serial, want);

  Gauge* workers =
      MetricsRegistry::Global().GetGauge("fixrep.parallel.workers");
  for (const size_t threads : {width + 1, size_t{64}, size_t{20000}}) {
    const std::string context = "threads " + std::to_string(threads);
    workers->Reset();
    Table pooled = dirty;
    RepairDriver(*dict, {.threads = threads}).Run(&pooled);
    EXPECT_LE(static_cast<size_t>(workers->Value()), width) << context;
    std::ostringstream got;
    WriteCsv(pooled, got);
    EXPECT_EQ(got.str(), want.str()) << context;

    workers->Reset();
    Table lenient = dirty;
    RepairDriver(*dict, {.threads = threads, .on_error = OnErrorPolicy::kSkip})
        .Run(&lenient);
    EXPECT_LE(static_cast<size_t>(workers->Value()), width) << context;
    std::ostringstream got_lenient;
    WriteCsv(lenient, got_lenient);
    EXPECT_EQ(got_lenient.str(), want.str()) << context;

    Table sharded = dirty;
    RepairDriver sharded_driver(*dict, {.shards = threads});
    sharded_driver.Run(&sharded);
    EXPECT_LE(sharded_driver.slots(), width) << context;
    std::ostringstream got_sharded;
    WriteCsv(sharded, got_sharded);
    EXPECT_EQ(got_sharded.str(), want.str()) << context;
  }
}

}  // namespace
}  // namespace fixrep
