// Content-routed (sharded) RepairDriver runs and the storage matrix of
// the rule image: repair output must be byte-identical between an image
// compiled in memory and the same image opened from a dictionary file
// across datasets (travel/hosp/uis) × engines (serial, memo-off,
// pooled, sharded) × error policies (abort/skip/quarantine) ×
// whole-table/chunked stream/whole-file stream.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/quarantine.h"
#include "common/random.h"
#include "common/status.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "repair/driver.h"
#include "repair/lrepair.h"
#include "repair/session.h"
#include "repair/streaming.h"
#include "rulegen/rulegen.h"
#include "rules/rule_dict.h"
#include "rules/rule_io.h"
#include "rules/rule_set.h"
#include "testing_util.h"

namespace fixrep {
namespace {

using ::fixrep::testing::RandomRuleUniverse;

std::string ToCsv(const Table& table) {
  std::ostringstream out;
  WriteCsv(table, out);
  return out.str();
}

void ExpectSameRows(const Table& got, const Table& want,
                    const std::string& context) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << context;
  for (size_t r = 0; r < want.num_rows(); ++r) {
    ASSERT_EQ(got.row(r), want.row(r)) << context << " row " << r;
  }
}

void ExpectSameDiagnostics(const std::vector<Diagnostic>& got,
                           const std::vector<Diagnostic>& want,
                           const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << context << " #" << i;
  }
}

// ------------------------------------------------------ engine level --

TEST(ShardedRepair, ByteIdenticalToSerialAcrossShardCounts) {
  Rng rng(0x5a4d);
  for (int trial = 0; trial < 8; ++trial) {
    RandomRuleUniverse universe;
    RuleSet rules(universe.schema, universe.pool);
    const size_t num_rules = 1 + rng.Uniform(10);
    for (size_t i = 0; i < num_rules; ++i) {
      rules.Add(universe.RandomRule(&rng));
    }
    const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);

    Table base(universe.schema, universe.pool);
    for (int r = 0; r < 120; ++r) base.AppendRow(universe.RandomTuple(&rng));

    // Random universes can hold conflicting rules, so the reference runs
    // in lenient (skip) mode — every engine must agree anyway.
    Table expected = base;
    size_t expected_quarantined = 0;
    {
      const std::unique_ptr<RuleDictHandle> handle = dict->MakeHandle();
      FastRepairer serial(handle->source());
      for (size_t r = 0; r < expected.num_rows(); ++r) {
        size_t changed = 0;
        if (!serial.TryRepairTuple(expected.WriteRow(r), &changed).ok()) {
          ++expected_quarantined;
        }
      }
    }

    for (const size_t shards : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
      Table actual = base;
      RepairDriver driver(*dict, {.shards = shards,
                                  .on_error = OnErrorPolicy::kSkip});
      driver.Run(&actual);
      const std::string context =
          "trial " + std::to_string(trial) + " shards " +
          std::to_string(shards);
      ExpectSameRows(actual, expected, context);
      EXPECT_EQ(driver.failures().size(), expected_quarantined) << context;
      EXPECT_GE(driver.slots(), 1u) << context;
    }
  }
}

// Cascading fixture from the streaming quarantine suite: (name = flag)
// tuples need two chase pops, so max_chase_steps = 1 fails exactly them.
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

TEST(ShardedRepair, LenientDiagnosticsAndWriteLogMatchSerial) {
  auto pool = std::make_shared<ValuePool>();
  auto schema = std::make_shared<Schema>(
      "R", std::vector<std::string>{"country", "capital", "name"});
  const RuleSet rules = CascadeRules(schema, pool);
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);

  Table base(schema, pool);
  for (int i = 0; i < 40; ++i) {
    base.AppendRowStrings({"China", "Shanghai", "x" + std::to_string(i)});
    base.AppendRowStrings({"Chn", "Hongkong", "flag"});
    base.AppendRowStrings({"France", "Paris", "y" + std::to_string(i)});
  }

  // Serial reference: per-tuple isolation with the same step budget,
  // write log captured row by row.
  Table expected = base;
  std::vector<Diagnostic> expected_diags;
  std::vector<CellRepair> expected_log;
  {
    const std::unique_ptr<RuleDictHandle> handle = dict->MakeHandle();
    FastRepairer serial(handle->source());
    serial.set_max_chase_steps(1);
    serial.set_write_log(&expected_log);
    for (size_t r = 0; r < expected.num_rows(); ++r) {
      size_t changed = 0;
      serial.set_write_log_row(r);
      const Status status =
          serial.TryRepairTuple(expected.WriteRow(r), &changed);
      if (!status.ok()) {
        expected_diags.push_back(Diagnostic{r, status.code(),
                                            status.message(),
                                            expected.FormatRow(r)});
      }
    }
  }
  ASSERT_FALSE(expected_diags.empty());
  ASSERT_FALSE(expected_log.empty());

  for (const size_t shards : {size_t{2}, size_t{3}, size_t{7}}) {
    Table actual = base;
    VectorQuarantineSink sink;
    std::vector<CellRepair> log;
    RepairDriver driver(*dict, {.shards = shards,
                                .on_error = OnErrorPolicy::kQuarantine,
                                .quarantine = &sink,
                                .max_chase_steps = 1});
    driver.set_write_log(&log);
    driver.Run(&actual);
    const std::string context = "shards " + std::to_string(shards);
    ExpectSameRows(actual, expected, context);
    EXPECT_EQ(driver.failures().size(), expected_diags.size()) << context;
    ExpectSameDiagnostics(sink.diagnostics(), expected_diags, context);
    ASSERT_EQ(log.size(), expected_log.size()) << context;
    for (size_t i = 0; i < expected_log.size(); ++i) {
      EXPECT_EQ(log[i].row, expected_log[i].row) << context << " #" << i;
      EXPECT_EQ(log[i].attr, expected_log[i].attr) << context << " #" << i;
      EXPECT_EQ(log[i].new_value, expected_log[i].new_value)
          << context << " #" << i;
      EXPECT_EQ(log[i].rule_index, expected_log[i].rule_index)
          << context << " #" << i;
    }
  }
}

TEST(ShardedRepair, DictionaryBackendMatchesIndexBackend) {
  Rng rng(0xd1c7);
  RandomRuleUniverse universe;
  RuleSet rules(universe.schema, universe.pool);
  for (size_t i = 0; i < 9; ++i) rules.Add(universe.RandomRule(&rng));
  const std::unique_ptr<RuleDict> heap = RuleDict::CompileOrDie(rules);
  const std::unique_ptr<RuleDict> mapped =
      testing::ReopenedImage(rules, "engine_dict.frd");
  ASSERT_NE(mapped, nullptr);

  Table base(universe.schema, universe.pool);
  for (int r = 0; r < 200; ++r) base.AppendRow(universe.RandomTuple(&rng));

  const RepairConfig config{.shards = 4, .on_error = OnErrorPolicy::kSkip};

  Table via_heap = base;
  Table via_file = base;
  RepairDriver heap_driver(*heap, config);
  RepairDriver file_driver(*mapped, config);
  const RepairStats heap_stats = heap_driver.Run(&via_heap);
  const RepairStats file_stats = file_driver.Run(&via_file);
  ExpectSameRows(via_file, via_heap, "file vs heap");
  EXPECT_EQ(file_stats.cells_changed, heap_stats.cells_changed);
  EXPECT_EQ(file_stats.per_rule_applications,
            heap_stats.per_rule_applications);
  EXPECT_EQ(file_driver.failures().size(), heap_driver.failures().size());
}

// ----------------------------------------------------- session matrix --

struct Dataset {
  std::string name;
  std::shared_ptr<ValuePool> pool;
  std::shared_ptr<const Schema> schema;
  Table dirty;
  RuleSet rules;

  Dataset(std::string name_, std::shared_ptr<ValuePool> pool_,
          std::shared_ptr<const Schema> schema_, Table dirty_, RuleSet rules_)
      : name(std::move(name_)),
        pool(std::move(pool_)),
        schema(std::move(schema_)),
        dirty(std::move(dirty_)),
        rules(std::move(rules_)) {}
};

Dataset TravelDataset() {
  TravelExample example;
  return {"travel", example.pool, example.schema, example.dirty,
          std::move(example.rules)};
}

Dataset HospDataset() {
  HospOptions options;
  options.rows = 400;
  options.num_hospitals = 40;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 150;
  RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  return {"hosp", data.pool, data.schema, std::move(dirty), std::move(rules)};
}

Dataset UisDataset() {
  UisOptions options;
  options.rows = 300;
  options.duplicate_ratio = 0.4;
  options.num_zips = 30;
  GeneratedData data = GenerateUis(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 100;
  RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  return {"uis", data.pool, data.schema, std::move(dirty), std::move(rules)};
}

// One whole-table repair through the facade.
struct MatrixRun {
  Table table;
  RepairReport report;
  std::vector<Diagnostic> diagnostics;
};

// A session over `dict` (opened from a file and bound), or over an image
// of the dataset's rules compiled in memory when `dict` is null.
std::unique_ptr<RepairSession> MakeSession(const Dataset& data,
                                           const RuleDict* dict,
                                           const RepairConfig& config) {
  return dict != nullptr ? std::make_unique<RepairSession>(dict, config)
                         : std::make_unique<RepairSession>(&data.rules, config);
}

MatrixRun RunMatrix(const Dataset& data, const RuleDict* dict,
                    size_t threads, size_t shards, bool use_memo,
                    OnErrorPolicy policy) {
  MatrixRun run{data.dirty, {}, {}};
  VectorQuarantineSink sink;
  RepairConfig config;
  config.threads = threads;
  config.shards = shards;
  config.use_memo = use_memo;
  config.on_error = policy;
  config.max_chase_steps = policy == OnErrorPolicy::kAbort ? 0 : 1;
  if (policy == OnErrorPolicy::kQuarantine) config.quarantine = &sink;
  StatusOr<RepairReport> report =
      MakeSession(data, dict, config)->Repair(&run.table);
  EXPECT_TRUE(report.ok()) << report.status();
  if (report.ok()) run.report = report.value();
  run.diagnostics = sink.diagnostics();
  return run;
}

TEST(ShardedSessionMatrix, DictAndShardsByteIdenticalAcrossDatasets) {
  for (Dataset (*make)() : {TravelDataset, HospDataset, UisDataset}) {
    const Dataset data = make();
    ASSERT_GT(data.rules.size(), 0u) << data.name;
    const std::unique_ptr<RuleDict> mapped =
        testing::ReopenedImage(data.rules, data.name + "_matrix.frd");
    ASSERT_NE(mapped, nullptr) << data.name;

    for (const OnErrorPolicy policy :
         {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
          OnErrorPolicy::kQuarantine}) {
      // Reference: serial, image compiled in memory.
      const MatrixRun reference =
          RunMatrix(data, nullptr, /*threads=*/1, /*shards=*/0, true, policy);

      for (const bool dict_backed : {false, true}) {
        const RuleDict* dict = dict_backed ? mapped.get() : nullptr;
        struct Mode {
          const char* tag;
          size_t threads;
          size_t shards;
          bool use_memo;
        };
        for (const Mode& mode :
             {Mode{"serial", 1, 0, true}, Mode{"memo_off", 1, 0, false},
              Mode{"pooled", 3, 0, true}, Mode{"sharded", 1, 3, true}}) {
          const std::string context =
              data.name + " " + OnErrorPolicyName(policy) + " " + mode.tag +
              (dict_backed ? " file" : " heap");
          const MatrixRun run = RunMatrix(data, dict, mode.threads,
                                          mode.shards, mode.use_memo, policy);
          ExpectSameRows(run.table, reference.table, context);
          EXPECT_EQ(run.report.cells_changed, reference.report.cells_changed)
              << context;
          EXPECT_EQ(run.report.tuples_quarantined,
                    reference.report.tuples_quarantined)
              << context;
          ExpectSameDiagnostics(run.diagnostics, reference.diagnostics,
                                context);
        }
      }
    }
  }
}

// One streaming run through the facade; output as a string for exact
// byte comparison.
std::string RunStreamMatrix(const Dataset& data, const RuleDict* dict,
                            size_t shards, size_t chunk_rows,
                            OnErrorPolicy policy) {
  std::istringstream in(ToCsv(data.dirty));
  StatusOr<CsvChunkReader> reader =
      CsvChunkReader::Open(in, "stream", data.pool, {});
  EXPECT_TRUE(reader.ok()) << reader.status();
  if (!reader.ok()) return {};
  VectorQuarantineSink sink;
  RepairConfig config;
  config.shards = shards;
  config.on_error = policy;
  config.max_chase_steps = policy == OnErrorPolicy::kAbort ? 0 : 1;
  if (policy == OnErrorPolicy::kQuarantine) config.quarantine = &sink;
  config.chunk_rows = chunk_rows;
  std::ostringstream out;
  StreamInput input(&reader.value(), config.chunk_rows);
  StatusOr<RepairReport> report =
      MakeSession(data, dict, config)->RepairStream(&input, out);
  EXPECT_TRUE(report.ok()) << report.status();
  return out.str();
}

TEST(ShardedSessionMatrix, StreamAndWholeFileByteIdenticalAcrossBackends) {
  for (Dataset (*make)() : {TravelDataset, HospDataset, UisDataset}) {
    const Dataset data = make();
    ASSERT_GT(data.rules.size(), 0u) << data.name;
    const std::unique_ptr<RuleDict> mapped =
        testing::ReopenedImage(data.rules, data.name + "_stream.frd");
    ASSERT_NE(mapped, nullptr) << data.name;

    for (const OnErrorPolicy policy :
         {OnErrorPolicy::kAbort, OnErrorPolicy::kQuarantine}) {
      // Reference: serial whole-table repair, image compiled in memory.
      const MatrixRun reference =
          RunMatrix(data, nullptr, /*threads=*/1, /*shards=*/0, true, policy);
      const std::string want = ToCsv(reference.table);

      struct StreamMode {
        const char* tag;
        size_t shards;
        size_t chunk_rows;
      };
      for (const StreamMode& mode :
           {StreamMode{"chunked", 0, 97}, StreamMode{"chunked_sharded", 3, 97},
            StreamMode{"whole_file", 0, RepairConfig::kWholeFile},
            StreamMode{"whole_file_sharded", 3, RepairConfig::kWholeFile}}) {
        for (const bool dict_backed : {false, true}) {
          const std::string context =
              data.name + " " + OnErrorPolicyName(policy) + " " + mode.tag +
              (dict_backed ? " file" : " heap");
          const std::string got =
              RunStreamMatrix(data, dict_backed ? mapped.get() : nullptr,
                              mode.shards, mode.chunk_rows, policy);
          EXPECT_EQ(got, want) << context;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fixrep
