// The chunked streaming repair pipeline (repair/streaming.h, run through
// RepairSession::RepairStream): for every
// chunk size, engine width, and error policy, the streamed output —
// repaired CSV bytes AND quarantine diagnostics — is bit-identical to
// repairing the whole table in memory and writing it out.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/random.h"
#include "common/status.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "relation/row_store.h"
#include "relation/table.h"
#include "repair/driver.h"
#include "repair/lrepair.h"
#include "repair/session.h"
#include "rulegen/rulegen.h"
#include "rules/rule_io.h"
#include "testing_util.h"

namespace fixrep {
namespace {

uint64_t CounterValue(const char* name) {
  const Counter* counter = MetricsRegistry::Global().FindCounter(name);
  return counter == nullptr ? 0 : counter->Value();
}

std::string ToCsv(const Table& table) {
  std::ostringstream out;
  WriteCsv(table, out);
  return out.str();
}

// One end-to-end streaming run over CSV text: reader -> session -> string.
struct StreamRun {
  std::string csv;
  RepairReport result;
  std::vector<Diagnostic> tuple_diagnostics;  // failed repairs
  std::vector<Diagnostic> row_diagnostics;    // malformed CSV records
};

struct StreamConfig {
  size_t chunk_rows = 1;
  size_t threads = 1;
  OnErrorPolicy on_error = OnErrorPolicy::kAbort;
  size_t max_chase_steps = 0;
  OnErrorPolicy csv_policy = OnErrorPolicy::kAbort;
};

StatusOr<StreamRun> RunStream(const std::string& csv_text,
                              std::shared_ptr<ValuePool> pool,
                              const RuleDict& dict,
                              const StreamConfig& config) {
  VectorQuarantineSink tuple_sink;
  VectorQuarantineSink row_sink;
  CsvReadOptions csv_options;
  csv_options.on_error = config.csv_policy;
  if (config.csv_policy == OnErrorPolicy::kQuarantine) {
    csv_options.quarantine = &row_sink;
  }
  std::istringstream in(csv_text);
  StatusOr<CsvChunkReader> reader =
      CsvChunkReader::Open(in, "stream", std::move(pool), csv_options);
  if (!reader.ok()) return reader.status();

  RepairConfig repair;
  repair.chunk_rows = config.chunk_rows;
  repair.threads = config.threads;
  repair.on_error = config.on_error;
  if (config.on_error == OnErrorPolicy::kQuarantine) {
    repair.quarantine = &tuple_sink;
  }
  repair.max_chase_steps = config.max_chase_steps;
  RepairSession session(&dict, repair);
  std::ostringstream out;
  StatusOr<RepairReport> result = session.RepairStream(&reader.value(), out);
  if (!result.ok()) return result.status();

  StreamRun run;
  run.csv = out.str();
  run.result = result.value();
  run.tuple_diagnostics = tuple_sink.diagnostics();
  run.row_diagnostics = row_sink.diagnostics();
  return run;
}

void ExpectSameDiagnostics(const std::vector<Diagnostic>& got,
                           const std::vector<Diagnostic>& want,
                           const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].line, want[i].line) << context << " #" << i;
    EXPECT_EQ(got[i].code, want[i].code) << context << " #" << i;
    EXPECT_EQ(got[i].message, want[i].message) << context << " #" << i;
    EXPECT_EQ(got[i].raw_text, want[i].raw_text) << context << " #" << i;
  }
}

class StreamingTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().ResetAllForTest(); }
};

// ------------------------------------------------------ running example --

TEST_F(StreamingTest, TravelExampleStreamsToTheCleanInstance) {
  TravelExample example;
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(example.rules);
  const std::string dirty_csv = ToCsv(example.dirty);
  const std::string want = ToCsv(example.clean);
  for (const size_t chunk_rows : {size_t{1}, size_t{2}, size_t{100}}) {
    const StatusOr<StreamRun> run = RunStream(
        dirty_csv, example.pool, *dict, {.chunk_rows = chunk_rows});
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->csv, want) << "chunk_rows=" << chunk_rows;
    EXPECT_EQ(run->result.rows, example.dirty.num_rows());
    EXPECT_TRUE(run->tuple_diagnostics.empty());
  }
}

TEST_F(StreamingTest, EmptyInputEmitsHeaderOnly) {
  TravelExample example;
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(example.rules);
  Table empty(example.schema, example.pool);
  const StatusOr<StreamRun> run =
      RunStream(ToCsv(empty), example.pool, *dict, {.chunk_rows = 4});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->csv, ToCsv(empty));
  EXPECT_EQ(run->result.rows, 0u);
  EXPECT_EQ(run->result.chunks, 0u);
}

TEST_F(StreamingTest, ArityMismatchWithRulesIsMalformedInput) {
  TravelExample example;  // 5-attribute rules
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(example.rules);
  const StatusOr<StreamRun> run =
      RunStream("a,b\n1,2\n", example.pool, *dict, {.chunk_rows = 1});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kMalformedInput);
}

// ------------------------------------------------------- random universe --

// Property: for random rule sets and random tables, chunked streaming at
// every chunk size — serial or pooled, memoized or not — emits exactly
// the bytes a whole-table serial repair would write.
TEST_F(StreamingTest, ChunkedRepairBitIdenticalToWholeTableSerial) {
  testing::RandomRuleUniverse universe;
  Rng rng(20260806);
  for (int round = 0; round < 10; ++round) {
    RuleSet rules(universe.schema, universe.pool);
    const size_t num_rules = 1 + rng.Uniform(12);
    for (size_t i = 0; i < num_rules; ++i) {
      rules.Add(universe.RandomRule(&rng));
    }
    Table table(universe.schema, universe.pool);
    const size_t num_rows = 1 + rng.Uniform(300);
    for (size_t r = 0; r < num_rows; ++r) {
      table.AppendRow(universe.RandomTuple(&rng));
    }
    const std::string input_csv = ToCsv(table);

    Table reference = table;
    FastRepairer repairer(&rules);
    repairer.RepairTable(&reference);
    const std::string want = ToCsv(reference);

    const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
    for (const size_t chunk_rows :
         {size_t{1}, size_t{7}, size_t{1024}, num_rows}) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        const StatusOr<StreamRun> run =
            RunStream(input_csv, universe.pool, *dict,
                      {.chunk_rows = chunk_rows, .threads = threads});
        ASSERT_TRUE(run.ok()) << run.status().message();
        ASSERT_EQ(run->csv, want) << "round=" << round
                                  << " chunk_rows=" << chunk_rows
                                  << " threads=" << threads;
        EXPECT_EQ(run->result.rows, num_rows);
      }
    }
  }
}

// ---------------------------------------------------- generated datasets --

// Shared shape of the hosp/uis checks: corrupt a generated clean table,
// learn rules from the (clean, dirty) pair, and require streaming at
// every chunk size to reproduce the whole-table repair byte for byte.
void ExpectStreamingMatchesWholeTable(const GeneratedData& data,
                                      const Table& dirty,
                                      const RuleSet& rules) {
  const std::string input_csv = ToCsv(dirty);
  Table reference = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&reference);
  const std::string want = ToCsv(reference);
  EXPECT_NE(want, input_csv) << "noise should leave something to repair";

  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
  for (const size_t chunk_rows :
       {size_t{1}, size_t{7}, size_t{1024}, dirty.num_rows()}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const StatusOr<StreamRun> run =
          RunStream(input_csv, data.pool, *dict,
                    {.chunk_rows = chunk_rows, .threads = threads});
      ASSERT_TRUE(run.ok()) << run.status().message();
      ASSERT_EQ(run->csv, want) << "chunk_rows=" << chunk_rows
                                << " threads=" << threads;
      EXPECT_EQ(run->result.rows, dirty.num_rows());
    }
  }
}

TEST_F(StreamingTest, HospGeneratedDataStreamsBitIdentically) {
  HospOptions options;
  options.rows = 800;
  options.num_hospitals = 60;
  options.num_measures = 8;
  const GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 200;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  ASSERT_GT(rules.size(), 0u);
  ExpectStreamingMatchesWholeTable(data, dirty, rules);
}

TEST_F(StreamingTest, UisGeneratedDataStreamsBitIdentically) {
  UisOptions options;
  options.rows = 600;
  options.duplicate_ratio = 0.4;  // repeated people so rules have support
  options.num_zips = 40;
  const GeneratedData data = GenerateUis(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 100;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  ASSERT_GT(rules.size(), 0u);
  ExpectStreamingMatchesWholeTable(data, dirty, rules);
}

// --------------------------------------------------------- splice output --

// Rewrites the data records of `csv` at random so the stream's splice
// meets every record shape the reader has: quoted fields, "" escapes, a
// quoted ',', CRLF and bare '\r' terminators, empty fields, a missing
// final newline and (with `arity_errors`) records with a field too many
// or too few. The header stays intact.
std::string MutateRecords(const std::string& csv, Rng* rng,
                          bool arity_errors) {
  std::vector<std::string> lines;
  for (size_t at = 0; at < csv.size();) {
    const size_t nl = csv.find('\n', at);
    lines.push_back(csv.substr(at, nl - at));
    at = nl + 1;
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    if (!rng->Bernoulli(0.08)) continue;
    std::string& line = lines[i];
    std::vector<size_t> commas;
    for (size_t c = 0; c < line.size(); ++c) {
      if (line[c] == ',') commas.push_back(c);
    }
    // Field f spans [begin, end) of the line.
    const size_t f = rng->Uniform(commas.size() + 1);
    const size_t begin = f == 0 ? 0 : commas[f - 1] + 1;
    const size_t end = f == commas.size() ? line.size() : commas[f];
    const std::string field = line.substr(begin, end - begin);
    switch (rng->Uniform(arity_errors ? 8 : 6)) {
      case 0:  // the same value, quoted
        line.replace(begin, end - begin, "\"" + field + "\"");
        break;
      case 1:  // an escaped quote inside
        line.replace(begin, end - begin, "\"" + field + "\"\"q\"");
        break;
      case 2:  // a quoted comma
        line.replace(begin, end - begin, "\"" + field + ",c\"");
        break;
      case 3:
        line += '\r';  // CRLF
        break;
      case 4:  // a bare '\r', which the reader drops
        line.insert(begin, "\r");
        break;
      case 5:
        line.replace(begin, end - begin, "");
        break;
      case 6:
        line += ",extra";
        break;
      default:
        if (!commas.empty()) line.erase(commas.back());
        break;
    }
  }
  std::string out;
  for (const std::string& line : lines) out += line + '\n';
  if (rng->Bernoulli(0.5)) out.pop_back();  // no final newline
  return out;
}

// The stream of `csv` against the whole-table path: read it all with the
// same CSV policy, repair it with the same config and write it with
// WriteCsv. Bytes and both kinds of diagnostics must match.
void ExpectStreamMatchesWholeTableWrite(const std::string& csv,
                                        std::shared_ptr<ValuePool> pool,
                                        const RuleDict& dict,
                                        const StreamConfig& config,
                                        const std::string& context) {
  VectorQuarantineSink want_rows;
  VectorQuarantineSink want_tuples;
  std::istringstream in(csv);
  StatusOr<Table> table = ReadCsvLenient(
      in, "stream", pool,
      {config.csv_policy, config.csv_policy == OnErrorPolicy::kQuarantine
                              ? &want_rows
                              : nullptr});
  ASSERT_TRUE(table.ok()) << context << ": " << table.status();
  RepairConfig repair;
  repair.on_error = config.on_error;
  repair.quarantine = config.on_error == OnErrorPolicy::kQuarantine
                          ? &want_tuples
                          : nullptr;
  repair.max_chase_steps = config.max_chase_steps;
  RepairSession session(&dict, repair);
  ASSERT_TRUE(session.Repair(&table.value()).ok()) << context;
  const std::string want = ToCsv(table.value());

  const StatusOr<StreamRun> run = RunStream(csv, pool, dict, config);
  ASSERT_TRUE(run.ok()) << context << ": " << run.status().message();
  ASSERT_EQ(run->csv, want) << context;
  ExpectSameDiagnostics(run->row_diagnostics, want_rows.diagnostics(),
                        context + " csv");
  ExpectSameDiagnostics(run->tuple_diagnostics, want_tuples.diagnostics(),
                        context + " tuples");
}

struct SpliceCorpus {
  GeneratedData data;
  std::string csv;
  std::unique_ptr<RuleDict> dict;
};

// Noisy hosp rows with their mined rules; `copies` > 1 repeats the data
// records to make a larger input.
SpliceCorpus MakeSpliceCorpus(size_t copies) {
  HospOptions options;
  options.rows = 600;
  options.num_hospitals = 40;
  SpliceCorpus corpus{GenerateHosp(options), {}, nullptr};
  Table dirty = corpus.data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*corpus.data.schema,
                                           corpus.data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 150;
  corpus.dict = RuleDict::CompileOrDie(
      GenerateRules(corpus.data.clean, dirty, corpus.data.fds, rulegen));
  const std::string csv = ToCsv(dirty);
  const size_t body = csv.find('\n') + 1;
  corpus.csv = csv;
  for (size_t c = 1; c < copies; ++c) corpus.csv += csv.substr(body);
  return corpus;
}

// Spliced stream output is WriteCsv of the repaired table, byte for
// byte, over mutated records under every policy, at chunks of 1, 7 and
// 4096 rows and with no row limit.
TEST_F(StreamingTest, SplicedOutputMatchesWholeTableWriteOnMutatedCsv) {
  const SpliceCorpus corpus = MakeSpliceCorpus(1);
  Rng rng(0x5911ce);
  for (int round = 0; round < 6; ++round) {
    for (const OnErrorPolicy policy :
         {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
          OnErrorPolicy::kQuarantine}) {
      const std::string csv = MutateRecords(
          corpus.csv, &rng, policy != OnErrorPolicy::kAbort);
      for (const size_t steps : {size_t{0}, size_t{1}}) {
        if (policy == OnErrorPolicy::kAbort && steps > 0) continue;
        for (const size_t chunk_rows : {size_t{1}, size_t{7}, size_t{4096},
                                        RepairConfig::kWholeFile}) {
          const std::string context =
              "round=" + std::to_string(round) + " policy=" +
              OnErrorPolicyName(policy) + " steps=" + std::to_string(steps) +
              " chunk_rows=" + std::to_string(chunk_rows);
          ExpectStreamMatchesWholeTableWrite(
              csv, corpus.data.pool, *corpus.dict,
              {.chunk_rows = chunk_rows,
               .on_error = policy,
               .max_chase_steps = steps,
               .csv_policy = policy},
              context);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// An input past the keep bound: every chunk is kept and spliced, so
// 4096-row chunks and chunks with no row limit both copy most of the
// input's bytes and write the whole-table bytes.
TEST_F(StreamingTest, EveryChunkSplicesPastTheKeepBound) {
  const SpliceCorpus corpus = MakeSpliceCorpus(18);
  ASSERT_GT(corpus.csv.size(), 2 * CsvChunkReader::kKeepBytes);
  Rng rng(0xb0b);
  const std::string csv =
      MutateRecords(corpus.csv, &rng, /*arity_errors=*/true);
  for (const size_t chunk_rows : {size_t{4096}, RepairConfig::kWholeFile}) {
    const std::string context = "chunk_rows=" + std::to_string(chunk_rows);
    const uint64_t copied_before = CounterValue("fixrep.csv.bytes_copied");
    ExpectStreamMatchesWholeTableWrite(
        csv, corpus.data.pool, *corpus.dict,
        {.chunk_rows = chunk_rows,
         .on_error = OnErrorPolicy::kQuarantine,
         .csv_policy = OnErrorPolicy::kQuarantine},
        context);
    if (!kMetricsEnabled) continue;
    const uint64_t copied =
        CounterValue("fixrep.csv.bytes_copied") - copied_before;
    EXPECT_GT(copied, csv.size() / 2) << context;
  }
}

// ---------------------------------------------------- quarantine ordering --

// Cascading pair from the quarantine suite: (name = flag) tuples need two
// chase pops, so max_chase_steps = 1 makes exactly those tuples fail.
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

// The whole-table reference for the cascade suites: serial, quarantining
// into `sink`, one chase pop per tuple.
RepairConfig LenientConfig(QuarantineSink* sink) {
  return {.on_error = OnErrorPolicy::kQuarantine,
          .quarantine = sink,
          .max_chase_steps = 1};
}

class StreamingQuarantineTest : public StreamingTest {
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

// Failing tuples land on both sides of every chunk boundary; the streamed
// diagnostics must still carry whole-table row indices, in row order,
// with the same messages and preserved raw values as an in-memory run.
TEST_F(StreamingQuarantineTest, DiagnosticsMatchWholeTableLenientRepair) {
  Table table = MakeTable({
      {"China", "Shanghai", "x"},   // one pop: fine under budget 1
      {"Chn", "Shanghai", "flag"},  // cascade: budget-exhausted
      {"France", "Paris", "y"},
      {"Chn", "Hongkong", "flag"},  // cascade: budget-exhausted
      {"China", "Hongkong", "z"},   // one pop: fine
      {"Chn", "Shanghai", "flag"},  // cascade: budget-exhausted
  });
  const std::string input_csv = ToCsv(table);
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);

  Table reference = table;
  VectorQuarantineSink reference_sink;
  RepairDriver reference_driver(*dict, LenientConfig(&reference_sink));
  reference_driver.Run(&reference);
  ASSERT_EQ(reference_driver.failures().size(), 3u);
  const std::string want = ToCsv(reference);

  for (const size_t chunk_rows :
       {size_t{1}, size_t{2}, size_t{3}, size_t{6}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const std::string context = "chunk_rows=" + std::to_string(chunk_rows) +
                                  " threads=" + std::to_string(threads);
      const StatusOr<StreamRun> run =
          RunStream(input_csv, pool_, *dict,
                    {.chunk_rows = chunk_rows,
                     .threads = threads,
                     .on_error = OnErrorPolicy::kQuarantine,
                     .max_chase_steps = 1});
      ASSERT_TRUE(run.ok()) << run.status().message();
      EXPECT_EQ(run->csv, want) << context;
      EXPECT_EQ(run->result.tuples_quarantined, 3u) << context;
      ExpectSameDiagnostics(run->tuple_diagnostics,
                            reference_sink.diagnostics(), context);
    }
  }
}

TEST_F(StreamingQuarantineTest, SkipModeDropsFixesButKeepsRowsAndBytes) {
  Table table = MakeTable({
      {"Chn", "Shanghai", "flag"},
      {"China", "Shanghai", "x"},
  });
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  const StatusOr<StreamRun> run =
      RunStream(ToCsv(table), pool_, *dict,
                {.chunk_rows = 1,
                 .on_error = OnErrorPolicy::kSkip,
                 .max_chase_steps = 1});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->result.tuples_quarantined, 1u);
  EXPECT_TRUE(run->tuple_diagnostics.empty());  // skip: no sink traffic
  // Failed tuple preserved verbatim, clean tuple repaired.
  EXPECT_EQ(run->csv,
            "country,capital,name\nChn,Shanghai,flag\nChina,Beijing,x\n");
}

// Malformed CSV records and failing tuples in one stream: record
// diagnostics carry input ordinals, tuple diagnostics carry output-row
// indices, and both match the non-streaming lenient pipeline exactly.
TEST_F(StreamingQuarantineTest, MalformedRecordsKeepGlobalOrdinals) {
  const std::string input_csv =
      "country,capital,name\n"
      "China,Shanghai,x\n"         // record 0 -> output row 0
      "bad,row,with,too,many\n"    // record 1: arity mismatch
      "Chn,Shanghai,flag\n"        // record 2 -> output row 1, budget fail
      "France,Paris\n"             // record 3: arity mismatch
      "France,Paris,y\n";          // record 4 -> output row 2

  // Non-streaming reference: lenient read, then lenient whole-table
  // repair.
  VectorQuarantineSink reference_rows;
  CsvReadOptions read_options;
  read_options.on_error = OnErrorPolicy::kQuarantine;
  read_options.quarantine = &reference_rows;
  std::istringstream in(input_csv);
  StatusOr<Table> reference = ReadCsvLenient(in, "R", pool_, read_options);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->num_rows(), 3u);
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  VectorQuarantineSink reference_tuples;
  RepairDriver(*dict, LenientConfig(&reference_tuples)).Run(&reference.value());
  const std::string want = ToCsv(reference.value());

  for (const size_t chunk_rows : {size_t{1}, size_t{2}, size_t{10}}) {
    MetricsRegistry::Global().ResetAllForTest();
    const std::string context = "chunk_rows=" + std::to_string(chunk_rows);
    const StatusOr<StreamRun> run =
        RunStream(input_csv, pool_, *dict,
                  {.chunk_rows = chunk_rows,
                   .on_error = OnErrorPolicy::kQuarantine,
                   .max_chase_steps = 1,
                   .csv_policy = OnErrorPolicy::kQuarantine});
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->csv, want) << context;
    ExpectSameDiagnostics(run->row_diagnostics,
                          reference_rows.diagnostics(), context);
    ExpectSameDiagnostics(run->tuple_diagnostics,
                          reference_tuples.diagnostics(), context);
    ASSERT_EQ(run->row_diagnostics.size(), 2u);
    EXPECT_EQ(run->row_diagnostics[0].line, 1u);  // input record ordinal
    EXPECT_EQ(run->row_diagnostics[1].line, 3u);
    ASSERT_EQ(run->tuple_diagnostics.size(), 1u);
    EXPECT_EQ(run->tuple_diagnostics[0].line, 1u);  // output-row index
    EXPECT_EQ(CounterValue("fixrep.quarantine.rows"), 2u) << context;
    EXPECT_EQ(CounterValue("fixrep.quarantine.tuples"), 1u) << context;
  }
}

TEST_F(StreamingQuarantineTest, StreamingCountersTickPerChunkAndRow) {
  Table table = MakeTable({
      {"China", "Shanghai", "a"},
      {"China", "Shanghai", "b"},
      {"China", "Shanghai", "c"},
      {"China", "Shanghai", "d"},
      {"China", "Shanghai", "e"},
  });
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  const StatusOr<StreamRun> run =
      RunStream(ToCsv(table), pool_, *dict, {.chunk_rows = 2});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->result.chunks, 3u);  // 2 + 2 + 1
  EXPECT_EQ(run->result.rows, 5u);
  EXPECT_EQ(run->result.cells_changed, 5u);
  EXPECT_EQ(CounterValue("fixrep.streaming.chunks"), 3u);
  EXPECT_EQ(CounterValue("fixrep.streaming.rows"), 5u);
}

// A stream that fails part way still publishes the repair metrics of the
// chunks it repaired and emitted: the driver publishes per run, not once
// after the loop.
TEST_F(StreamingQuarantineTest, FailedStreamKeepsMetricsOfRepairedChunks) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  const std::string input_csv =
      "country,capital,name\n"
      "China,Shanghai,a\n"  // chunk 1
      "China,Shanghai,b\n"
      "China,Hongkong,c\n"  // chunk 2
      "France,Paris,d\n"
      "China,Shanghai\n"    // chunk 3: arity mismatch, abort
      "China,Shanghai,e\n";
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    MetricsRegistry::Global().ResetAllForTest();
    const std::string context = "threads=" + std::to_string(threads);
    const StatusOr<StreamRun> run = RunStream(
        input_csv, pool_, *dict, {.chunk_rows = 2, .threads = threads});
    ASSERT_FALSE(run.ok()) << context;
    EXPECT_EQ(run.status().code(), StatusCode::kMalformedInput) << context;
    EXPECT_EQ(CounterValue("fixrep.lrepair.tuples_examined"), 4u) << context;
    EXPECT_EQ(CounterValue("fixrep.lrepair.cells_changed"), 3u) << context;
    EXPECT_EQ(CounterValue("fixrep.memo.hits") +
                  CounterValue("fixrep.memo.misses"),
              4u)
        << context;
  }
}

// ------------------------------------------------------------ memory bound --

// A chunk read from a stream ends within kKeepBytes of input and a
// record is at least `arity` bytes, so the chunk's cell block, reserved
// once for kKeepBytes / arity rows, never grows: with no row limit, an
// input four times longer takes more chunks, not a larger one.
TEST_F(StreamingTest, PeakChunkBytesIsBoundedWhateverTheInputLength) {
  const SpliceCorpus corpus = MakeSpliceCorpus(1);
  const size_t arity = corpus.dict->arity();
  const size_t bound =
      CsvChunkReader::kKeepBytes * sizeof(ValueId) +
      RowStore::kRowsPerBlock * arity * sizeof(ValueId);
  const std::string body = corpus.csv.substr(corpus.csv.find('\n') + 1);
  std::vector<RepairReport> reports;
  for (const size_t bytes : {size_t{2} << 20, size_t{8} << 20}) {
    std::string csv = corpus.csv;
    while (csv.size() < bytes) csv += body;
    const StatusOr<StreamRun> run =
        RunStream(csv, corpus.data.pool, *corpus.dict,
                  {.chunk_rows = RepairConfig::kWholeFile});
    ASSERT_TRUE(run.ok()) << bytes << ": " << run.status().message();
    reports.push_back(run->result);
  }
  const RepairReport& small = reports[0];
  const RepairReport& large = reports[1];
  EXPECT_GT(small.peak_chunk_bytes, 0u);
  EXPECT_EQ(small.peak_chunk_bytes, large.peak_chunk_bytes);
  EXPECT_LE(large.peak_chunk_bytes, bound);
  EXPECT_GE(small.chunks, 2u);
  EXPECT_GT(large.chunks, small.chunks);
  EXPECT_GT(large.rows, 3 * small.rows);
}

// A whole-file chunk under the lenient multi-slot driver: quarantine
// diagnostics and bytes match the in-memory lenient run, with failing
// tuples scattered across the pool workers' row ranges.
TEST_F(StreamingQuarantineTest, WholeFileWithQuarantineMatchesInMemory) {
  const size_t rows = 2 * RowStore::kRowsPerBlock + 700;
  Table table(schema_, pool_);
  for (size_t r = 0; r < rows; ++r) {
    switch (r % 5) {
      case 0:
        table.AppendRowStrings({"China", "Shanghai", "x"});
        break;
      case 3:  // cascade: budget-exhausted under max_chase_steps = 1
        table.AppendRowStrings({"Chn", "Hongkong", "flag"});
        break;
      default:
        table.AppendRowStrings({"France", "Paris", "y"});
        break;
    }
  }
  const std::string input_csv = ToCsv(table);
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);

  Table reference = table;
  VectorQuarantineSink reference_sink;
  RepairDriver reference_driver(*dict, LenientConfig(&reference_sink));
  reference_driver.Run(&reference);
  ASSERT_GT(reference_driver.failures().size(), 0u);
  const std::string want = ToCsv(reference);

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const std::string context = "threads=" + std::to_string(threads);
    const StatusOr<StreamRun> run =
        RunStream(input_csv, pool_, *dict,
                  {.chunk_rows = ~size_t{0},
                   .threads = threads,
                   .on_error = OnErrorPolicy::kQuarantine,
                   .max_chase_steps = 1});
    ASSERT_TRUE(run.ok()) << context << ": " << run.status().message();
    ASSERT_EQ(run->csv, want) << context;
    EXPECT_EQ(run->result.tuples_quarantined,
              reference_driver.failures().size())
        << context;
    ExpectSameDiagnostics(run->tuple_diagnostics,
                          reference_sink.diagnostics(), context);
  }
}

}  // namespace
}  // namespace fixrep
