// The chunked streaming repair pipeline (repair/streaming.h, run through
// RepairSession::RepairStream): for every
// chunk size, engine width, and error policy, the streamed output —
// repaired CSV bytes AND quarantine diagnostics — is bit-identical to
// repairing the whole table in memory and writing it out.

#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/metric_scope.h"
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
#include "repair/recovery.h"
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

// Limits the calling thread to the CPU it is on while in scope, as
// `taskset -c` limits a process; a stream started here reads its chunks
// on the calling thread.
class OneCpuForThisThread {
 public:
  OneCpuForThisThread() {
    FIXREP_CHECK(sched_getaffinity(0, sizeof(saved_), &saved_) == 0);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    FIXREP_CHECK(sched_setaffinity(0, sizeof(one), &one) == 0);
  }
  ~OneCpuForThisThread() { sched_setaffinity(0, sizeof(saved_), &saved_); }

  OneCpuForThisThread(const OneCpuForThisThread&) = delete;
  OneCpuForThisThread& operator=(const OneCpuForThisThread&) = delete;

 private:
  cpu_set_t saved_;
};

bool ThisThreadMayUseSeveralCpus() {
  cpu_set_t allowed;
  return sched_getaffinity(0, sizeof(allowed), &allowed) == 0 &&
         CPU_COUNT(&allowed) > 1;
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
  std::string rule_text;  // the mined rules, as WriteRules writes them
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
  const RuleSet rules =
      GenerateRules(corpus.data.clean, dirty, corpus.data.fds, rulegen);
  corpus.dict = RuleDict::CompileOrDie(rules);
  std::ostringstream rule_text;
  WriteRules(rules, rule_text);
  corpus.rule_text = rule_text.str();
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


// ------------------------------------------------- pipelined hand-off --
//
// The reader thread reads chunk k+1 while chunk k is repaired, journaled
// and emitted. Everything a caller can see must stay as the serial
// read -> repair -> emit loop left it.

// One sink for CSV and tuple diagnostics sees, per chunk, the chunk's
// CSV diagnostics and then its tuple diagnostics: never a later chunk's
// CSV diagnostics before an earlier chunk's tuple ones.
TEST_F(StreamingQuarantineTest, OneSinkSeesEachChunksCsvThenTupleDiagnostics) {
  const std::string input_csv =
      "country,capital,name\n"
      "China,Shanghai,x\n"       // record 0 -> row 0
      "bad,row,with,too,many\n"  // record 1: arity mismatch
      "Chn,Shanghai,flag\n"      // record 2 -> row 1, budget fail
      "France,Paris\n"           // record 3: arity mismatch
      "Chn,Hongkong,flag\n"      // record 4 -> row 2, budget fail
      "France,Paris,y\n";        // record 5 -> row 3
  VectorQuarantineSink csv_reference;
  std::istringstream reference_in(input_csv);
  StatusOr<Table> reference = ReadCsvLenient(
      reference_in, "R", pool_, {OnErrorPolicy::kQuarantine, &csv_reference});
  ASSERT_TRUE(reference.ok());
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  VectorQuarantineSink tuple_reference;
  RepairDriver(*dict, LenientConfig(&tuple_reference)).Run(&reference.value());
  const std::vector<Diagnostic>& csv = csv_reference.diagnostics();
  const std::vector<Diagnostic>& tuples = tuple_reference.diagnostics();
  ASSERT_EQ(csv.size(), 2u);
  ASSERT_EQ(tuples.size(), 2u);

  // Chunks of 1 or 2 rows put records 1-2 in one chunk and 3-4 in a
  // later one; a chunk of 3 rows holds records 0-4.
  const std::vector<Diagnostic> interleaved = {csv[0], tuples[0], csv[1],
                                               tuples[1]};
  const std::vector<Diagnostic> one_chunk = {csv[0], csv[1], tuples[0],
                                             tuples[1]};
  for (const size_t chunk_rows : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const std::string context = "chunk_rows=" + std::to_string(chunk_rows) +
                                  " threads=" + std::to_string(threads);
      VectorQuarantineSink sink;
      std::istringstream in(input_csv);
      StatusOr<CsvChunkReader> reader = CsvChunkReader::Open(
          in, "stream", pool_, {OnErrorPolicy::kQuarantine, &sink});
      ASSERT_TRUE(reader.ok());
      RepairConfig config = LenientConfig(&sink);
      config.chunk_rows = chunk_rows;
      config.threads = threads;
      RepairSession session(dict.get(), config);
      std::ostringstream out;
      ASSERT_TRUE(session.RepairStream(&reader.value(), out).ok()) << context;
      EXPECT_EQ(out.str(), ToCsv(reference.value())) << context;
      EXPECT_EQ(reader->quarantine(), &sink) << context;  // handed back
      ExpectSameDiagnostics(sink.diagnostics(),
                            chunk_rows == 3 ? one_chunk : interleaved,
                            context);
    }
  }
}

// Values new to the pool are interned chunk by chunk in first-occurrence
// order at each hand-off, so after a stream the pool holds the strings a
// whole-table read gives, at the same ids, and the memo (which hashes
// ids) hits and misses exactly as often.
TEST_F(StreamingTest, PoolIdsAndMemoCountsMatchAWholeTableRead) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  const SpliceCorpus corpus = MakeSpliceCorpus(3);

  auto memo_counts = [] {
    return std::pair(CounterValue("fixrep.memo.hits"),
                     CounterValue("fixrep.memo.misses"));
  };
  // Whole-table reference: rules parsed into a fresh pool, then the
  // table read into it and repaired.
  auto want_pool = std::make_shared<ValuePool>();
  const RuleSet want_rules =
      ParseRulesFromString(corpus.rule_text, corpus.data.schema, want_pool);
  std::istringstream want_in(corpus.csv);
  StatusOr<Table> table = ReadCsvLenient(want_in, "stream", want_pool);
  ASSERT_TRUE(table.ok());
  MetricsRegistry::Global().ResetAllForTest();
  RepairSession want_session(&want_rules, RepairConfig{});
  ASSERT_TRUE(want_session.Repair(&table.value()).ok());
  const auto want_memo = memo_counts();
  EXPECT_GT(want_memo.first, 0u);
  EXPECT_GT(want_pool->size(), want_rules.size());

  // On one CPU the chunks are read on the calling thread instead.
  for (const bool one_cpu : {false, true}) {
    for (const size_t chunk_rows :
         {size_t{1}, size_t{7}, size_t{4096}, RepairConfig::kWholeFile}) {
      const std::string context = "chunk_rows=" + std::to_string(chunk_rows) +
                                  (one_cpu ? " one CPU" : "");
      auto pool = std::make_shared<ValuePool>();
      const RuleSet rules =
          ParseRulesFromString(corpus.rule_text, corpus.data.schema, pool);
      const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
      MetricsRegistry::Global().ResetAllForTest();
      std::optional<OneCpuForThisThread> pinned;
      if (one_cpu) pinned.emplace();
      const StatusOr<StreamRun> run =
          RunStream(corpus.csv, pool, *dict, {.chunk_rows = chunk_rows});
      pinned.reset();
      ASSERT_TRUE(run.ok()) << context << ": " << run.status().message();
      EXPECT_EQ(run->csv, ToCsv(table.value())) << context;
      EXPECT_EQ(memo_counts(), want_memo) << context;
      ASSERT_EQ(pool->size(), want_pool->size()) << context;
      for (size_t id = 0; id < pool->size(); ++id) {
        ASSERT_EQ(pool->GetString(static_cast<ValueId>(id)),
                  want_pool->GetString(static_cast<ValueId>(id)))
            << context << " id " << id;
      }
    }
  }
}

// Where chunks are read follows only from the caller's CPU affinity: a
// caller limited to one CPU reads every chunk itself, one that may use
// more has every data chunk read on the reader thread. The output is the
// same either way.
TEST_F(StreamingQuarantineTest, ReadsOnTheCallingThreadExactlyOnOneCpu) {
  // Records the threads that read from it.
  class ReaderRecorder : public std::stringbuf {
   public:
    explicit ReaderRecorder(const std::string& bytes)
        : std::stringbuf(bytes, std::ios::in) {}
    std::vector<std::thread::id> readers() {
      std::lock_guard<std::mutex> lock(mu_);
      return readers_;
    }

   protected:
    std::streamsize xsgetn(char* out, std::streamsize n) override {
      {
        std::lock_guard<std::mutex> lock(mu_);
        readers_.push_back(std::this_thread::get_id());
      }
      return std::stringbuf::xsgetn(out, n);
    }

   private:
    std::mutex mu_;
    std::vector<std::thread::id> readers_;
  };

  // Longer than a refill block, so data chunks read from the stream.
  std::string input_csv = "country,capital,name\n";
  while (input_csv.size() < 3 * CsvChunkReader::kReadBlockBytes) {
    input_csv += "China,Shanghai,x\nFrance,Paris,y\n";
  }
  std::istringstream want_in(input_csv);
  StatusOr<Table> want = ReadCsvLenient(want_in, "stream", pool_);
  ASSERT_TRUE(want.ok());
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  RepairDriver(*dict, RepairConfig{}).Run(&want.value());

  for (const bool one_cpu : {true, false}) {
    if (!one_cpu && !ThisThreadMayUseSeveralCpus()) {
      GTEST_SKIP() << "the test process may use one CPU only";
    }
    const std::string context = one_cpu ? "one CPU" : "several CPUs";
    ReaderRecorder input(input_csv);
    std::istream in(&input);
    std::optional<OneCpuForThisThread> pinned;
    if (one_cpu) pinned.emplace();
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(in, "stream", pool_);
    ASSERT_TRUE(reader.ok()) << context;
    RepairConfig config;
    config.chunk_rows = 4096;
    RepairSession session(dict.get(), config);
    std::ostringstream out;
    const StatusOr<RepairReport> report =
        session.RepairStream(&reader.value(), out);
    pinned.reset();
    ASSERT_TRUE(report.ok()) << context << ": " << report.status();
    EXPECT_EQ(out.str(), ToCsv(want.value())) << context;
    const std::vector<std::thread::id> readers = input.readers();
    // The first read is Open's, on the calling thread.
    ASSERT_GT(readers.size(), 2u) << context;
    EXPECT_EQ(readers[0], std::this_thread::get_id()) << context;
    for (size_t i = 1; i < readers.size(); ++i) {
      if (one_cpu) {
        EXPECT_EQ(readers[i], std::this_thread::get_id()) << context;
      } else {
        EXPECT_NE(readers[i], std::this_thread::get_id()) << context;
      }
    }
  }
}

// The reader thread's counters (bytes parsed, fallback records, dropped
// rows) land in the registry of the calling thread's MetricScope, as a
// serial read's would, and none reach the global registry.
TEST_F(StreamingQuarantineTest, ReaderCountersLandInTheCallersScope) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  const std::string input_csv =
      "country,capital,name\n"
      "China,Shanghai,x\n"
      "bad,row,with,too,many\n"
      "\"China\",Hongkong,y\n"
      "France,Paris\n"
      "France,Paris,z\n";
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  for (const size_t chunk_rows : {size_t{1}, size_t{2}, size_t{10}}) {
    const std::string context = "chunk_rows=" + std::to_string(chunk_rows);
    MetricsRegistry::Global().ResetAllForTest();
    MetricScope scope;
    {
      MetricScope::Activation active(&scope);
      const StatusOr<StreamRun> run =
          RunStream(input_csv, pool_, *dict,
                    {.chunk_rows = chunk_rows,
                     .csv_policy = OnErrorPolicy::kSkip});
      ASSERT_TRUE(run.ok()) << context << ": " << run.status().message();
    }
    const MetricsRegistry& local = scope.registry();
    auto local_value = [&](const char* name) {
      const Counter* counter = local.FindCounter(name);
      return counter == nullptr ? uint64_t{0} : counter->Value();
    };
    EXPECT_EQ(local_value("fixrep.csv.bytes_parsed"), input_csv.size())
        << context;
    // Both dropped records and the quoted one go to the tokenizer.
    EXPECT_EQ(local_value("fixrep.csv.records_fallback"), 3u) << context;
    EXPECT_EQ(local_value("fixrep.quarantine.rows"), 2u) << context;
    EXPECT_EQ(local_value("fixrep.streaming.rows"), 3u) << context;
    for (const char* name :
         {"fixrep.csv.bytes_parsed", "fixrep.csv.records_fallback",
          "fixrep.quarantine.rows", "fixrep.streaming.rows"}) {
      EXPECT_EQ(CounterValue(name), 0u) << context << " " << name;
    }
  }
}

// A malformed record in chunk k+1 under kAbort is read while chunk k is
// processed, but its error comes back only after chunk k has been
// journaled and emitted: the same Status a whole-table read returns, and
// the WAL and output a serial loop would leave.
TEST_F(StreamingQuarantineTest, NextChunksReadErrorLeavesThisChunkCommitted) {
  const std::string input_csv =
      "country,capital,name\n"
      "China,Shanghai,a\n"  // chunk 1
      "China,Hongkong,b\n"
      "France,Paris,c\n"    // chunk 2
      "China,Shanghai,d\n"
      "China,Shanghai\n";   // chunk 3: arity mismatch
  std::istringstream want_in(input_csv);
  const StatusOr<Table> want = ReadCsvLenient(want_in, "stream", pool_);
  ASSERT_FALSE(want.ok());
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const std::string context = "threads=" + std::to_string(threads);
    const std::string wal = testing::TestTempPath(
        "next_chunk_error_" + std::to_string(threads) + ".wal");
    std::istringstream in(input_csv);
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(in, "stream", pool_, {});
    ASSERT_TRUE(reader.ok());
    RepairConfig config;
    config.chunk_rows = 2;
    config.threads = threads;
    config.wal_path = wal;
    RepairSession session(dict.get(), config);
    std::ostringstream out;
    const StatusOr<RepairReport> report =
        session.RepairStream(&reader.value(), out);
    ASSERT_FALSE(report.ok()) << context;
    EXPECT_EQ(report.status(), want.status()) << context;
    EXPECT_EQ(out.str(),
              "country,capital,name\n"
              "China,Beijing,a\n"
              "China,Beijing,b\n"
              "France,Paris,c\n"
              "China,Beijing,d\n")
        << context;
    const StatusOr<RecoveredRun> scanned = ScanWal(wal);
    ASSERT_TRUE(scanned.ok()) << context << ": " << scanned.status();
    ASSERT_EQ(scanned->chunks.size(), 2u) << context;
    EXPECT_EQ(scanned->chunks[1].base_row, 2u) << context;
    EXPECT_EQ(scanned->chunks[1].rows, 2u) << context;
    EXPECT_EQ(scanned->rows_durable(), 4u) << context;
  }
}

// An input stream tied to the output (std::cin to std::cout) is read on
// the stream's reader thread without flushing the output: only the
// calling thread touches the output stream.
TEST_F(StreamingQuarantineTest, ReaderThreadNeverFlushesATiedOutput) {
  // Records the threads that flush it; the bytes go to a string.
  class SyncRecorder : public std::stringbuf {
   public:
    std::vector<std::thread::id> syncers() {
      std::lock_guard<std::mutex> lock(mu_);
      return syncers_;
    }

   protected:
    int sync() override {
      std::lock_guard<std::mutex> lock(mu_);
      syncers_.push_back(std::this_thread::get_id());
      return std::stringbuf::sync();
    }

   private:
    std::mutex mu_;
    std::vector<std::thread::id> syncers_;
  };

  // Longer than a refill block, so data chunks read from the stream.
  std::string input_csv = "country,capital,name\n";
  while (input_csv.size() < 3 * CsvChunkReader::kReadBlockBytes) {
    input_csv += "China,Shanghai,x\nFrance,Paris,y\n";
  }
  std::istringstream want_in(input_csv);
  StatusOr<Table> want = ReadCsvLenient(want_in, "stream", pool_);
  ASSERT_TRUE(want.ok());
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  RepairDriver(*dict, RepairConfig{}).Run(&want.value());
  for (const size_t chunk_rows : {size_t{1000}, RepairConfig::kWholeFile}) {
    const std::string context = "chunk_rows=" + std::to_string(chunk_rows);
    SyncRecorder recorder;
    std::ostream out(&recorder);
    std::istringstream in(input_csv);
    in.tie(&out);
    StatusOr<CsvChunkReader> reader = CsvChunkReader::Open(in, "stream", pool_);
    ASSERT_TRUE(reader.ok()) << context;
    RepairConfig config;
    config.chunk_rows = chunk_rows;
    RepairSession session(dict.get(), config);
    const StatusOr<RepairReport> report =
        session.RepairStream(&reader.value(), out);
    ASSERT_TRUE(report.ok()) << context << ": " << report.status();
    EXPECT_EQ(recorder.str(), ToCsv(want.value())) << context;
    for (const std::thread::id syncer : recorder.syncers()) {
      EXPECT_EQ(syncer, std::this_thread::get_id()) << context;
    }
  }
}

// The reader thread reads chunk k+1 while chunk k is written, and a
// stream's reads cannot be cancelled: when writing chunk k fails while
// the reader thread waits on a stalled input, the error comes back once
// that read ends (here, the input is closed), never before, and the
// reader thread is joined, not left behind.
TEST_F(StreamingQuarantineTest, ErrorWaitsForAStalledNextRead) {
  if (!ThisThreadMayUseSeveralCpus()) {
    GTEST_SKIP() << "on one CPU the calling thread reads: nothing reads ahead";
  }
  // Serves `bytes`, then blocks a read past them until Close().
  class StallingInput : public std::streambuf {
   public:
    explicit StallingInput(std::string bytes) : bytes_(std::move(bytes)) {
      setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
    }
    // Waits up to `timeout` for a read to stall.
    bool WaitForStall(std::chrono::milliseconds timeout) {
      std::unique_lock<std::mutex> lock(mu_);
      return cv_.wait_for(lock, timeout, [this] { return stalled_; });
    }
    void Close() {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      cv_.notify_all();
    }
    bool closed() {
      std::lock_guard<std::mutex> lock(mu_);
      return closed_;
    }

   protected:
    int_type underflow() override {
      std::unique_lock<std::mutex> lock(mu_);
      stalled_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return closed_; });
      return traits_type::eof();
    }

   private:
    std::string bytes_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stalled_ = false;
    bool closed_ = false;
  };

  // The first refill block holds chunk 1 whole; chunk 2 runs past the
  // bytes served before the stall.
  constexpr size_t kChunkRows = 4000;
  const std::string header = "country,capital,name\n";
  const std::string row = "China,Shanghai,abcdefghijklmnopqrstuvwxyz\n";
  std::string input_csv = header;
  while (input_csv.size() < CsvChunkReader::kReadBlockBytes + 4096) {
    input_csv += row;
  }
  ASSERT_LT(header.size() + kChunkRows * row.size(),
            CsvChunkReader::kReadBlockBytes);
  ASSERT_LT(input_csv.size(), header.size() + 2 * kChunkRows * row.size());
  StallingInput input(input_csv);
  std::istream in(&input);
  StatusOr<CsvChunkReader> reader = CsvChunkReader::Open(in, "stream", pool_);
  ASSERT_TRUE(reader.ok());
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules_);
  RepairConfig config;
  config.chunk_rows = kChunkRows;
  RepairSession session(dict.get(), config);
  std::ostringstream out;
  out.setstate(std::ios::badbit);  // every write fails

  bool stalled = false;
  std::thread closer([&] {
    stalled = input.WaitForStall(std::chrono::seconds(30));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    input.Close();
  });
  const StatusOr<RepairReport> report =
      session.RepairStream(&reader.value(), out);
  const bool closed_before_return = input.closed();
  closer.join();
  EXPECT_TRUE(stalled);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError) << report.status();
  EXPECT_NE(report.status().message().find("writing the repaired stream"),
            std::string::npos)
      << report.status();
  EXPECT_TRUE(closed_before_return);
}

}  // namespace
}  // namespace fixrep
