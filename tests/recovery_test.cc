// Durable streaming repair (repair/recovery.h): WAL record round trips,
// scan semantics for crash residue, resumed runs that are byte-identical
// to uninterrupted ones across chunk sizes, engine widths, and error
// policies, rule-level rollback, and a kill-and-resume harness that
// SIGKILLs a real fixrep_cli child at every crash site.

#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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
#include "common/wal.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "repair/provenance.h"
#include "repair/recovery.h"
#include "repair/session.h"
#include "repair/streaming.h"
#include "rulegen/rulegen.h"
#include "rules/rule_io.h"
#include "testing_util.h"

namespace fixrep {
namespace {

std::string ToCsv(const Table& table) {
  std::ostringstream out;
  WriteCsv(table, out);
  return out.str();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

// One streaming run through the RepairSession facade, optionally
// journaled to / resumed from a WAL. Output goes to a string so byte
// comparisons are exact.
struct DurableConfig {
  size_t chunk_rows = 1;
  size_t threads = 1;
  OnErrorPolicy on_error = OnErrorPolicy::kAbort;
  size_t max_chase_steps = 0;
  std::string wal_path;
  bool resume = false;
};

struct DurableRun {
  std::string csv;
  RepairReport report;
  std::vector<Diagnostic> tuple_diagnostics;
};

StatusOr<DurableRun> RunDurable(const std::string& csv_text,
                                std::shared_ptr<ValuePool> pool,
                                const RuleSet& rules,
                                const DurableConfig& config) {
  VectorQuarantineSink tuple_sink;
  std::istringstream in(csv_text);
  StatusOr<CsvChunkReader> reader =
      CsvChunkReader::Open(in, "stream", std::move(pool), {});
  if (!reader.ok()) return reader.status();
  RepairConfig repair;
  repair.threads = config.threads;
  repair.on_error = config.on_error;
  if (config.on_error == OnErrorPolicy::kQuarantine) {
    repair.quarantine = &tuple_sink;
  }
  repair.max_chase_steps = config.max_chase_steps;
  repair.chunk_rows = config.chunk_rows;
  repair.wal_path = config.wal_path;
  repair.resume = config.resume;
  RepairSession session(&rules, repair);
  std::ostringstream out;
  StreamInput input(&reader.value(), repair.chunk_rows);
  StatusOr<RepairReport> report = session.RepairStream(&input, out);
  if (!report.ok()) return report.status();
  DurableRun run;
  run.csv = out.str();
  run.report = report.value();
  run.tuple_diagnostics = tuple_sink.diagnostics();
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

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kFaultInjectionEnabled) FaultRegistry::Global().DisarmAll();
    MetricsRegistry::Global().ResetAllForTest();
  }
  void TearDown() override {
    if (kFaultInjectionEnabled) FaultRegistry::Global().DisarmAll();
  }

  // Files live in the test's own directory, removed (staging files of
  // killed children included) when the test ends.
  std::string TempPath(const std::string& name) {
    return testing::TestTempPath(name);
  }
};

// ----------------------------------------------------------- fingerprint --

TEST_F(RecoveryTest, FingerprintIsStableAndDiscriminates) {
  TravelExample example;
  EXPECT_EQ(RuleSetFingerprint(example.rules),
            RuleSetFingerprint(example.rules));
  RuleSet other(example.schema, example.pool);
  for (size_t i = 0; i + 1 < example.rules.size(); ++i) {
    other.Add(example.rules.rule(i));  // same rules minus the last
  }
  EXPECT_NE(RuleSetFingerprint(example.rules), RuleSetFingerprint(other));
}

// The fingerprint must be a property of the rules alone, not of the
// pool that parsed them: negative_patterns is ValueId-sorted, and ids
// shift with whatever the pool interned earlier (BuildAudit interns
// every journaled delta value before `audit --rules` parses the file).
TEST_F(RecoveryTest, FingerprintIgnoresPoolInterningOrder) {
  TravelExample example;
  const std::string text = SerializeRules(example.rules);

  auto fresh_pool = std::make_shared<ValuePool>();
  const RuleSet fresh =
      ParseRulesFromString(text, example.schema, fresh_pool);
  EXPECT_EQ(RuleSetFingerprint(example.rules), RuleSetFingerprint(fresh));

  // Pre-interning the same strings in reverse hands every rule value a
  // different id order, reordering each ValueId-sorted negative set.
  auto salted_pool = std::make_shared<ValuePool>();
  salted_pool->Intern("unrelated-delta-value");
  for (size_t id = fresh_pool->size(); id-- > 0;) {
    salted_pool->Intern(fresh_pool->GetString(static_cast<ValueId>(id)));
  }
  const RuleSet salted =
      ParseRulesFromString(text, example.schema, salted_pool);
  EXPECT_EQ(RuleSetFingerprint(fresh), RuleSetFingerprint(salted));
}

// -------------------------------------------------- journal / scan round trip --

TEST_F(RecoveryTest, JournalThenScanRecoversEveryField) {
  const std::string path = TempPath("roundtrip.wal");
  WalRunHeader header;
  header.rule_fingerprint = 0xFEEDFACEu;
  header.attribute_names = {"country", "capital"};
  header.chunk_rows = 2;
  header.on_error = static_cast<uint8_t>(OnErrorPolicy::kQuarantine);

  WalCellDelta delta;
  delta.row = 1;
  delta.attr = 1;
  delta.old_is_null = false;
  delta.old_value = "Shanghai";
  delta.new_value = "Beijing";
  delta.rule_index = 3;
  Diagnostic diagnostic{7, StatusCode::kBudgetExhausted, "chase budget",
                        "Chn,Shanghai"};
  {
    StatusOr<ChunkJournal> journal = ChunkJournal::Create(path, header);
    ASSERT_TRUE(journal.ok()) << journal.status().message();
    ASSERT_TRUE(journal->BeginChunk(1, 0, 2).ok());
    ASSERT_TRUE(journal->AddDelta(delta).ok());
    ASSERT_TRUE(journal->Commit(1, 2, 1, 0).ok());
    ASSERT_TRUE(journal->BeginChunk(2, 2, 1).ok());
    ASSERT_TRUE(journal->AddQuarantine(diagnostic).ok());
    ASSERT_TRUE(journal->Commit(2, 1, 0, 1).ok());
    ASSERT_TRUE(journal->Close().ok());
    EXPECT_GE(journal->fsync_count(), 3u);  // header + one per commit
  }

  StatusOr<RecoveredRun> run = ScanWal(path);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->header.rule_fingerprint, 0xFEEDFACEu);
  EXPECT_EQ(run->header.attribute_names, header.attribute_names);
  EXPECT_EQ(run->header.chunk_rows, 2u);
  EXPECT_EQ(run->header.on_error,
            static_cast<uint8_t>(OnErrorPolicy::kQuarantine));
  EXPECT_FALSE(run->tail_discarded);
  ASSERT_EQ(run->chunks.size(), 2u);
  EXPECT_EQ(run->rows_durable(), 3u);
  const WalChunk& first = run->chunks[0];
  EXPECT_EQ(first.chunk_index, 1u);
  EXPECT_EQ(first.base_row, 0u);
  EXPECT_EQ(first.rows, 2u);
  EXPECT_EQ(first.cells_changed, 1u);
  ASSERT_EQ(first.deltas.size(), 1u);
  EXPECT_EQ(first.deltas[0], delta);
  const WalChunk& second = run->chunks[1];
  EXPECT_EQ(second.tuples_quarantined, 1u);
  ASSERT_EQ(second.quarantined.size(), 1u);
  EXPECT_EQ(second.quarantined[0].line, 7u);
  EXPECT_EQ(second.quarantined[0].code, StatusCode::kBudgetExhausted);
  EXPECT_EQ(second.quarantined[0].message, "chase budget");
  EXPECT_EQ(second.quarantined[0].raw_text, "Chn,Shanghai");
}

TEST_F(RecoveryTest, UncommittedChunkIsDiscardedAsTail) {
  const std::string path = TempPath("uncommitted.wal");
  WalRunHeader header;
  header.attribute_names = {"a"};
  header.chunk_rows = 1;
  uint64_t durable_after_commit = 0;
  {
    StatusOr<ChunkJournal> journal = ChunkJournal::Create(path, header);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->BeginChunk(1, 0, 1).ok());
    ASSERT_TRUE(journal->Commit(1, 1, 0, 0).ok());
    durable_after_commit = journal->appended_bytes();
    // Chunk 2 never commits: Close flushes its records to disk anyway,
    // exactly like a crash after the appends.
    ASSERT_TRUE(journal->BeginChunk(2, 1, 1).ok());
    ASSERT_TRUE(journal->AddDelta({}).ok());
    ASSERT_TRUE(journal->Close().ok());
  }
  StatusOr<RecoveredRun> run = ScanWal(path);
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_EQ(run->chunks.size(), 1u);
  EXPECT_TRUE(run->tail_discarded);
  EXPECT_EQ(run->durable_bytes, durable_after_commit);
}

TEST_F(RecoveryTest, CorruptedMiddleByteShrinksTheDurablePrefix) {
  const std::string path = TempPath("corrupt.wal");
  WalRunHeader header;
  header.attribute_names = {"a"};
  header.chunk_rows = 1;
  {
    StatusOr<ChunkJournal> journal = ChunkJournal::Create(path, header);
    ASSERT_TRUE(journal.ok());
    for (uint64_t c = 1; c <= 3; ++c) {
      ASSERT_TRUE(journal->BeginChunk(c, c - 1, 1).ok());
      ASSERT_TRUE(journal->Commit(c, 1, 0, 0).ok());
    }
    ASSERT_TRUE(journal->Close().ok());
  }
  std::string bytes = ReadFileBytes(path);
  // Flip one bit in the last chunk's region: its CRC fails, the scan
  // keeps the first two chunks and reports the rest as discarded tail.
  bytes[bytes.size() - 10] ^= 0x01;
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  StatusOr<RecoveredRun> run = ScanWal(path);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->chunks.size(), 2u);
  EXPECT_TRUE(run->tail_discarded);
}

TEST_F(RecoveryTest, ValidateWalHeaderRefusesEveryMismatch) {
  WalRunHeader header;
  header.rule_fingerprint = 11;
  header.attribute_names = {"a", "b"};
  header.chunk_rows = 8;
  header.on_error = static_cast<uint8_t>(OnErrorPolicy::kAbort);
  const std::vector<std::string> attrs = {"a", "b"};
  EXPECT_TRUE(ValidateWalHeader(header, 11, attrs, 8, OnErrorPolicy::kAbort)
                  .ok());
  EXPECT_EQ(
      ValidateWalHeader(header, 12, attrs, 8, OnErrorPolicy::kAbort).code(),
      StatusCode::kMalformedInput);
  EXPECT_EQ(ValidateWalHeader(header, 11, {"a"}, 8, OnErrorPolicy::kAbort)
                .code(),
            StatusCode::kMalformedInput);
  EXPECT_EQ(
      ValidateWalHeader(header, 11, attrs, 9, OnErrorPolicy::kAbort).code(),
      StatusCode::kMalformedInput);
  EXPECT_EQ(ValidateWalHeader(header, 11, attrs, 8,
                              OnErrorPolicy::kQuarantine)
                .code(),
            StatusCode::kMalformedInput);
}

// A chunk-size mismatch names both sizes as --chunk-rows takes them and
// the flag that resumes the WAL, whole-file included, on either side.
TEST_F(RecoveryTest, ChunkSizeMismatchNamesTheFlagToPass) {
  WalRunHeader header;
  header.rule_fingerprint = 11;
  header.attribute_names = {"a", "b"};
  header.chunk_rows = RepairConfig::kWholeFile;
  header.on_error = static_cast<uint8_t>(OnErrorPolicy::kAbort);
  const std::vector<std::string> attrs = {"a", "b"};
  Status status =
      ValidateWalHeader(header, 11, attrs, 65536, OnErrorPolicy::kAbort);
  EXPECT_EQ(status.code(), StatusCode::kMalformedInput);
  EXPECT_EQ(status.message(),
            "WAL was written with --chunk-rows whole-file, this run uses "
            "65536; chunk boundaries must match to resume (pass "
            "--chunk-rows whole-file)");

  header.chunk_rows = 4096;
  status = ValidateWalHeader(header, 11, attrs, RepairConfig::kWholeFile,
                             OnErrorPolicy::kAbort);
  EXPECT_EQ(status.code(), StatusCode::kMalformedInput);
  EXPECT_EQ(status.message(),
            "WAL was written with --chunk-rows 4096, this run uses "
            "whole-file; chunk boundaries must match to resume (pass "
            "--chunk-rows 4096)");
}

// ------------------------------------------------------------------ audit --

TEST_F(RecoveryTest, AuditRendersGlobalRowsFromTheLogAlone) {
  TravelExample example;
  const std::string wal = TempPath("audit.wal");
  const std::string dirty_csv = ToCsv(example.dirty);
  const StatusOr<DurableRun> run =
      RunDurable(dirty_csv, example.pool, example.rules,
                 {.chunk_rows = 2, .wal_path = wal});
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_GT(run->report.cells_changed, 0u);

  StatusOr<RecoveredRun> scanned = ScanWal(wal);
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(ValidateWalFingerprint(scanned->header, example.rules).ok());
  StatusOr<WalAudit> audit = BuildAudit(scanned.value());
  ASSERT_TRUE(audit.ok()) << audit.status().message();
  EXPECT_EQ(audit->log.repairs.size(), run->report.cells_changed);
  EXPECT_EQ(audit->schema->attribute_names(),
            example.schema->attribute_names());
  // Every journaled repair is attributable and describable offline.
  const std::vector<size_t> per_rule =
      audit->log.PerRuleCounts(example.rules.size());
  size_t attributed = 0;
  for (const size_t count : per_rule) attributed += count;
  EXPECT_EQ(attributed, audit->log.repairs.size());
  for (const CellRepair& repair : audit->log.repairs) {
    EXPECT_FALSE(
        audit->log.Describe(repair, *audit->schema, *audit->pool).empty());
  }
}

// PerRuleCounts must tolerate rule indices from a reloaded (smaller)
// rule set instead of CHECK-failing: the fingerprint gate, not the
// counter, is what rejects mismatched rules.
TEST_F(RecoveryTest, PerRuleCountsSkipsOutOfRangeRuleIndices) {
  RepairLog log;
  log.repairs.push_back({.row = 0, .attr = 0, .rule_index = 0});
  log.repairs.push_back({.row = 1, .attr = 0, .rule_index = 99});
  const std::vector<size_t> counts = log.PerRuleCounts(2);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 0u);  // the out-of-range repair is skipped
}

// --------------------------------------------------------------- rollback --

TEST_F(RecoveryTest, RollbackThenRepairRestoresTheRepairedBytes) {
  TravelExample example;
  const std::string wal = TempPath("rollback.wal");
  const std::string repaired_path = TempPath("rollback_repaired.csv");
  const std::string rolled_path = TempPath("rollback_rolled.csv");
  const std::string dirty_csv = ToCsv(example.dirty);
  const StatusOr<DurableRun> run =
      RunDurable(dirty_csv, example.pool, example.rules,
                 {.chunk_rows = 2, .wal_path = wal});
  ASSERT_TRUE(run.ok()) << run.status().message();
  std::ofstream(repaired_path) << run->csv;

  StatusOr<RecoveredRun> scanned = ScanWal(wal);
  ASSERT_TRUE(scanned.ok());
  StatusOr<WalAudit> audit = BuildAudit(scanned.value());
  ASSERT_TRUE(audit.ok());

  for (size_t rule = 0; rule < example.rules.size(); ++rule) {
    size_t expected = 0;
    for (const CellRepair& repair : audit->log.repairs) {
      if (repair.rule_index == rule) ++expected;
    }
    StatusOr<RollbackReport> report = RollbackRule(
        scanned.value(), example.rules, rule, repaired_path, rolled_path);
    ASSERT_TRUE(report.ok()) << "rule=" << rule << ": "
                             << report.status().message();
    EXPECT_EQ(report->cells_restored, expected) << "rule=" << rule;
    if (expected == 0) continue;
    // Re-repairing the rolled-back file restores the repaired bytes.
    const StatusOr<DurableRun> again =
        RunDurable(ReadFileBytes(rolled_path), example.pool, example.rules,
                   {.chunk_rows = 2});
    ASSERT_TRUE(again.ok()) << "rule=" << rule;
    EXPECT_EQ(again->csv, run->csv) << "rule=" << rule;
  }
}

TEST_F(RecoveryTest, RollbackRefusesWrongRulesEditedFilesAndBadIndices) {
  TravelExample example;
  const std::string wal = TempPath("refuse.wal");
  const std::string repaired_path = TempPath("refuse_repaired.csv");
  const std::string out_path = TempPath("refuse_out.csv");
  const StatusOr<DurableRun> run =
      RunDurable(ToCsv(example.dirty), example.pool, example.rules,
                 {.chunk_rows = 2, .wal_path = wal});
  ASSERT_TRUE(run.ok());
  std::ofstream(repaired_path) << run->csv;
  StatusOr<RecoveredRun> scanned = ScanWal(wal);
  ASSERT_TRUE(scanned.ok());

  // Different rule set: fingerprint gate.
  RuleSet other(example.schema, example.pool);
  other.Add(example.rules.rule(0));
  EXPECT_EQ(RollbackRule(scanned.value(), other, 0, repaired_path, out_path)
                .status()
                .code(),
            StatusCode::kMalformedInput);
  // Out-of-range rule index.
  EXPECT_EQ(RollbackRule(scanned.value(), example.rules,
                         example.rules.size(), repaired_path, out_path)
                .status()
                .code(),
            StatusCode::kMalformedInput);
  // A repaired file edited since the run: find the journaled cell and
  // clobber it, then expect a refusal instead of a silent clobber.
  StatusOr<WalAudit> audit = BuildAudit(scanned.value());
  ASSERT_TRUE(audit.ok());
  ASSERT_FALSE(audit->log.repairs.empty());
  const CellRepair& first = audit->log.repairs.front();
  auto pool = std::make_shared<ValuePool>();
  StatusOr<Table> table = ReadCsvFileLenient(repaired_path, "edit", pool);
  ASSERT_TRUE(table.ok());
  table->WriteCell(first.row, first.attr, pool->Intern("edited-by-hand"));
  ASSERT_TRUE(TryWriteCsvFile(table.value(), repaired_path).ok());
  const StatusOr<RollbackReport> refused =
      RollbackRule(scanned.value(), example.rules, first.rule_index,
                   repaired_path, out_path);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kMalformedInput);
  EXPECT_NE(refused.status().message().find("modified"), std::string::npos);
}

// ----------------------------------------------- interrupted-run property --

// The heart of the durability contract: a run that dies mid-stream —
// torn WAL tail and all — resumes to output byte-identical to an
// uninterrupted run, for every chunk size, engine width, and error
// policy, with the same quarantine diagnostics.
struct Dataset {
  std::string name;
  std::string csv;
  std::shared_ptr<ValuePool> pool;
  RuleSet rules;
  size_t max_chase_steps = 0;
  OnErrorPolicy policy = OnErrorPolicy::kAbort;
};

std::vector<Dataset> MakeDatasets() {
  std::vector<Dataset> datasets;
  {
    TravelExample example;
    datasets.push_back({"travel", ToCsv(example.dirty), example.pool,
                        example.rules});
  }
  {
    HospOptions options;
    options.rows = 240;
    options.num_hospitals = 30;
    options.num_measures = 6;
    const GeneratedData data = GenerateHosp(options);
    Table dirty = data.clean;
    InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
    RuleGenOptions rulegen;
    rulegen.max_rules = 100;
    RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
    datasets.push_back({"hosp", ToCsv(dirty), data.pool, std::move(rules)});
  }
  {
    UisOptions options;
    options.rows = 180;
    options.duplicate_ratio = 0.4;
    options.num_zips = 25;
    const GeneratedData data = GenerateUis(options);
    Table dirty = data.clean;
    InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
    RuleGenOptions rulegen;
    rulegen.max_rules = 60;
    RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
    // Quarantine flavor: a one-pop budget fails some cascading tuples,
    // so resumed runs must also replay tuple diagnostics.
    Dataset dataset{"uis", ToCsv(dirty), data.pool, std::move(rules)};
    dataset.max_chase_steps = 1;
    dataset.policy = OnErrorPolicy::kQuarantine;
    datasets.push_back(std::move(dataset));
  }
  return datasets;
}

TEST_F(RecoveryTest, InterruptedRunsResumeByteIdentically) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
  }
  for (Dataset& dataset : MakeDatasets()) {
    for (const size_t chunk_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        const std::string context = dataset.name +
                                    " chunk_rows=" + std::to_string(chunk_rows) +
                                    " threads=" + std::to_string(threads);
        DurableConfig config;
        config.chunk_rows = chunk_rows;
        config.threads = threads;
        config.on_error = dataset.policy;
        config.max_chase_steps = dataset.max_chase_steps;

        // Reference: no WAL at all.
        const StatusOr<DurableRun> want =
            RunDurable(dataset.csv, dataset.pool, dataset.rules, config);
        ASSERT_TRUE(want.ok()) << context << ": " << want.status().message();

        // Uninterrupted durable run: journaling must not change a byte.
        const std::string wal = TempPath("prop.wal");
        config.wal_path = wal;
        const StatusOr<DurableRun> full =
            RunDurable(dataset.csv, dataset.pool, dataset.rules, config);
        ASSERT_TRUE(full.ok()) << context;
        ASSERT_EQ(full->csv, want->csv) << context;
        const StatusOr<RecoveredRun> scanned = ScanWal(wal);
        ASSERT_TRUE(scanned.ok()) << context;
        EXPECT_EQ(scanned->chunks.size(), full->report.chunks) << context;
        EXPECT_EQ(scanned->rows_durable(), full->report.rows) << context;
        EXPECT_FALSE(scanned->tail_discarded) << context;

        // Interrupt at a spread of commit points with both failure
        // flavors: a failed fsync (clean frames, no commit durability)
        // and a short write (genuinely torn frame bytes).
        const size_t chunks = full->report.chunks;
        std::vector<size_t> kill_points = {1, chunks / 2, chunks};
        for (const char* site : {"wal.fsync", "wal.append"}) {
          for (const size_t kill : kill_points) {
            if (kill == 0) continue;
            const std::string kill_context =
                context + " " + site + " kill=" + std::to_string(kill);
            // Hit 0 of each site is the header sync; skipping `kill`
            // hits dies at the kill-th chunk commit.
            FaultPlan plan;
            plan.skip_hits = kill;
            plan.max_fires = 1;
            FaultRegistry::Global().Arm(site, plan);
            config.resume = false;
            const StatusOr<DurableRun> crashed =
                RunDurable(dataset.csv, dataset.pool, dataset.rules, config);
            FaultRegistry::Global().DisarmAll();
            ASSERT_FALSE(crashed.ok()) << kill_context;
            EXPECT_EQ(crashed.status().code(), StatusCode::kIoError)
                << kill_context;

            // The durable prefix is a strict subset of the run...
            const StatusOr<RecoveredRun> partial = ScanWal(wal);
            ASSERT_TRUE(partial.ok()) << kill_context;
            EXPECT_LT(partial->chunks.size(), chunks + 1) << kill_context;

            // ...and resuming completes to the exact reference bytes
            // and diagnostics.
            config.resume = true;
            const StatusOr<DurableRun> resumed =
                RunDurable(dataset.csv, dataset.pool, dataset.rules, config);
            ASSERT_TRUE(resumed.ok())
                << kill_context << ": " << resumed.status().message();
            ASSERT_EQ(resumed->csv, want->csv) << kill_context;
            EXPECT_EQ(resumed->report.rows, want->report.rows)
                << kill_context;
            EXPECT_EQ(resumed->report.cells_changed,
                      want->report.cells_changed)
                << kill_context;
            EXPECT_EQ(resumed->report.tuples_quarantined,
                      want->report.tuples_quarantined)
                << kill_context;
            ExpectSameDiagnostics(resumed->tuple_diagnostics,
                                  want->tuple_diagnostics, kill_context);
          }
        }
        std::remove(wal.c_str());
      }
    }
  }
}

TEST_F(RecoveryTest, ResumeWithACompleteWalReplaysEverything) {
  TravelExample example;
  const std::string wal = TempPath("complete.wal");
  const std::string dirty_csv = ToCsv(example.dirty);
  DurableConfig config{.chunk_rows = 2, .wal_path = wal};
  const StatusOr<DurableRun> full =
      RunDurable(dirty_csv, example.pool, example.rules, config);
  ASSERT_TRUE(full.ok());
  // Crash after the last commit but before the output rename: resume
  // with a fully durable WAL re-emits every chunk from the log.
  config.resume = true;
  const StatusOr<DurableRun> resumed =
      RunDurable(dirty_csv, example.pool, example.rules, config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->csv, full->csv);
  EXPECT_EQ(resumed->report.chunks, full->report.chunks);
}

TEST_F(RecoveryTest, ResumeRefusesAMismatchedConfiguration) {
  TravelExample example;
  const std::string wal = TempPath("mismatch.wal");
  const std::string dirty_csv = ToCsv(example.dirty);
  const StatusOr<DurableRun> full = RunDurable(
      dirty_csv, example.pool, example.rules,
      {.chunk_rows = 2, .wal_path = wal});
  ASSERT_TRUE(full.ok());
  // Different chunk size: chunk boundaries no longer match the log.
  const StatusOr<DurableRun> wrong_chunks = RunDurable(
      dirty_csv, example.pool, example.rules,
      {.chunk_rows = 3, .wal_path = wal, .resume = true});
  ASSERT_FALSE(wrong_chunks.ok());
  EXPECT_EQ(wrong_chunks.status().code(), StatusCode::kMalformedInput);
  // Different rules: fingerprint gate.
  RuleSet other(example.schema, example.pool);
  other.Add(example.rules.rule(0));
  const StatusOr<DurableRun> wrong_rules = RunDurable(
      dirty_csv, example.pool, other,
      {.chunk_rows = 2, .wal_path = wal, .resume = true});
  ASSERT_FALSE(wrong_rules.ok());
  EXPECT_EQ(wrong_rules.status().code(), StatusCode::kMalformedInput);
}

TEST_F(RecoveryTest, ResumeDetectsADivergentInput) {
  TravelExample example;
  const std::string wal = TempPath("diverge.wal");
  const std::string dirty_csv = ToCsv(example.dirty);
  const StatusOr<DurableRun> full = RunDurable(
      dirty_csv, example.pool, example.rules,
      {.chunk_rows = 2, .wal_path = wal});
  ASSERT_TRUE(full.ok());
  // Same schema, fewer rows: the journaled chunks no longer line up
  // with what the reader re-reads.
  std::string truncated = dirty_csv;
  truncated.resize(truncated.find('\n', truncated.find('\n') + 1) + 1);
  const StatusOr<DurableRun> resumed = RunDurable(
      truncated, example.pool, example.rules,
      {.chunk_rows = 2, .wal_path = wal, .resume = true});
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kMalformedInput);
  EXPECT_NE(resumed.status().message().find("divergence"),
            std::string::npos);
}

// Every value a rule writes is in the pool once the rules are bound, so
// resume looks a journaled value up instead of interning it (the pool
// stays read-only while the next chunk is read), and refuses a value no
// rule writes as a divergence.
TEST_F(RecoveryTest, ResumeRefusesAJournaledValueNoRuleWrites) {
  TravelExample example;
  const std::string wal = TempPath("foreign_value.wal");
  const std::string dirty_csv = ToCsv(example.dirty);
  const StatusOr<DurableRun> full = RunDurable(
      dirty_csv, example.pool, example.rules,
      {.chunk_rows = 2, .wal_path = wal});
  ASSERT_TRUE(full.ok()) << full.status().message();
  StatusOr<RecoveredRun> scanned = ScanWal(wal);
  ASSERT_TRUE(scanned.ok()) << scanned.status().message();

  // The same log with its first delta's value replaced.
  bool replaced = false;
  {
    StatusOr<ChunkJournal> journal = ChunkJournal::Create(wal, scanned->header);
    ASSERT_TRUE(journal.ok()) << journal.status().message();
    for (const WalChunk& chunk : scanned->chunks) {
      ASSERT_TRUE(
          journal->BeginChunk(chunk.chunk_index, chunk.base_row, chunk.rows)
              .ok());
      for (WalCellDelta delta : chunk.deltas) {
        if (!replaced) delta.new_value = "Atlantis";
        replaced = true;
        ASSERT_TRUE(journal->AddDelta(delta).ok());
      }
      ASSERT_TRUE(journal
                      ->Commit(chunk.chunk_index, chunk.rows,
                               chunk.cells_changed, chunk.tuples_quarantined)
                      .ok());
    }
    ASSERT_TRUE(journal->Close().ok());
  }
  ASSERT_TRUE(replaced);
  ASSERT_EQ(example.pool->Find("Atlantis"), kNullValue);

  const StatusOr<DurableRun> resumed = RunDurable(
      dirty_csv, example.pool, example.rules,
      {.chunk_rows = 2, .wal_path = wal, .resume = true});
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kMalformedInput);
  EXPECT_NE(resumed.status().message().find("'Atlantis', which no rule writes"),
            std::string::npos)
      << resumed.status().message();
  EXPECT_EQ(example.pool->Find("Atlantis"), kNullValue);
}

// -------------------------------------- CSV-level quarantine journaling --

TEST_F(RecoveryTest, CsvQuarantineRoundTripsThroughTheJournal) {
  const std::string path = TempPath("csvq.wal");
  WalRunHeader header;
  header.attribute_names = {"a", "b"};
  header.chunk_rows = 4;
  Diagnostic csv_diag{3, StatusCode::kMalformedInput, "record has 1 field",
                      "bad"};
  Diagnostic tuple_diag{5, StatusCode::kBudgetExhausted, "chase budget",
                        "(x, y)"};
  {
    StatusOr<ChunkJournal> journal = ChunkJournal::Create(path, header);
    ASSERT_TRUE(journal.ok()) << journal.status().message();
    ASSERT_TRUE(journal->BeginChunk(1, 0, 4).ok());
    ASSERT_TRUE(journal->AddCsvQuarantine(csv_diag).ok());
    ASSERT_TRUE(journal->AddQuarantine(tuple_diag).ok());
    ASSERT_TRUE(journal->Commit(1, 4, 0, 1).ok());
    ASSERT_TRUE(journal->Close().ok());
  }
  StatusOr<RecoveredRun> run = ScanWal(path);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->header.version, kWalFormatVersion);
  ASSERT_EQ(run->chunks.size(), 1u);
  ASSERT_EQ(run->chunks[0].csv_quarantined.size(), 1u);
  EXPECT_EQ(run->chunks[0].csv_quarantined[0], csv_diag);
  ASSERT_EQ(run->chunks[0].quarantined.size(), 1u);
  EXPECT_EQ(run->chunks[0].quarantined[0], tuple_diag);
}

TEST_F(RecoveryTest, CsvQuarantineRecordIsRefusedInAVersion1Log) {
  const std::string path = TempPath("csvq_v1.wal");
  WalRunHeader header;
  header.version = 1;
  header.attribute_names = {"a", "b"};
  {
    StatusOr<ChunkJournal> journal = ChunkJournal::Create(path, header);
    ASSERT_TRUE(journal.ok()) << journal.status().message();
    ASSERT_TRUE(journal->BeginChunk(1, 0, 1).ok());
    ASSERT_TRUE(journal->AddCsvQuarantine(
                            Diagnostic{0, StatusCode::kMalformedInput,
                                       "bad", "bad"})
                    .ok());
    ASSERT_TRUE(journal->Commit(1, 1, 0, 0).ok());
    ASSERT_TRUE(journal->Close().ok());
  }
  StatusOr<RecoveredRun> run = ScanWal(path);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kMalformedInput);
  EXPECT_NE(run.status().message().find("csv_quarantine"),
            std::string::npos);
}

// RunDurable with the reader in quarantine mode, capturing the
// CSV-level diagnostics the reader (or, on resume, the log) delivers.
StatusOr<DurableRun> RunDurableCsvQuarantine(
    const std::string& csv_text, std::shared_ptr<ValuePool> pool,
    const RuleSet& rules, const DurableConfig& config,
    std::vector<Diagnostic>* csv_diagnostics) {
  VectorQuarantineSink csv_sink;
  VectorQuarantineSink tuple_sink;
  std::istringstream in(csv_text);
  CsvReadOptions csv_options;
  csv_options.on_error = config.on_error;
  csv_options.quarantine = &csv_sink;
  StatusOr<CsvChunkReader> reader =
      CsvChunkReader::Open(in, "stream", std::move(pool), csv_options);
  if (!reader.ok()) return reader.status();
  RepairConfig repair;
  repair.on_error = config.on_error;
  repair.quarantine = &tuple_sink;
  repair.chunk_rows = config.chunk_rows;
  repair.wal_path = config.wal_path;
  repair.resume = config.resume;
  RepairSession session(&rules, repair);
  std::ostringstream out;
  StreamInput input(&reader.value(), repair.chunk_rows);
  StatusOr<RepairReport> report = session.RepairStream(&input, out);
  if (!report.ok()) return report.status();
  *csv_diagnostics = csv_sink.diagnostics();
  DurableRun run;
  run.csv = out.str();
  run.report = report.value();
  run.tuple_diagnostics = tuple_sink.diagnostics();
  return run;
}

// A dirty travel CSV with one malformed (wrong-arity) record in the
// middle, so the reader quarantines exactly one CSV-level diagnostic.
std::string TravelCsvWithBadRecord(const TravelExample& example,
                                   const std::string& bad_record) {
  std::string csv = ToCsv(example.dirty);
  const size_t second_line = csv.find('\n', csv.find('\n') + 1) + 1;
  return csv.substr(0, second_line) + bad_record + "\n" +
         csv.substr(second_line);
}

TEST_F(RecoveryTest, ResumeForwardsJournaledCsvDiagnostics) {
  TravelExample example;
  const std::string wal = TempPath("csvq_resume.wal");
  const std::string dirty_csv = TravelCsvWithBadRecord(example, "bad");
  DurableConfig config{.chunk_rows = 2,
                       .on_error = OnErrorPolicy::kQuarantine,
                       .wal_path = wal};
  std::vector<Diagnostic> original_csv_diags;
  const StatusOr<DurableRun> full = RunDurableCsvQuarantine(
      dirty_csv, example.pool, example.rules, config, &original_csv_diags);
  ASSERT_TRUE(full.ok()) << full.status().message();
  ASSERT_EQ(original_csv_diags.size(), 1u);

  // The journal carries the reader diagnostics chunk by chunk.
  StatusOr<RecoveredRun> scanned = ScanWal(wal);
  ASSERT_TRUE(scanned.ok()) << scanned.status().message();
  size_t journaled = 0;
  for (const WalChunk& chunk : scanned->chunks) {
    journaled += chunk.csv_quarantined.size();
  }
  EXPECT_EQ(journaled, 1u);

  // Resuming the complete run forwards the journaled records to the
  // live sink and re-emits identical output.
  config.resume = true;
  std::vector<Diagnostic> resumed_csv_diags;
  const StatusOr<DurableRun> resumed = RunDurableCsvQuarantine(
      dirty_csv, example.pool, example.rules, config, &resumed_csv_diags);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->csv, full->csv);
  ExpectSameDiagnostics(resumed_csv_diags, original_csv_diags, "csv resume");
}

TEST_F(RecoveryTest, ResumeRefusesWhenCsvDiagnosticsDiverge) {
  TravelExample example;
  const std::string wal = TempPath("csvq_diverge.wal");
  DurableConfig config{.chunk_rows = 2,
                       .on_error = OnErrorPolicy::kQuarantine,
                       .wal_path = wal};
  std::vector<Diagnostic> csv_diags;
  const StatusOr<DurableRun> full = RunDurableCsvQuarantine(
      TravelCsvWithBadRecord(example, "bad"), example.pool, example.rules,
      config, &csv_diags);
  ASSERT_TRUE(full.ok()) << full.status().message();

  // The malformed record's text changed but it is still malformed at
  // the same position: committed row counts line up, so only the
  // journaled CSV diagnostics expose that the input was modified.
  config.resume = true;
  const StatusOr<DurableRun> resumed = RunDurableCsvQuarantine(
      TravelCsvWithBadRecord(example, "bad,worse"), example.pool,
      example.rules, config, &csv_diags);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kMalformedInput);
  EXPECT_NE(resumed.status().message().find("CSV-level"), std::string::npos);
}

// More than twice the keep bound of malformed records between good
// ones. Under skip and quarantine the stream cuts the run into
// byte-bounded chunks, at least one of which keeps no row (so only
// at_end() ends the stream), journals them, and resumes after a failed
// commit at each of them to the whole-table bytes and diagnostics.
TEST_F(RecoveryTest, MalformedRunPastTheKeepBoundResumesToWholeTableBytes) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
  }
  TravelExample example;
  std::string malformed;
  const std::string record = std::string(120, 'x') + "\n";  // arity 1
  while (malformed.size() <= 2 * CsvChunkReader::kKeepBytes + 1000) {
    malformed += record;
  }
  std::string csv = ToCsv(example.dirty);
  const size_t third_line =
      csv.find('\n', csv.find('\n', csv.find('\n') + 1) + 1) + 1;
  csv.insert(third_line, malformed);
  const std::string wal = TempPath("malformed_run.wal");
  for (const OnErrorPolicy policy :
       {OnErrorPolicy::kSkip, OnErrorPolicy::kQuarantine}) {
    const std::string context = OnErrorPolicyName(policy);
    // The whole-table reference.
    VectorQuarantineSink want_csv;
    VectorQuarantineSink want_tuples;
    std::istringstream in(csv);
    StatusOr<Table> table = ReadCsvLenient(
        in, "stream", example.pool,
        {policy, policy == OnErrorPolicy::kQuarantine ? &want_csv : nullptr});
    ASSERT_TRUE(table.ok()) << context << ": " << table.status();
    ASSERT_EQ(table->num_rows(), example.dirty.num_rows());
    RepairConfig repair;
    repair.on_error = policy;
    repair.quarantine = &want_tuples;
    ASSERT_TRUE(RepairSession(&example.rules, repair).Repair(&*table).ok());
    const std::string want = ToCsv(table.value());

    DurableConfig config{.chunk_rows = RepairConfig{}.chunk_rows,
                         .on_error = policy,
                         .wal_path = wal};
    std::remove(wal.c_str());
    std::vector<Diagnostic> csv_diags;
    const StatusOr<DurableRun> full = RunDurableCsvQuarantine(
        csv, example.pool, example.rules, config, &csv_diags);
    ASSERT_TRUE(full.ok()) << context << ": " << full.status().message();
    EXPECT_EQ(full->csv, want) << context;
    ExpectSameDiagnostics(csv_diags, want_csv.diagnostics(), context);
    const StatusOr<RecoveredRun> scanned = ScanWal(wal);
    ASSERT_TRUE(scanned.ok()) << context;
    const size_t chunks = scanned->chunks.size();
    ASSERT_GE(chunks, 3u) << context;
    EXPECT_TRUE(std::any_of(scanned->chunks.begin(), scanned->chunks.end(),
                            [](const WalChunk& c) { return c.rows == 0; }))
        << context;

    // Hit 0 of wal.fsync is the header sync; skipping `kill` hits fails
    // the kill-th chunk commit.
    for (size_t kill = 1; kill <= chunks; ++kill) {
      const std::string kill_context =
          context + " kill=" + std::to_string(kill);
      FaultRegistry::Global().Arm("wal.fsync", {.skip_hits = kill,
                                                .max_fires = 1});
      config.resume = false;
      const StatusOr<DurableRun> crashed = RunDurableCsvQuarantine(
          csv, example.pool, example.rules, config, &csv_diags);
      FaultRegistry::Global().DisarmAll();
      ASSERT_FALSE(crashed.ok()) << kill_context;
      config.resume = true;
      const StatusOr<DurableRun> resumed = RunDurableCsvQuarantine(
          csv, example.pool, example.rules, config, &csv_diags);
      ASSERT_TRUE(resumed.ok())
          << kill_context << ": " << resumed.status().message();
      EXPECT_EQ(resumed->csv, want) << kill_context;
      ExpectSameDiagnostics(csv_diags, want_csv.diagnostics(), kill_context);
      ExpectSameDiagnostics(resumed->tuple_diagnostics,
                            want_tuples.diagnostics(), kill_context);
    }
  }
  std::remove(wal.c_str());
}

// ------------------------------------------------- kill-and-resume harness --

// The end-to-end version of the property above: a real fixrep_cli child
// is SIGKILLed at each WAL crash site via FIXREP_FAULT, then rerun with
// --resume, and the finished output must be byte-identical to an
// uninterrupted run's. Exercises the whole stack: env-armed faults,
// torn files on real descriptors, atomic output rename, CLI flag
// plumbing.
TEST_F(RecoveryTest, SigkilledChildResumesToIdenticalBytes) {
#ifndef FIXREP_CLI_PATH
  GTEST_SKIP() << "built without FIXREP_CLI_PATH";
#else
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
  }
  const std::string cli = FIXREP_CLI_PATH;
  if (!std::ifstream(cli).good()) {
    GTEST_SKIP() << "fixrep_cli not built at " << cli;
  }
  // Inputs: the travel example written to disk.
  TravelExample example;
  const std::string dirty_path = TempPath("e2e_dirty.csv");
  const std::string rules_path = TempPath("e2e_rules.txt");
  std::ofstream(dirty_path) << ToCsv(example.dirty);
  ASSERT_TRUE(TryWriteRulesFile(example.rules, rules_path).ok());

  const std::string ref_path = TempPath("e2e_ref.csv");
  const std::string out_path = TempPath("e2e_out.csv");
  const std::string wal_path = TempPath("e2e.wal");

  const auto run_cli = [&](const std::string& env,
                           const std::string& flags) {
    const std::string command = env + " " + cli + " repair --rules " +
                                rules_path + " --in " + dirty_path +
                                " --stream --chunk-rows 1 " + flags +
                                " >/dev/null 2>&1";
    return std::system(command.c_str());
  };
  ASSERT_EQ(run_cli("", "--out " + ref_path), 0);
  const std::string reference = ReadFileBytes(ref_path);
  ASSERT_FALSE(reference.empty());

  for (const char* site : {"wal.crash_after_append", "wal.crash_before_commit",
                           "wal.crash_after_commit"}) {
    for (const int skip : {0, 1, 3}) {  // first, second, and last chunk
      const std::string context =
          std::string(site) + " skip=" + std::to_string(skip);
      std::remove(out_path.c_str());
      std::remove(wal_path.c_str());
      const int killed = run_cli("FIXREP_FAULT=" + std::string(site) +
                                     ":skip=" + std::to_string(skip) +
                                     ":max=1",
                                 "--out " + out_path + " --wal " + wal_path);
      ASSERT_TRUE(WIFSIGNALED(killed) ||
                  (WIFEXITED(killed) && WEXITSTATUS(killed) != 0))
          << context << ": child survived (" << killed << ")";
      // The atomic rename never ran: no partial output is visible.
      EXPECT_FALSE(std::ifstream(out_path).good())
          << context << ": partial output leaked";
      const int resumed = run_cli(
          "", "--out " + out_path + " --wal " + wal_path + " --resume");
      ASSERT_EQ(resumed, 0) << context;
      EXPECT_EQ(ReadFileBytes(out_path), reference) << context;
    }
  }
#endif
}

#ifdef FIXREP_CLI_PATH
// Noisy hosp rows (600, repeated `copies` times) and rules mined from
// them. Every 13th record ends in CRLF, every 17th quotes its first
// field: records a splice must render, not copy.
struct SpliceInput {
  std::string csv;
  RuleSet rules;
};

SpliceInput MakeSpliceInput(size_t copies) {
  HospOptions options;
  options.rows = 600;
  options.num_hospitals = 40;
  const GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 150;
  SpliceInput input{"", GenerateRules(data.clean, dirty, data.fds, rulegen)};
  const std::string plain = ToCsv(dirty);
  const size_t body = plain.find('\n') + 1;
  size_t record = 0;  // the header is record 0
  for (size_t c = 0; c < copies; ++c) {
    for (size_t at = c == 0 ? 0 : body; at < plain.size(); ++record) {
      const size_t nl = plain.find('\n', at);
      std::string line = plain.substr(at, nl - at);
      at = nl + 1;
      if (record > 0 && record % 17 == 0) {
        line.insert(line.find(','), "\"");
        line.insert(0, "\"");
      }
      if (record > 0 && record % 13 == 0) line += '\r';
      input.csv += line + '\n';
    }
  }
  return input;
}

// Kills a fixrep_cli `repair` (with `flags`, --wal) at each crash site on
// the first, a middle and the last chunk, resumes it, and requires the
// uninterrupted run's bytes. A resume replays the durable chunks from
// their journaled deltas and splices their rows like any other chunk's.
void ExpectKilledRunsResume(const std::string& cli, const std::string& csv,
                            const RuleSet& rules, const std::string& flags) {
  const std::string dirty_path = testing::TestTempPath("splice_dirty.csv");
  const std::string rules_path = testing::TestTempPath("splice_rules.txt");
  std::ofstream(dirty_path, std::ios::binary) << csv;
  ASSERT_TRUE(TryWriteRulesFile(rules, rules_path).ok());
  const std::string ref_path = testing::TestTempPath("splice_ref.csv");
  const std::string out_path = testing::TestTempPath("splice_out.csv");
  const std::string wal_path = testing::TestTempPath("splice.wal");
  const auto run_cli = [&](const std::string& env, const std::string& more) {
    const std::string command = env + " " + cli + " repair --rules " +
                                rules_path + " --in " + dirty_path + " " +
                                flags + " " + more + " >/dev/null 2>&1";
    return std::system(command.c_str());
  };
  std::remove(wal_path.c_str());
  ASSERT_EQ(run_cli("", "--out " + ref_path + " --wal " + wal_path), 0);
  const std::string reference = ReadFileBytes(ref_path);
  ASSERT_NE(reference, csv);
  const StatusOr<RecoveredRun> scanned = ScanWal(wal_path);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  const size_t last = scanned->chunks.size() - 1;
  for (const char* site : {"wal.crash_after_append", "wal.crash_before_commit",
                           "wal.crash_after_commit"}) {
    for (const size_t skip : {size_t{0}, last / 2, last}) {
      const std::string context = std::string(site) + " " + flags +
                                  " skip=" + std::to_string(skip);
      std::remove(out_path.c_str());
      std::remove(wal_path.c_str());
      const int killed = run_cli("FIXREP_FAULT=" + std::string(site) +
                                     ":skip=" + std::to_string(skip) +
                                     ":max=1",
                                 "--out " + out_path + " --wal " + wal_path);
      ASSERT_TRUE(WIFSIGNALED(killed) ||
                  (WIFEXITED(killed) && WEXITSTATUS(killed) != 0))
          << context << ": child survived (" << killed << ")";
      ASSERT_EQ(run_cli("", "--out " + out_path + " --wal " + wal_path +
                                " --resume"),
                0)
          << context;
      EXPECT_EQ(ReadFileBytes(out_path), reference) << context;
    }
  }
}
#endif

// The same crashes over spliced output: a hosp input with quoted fields
// and CRLF records, in chunks of 7 and 64 rows.
TEST_F(RecoveryTest, SigkilledSplicedRunsResumeToIdenticalBytes) {
#ifndef FIXREP_CLI_PATH
  GTEST_SKIP() << "built without FIXREP_CLI_PATH";
#else
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
  }
  const std::string cli = FIXREP_CLI_PATH;
  if (!std::ifstream(cli).good()) {
    GTEST_SKIP() << "fixrep_cli not built at " << cli;
  }
  const SpliceInput input = MakeSpliceInput(1);
  for (const char* flags : {"--chunk-rows 7", "--chunk-rows 64"}) {
    ExpectKilledRunsResume(cli, input.csv, input.rules, flags);
    if (HasFatalFailure()) return;
  }
#endif
}

// The default route (no --chunk-rows) on an input past twice the keep
// bound: its chunks end at the reader's byte bound, not at a row count,
// and a killed run still resumes to the uninterrupted bytes.
TEST_F(RecoveryTest, SigkilledDefaultRouteResumesToIdenticalBytes) {
#ifndef FIXREP_CLI_PATH
  GTEST_SKIP() << "built without FIXREP_CLI_PATH";
#else
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
  }
  const std::string cli = FIXREP_CLI_PATH;
  if (!std::ifstream(cli).good()) {
    GTEST_SKIP() << "fixrep_cli not built at " << cli;
  }
  const SpliceInput input = MakeSpliceInput(18);
  ASSERT_GT(input.csv.size(), 2 * CsvChunkReader::kKeepBytes);
  ExpectKilledRunsResume(cli, input.csv, input.rules, "");
#endif
}

// What a resumed stream reports. The chunks it replays from the log
// count once: in fixrep.wal.*_replayed and in one `resume` event that
// comes before the first repaired chunk's `chunk` event. They emit no
// `chunk` or `wal_commit` event themselves, the chunks after them number
// on from the replayed count, and the run's totals (chunks, quarantined
// tuples) cover both parts.
TEST_F(RecoveryTest, ResumedRunReportsItsReplayOnce) {
#ifndef FIXREP_CLI_PATH
  GTEST_SKIP() << "built without FIXREP_CLI_PATH";
#else
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
  }
  const std::string cli = FIXREP_CLI_PATH;
  if (!std::ifstream(cli).good()) {
    GTEST_SKIP() << "fixrep_cli not built at " << cli;
  }
  TravelExample example;
  const std::string dirty_path = TempPath("report_dirty.csv");
  const std::string rules_path = TempPath("report_rules.txt");
  std::ofstream(dirty_path) << ToCsv(example.dirty);
  ASSERT_TRUE(TryWriteRulesFile(example.rules, rules_path).ok());
  const std::string ref_path = TempPath("report_ref.csv");
  const std::string out_path = TempPath("report_out.csv");
  const std::string wal_path = TempPath("report.wal");
  const std::string journal_path = TempPath("report.jsonl");
  const std::string metrics_path = TempPath("report.json");

  // One row per chunk; a budget of one chase step quarantines the
  // cascading tuple (row 1, chunk 2).
  const auto run_cli = [&](const std::string& env, const std::string& flags) {
    const std::string command =
        env + " " + cli + " repair --rules " + rules_path + " --in " +
        dirty_path + " --stream --chunk-rows 1 --on-error=quarantine" +
        " --max-chase-steps 1 " + flags + " >/dev/null 2>&1";
    return std::system(command.c_str());
  };
  ASSERT_EQ(run_cli("", "--out " + ref_path), 0);
  const size_t total_chunks = example.dirty.num_rows();

  // skip=2: chunks 1-3 commit, and the run dies before emitting chunk 3.
  const int killed =
      run_cli("FIXREP_FAULT=wal.crash_after_commit:skip=2:max=1",
              "--out " + out_path + " --wal " + wal_path);
  ASSERT_TRUE(WIFSIGNALED(killed) ||
              (WIFEXITED(killed) && WEXITSTATUS(killed) != 0));
  const StatusOr<RecoveredRun> durable = ScanWal(wal_path);
  ASSERT_TRUE(durable.ok()) << durable.status();
  const size_t durable_chunks = durable->chunks.size();
  ASSERT_EQ(durable_chunks, 3u);
  ASSERT_LT(durable_chunks, total_chunks);
  uint64_t journaled_quarantined = 0;
  for (const WalChunk& chunk : durable->chunks) {
    journaled_quarantined += chunk.tuples_quarantined;
  }
  ASSERT_GT(journaled_quarantined, 0u);

  ASSERT_EQ(run_cli("", "--out " + out_path + " --wal " + wal_path +
                            " --resume --telemetry-out " + journal_path +
                            " --metrics-out " + metrics_path),
            0);
  EXPECT_EQ(ReadFileBytes(out_path), ReadFileBytes(ref_path));

  // The journal, one JSON object a line: {"event":"<type>",...}.
  const auto field = [](const std::string& line, const std::string& key) {
    const size_t at = line.find("\"" + key + "\":");
    return at == std::string::npos
               ? ~uint64_t{0}
               : std::strtoull(line.c_str() + at + key.size() + 3, nullptr,
                               10);
  };
  std::vector<std::string> events;
  std::vector<uint64_t> chunk_indices;
  std::vector<uint64_t> commit_indices;
  std::istringstream journal(ReadFileBytes(journal_path));
  for (std::string line; std::getline(journal, line);) {
    const std::string prefix = "{\"event\":\"";
    ASSERT_EQ(line.rfind(prefix, 0), 0u) << line;
    const std::string type =
        line.substr(prefix.size(), line.find('"', prefix.size()) -
                                       prefix.size());
    events.push_back(type);
    if (type == "chunk") chunk_indices.push_back(field(line, "index"));
    if (type == "wal_commit") commit_indices.push_back(field(line, "chunk"));
    if (type == "resume") {
      EXPECT_EQ(field(line, "chunks_replayed"), durable_chunks) << line;
      EXPECT_EQ(field(line, "rows_replayed"), durable->rows_durable())
          << line;
    }
  }
  EXPECT_EQ(std::count(events.begin(), events.end(), "resume"), 1);
  const auto resume = std::find(events.begin(), events.end(), "resume");
  const auto first_chunk = std::find(events.begin(), events.end(), "chunk");
  ASSERT_NE(first_chunk, events.end());
  EXPECT_LT(resume, first_chunk);
  std::vector<uint64_t> fresh;
  for (size_t c = durable_chunks + 1; c <= total_chunks; ++c) {
    fresh.push_back(c);
  }
  EXPECT_EQ(chunk_indices, fresh);
  EXPECT_EQ(commit_indices, fresh);

  const std::string metrics = ReadFileBytes(metrics_path);
  const auto counter = [&](const std::string& name) {
    return field(metrics, name);
  };
  EXPECT_EQ(counter("fixrep.wal.chunks_replayed"), durable_chunks);
  EXPECT_EQ(counter("fixrep.wal.rows_replayed"), durable->rows_durable());
  EXPECT_EQ(counter("fixrep.streaming.chunks"), total_chunks);
  EXPECT_EQ(counter("fixrep.quarantine.tuples"), journaled_quarantined);
#endif
}

}  // namespace
}  // namespace fixrep
