// RepairDriver (repair/driver.h) differential matrix and the rule-order
// oracle.
//
// Matrix: every {threads 1, pool width} x {shards 0, 3} x {abort, skip,
// quarantine with a chase budget} x {memo on, off} x {write log on, off}
// x {image compiled in memory, image opened from an FXRDICT file} run on
// noisy hosp and uis must give the
// output bytes, row-ordered diagnostics, write log and merged chase
// counters of a serial FastRepairer run, and that run must agree with the
// cRepair reference chase. Streams add chunk sizes 1, 7, 4096 and
// whole-file, and WAL-journaled runs at every width and routing.
//
// cRepair axis: driver slots holding the reference chase, at widths 1, 2
// and the pool's, sharded, under every policy, on whole tables and on
// streams of every chunking, must give ChaseRepairer::RepairTable's bytes
// and the diagnostics and write log of a one-slot ChaseRepairer run.
//
// Order oracle: a consistent rule set has a unique fix per tuple (the
// paper's Church-Rosser property), so renumbering its rules — which
// reorders every posting list and the candidate queue — must not change
// a byte.

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "repair/crepair.h"
#include "repair/driver.h"
#include "repair/lrepair.h"
#include "repair/memo_cache.h"
#include "repair/recovery.h"
#include "repair/session.h"
#include "repair/streaming.h"
#include "rulegen/rulegen.h"
#include "rules/consistency.h"
#include "rules/rule_dict.h"
#include "rules/rule_io.h"
#include "rules/rule_set.h"
#include "testing_util.h"

namespace fixrep {
namespace {

// Small enough that cascading tuples fail under the lenient policies.
constexpr size_t kChaseBudget = 1;

std::string ToCsv(const Table& table) {
  std::ostringstream out;
  WriteCsv(table, out);
  return out.str();
}

uint64_t CounterValue(const std::string& name) {
  const Counter* counter = MetricsRegistry::Global().FindCounter(name);
  return counter == nullptr ? 0 : counter->Value();
}

size_t PoolWidth() { return ThreadPool::Global().num_workers() + 1; }

struct Dataset {
  std::string name;
  std::shared_ptr<ValuePool> pool;
  Table dirty;
  RuleSet rules;
};

Dataset Hosp() {
  HospOptions options;
  options.rows = 500;
  options.num_hospitals = 40;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 150;
  RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  return {"hosp", data.pool, std::move(dirty), std::move(rules)};
}

Dataset Uis() {
  UisOptions options;
  options.rows = 400;
  options.duplicate_ratio = 0.4;
  options.num_zips = 30;
  GeneratedData data = GenerateUis(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 100;
  RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  return {"uis", data.pool, std::move(dirty), std::move(rules)};
}

Dataset Travel() {
  TravelExample example;
  return {"travel", example.pool, example.dirty, std::move(example.rules)};
}

// What a serial run produces under one policy.
struct Reference {
  std::string csv;
  std::vector<Diagnostic> diagnostics;
  std::vector<CellRepair> log;
  RepairStats stats;
};

// A chase budget that fails some tuples under the lenient policies and
// not others. lRepair counts candidate pops, so kChaseBudget fails the
// cascading tuples. cRepair counts rule examinations: a first pass costs
// |Σ| and a second |Σ| minus the first pass's applications, so 2|Σ| - 2
// passes tuples with no application or with two or more in the first
// pass, and fails cascades and tuples with exactly one.
size_t ChaseBudget(RepairEngine engine, const RuleDict& dict) {
  return engine == RepairEngine::kCRepair ? 2 * dict.num_rules() - 2
                                          : kChaseBudget;
}

template <typename Repairer>
Reference SerialRun(Repairer* repairer, const Table& dirty,
                    OnErrorPolicy policy, size_t budget) {
  Table table = dirty;
  Reference ref;
  repairer->set_write_log(&ref.log);
  if (policy == OnErrorPolicy::kAbort) {
    repairer->RepairRows(&table, 0, table.num_rows());
  } else {
    repairer->set_max_chase_steps(budget);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      size_t changed = 0;
      repairer->set_write_log_row(r);
      const Status status = repairer->TryRepairTuple(table.WriteRow(r),
                                                     &changed);
      if (!status.ok()) {
        ref.diagnostics.push_back(Diagnostic{r, status.code(),
                                             status.message(),
                                             table.FormatRow(r)});
      }
    }
  }
  ref.csv = ToCsv(table);
  ref.stats = repairer->stats();
  return ref;
}

// What a serial run of `engine` produces under one policy.
Reference SerialReference(const RuleDict& dict, const Table& dirty,
                          OnErrorPolicy policy, bool use_memo,
                          RepairEngine engine = RepairEngine::kLRepair) {
  const std::unique_ptr<RuleDictHandle> handle = dict.MakeHandle();
  const size_t budget = ChaseBudget(engine, dict);
  if (engine == RepairEngine::kCRepair) {
    ChaseRepairer repairer(handle->source());
    return SerialRun(&repairer, dirty, policy, budget);
  }
  FastRepairer repairer(handle->source());
  std::optional<MemoCache> memo;
  if (policy == OnErrorPolicy::kAbort && use_memo) {
    repairer.set_memo(&memo.emplace());
  }
  return SerialRun(&repairer, dirty, policy, budget);
}

// The reference against cRepair: rows that repaired equal the cRepair
// fix, failed rows keep their dirty values.
void ExpectMatchesCRepair(const Reference& ref, const Table& dirty,
                          const Table& crepaired, const std::string& context) {
  Table expected = crepaired;
  for (const Diagnostic& d : ref.diagnostics) {
    expected.WriteRow(d.line).CopyFrom(dirty.row(d.line).ToTuple());
  }
  EXPECT_EQ(ref.csv, ToCsv(expected)) << context;
}

// The counters every width and routing must reproduce. The chase
// internals are only comparable when no memo is consulted or one slot
// sees every row in order; batch_* also depend on the row grouping.
void ExpectSameCounters(const RepairStats& got, const RepairStats& want,
                        bool chase_internals, bool probe_mechanics,
                        const std::string& context) {
  EXPECT_EQ(got.tuples_examined, want.tuples_examined) << context;
  EXPECT_EQ(got.tuples_changed, want.tuples_changed) << context;
  EXPECT_EQ(got.cells_changed, want.cells_changed) << context;
  EXPECT_EQ(got.rule_applications, want.rule_applications) << context;
  EXPECT_EQ(got.per_rule_applications, want.per_rule_applications)
      << context;
  if (chase_internals) {
    EXPECT_EQ(got.index_hits, want.index_hits) << context;
    EXPECT_EQ(got.counter_bumps, want.counter_bumps) << context;
    EXPECT_EQ(got.candidates_enqueued, want.candidates_enqueued) << context;
    EXPECT_EQ(got.candidates_rejected, want.candidates_rejected) << context;
  }
  if (probe_mechanics) {
    EXPECT_EQ(got.batch_probes, want.batch_probes) << context;
    EXPECT_EQ(got.batch_keys, want.batch_keys) << context;
  }
}

// A dataset's rule image in both storages, bound to the dataset's
// schema and pool: compiled in memory, and compiled to a dictionary file
// and opened from it.
struct Images {
  std::unique_ptr<RuleDict> heap;
  std::unique_ptr<RuleDict> mapped;

  explicit Images(const Dataset& data)
      : heap(RuleDict::CompileOrDie(data.rules)),
        mapped(testing::ReopenedImage(data.rules, data.name + ".frd")) {}

  const RuleDict& image(bool from_file) const {
    return from_file ? *mapped : *heap;
  }
};

constexpr OnErrorPolicy kPolicies[] = {
    OnErrorPolicy::kAbort, OnErrorPolicy::kSkip, OnErrorPolicy::kQuarantine};

void RunTableMatrix(const Dataset& data) {
  ASSERT_GT(data.rules.size(), 0u) << data.name;
  const Images images(data);
  ASSERT_NE(images.mapped, nullptr) << data.name;
  Table crepaired = data.dirty;
  ChaseRepairer(&data.rules).RepairTable(&crepaired);

  for (const bool from_file : {false, true}) {
    const RuleDict& dict = images.image(from_file);
    for (const OnErrorPolicy policy : kPolicies) {
      for (const bool use_memo : {true, false}) {
        const Reference ref =
            SerialReference(dict, data.dirty, policy, use_memo);
        const std::string base = data.name + " " +
                                 OnErrorPolicyName(policy) +
                                 (use_memo ? " memo" : " no-memo") +
                                 (from_file ? " file" : " heap");
        ExpectMatchesCRepair(ref, data.dirty, crepaired, base);
        if (policy != OnErrorPolicy::kAbort) {
          EXPECT_FALSE(ref.diagnostics.empty()) << base;
        }
        for (const size_t threads : {size_t{1}, PoolWidth()}) {
          for (const size_t shards : {size_t{0}, size_t{3}}) {
            for (const bool with_log : {false, true}) {
              const std::string context =
                  base + " threads=" + std::to_string(threads) +
                  " shards=" + std::to_string(shards) +
                  (with_log ? " log" : "");
              MetricsRegistry::Global().ResetAllForTest();
              Table table = data.dirty;
              VectorQuarantineSink sink;
              RepairConfig config;
              config.threads = threads;
              config.shards = shards;
              config.use_memo = use_memo;
              config.on_error = policy;
              if (policy == OnErrorPolicy::kQuarantine) {
                config.quarantine = &sink;
              }
              if (policy != OnErrorPolicy::kAbort) {
                config.max_chase_steps = kChaseBudget;
              }
              RepairDriver driver(dict, config);
              std::vector<CellRepair> log;
              if (with_log) driver.set_write_log(&log);
              const RepairStats stats = driver.Run(&table);

              EXPECT_EQ(ToCsv(table), ref.csv) << context;
              EXPECT_EQ(driver.failures(), ref.diagnostics) << context;
              EXPECT_EQ(sink.diagnostics(),
                        policy == OnErrorPolicy::kQuarantine
                            ? ref.diagnostics
                            : std::vector<Diagnostic>{})
                  << context;
              if (with_log) {
                EXPECT_EQ(log, ref.log) << context;
              }
              const bool one_slot = driver.slots() == 1 ||
                                    (threads == 1 && shards == 0);
              const bool memo_consulted =
                  policy == OnErrorPolicy::kAbort && use_memo;
              ExpectSameCounters(stats, ref.stats,
                                 !memo_consulted || one_slot, one_slot,
                                 context);
              if (kMetricsEnabled) {
                EXPECT_EQ(CounterValue("fixrep.lrepair.tuples_examined"),
                          stats.tuples_examined)
                    << context;
                EXPECT_EQ(CounterValue("fixrep.lrepair.cells_changed"),
                          stats.cells_changed)
                    << context;
                EXPECT_EQ(CounterValue("fixrep.quarantine.tuples"),
                          ref.diagnostics.size())
                    << context;
              }
            }
          }
        }
      }
    }
  }
}

TEST(DriverMatrix, HospTableRunsMatchSerialAndCRepair) {
  RunTableMatrix(Hosp());
}

TEST(DriverMatrix, UisTableRunsMatchSerialAndCRepair) {
  RunTableMatrix(Uis());
}

// One stream through the session: the output bytes, report, diagnostics
// and write log.
struct StreamResult {
  std::string csv;
  RepairReport report;
  std::vector<Diagnostic> diagnostics;
  std::vector<CellRepair> log;
};

// Streams `input` through a session over `dict` (opened from a file and
// bound), or over an image of the dataset's rules compiled in memory when
// `dict` is null.
StreamResult RunStream(const Dataset& data, const RepairConfig& base,
                       const std::string& input,
                       const RuleDict* dict = nullptr) {
  std::istringstream in(input);
  StatusOr<CsvChunkReader> reader =
      CsvChunkReader::Open(in, "stream", data.pool, {});
  EXPECT_TRUE(reader.ok()) << reader.status();
  if (!reader.ok()) return {};
  VectorQuarantineSink sink;
  RepairConfig config = base;
  if (config.on_error == OnErrorPolicy::kQuarantine) {
    config.quarantine = &sink;
  }
  const std::unique_ptr<RepairSession> session =
      dict != nullptr ? std::make_unique<RepairSession>(dict, config)
                      : std::make_unique<RepairSession>(&data.rules, config);
  std::ostringstream out;
  std::vector<CellRepair> log;
  StreamInput input(&reader.value(), config.chunk_rows);
  StatusOr<RepairReport> report = session->RepairStream(&input, out, &log);
  EXPECT_TRUE(report.ok()) << report.status();
  if (!report.ok()) return {};
  return {out.str(), report.value(), sink.diagnostics(), std::move(log)};
}

void RunStreamMatrix(const Dataset& data) {
  ASSERT_GT(data.rules.size(), 0u) << data.name;
  const Images images(data);
  ASSERT_NE(images.mapped, nullptr) << data.name;
  const std::string input = ToCsv(data.dirty);
  struct Route {
    size_t threads;
    size_t shards;
  };
  const Route routes[] = {{1, 0}, {PoolWidth(), 0}, {1, 3}};
  const size_t chunkings[] = {1, 7, 4096, RepairConfig::kWholeFile};

  int wal_runs = 0;
  for (const bool from_file : {false, true}) {
    const RuleDict* file_dict = from_file ? images.mapped.get() : nullptr;
    for (const OnErrorPolicy policy : kPolicies) {
      const Reference ref = SerialReference(images.image(from_file),
                                            data.dirty, policy, true);
      for (const Route& route : routes) {
        RepairConfig config;
        config.threads = route.threads;
        config.shards = route.shards;
        config.on_error = policy;
        config.max_chase_steps =
            policy == OnErrorPolicy::kAbort ? 0 : kChaseBudget;
        const std::string base =
            data.name + " " + OnErrorPolicyName(policy) +
            " threads=" + std::to_string(route.threads) +
            " shards=" + std::to_string(route.shards) +
            (from_file ? " file" : " heap");
        for (const size_t chunk_rows : chunkings) {
          config.chunk_rows = chunk_rows;
          const std::string context =
              base + " chunk_rows=" + std::to_string(chunk_rows);
          const StreamResult run = RunStream(data, config, input, file_dict);
          EXPECT_EQ(run.csv, ref.csv) << context;
          EXPECT_EQ(run.log, ref.log) << context;
          EXPECT_EQ(run.report.cells_changed, ref.stats.cells_changed)
              << context;
          EXPECT_EQ(run.report.tuples_quarantined, ref.diagnostics.size())
              << context;
          if (policy == OnErrorPolicy::kQuarantine) {
            EXPECT_EQ(run.diagnostics, ref.diagnostics) << context;
          }
        }

        // Journaled: the WAL's deltas, rebased to global rows, are the
        // serial write log, and its diagnostics the serial ones.
        config.chunk_rows = 64;
        config.wal_path = testing::TestTempPath(
            data.name + "_" + std::to_string(wal_runs++) + ".wal");
        const std::string context = base + " wal";
        const StreamResult run = RunStream(data, config, input, file_dict);
        EXPECT_EQ(run.csv, ref.csv) << context;
        StatusOr<RecoveredRun> scanned = ScanWal(config.wal_path);
        ASSERT_TRUE(scanned.ok()) << context << ": " << scanned.status();
        std::vector<CellRepair> journaled;
        std::vector<Diagnostic> journaled_diags;
        for (const WalChunk& chunk : scanned->chunks) {
          for (const WalCellDelta& delta : chunk.deltas) {
            journaled.push_back(
                {chunk.base_row + delta.row, static_cast<AttrId>(delta.attr),
                 delta.old_is_null ? kNullValue
                                   : data.pool->Intern(delta.old_value),
                 data.pool->Intern(delta.new_value), delta.rule_index});
          }
          journaled_diags.insert(journaled_diags.end(),
                                 chunk.quarantined.begin(),
                                 chunk.quarantined.end());
        }
        EXPECT_EQ(journaled, ref.log) << context;
        EXPECT_EQ(journaled_diags, policy == OnErrorPolicy::kQuarantine
                                       ? ref.diagnostics
                                       : std::vector<Diagnostic>{})
            << context;
      }
    }
  }
}

TEST(DriverMatrix, HospStreamsMatchSerial) { RunStreamMatrix(Hosp()); }

TEST(DriverMatrix, UisStreamsMatchSerial) { RunStreamMatrix(Uis()); }

void RunCRepairMatrix(const Dataset& data) {
  ASSERT_GT(data.rules.size(), 0u) << data.name;
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(data.rules);
  Table crepaired = data.dirty;
  ChaseRepairer(&data.rules).RepairTable(&crepaired);
  const std::string input = ToCsv(data.dirty);
  struct Route {
    size_t threads;
    size_t shards;
  };
  const Route routes[] = {{1, 0}, {2, 0}, {PoolWidth(), 0}, {1, 3}};
  const size_t chunkings[] = {1, 7, 4096, RepairConfig::kWholeFile};

  size_t lenient_failures = 0;
  for (const OnErrorPolicy policy : kPolicies) {
    const Reference ref = SerialReference(*dict, data.dirty, policy,
                                          /*use_memo=*/false,
                                          RepairEngine::kCRepair);
    const std::string policy_name =
        data.name + " crepair " + OnErrorPolicyName(policy);
    if (policy == OnErrorPolicy::kAbort) {
      EXPECT_EQ(ref.csv, ToCsv(crepaired)) << policy_name;
    } else {
      ExpectMatchesCRepair(ref, data.dirty, crepaired, policy_name);
      lenient_failures += ref.diagnostics.size();
    }
    for (const Route& route : routes) {
      RepairConfig config;
      config.engine = RepairEngine::kCRepair;
      config.threads = route.threads;
      config.shards = route.shards;
      config.on_error = policy;
      if (policy != OnErrorPolicy::kAbort) {
        config.max_chase_steps = ChaseBudget(config.engine, *dict);
      }
      const std::string base = policy_name +
                               " threads=" + std::to_string(route.threads) +
                               " shards=" + std::to_string(route.shards);
      {
        MetricsRegistry::Global().ResetAllForTest();
        Table table = data.dirty;
        VectorQuarantineSink sink;
        RepairConfig table_config = config;
        if (policy == OnErrorPolicy::kQuarantine) {
          table_config.quarantine = &sink;
        }
        RepairDriver driver(*dict, table_config);
        std::vector<CellRepair> log;
        driver.set_write_log(&log);
        const RepairStats stats = driver.Run(&table);
        EXPECT_EQ(ToCsv(table), ref.csv) << base;
        EXPECT_EQ(driver.failures(), ref.diagnostics) << base;
        EXPECT_EQ(sink.diagnostics(),
                  policy == OnErrorPolicy::kQuarantine
                      ? ref.diagnostics
                      : std::vector<Diagnostic>{})
            << base;
        EXPECT_EQ(log, ref.log) << base;
        ExpectSameCounters(stats, ref.stats, /*chase_internals=*/false,
                           /*probe_mechanics=*/false, base);
        if (kMetricsEnabled) {
          EXPECT_EQ(CounterValue("fixrep.crepair.tuples_examined"),
                    stats.tuples_examined)
              << base;
          EXPECT_EQ(CounterValue("fixrep.lrepair.tuples_examined"), 0u)
              << base;
          EXPECT_EQ(CounterValue("fixrep.memo.misses"), 0u) << base;
        }
      }
      for (const size_t chunk_rows : chunkings) {
        config.chunk_rows = chunk_rows;
        const std::string context =
            base + " chunk_rows=" + std::to_string(chunk_rows);
        const StreamResult run = RunStream(data, config, input);
        EXPECT_EQ(run.csv, ref.csv) << context;
        EXPECT_EQ(run.log, ref.log) << context;
        EXPECT_EQ(run.report.cells_changed, ref.stats.cells_changed)
            << context;
        EXPECT_EQ(run.report.tuples_quarantined, ref.diagnostics.size())
            << context;
        if (policy == OnErrorPolicy::kQuarantine) {
          EXPECT_EQ(run.diagnostics, ref.diagnostics) << context;
        }
      }
    }
  }
  // The budget must bite somewhere, or the lenient runs prove nothing.
  EXPECT_GT(lenient_failures, 0u) << data.name;
}

TEST(DriverMatrix, HospCRepairRunsMatchChaseRepairer) {
  RunCRepairMatrix(Hosp());
}

TEST(DriverMatrix, UisCRepairRunsMatchChaseRepairer) {
  RunCRepairMatrix(Uis());
}

// A driver reused across runs keeps its slots (one memo per slot across
// every run), publishes per run, and stays byte-identical.
TEST(DriverMatrix, ReusedDriverKeepsSlotsAcrossRuns) {
  const Dataset data = Hosp();
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(data.rules);
  const Reference ref =
      SerialReference(*dict, data.dirty, OnErrorPolicy::kAbort, true);
  for (const size_t threads : {size_t{1}, PoolWidth()}) {
    Table table = data.dirty;
    RepairDriver driver(*dict, {.threads = threads});
    std::vector<CellRepair> log;
    driver.set_write_log(&log);
    size_t cells_changed = 0;
    for (size_t begin = 0; begin < table.num_rows(); begin += 97) {
      const size_t end = std::min(table.num_rows(), begin + 97);
      cells_changed += driver.Run(&table, begin, end).cells_changed;
      EXPECT_LE(driver.slots(), PoolWidth());
    }
    const std::string context = "threads=" + std::to_string(threads);
    EXPECT_EQ(ToCsv(table), ref.csv) << context;
    EXPECT_EQ(log, ref.log) << context;
    EXPECT_EQ(cells_changed, ref.stats.cells_changed) << context;
  }
}

// A stream holds one driver, so one memo, across all its chunks: its memo
// hits equal a whole-table serial run's, however small the chunks.
TEST(DriverMatrix, StreamKeepsOneMemoAcrossChunks) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  Dataset data = Hosp();
  // Every tuple three times, far apart: only a memo that outlives the
  // chunks can hit on the repeats.
  Table repeated(data.dirty.schema_ptr(), data.pool);
  for (int copy = 0; copy < 3; ++copy) {
    for (size_t r = 0; r < data.dirty.num_rows(); ++r) {
      repeated.AppendRow(data.dirty.row(r).ToTuple());
    }
  }
  data.dirty = std::move(repeated);
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(data.rules);
  MetricsRegistry::Global().ResetAllForTest();
  Table table = data.dirty;
  RepairDriver(*dict, RepairConfig{}).Run(&table);
  const uint64_t want_hits = CounterValue("fixrep.memo.hits");
  ASSERT_GT(want_hits, 0u);
  for (const size_t chunk_rows : {size_t{1}, size_t{7}}) {
    MetricsRegistry::Global().ResetAllForTest();
    RepairConfig config;
    config.chunk_rows = chunk_rows;
    const StreamResult run = RunStream(data, config, ToCsv(data.dirty));
    EXPECT_EQ(run.csv, ToCsv(table)) << chunk_rows;
    EXPECT_EQ(CounterValue("fixrep.memo.hits"), want_hits) << chunk_rows;
  }
}

// ------------------------------------------------------- order oracle --

// `rules` with its rules renumbered by a seeded shuffle.
RuleSet Permuted(const RuleSet& rules, Rng* rng) {
  std::vector<size_t> order(rules.size());
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Uniform(i)]);
  }
  RuleSet permuted(rules.schema_ptr(), rules.pool_ptr());
  for (const size_t i : order) permuted.Add(rules.rule(i));
  return permuted;
}

// The oracle runs on each set as mined and as reloaded from its rule
// text, which must repair to the same bytes as the mined set.
TEST(OrderOracle, PermutedRuleOrderRepairsIdentically) {
  constexpr int kPermutations = 20;
  for (Dataset (*make)() : {Travel, Hosp, Uis}) {
    const Dataset data = make();
    ASSERT_GT(data.rules.size(), 1u) << data.name;
    const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(data.rules);
    Table reference = data.dirty;
    RepairDriver(*dict, RepairConfig{}).Run(&reference);
    const std::string want = ToCsv(reference);

    for (const bool reloaded : {false, true}) {
      const RuleSet rules =
          reloaded ? ParseRulesFromString(SerializeRules(data.rules),
                                          data.rules.schema_ptr(),
                                          data.rules.pool_ptr())
                   : data.rules;
      const std::string name = data.name + (reloaded ? " reloaded" : "");
      ASSERT_TRUE(IsConsistentStrict(rules)) << name;
      Rng rng(0x0dde4 + rules.size());
      for (int p = 0; p < kPermutations; ++p) {
        const RuleSet permuted = Permuted(rules, &rng);
        const std::unique_ptr<RuleDict> permuted_dict =
            RuleDict::CompileOrDie(permuted);
        for (const RepairConfig& config :
             {RepairConfig{.threads = 1},
              RepairConfig{.threads = PoolWidth()},
              RepairConfig{.shards = 3}}) {
          Table table = data.dirty;
          RepairDriver(*permuted_dict, config).Run(&table);
          EXPECT_EQ(ToCsv(table), want)
              << name << " permutation " << p << " threads "
              << config.threads << " shards " << config.shards;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fixrep
