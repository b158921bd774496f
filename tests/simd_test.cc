// Kernel-independence suite for the vectorized evidence-matching path
// (common/simd.h, RuleSource::LookupBatch, FastRepairer row
// groups): every SIMD kernel must produce bit-identical hashes, probe
// results, repaired output, and chase-semantic metrics. The scalar
// kernel always participates, so the fallback path is exercised even on
// AVX2 machines. Labeled `simd` (also `repair`) — run the label under
// TSan to vet the pooled row-group path.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "repair/driver.h"
#include "repair/lrepair.h"
#include "repair/session.h"
#include "repair/streaming.h"
#include "rulegen/rulegen.h"
#include "testing_util.h"

namespace fixrep {
namespace {

std::vector<SimdKernel> SupportedKernels() {
  std::vector<SimdKernel> kernels = {SimdKernel::kScalar};
  if (SimdKernelSupported(SimdKernel::kSse)) {
    kernels.push_back(SimdKernel::kSse);
  }
  if (SimdKernelSupported(SimdKernel::kAvx2)) {
    kernels.push_back(SimdKernel::kAvx2);
  }
  return kernels;
}

// Restores the process-wide active kernel on scope exit so tests that
// pin a kernel cannot leak it into later tests in the binary.
class SimdKernelGuard {
 public:
  SimdKernelGuard() : saved_(ActiveSimdKernel()) {}
  ~SimdKernelGuard() { SetSimdKernel(saved_); }

 private:
  SimdKernel saved_;
};

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(SimdKernelSupported(SimdKernel::kScalar));
  EXPECT_STREQ(SimdKernelName(SimdKernel::kScalar), "scalar");
  EXPECT_STREQ(SimdKernelName(SimdKernel::kSse), "sse");
  EXPECT_STREQ(SimdKernelName(SimdKernel::kAvx2), "avx2");
  // Best is one of the supported kernels by definition.
  EXPECT_TRUE(SimdKernelSupported(BestSupportedSimdKernel()));
}

TEST(SimdDispatchTest, SetSimdKernelRoundTrips) {
  SimdKernelGuard guard;
  for (const SimdKernel kernel : SupportedKernels()) {
    SetSimdKernel(kernel);
    EXPECT_EQ(ActiveSimdKernel(), kernel);
  }
}

// HashBatch is the function the kernels actually vectorize; everything
// downstream is shared scalar code. Bit-identity here, across sizes that
// straddle the SSE (2-wide) and AVX2 (4-wide) vector tails, is the core
// guarantee.
TEST(HashBatchTest, BitIdenticalAcrossKernelsAndSizes) {
  const std::vector<SimdKernel> kernels = SupportedKernels();
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                         size_t{4}, size_t{5}, size_t{7}, size_t{8},
                         size_t{15}, size_t{16}, size_t{17}, size_t{31},
                         size_t{33}, size_t{64}, size_t{100}}) {
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) {
      // Half realistic packed keys (small attr, small value), half
      // arbitrary bit patterns.
      keys[i] = (i % 2 == 0)
                    ? RuleSource::PackKey(
                          static_cast<AttrId>(i % 64),
                          static_cast<ValueId>(i * 13))
                    : SplitMix64(0x9e3779b97f4a7c15ULL * (i + 1));
    }
    std::vector<uint64_t> expected(n);
    for (size_t i = 0; i < n; ++i) expected[i] = SplitMix64(keys[i]);
    for (const SimdKernel kernel : kernels) {
      std::vector<uint64_t> got(n, 0);
      HashBatch(kernel, keys.data(), n, got.data());
      EXPECT_EQ(got, expected)
          << "kernel " << SimdKernelName(kernel) << " n=" << n;
    }
  }
}

// LookupBatch fuzz: random rule universe, probe keys mixing real
// evidence cells, absent values, and packed null cells, at batch sizes
// straddling the 16-key sub-batch boundary. Every kernel must return
// exactly what per-key Lookup returns.
TEST(LookupBatchTest, MatchesScalarLookupOnFuzzedKeys) {
  testing::RandomRuleUniverse universe;
  Rng rng(0x51a7);
  RuleSet rules(universe.schema, universe.pool);
  for (int i = 0; i < 200; ++i) rules.Add(universe.RandomRule(&rng));
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
  const std::unique_ptr<RuleDictHandle> handle = dict->MakeHandle();
  const RuleSource& source = handle->source();
  const auto arity = static_cast<AttrId>(universe.schema->arity());
  const std::vector<SimdKernel> kernels = SupportedKernels();

  for (const size_t n : {size_t{1}, size_t{2}, size_t{15}, size_t{16},
                         size_t{17}, size_t{33}, size_t{64}, size_t{129}}) {
    std::vector<uint64_t> keys(n);
    std::vector<PostingRange> expected(n);
    std::vector<bool> absent(n, false);
    for (size_t i = 0; i < n; ++i) {
      const AttrId attr = static_cast<AttrId>(rng.Uniform(arity));
      const uint64_t mix = rng.Uniform(4);
      if (mix == 1) {
        // An image id no string carries: probes to an empty range.
        keys[i] = RuleSource::PackKey(
            attr, static_cast<ValueId>(1000000 + rng.Uniform(1000)));
        absent[i] = true;
        continue;
      }
      const ValueId value =
          mix == 0 ? kNullValue  // a null cell's packed key
                   : universe.Value(attr, static_cast<int>(rng.Uniform(
                                              universe.values_per_attribute)));
      keys[i] = source.ProbeKey(attr, value);
      expected[i] = source.Lookup(attr, value);
    }
    for (const SimdKernel kernel : kernels) {
      std::vector<PostingRange> out(n);
      source.LookupBatch(kernel, keys.data(), n, out.data());
      for (size_t i = 0; i < n; ++i) {
        if (absent[i]) {
          EXPECT_TRUE(out[i].empty())
              << "kernel " << SimdKernelName(kernel) << " key " << i;
          continue;
        }
        EXPECT_EQ(out[i].begin, expected[i].begin)
            << "kernel " << SimdKernelName(kernel) << " key " << i;
        EXPECT_EQ(out[i].end, expected[i].end)
            << "kernel " << SimdKernelName(kernel) << " key " << i;
      }
    }
  }
}

// MatchesFlat must agree with FixingRule::Matches on random tuples —
// it is the chase's candidate re-verification, flattened.
TEST(MatchesFlatTest, AgreesWithRuleMatches) {
  testing::RandomRuleUniverse universe;
  Rng rng(0xf1a7);
  RuleSet rules(universe.schema, universe.pool);
  for (int i = 0; i < 100; ++i) rules.Add(universe.RandomRule(&rng));
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
  const std::unique_ptr<RuleDictHandle> handle = dict->MakeHandle();
  for (int trial = 0; trial < 500; ++trial) {
    const Tuple t = universe.RandomTuple(&rng);
    for (uint32_t i = 0; i < rules.size(); ++i) {
      ASSERT_EQ(handle->source().MatchesFlat(i, TupleRef(t)),
                rules.rule(i).Matches(TupleRef(t)))
          << "rule " << i;
    }
  }
}

// --- cross-kernel end-to-end property: byte-identical repairs and
// identical chase-semantic metrics on every engine/policy combo. ---

// The counters every kernel must reproduce exactly: the chase-semantic
// ones, and the probe mechanics too, since every kernel probes through
// the same LookupBatch schedule.
std::vector<size_t> ChaseSignature(const RepairStats& stats) {
  return {stats.tuples_examined,     stats.tuples_changed,
          stats.cells_changed,       stats.rule_applications,
          stats.index_hits,          stats.counter_bumps,
          stats.candidates_enqueued, stats.candidates_rejected,
          stats.batch_probes,        stats.batch_keys};
}

std::string TableCsv(const Table& table) {
  std::ostringstream out;
  WriteCsv(table, out);
  return out.str();
}

struct EngineRun {
  std::string output;            // repaired bytes
  std::vector<size_t> metrics;   // ChaseSignature
};

// One workload, one engine configuration, run under `kernel`.
using EngineFn = EngineRun (*)(const Table& dirty, const RuleSet& rules);

EngineRun RunSerial(const Table& dirty, const RuleSet& rules) {
  Table copy = dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&copy);
  return {TableCsv(copy), ChaseSignature(repairer.stats())};
}

EngineRun RunSerialMemo(const Table& dirty, const RuleSet& rules) {
  Table copy = dirty;
  FastRepairer repairer(&rules);
  MemoCache memo;
  repairer.set_memo(&memo);
  repairer.RepairTable(&copy);
  return {TableCsv(copy), ChaseSignature(repairer.stats())};
}

EngineRun RunPooled(const Table& dirty, const RuleSet& rules) {
  Table copy = dirty;
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
  const RepairStats stats =
      RepairDriver(*dict, {.threads = 3, .use_memo = false}).Run(&copy);
  return {TableCsv(copy), ChaseSignature(stats)};
}

EngineRun RunLenientBudget(const Table& dirty, const RuleSet& rules) {
  Table copy = dirty;
  FastRepairer repairer(&rules);
  repairer.set_max_chase_steps(2);  // small enough to trip on cascades
  size_t quarantined = 0;
  for (size_t r = 0; r < copy.num_rows(); ++r) {
    size_t changed = 0;
    if (!repairer.TryRepairTuple(copy.WriteRow(r), &changed).ok()) {
      ++quarantined;
    }
  }
  EngineRun run = {TableCsv(copy), ChaseSignature(repairer.stats())};
  run.metrics.push_back(quarantined);
  return run;
}

EngineRun StreamRun(const Table& dirty, const RuleSet& rules,
                    size_t chunk_rows) {
  const std::string input = TableCsv(dirty);
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
  RepairConfig config;
  config.chunk_rows = chunk_rows;
  std::istringstream in(input);
  std::ostringstream out;
  StatusOr<CsvChunkReader> reader =
      CsvChunkReader::Open(in, "simd_test", dirty.pool_ptr(), {});
  EXPECT_TRUE(reader.ok());
  RepairSession session(dict.get(), config);
  StreamInput stream_input(&reader.value(), config.chunk_rows);
  const StatusOr<RepairReport> result =
      session.RepairStream(&stream_input, out);
  EXPECT_TRUE(result.ok());
  return {out.str(), {result.value().rows, result.value().cells_changed}};
}

EngineRun RunStreamChunked(const Table& dirty, const RuleSet& rules) {
  return StreamRun(dirty, rules, 512);
}

EngineRun RunStreamWholeFile(const Table& dirty, const RuleSet& rules) {
  // No row limit: chunks end only at the reader's keep bound.
  return StreamRun(dirty, rules, RepairConfig::kWholeFile);
}

void ExpectKernelIndependent(const Table& dirty, const RuleSet& rules,
                             const char* workload) {
  SimdKernelGuard guard;
  const struct {
    const char* name;
    EngineFn run;
  } engines[] = {
      {"serial", RunSerial},           {"serial_memo", RunSerialMemo},
      {"pooled", RunPooled},           {"lenient_budget", RunLenientBudget},
      {"stream", RunStreamChunked},    {"stream_whole_file", RunStreamWholeFile},
  };
  for (const auto& engine : engines) {
    SetSimdKernel(SimdKernel::kScalar);
    const EngineRun reference = engine.run(dirty, rules);
    EXPECT_FALSE(reference.output.empty());
    for (const SimdKernel kernel : SupportedKernels()) {
      if (kernel == SimdKernel::kScalar) continue;
      SetSimdKernel(kernel);
      const EngineRun run = engine.run(dirty, rules);
      EXPECT_EQ(run.output, reference.output)
          << workload << "/" << engine.name << " output diverged under "
          << SimdKernelName(kernel);
      EXPECT_EQ(run.metrics, reference.metrics)
          << workload << "/" << engine.name << " metrics diverged under "
          << SimdKernelName(kernel);
    }
  }
}

TEST(SimdKernelIndependenceTest, Travel) {
  const TravelExample example;
  ExpectKernelIndependent(example.dirty, example.rules, "travel");
}

TEST(SimdKernelIndependenceTest, Hosp) {
  HospOptions hosp;
  hosp.rows = 2000;
  hosp.num_hospitals = 70;
  hosp.seed = 0x4051;
  GeneratedData data = GenerateHosp(hosp);
  Table dirty = data.clean;
  NoiseOptions noise;
  noise.seed = 0x77;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), noise);
  RuleGenOptions rulegen;
  rulegen.max_rules = 300;
  rulegen.seed = 0x9e37;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  ExpectKernelIndependent(dirty, rules, "hosp");
}

TEST(SimdKernelIndependenceTest, Uis) {
  UisOptions uis;
  uis.rows = 1500;
  uis.seed = 0x0715;
  GeneratedData data = GenerateUis(uis);
  Table dirty = data.clean;
  NoiseOptions noise;
  noise.seed = 0x78;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), noise);
  RuleGenOptions rulegen;
  rulegen.max_rules = 60;
  rulegen.seed = 0x9e38;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  ExpectKernelIndependent(dirty, rules, "uis");
}

// The batch metrics tick on every kernel — the scalar one included,
// since tuple init always probes through LookupBatch — and identically,
// otherwise the telemetry is wiring to dead or kernel-dependent counters.
TEST(SimdMetricsTest, BatchCountersTickOnBatchedPathOnly) {
  SimdKernelGuard guard;
  const TravelExample example;
  for (const SimdKernel kernel : SupportedKernels()) {
    SetSimdKernel(kernel);
    Table copy = example.dirty;
    FastRepairer repairer(&example.rules);
    repairer.RepairTable(&copy);
    const std::string context = SimdKernelName(kernel);
    // One LookupBatch per 64-row group (travel is one group), each
    // non-null cell probed exactly once.
    EXPECT_EQ(repairer.stats().batch_probes, 1u) << context;
    EXPECT_GT(repairer.stats().batch_keys, 0u) << context;
    EXPECT_LE(repairer.stats().batch_keys,
              example.dirty.num_rows() * example.dirty.num_columns())
        << context;
  }
}

}  // namespace
}  // namespace fixrep
