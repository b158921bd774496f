#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/hosp.h"
#include "relation/active_domain.h"
#include "datagen/noise.h"
#include "datagen/uis.h"
#include "eval/metrics.h"
#include "relation/csv.h"
#include "repair/lrepair.h"
#include "rulegen/rulegen.h"
#include "rulegen/scale.h"
#include "rules/consistency.h"
#include "rules/fingerprint.h"
#include "rules/resolution.h"

namespace fixrep {
namespace {

struct Pipeline {
  GeneratedData data;
  Table dirty;

  explicit Pipeline(GeneratedData generated)
      : data(std::move(generated)), dirty(data.clean) {}
};

Pipeline SmallHospPipeline(double typo_share = 0.5) {
  HospOptions options;
  options.rows = 6000;
  options.num_hospitals = 300;
  options.num_measures = 20;
  Pipeline pipeline(GenerateHosp(options));
  NoiseOptions noise;
  noise.typo_share = typo_share;
  InjectNoise(&pipeline.dirty,
              ConstraintAttributes(*pipeline.data.schema, pipeline.data.fds),
              noise);
  return pipeline;
}

TEST(RuleGenTest, GeneratedRulesAreStructurallyValid) {
  Pipeline pipeline = SmallHospPipeline();
  RuleGenOptions options;
  options.max_rules = 200;
  // RuleSet::Add validates every rule against the schema, so successful
  // construction is the assertion.
  const RuleSet rules = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                      pipeline.data.fds, options);
  EXPECT_GT(rules.size(), 0u);
  for (const auto& rule : rules.rules()) {
    EXPECT_FALSE(rule.negative_patterns.empty());
    EXPECT_FALSE(rule.IsNegative(rule.fact));
  }
}

TEST(RuleGenTest, RespectsMaxRules) {
  Pipeline pipeline = SmallHospPipeline();
  RuleGenOptions options;
  options.max_rules = 50;
  options.resolve_conflicts = false;
  const RuleSet rules = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                      pipeline.data.fds, options);
  EXPECT_LE(rules.size(), 50u);
  EXPECT_GT(rules.size(), 0u);
}

TEST(RuleGenTest, ResolvedSetIsConsistent) {
  Pipeline pipeline = SmallHospPipeline();
  RuleGenOptions options;
  options.max_rules = 300;
  const RuleSet rules = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                      pipeline.data.fds, options);
  EXPECT_TRUE(IsConsistentChar(rules));
}

TEST(RuleGenTest, FactsComeFromCleanData) {
  Pipeline pipeline = SmallHospPipeline();
  RuleGenOptions options;
  options.max_rules = 100;
  const RuleSet rules = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                      pipeline.data.fds, options);
  // Every fact value must occur somewhere in the clean column of its
  // target attribute.
  const auto domains = ActiveDomains(pipeline.data.clean);
  for (const auto& rule : rules.rules()) {
    const auto& domain = domains[static_cast<size_t>(rule.target)];
    EXPECT_NE(std::find(domain.begin(), domain.end(), rule.fact),
              domain.end());
  }
}

// The dense value marks of GenerateRules are indexed by the clean pool's
// ids, so a dirty table on another pool is refused, not read.
TEST(RuleGenDeathTest, TablesOnDifferentPoolsAbort) {
  Pipeline pipeline = SmallHospPipeline();
  Table dirty(pipeline.data.schema, std::make_shared<ValuePool>());
  for (size_t r = 0; r < pipeline.dirty.num_rows(); ++r) {
    std::vector<std::string> fields;
    for (size_t a = 0; a < pipeline.dirty.num_columns(); ++a) {
      fields.push_back(pipeline.data.clean.pool().GetString(
          pipeline.dirty.cell(r, static_cast<AttrId>(a))));
    }
    dirty.AppendRowStrings(fields);
  }
  EXPECT_DEATH(GenerateRules(pipeline.data.clean, dirty, pipeline.data.fds,
                             RuleGenOptions{}),
               "share a value pool");
}

TEST(RuleGenTest, DeterministicForSameSeed) {
  Pipeline pipeline = SmallHospPipeline();
  RuleGenOptions options;
  options.max_rules = 120;
  const RuleSet a = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                  pipeline.data.fds, options);
  const RuleSet b = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                  pipeline.data.fds, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.rule(i), b.rule(i));
}

TEST(RuleGenTest, MoreExtraNegativesMeansBiggerRules) {
  Pipeline pipeline = SmallHospPipeline();
  RuleGenOptions small;
  small.max_rules = 100;
  small.extra_negatives_per_rule = 0;
  RuleGenOptions big = small;
  big.extra_negatives_per_rule = 6;
  const RuleSet rules_small = GenerateRules(
      pipeline.data.clean, pipeline.dirty, pipeline.data.fds, small);
  const RuleSet rules_big = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                          pipeline.data.fds, big);
  EXPECT_GT(rules_big.TotalSize(), rules_small.TotalSize());
}

TEST(RuleGenTest, RulesRepairDirtyDataWithHighPrecision) {
  Pipeline pipeline = SmallHospPipeline();
  RuleGenOptions options;
  options.max_rules = 600;
  const RuleSet rules = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                      pipeline.data.fds, options);
  Table repaired = pipeline.dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&repaired);
  const Accuracy accuracy =
      EvaluateRepair(pipeline.data.clean, pipeline.dirty, repaired);
  EXPECT_GT(accuracy.cells_corrected, 0u);
  EXPECT_GT(accuracy.precision(), 0.9);
}

TEST(RuleGenTest, WorksOnUis) {
  UisOptions uis_options;
  uis_options.rows = 4000;
  Pipeline pipeline{GenerateUis(uis_options)};
  InjectNoise(&pipeline.dirty,
              ConstraintAttributes(*pipeline.data.schema, pipeline.data.fds),
              NoiseOptions{});
  RuleGenOptions options;
  options.max_rules = 100;
  const RuleSet rules = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                      pipeline.data.fds, options);
  EXPECT_GT(rules.size(), 0u);
  EXPECT_TRUE(IsConsistentChar(rules));
}

// ------------------------------------------------------ pinned output --

// The (clean, dirty) pair `fixrep_cli gen-data` writes, read back the way
// `gen-rules` reads it: both CSVs into one fresh pool, clean first, so
// ValueIds (and with them the enrichment draws over out-of-domain
// values) are the CLI's.
Pipeline CliPipeline(GeneratedData generated, uint64_t seed) {
  Table dirty = generated.clean;
  NoiseOptions noise;
  noise.noise_rate = 0.10;
  noise.typo_share = 0.5;
  noise.seed = seed ^ 0xd1e7;
  InjectNoise(&dirty, ConstraintAttributes(*generated.schema, generated.fds),
              noise);
  std::stringstream clean_csv;
  std::stringstream dirty_csv;
  WriteCsv(generated.clean, clean_csv);
  WriteCsv(dirty, dirty_csv);
  auto pool = std::make_shared<ValuePool>();
  GeneratedData reread(pool, generated.schema);
  reread.clean = ReadCsv(clean_csv, "data", pool);
  reread.schema = reread.clean.schema_ptr();
  reread.fds = generated.fds;
  Pipeline pipeline(std::move(reread));
  pipeline.dirty = ReadCsv(dirty_csv, "data", pool);
  return pipeline;
}

Pipeline CliHosp(uint64_t seed) {
  HospOptions options;
  options.rows = 20000;
  options.num_hospitals = options.rows / 30;
  options.seed = seed;
  return CliPipeline(GenerateHosp(options), seed);
}

Pipeline CliUis() {
  UisOptions options;
  options.seed = 1;
  return CliPipeline(GenerateUis(options), 1);
}

struct MinedPin {
  uint64_t fingerprint;
  size_t rules;
  size_t patterns_removed;
  size_t rules_dropped;
};

// Mines with the CLI's default options and checks the result against
// values recorded before rule mining and the consistency check were
// optimized. Moving a pin is a change to the mined rules, not a
// refactor: it changes every `gen-rules` output on that data.
void ExpectMinedPin(const Pipeline& pipeline, const MinedPin& pin) {
  RuleGenOptions options;
  const RuleSet rules = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                      pipeline.data.fds, options);
  EXPECT_EQ(RuleSetFingerprint(rules), pin.fingerprint);
  EXPECT_EQ(rules.size(), pin.rules);

  options.resolve_conflicts = false;
  RuleSet unresolved = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                     pipeline.data.fds, options);
  const ResolutionReport report = ResolveByPruning(&unresolved);
  EXPECT_EQ(report.patterns_removed, pin.patterns_removed);
  EXPECT_EQ(report.dropped_rules.size(), pin.rules_dropped);
  EXPECT_EQ(RuleSetFingerprint(unresolved), pin.fingerprint);
}

TEST(RuleGenPinTest, Hosp20kSeed1) {
  ExpectMinedPin(CliHosp(1), {0x02f93d8b348c1a37, 992, 1037, 8});
}

TEST(RuleGenPinTest, Hosp20kSeed7) {
  ExpectMinedPin(CliHosp(7), {0x53161954cf1592f5, 991, 1043, 9});
}

TEST(RuleGenPinTest, Uis) {
  ExpectMinedPin(CliUis(), {0x8f2bbdfe1181f596, 998, 74, 2});
}

// ----------------------------------------------- scale rule generator --

std::shared_ptr<const Schema> ScaleSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<std::string>{"a", "b", "c", "d", "e"});
}

TEST(ScaleRuleGenTest, IsDeterministicAcrossPools) {
  ScaleRuleGenOptions options;
  options.scale = 500;
  const auto schema = ScaleSchema();
  const RuleSet first =
      GenerateScaleRules(schema, std::make_shared<ValuePool>(), options);
  EXPECT_EQ(first.size(), 500u);

  // A pool that interned other strings first shifts every ValueId; the
  // corpus identity must not depend on that.
  auto salted = std::make_shared<ValuePool>();
  salted->Intern("unrelated");
  const RuleSet second = GenerateScaleRules(schema, salted, options);
  EXPECT_EQ(RuleSetFingerprint(first), RuleSetFingerprint(second));

  ScaleRuleGenOptions other_seed = options;
  other_seed.seed = options.seed + 1;
  const RuleSet third = GenerateScaleRules(
      schema, std::make_shared<ValuePool>(), other_seed);
  EXPECT_NE(RuleSetFingerprint(first), RuleSetFingerprint(third));
}

TEST(ScaleRuleGenTest, CorpusIsConsistentByConstruction) {
  ScaleRuleGenOptions options;
  options.scale = 400;
  const RuleSet rules = GenerateScaleRules(
      ScaleSchema(), std::make_shared<ValuePool>(), options);
  EXPECT_TRUE(IsConsistentChar(rules));
}

TEST(ScaleRuleGenTest, AppendsToAnOrganicSet) {
  Pipeline pipeline = SmallHospPipeline();
  RuleGenOptions organic;
  organic.max_rules = 50;
  RuleSet rules = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                pipeline.data.fds, organic);
  const size_t organic_count = rules.size();
  ASSERT_GT(organic_count, 0u);

  ScaleRuleGenOptions options;
  options.scale = 300;
  AppendScaleRules(&rules, options);
  EXPECT_EQ(rules.size(), organic_count + 300);

  // Synthetic constants are rule-unique, so the combined set still
  // repairs the organic dirt exactly as the organic set alone would.
  Table organic_only = pipeline.dirty;
  {
    RuleSet baseline = GenerateRules(pipeline.data.clean, pipeline.dirty,
                                     pipeline.data.fds, organic);
    FastRepairer repairer(&baseline);
    repairer.RepairTable(&organic_only);
  }
  Table combined = pipeline.dirty;
  FastRepairer repairer(&rules);
  repairer.RepairTable(&combined);
  ASSERT_EQ(combined.num_rows(), organic_only.num_rows());
  for (size_t r = 0; r < combined.num_rows(); ++r) {
    for (AttrId a = 0; a < combined.schema().arity(); ++a) {
      EXPECT_EQ(combined.cell(r, a), organic_only.cell(r, a))
          << "row " << r << " attr " << static_cast<int>(a);
    }
  }
}

}  // namespace
}  // namespace fixrep
