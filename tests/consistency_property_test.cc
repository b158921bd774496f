#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metric_scope.h"
#include "common/random.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/uis.h"
#include "rulegen/rulegen.h"
#include "rules/consistency.h"
#include "testing_util.h"

namespace fixrep {
namespace {

using testing::RandomRuleUniverse;

// The rule-characterization checker (Fig. 4) and the tuple-enumeration
// checker decide the same language; cross-validate them on randomized
// rule pairs and sets. Each parameter value seeds one independent batch.
class CheckerAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckerAgreementTest, PairwiseAgreement) {
  RandomRuleUniverse universe;
  Rng rng(GetParam());
  const size_t arity = universe.schema->arity();
  for (int trial = 0; trial < 300; ++trial) {
    const FixingRule a = universe.RandomRule(&rng);
    const FixingRule b = universe.RandomRule(&rng);
    Conflict char_conflict;
    Conflict enum_conflict;
    const bool by_char = PairConsistentChar(a, b, arity, &char_conflict);
    const bool by_enum = PairConsistentEnum(a, b, arity, &enum_conflict);
    ASSERT_EQ(by_char, by_enum)
        << "checkers disagree (trial " << trial << ")\n  a: "
        << a.Format(*universe.schema, *universe.pool)
        << "\n  b: " << b.Format(*universe.schema, *universe.pool);
    if (!by_enum) {
      // The enumeration witness must really diverge.
      Tuple ab = enum_conflict.witness;
      Tuple ba = enum_conflict.witness;
      ChaseWithPriority({&a, &b}, &ab);
      ChaseWithPriority({&b, &a}, &ba);
      EXPECT_NE(ab, ba);
    }
  }
}

TEST_P(CheckerAgreementTest, WholeSetAgreement) {
  RandomRuleUniverse universe;
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 40; ++trial) {
    RuleSet rules(universe.schema, universe.pool);
    const size_t n = 2 + rng.Uniform(6);
    for (size_t i = 0; i < n; ++i) rules.Add(universe.RandomRule(&rng));
    EXPECT_EQ(IsConsistentChar(rules), IsConsistentEnum(rules))
        << "set checkers disagree on trial " << trial;
  }
}

TEST_P(CheckerAgreementTest, CharWitnessDiverges) {
  // Every conflict the characterization checker reports must come with a
  // witness tuple whose two chase orders truly diverge.
  RandomRuleUniverse universe;
  Rng rng(GetParam() ^ 0x1234);
  const size_t arity = universe.schema->arity();
  int conflicts_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const FixingRule a = universe.RandomRule(&rng);
    const FixingRule b = universe.RandomRule(&rng);
    Conflict conflict;
    if (PairConsistentChar(a, b, arity, &conflict)) continue;
    ++conflicts_seen;
    ASSERT_EQ(conflict.witness.size(), arity);
    Tuple ab = conflict.witness;
    Tuple ba = conflict.witness;
    ChaseWithPriority({&a, &b}, &ab);
    ChaseWithPriority({&b, &a}, &ba);
    EXPECT_NE(ab, ba)
        << "non-divergent witness\n  a: "
        << a.Format(*universe.schema, *universe.pool)
        << "\n  b: " << b.Format(*universe.schema, *universe.pool);
  }
  // The universe is small enough that conflicts are common; make sure
  // the assertion above was actually exercised.
  EXPECT_GT(conflicts_seen, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerAgreementTest,
                         ::testing::Range<uint64_t>(0, 24));

// ------------------------------------------ the candidate-pair join --
//
// IsConsistentChar and IsConsistentStrict check only the pairs Prop. 3
// lets conflict. Oracle: a loop over every pair with the public pair
// checkers must report the same conflicts (indices, kinds, witnesses,
// order), in find_all and first-conflict mode.

using PairChecker = bool (*)(const FixingRule&, const FixingRule&, size_t,
                             Conflict*);

std::vector<Conflict> AllPairsReference(const RuleSet& rules,
                                        PairChecker checker, bool find_all) {
  std::vector<Conflict> out;
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = i + 1; j < rules.size(); ++j) {
      Conflict conflict;
      if (checker(rules.rule(i), rules.rule(j), rules.schema().arity(),
                  &conflict)) {
        continue;
      }
      conflict.rule_i = i;
      conflict.rule_j = j;
      out.push_back(std::move(conflict));
      if (!find_all) return out;
    }
  }
  return out;
}

// Checks both characterizations in both modes against the reference and
// returns the candidate pairs the strict find_all run checked.
uint64_t ExpectJoinMatchesAllPairs(const RuleSet& rules,
                                   const std::string& label) {
  const uint64_t all_pairs = rules.size() * (rules.size() - 1) / 2;
  uint64_t strict_candidates = 0;
  for (const bool strict : {false, true}) {
    for (const bool find_all : {true, false}) {
      SCOPED_TRACE(label + (strict ? " strict" : " char") +
                   (find_all ? " find_all" : " first"));
      MetricScope scope;
      std::vector<Conflict> got;
      bool consistent;
      {
        MetricScope::Activation active(&scope);
        consistent = strict ? IsConsistentStrict(rules, &got, find_all)
                            : IsConsistentChar(rules, &got, find_all);
      }
      const std::vector<Conflict> want = AllPairsReference(
          rules, strict ? &PairConsistentStrictChar : &PairConsistentChar,
          find_all);
      EXPECT_EQ(consistent, want.empty());
      EXPECT_EQ(got.size(), want.size());
      for (size_t k = 0; k < std::min(got.size(), want.size()); ++k) {
        EXPECT_EQ(got[k].rule_i, want[k].rule_i) << "conflict " << k;
        EXPECT_EQ(got[k].rule_j, want[k].rule_j) << "conflict " << k;
        EXPECT_EQ(got[k].kind, want[k].kind) << "conflict " << k;
        EXPECT_EQ(got[k].witness, want[k].witness) << "conflict " << k;
      }
      const uint64_t checked =
          scope.registry()
              .FindCounter("fixrep.consistency.pairs_checked")
              ->Value();
      EXPECT_LE(checked, all_pairs);
      if (strict && find_all) strict_candidates = checked;
    }
  }
  return strict_candidates;
}

class JoinRandomOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinRandomOracleTest, RandomSets) {
  // Sets of 600 rules put 60-80 rules on a key, past the size at which
  // the join groups a key's rules by evidence pattern.
  RandomRuleUniverse universe;
  Rng rng(GetParam() ^ 0x701);
  for (const size_t n : {2, 7, 40, 150, 600}) {
    RuleSet rules(universe.schema, universe.pool);
    for (size_t i = 0; i < n; ++i) rules.Add(universe.RandomRule(&rng));
    ExpectJoinMatchesAllPairs(rules, "random n=" + std::to_string(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinRandomOracleTest,
                         ::testing::Range<uint64_t>(0, 6));

// Mines rules without resolution (so the set carries the conflicts the
// resolver would remove) and with it.
RuleSet Mined(GeneratedData data, bool resolve) {
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  RuleGenOptions options;
  options.resolve_conflicts = resolve;
  return GenerateRules(data.clean, dirty, data.fds, options);
}

GeneratedData SmallHosp() {
  HospOptions options;
  options.rows = 6000;
  options.num_hospitals = 200;
  return GenerateHosp(options);
}

GeneratedData SmallUis() {
  UisOptions options;
  options.rows = 4000;
  return GenerateUis(options);
}

TEST(JoinOracleTest, MinedSets) {
  for (const bool resolve : {false, true}) {
    const RuleSet hosp = Mined(SmallHosp(), resolve);
    const RuleSet uis = Mined(SmallUis(), resolve);
    ASSERT_GT(hosp.size(), 100u);
    ASSERT_GT(uis.size(), 100u);
    // The unresolved set conflicts, so the comparison is not vacuous.
    EXPECT_EQ(IsConsistentStrict(hosp), resolve);
    ExpectJoinMatchesAllPairs(hosp, resolve ? "hosp resolved" : "hosp");
    ExpectJoinMatchesAllPairs(uis, resolve ? "uis resolved" : "uis");
  }
}

// bench_fig09's PlantConflict: a clone of a random rule with a diverging
// fact (a case-1 conflict with its original) at a random position.
RuleSet PlantConflict(const RuleSet& rules, Rng* rng) {
  FixingRule conflicting = rules.rule(rng->Uniform(rules.size()));
  conflicting.fact = rules.pool_ptr()->Intern(
      "__conflict_fact_" + std::to_string(rng->Next()));
  RuleSet out(rules.schema_ptr(), rules.pool_ptr());
  const size_t position = rng->Uniform(rules.size() + 1);
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i == position) out.Add(conflicting);
    out.Add(rules.rule(i));
  }
  if (position == rules.size()) out.Add(conflicting);
  return out;
}

TEST(JoinOracleTest, PlantedConflicts) {
  const RuleSet hosp = Mined(SmallHosp(), true);
  const RuleSet uis = Mined(SmallUis(), true);
  Rng rng(0xf19);
  for (int k = 0; k < 10; ++k) {
    const RuleSet planted = PlantConflict(k % 2 == 0 ? hosp : uis, &rng);
    EXPECT_FALSE(IsConsistentChar(planted));
    ExpectJoinMatchesAllPairs(planted, "planted " + std::to_string(k));
  }
}

TEST(JoinOracleTest, HotKey) {
  // 400 rules target a0 and share the negative value "hot"; 200 more
  // carry a0 = hot as evidence. Every pair of the first 400 shares a
  // key, as does every pair across the two groups, so only grouping by
  // evidence pattern keeps the candidates below all pairs.
  auto pool = std::make_shared<ValuePool>();
  auto schema = std::make_shared<const Schema>(
      "R", std::vector<std::string>{"a0", "a1", "a2", "a3", "a4", "a5"});
  Rng rng(0x407);
  auto value = [&](AttrId attr, size_t k) {
    return pool->Intern("a" + std::to_string(attr) + "v" + std::to_string(k));
  };
  const ValueId hot = pool->Intern("hot");
  auto random_evidence = [&](FixingRule* rule) {
    for (AttrId a = 1; a < 6; ++a) {
      if (a == rule->target || !rng.Bernoulli(0.6)) continue;
      rule->evidence_attrs.push_back(a);
      rule->evidence_values.push_back(value(a, rng.Uniform(4)));
    }
  };
  RuleSet rules(schema, pool);
  for (size_t i = 0; i < 400; ++i) {
    FixingRule rule;
    rule.target = 0;
    random_evidence(&rule);
    rule.negative_patterns = {hot, value(0, i)};
    std::sort(rule.negative_patterns.begin(), rule.negative_patterns.end());
    rule.fact = value(0, 1000 + rng.Uniform(3));
    rules.Add(rule);
  }
  for (size_t i = 0; i < 200; ++i) {
    FixingRule rule;
    rule.target = static_cast<AttrId>(1 + rng.Uniform(5));
    rule.evidence_attrs = {0};
    rule.evidence_values = {hot};
    random_evidence(&rule);
    rule.negative_patterns = {value(rule.target, 500 + i)};
    rule.fact = value(rule.target, 1000);
    rules.Add(rule);
  }
  const uint64_t candidates = ExpectJoinMatchesAllPairs(rules, "hot key");
  EXPECT_GT(candidates, 0u);
  EXPECT_LT(candidates, uint64_t{400} * 399 / 2 + 400 * 200);
  EXPECT_FALSE(IsConsistentChar(rules));
}

}  // namespace
}  // namespace fixrep
