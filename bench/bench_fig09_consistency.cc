// Fig. 9 — efficiency of consistency checking.
//
// For hosp (rule counts 100..1000) and uis (10..100), times the paper's
// two checkers over all pairs, plus the library's candidate-pair join
// (IsConsistentChar):
//  * worst case: the set is consistent, so every pair is examined;
//  * real cases (x10): an inconsistent pair is planted at a random
//    position and the checker early-exits on detection.
//
// Paper shape: isConsist_r is faster than isConsist_t; real cases are at
// or below their worst case; 1000 rules check in seconds.
//
// A scale section then checks synthetic corpora (rulegen/scale.h) of 5K,
// 20K and 1M rules, and hot-key sets of 5K, 20K and 200K rules that all
// share one target and negative value, with the join and reports its
// candidate pairs; the all-pairs isConsist_r is timed up to 20K rules.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/metric_scope.h"
#include "common/random.h"
#include "common/timer.h"
#include "eval/text_table.h"
#include "rulegen/scale.h"
#include "rules/consistency.h"

namespace fixrep::bench {
namespace {

// Clones a random rule with a diverging fact so the pair (original,
// clone) violates case 1 of Fig. 4, and inserts it at a random index.
RuleSet PlantConflict(const RuleSet& rules, Rng* rng) {
  RuleSet planted = rules;
  const FixingRule& victim = planted.rule(rng->Uniform(planted.size()));
  FixingRule conflicting = victim;
  // Any value outside the negative patterns that differs from the
  // original fact diverges; fabricate one.
  conflicting.fact =
      planted.pool().Intern("__conflict_fact_" +
                            std::to_string(rng->Next()));
  RuleSet out(planted.schema_ptr(), planted.pool_ptr());
  const size_t position = rng->Uniform(planted.size() + 1);
  for (size_t i = 0; i < planted.size(); ++i) {
    if (i == position) out.Add(conflicting);
    out.Add(planted.rule(i));
  }
  if (position == planted.size()) out.Add(conflicting);
  return out;
}

using Checker = bool (*)(const RuleSet&, std::vector<Conflict>*, bool);

// isConsist_r as the paper runs it: PairConsistentChar on every pair.
bool AllPairsChar(const RuleSet& rules, std::vector<Conflict>* conflicts,
                  bool find_all) {
  bool consistent = true;
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = i + 1; j < rules.size(); ++j) {
      Conflict conflict;
      if (PairConsistentChar(rules.rule(i), rules.rule(j),
                             rules.schema().arity(), &conflict)) {
        continue;
      }
      consistent = false;
      conflict.rule_i = i;
      conflict.rule_j = j;
      if (conflicts != nullptr) conflicts->push_back(std::move(conflict));
      if (!find_all) return false;
    }
  }
  return consistent;
}

double TimeChecker(Checker checker, const RuleSet& rules,
                   bool expect_consistent) {
  Timer timer;
  const bool consistent = checker(rules, nullptr, false);
  const double ms = timer.ElapsedMillis();
  if (consistent != expect_consistent) {
    std::cerr << "unexpected checker verdict\n";
  }
  return ms;
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

void RunDataset(const char* name, const Workload& workload,
                const std::vector<size_t>& rule_counts, uint64_t seed) {
  std::cout << "\n-- Fig. 9 (" << name << "): consistency-check time --\n";
  TextTable table({"|Sigma|", "isConsist_t worst (ms)",
                   "isConsist_t real med/min/max (ms)",
                   "isConsist_r worst (ms)",
                   "isConsist_r real med/min/max (ms)", "join worst (ms)",
                   "join real med/min/max (ms)"});
  Rng rng(seed);
  for (const size_t count : rule_counts) {
    const RuleSet prefix = workload.rules.Prefix(count);
    const double enum_worst = TimeChecker(&IsConsistentEnum, prefix, true);
    const double char_worst = TimeChecker(&AllPairsChar, prefix, true);
    const double join_worst = TimeChecker(&IsConsistentChar, prefix, true);
    std::vector<double> enum_real;
    std::vector<double> char_real;
    std::vector<double> join_real;
    for (int k = 0; k < 10; ++k) {
      const RuleSet planted = PlantConflict(prefix, &rng);
      enum_real.push_back(TimeChecker(&IsConsistentEnum, planted, false));
      char_real.push_back(TimeChecker(&AllPairsChar, planted, false));
      join_real.push_back(TimeChecker(&IsConsistentChar, planted, false));
    }
    auto triple = [](std::vector<double> xs) {
      const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
      return FormatDouble(Median(xs), 2) + " / " + FormatDouble(*lo, 2) +
             " / " + FormatDouble(*hi, 2);
    };
    table.AddRow({std::to_string(prefix.size()),
                  FormatDouble(enum_worst, 2), triple(enum_real),
                  FormatDouble(char_worst, 2), triple(char_real),
                  FormatDouble(join_worst, 3), triple(join_real)});
  }
  table.Print(std::cout);
}

// Adds a row for a set that is consistent by construction: the join's
// time and candidate pairs, against all pairs timed up to 20K rules.
void AddScaleRow(const RuleSet& rules, TextTable* table) {
  MetricScope scope;
  double join_ms;
  {
    MetricScope::Activation active(&scope);
    join_ms = TimeChecker(&IsConsistentChar, rules, true);
  }
  const uint64_t candidates =
      scope.registry()
          .FindCounter("fixrep.consistency.pairs_checked")
          ->Value();
  const uint64_t n = rules.size();
  const std::string all_pairs_ms =
      n <= 20'000 ? FormatDouble(TimeChecker(&AllPairsChar, rules, true), 1)
                  : "-";
  table->AddRow({std::to_string(n), FormatDouble(join_ms, 1),
                 std::to_string(candidates), std::to_string(n * (n - 1) / 2),
                 all_pairs_ms});
}

// A constant such as "a42".
std::string Named(char prefix, size_t i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

// n rules under one hot key: all target h and share the negative value
// "hot". Every evidence set holds a, with {a}, {a, b} and {a, c} in
// turn, and rules 2k and 2k+1 share a's constant, so only those n/2
// pairs are evidence-compatible. One fact keeps the set consistent.
RuleSet HotKeyRules(const std::shared_ptr<const Schema>& schema, size_t n) {
  auto pool = std::make_shared<ValuePool>();
  RuleSet rules(schema, pool);
  const ValueId hot = pool->Intern("hot");
  const ValueId fact = pool->Intern("fact");
  for (size_t i = 0; i < n; ++i) {
    FixingRule rule;
    rule.evidence_attrs = {0};
    rule.evidence_values = {pool->Intern(Named('a', i / 2))};
    if (i % 3 != 0) {
      rule.evidence_attrs.push_back(static_cast<AttrId>(i % 3));
      rule.evidence_values.push_back(pool->Intern(Named('x', i)));
    }
    rule.target = 7;
    rule.negative_patterns = {hot, pool->Intern(Named('n', i))};
    std::sort(rule.negative_patterns.begin(), rule.negative_patterns.end());
    rule.fact = fact;
    rules.Add(std::move(rule));
  }
  return rules;
}

// The synthetic corpora of `gen-rules --scale` at 5K, 20K and 1M rules
// (rule-unique constants, so no key is shared), then hot-key sets where
// one key holds every rule.
void RunScale() {
  const auto schema = std::make_shared<const Schema>(
      "S", std::vector<std::string>{"a", "b", "c", "d", "e", "f", "g", "h"});
  const std::vector<std::string> columns = {
      "rules", "join (ms)", "candidate pairs", "all pairs",
      "isConsist_r all pairs (ms)"};
  std::cout << "\n-- consistency at scale (gen-rules --scale corpora) --\n";
  TextTable corpora(columns);
  for (const size_t scale : {size_t{5'000}, size_t{20'000},
                             size_t{1'000'000}}) {
    ScaleRuleGenOptions options;
    options.scale = scale;
    AddScaleRow(
        GenerateScaleRules(schema, std::make_shared<ValuePool>(), options),
        &corpora);
  }
  corpora.Print(std::cout);

  std::cout << "\n-- consistency at scale (one hot key) --\n";
  TextTable hot(columns);
  for (const size_t n : {size_t{5'000}, size_t{20'000}, size_t{200'000}}) {
    AddScaleRow(HotKeyRules(schema, n), &hot);
  }
  hot.Print(std::cout);
}

void Run() {
  const ExperimentScale scale = GetExperimentScale();
  std::cout << "Fig. 9 reproduction — " << DescribeScale(scale) << "\n";

  const Workload hosp = MakeHospWorkload(scale.hosp_rows, scale.hosp_rules);
  std::vector<size_t> hosp_counts;
  for (size_t n = 100; n <= scale.hosp_rules; n += 100) {
    hosp_counts.push_back(n);
  }
  RunDataset("hosp", hosp, hosp_counts, 0xf19);

  const Workload uis = MakeUisWorkload(scale.uis_rows, scale.uis_rules);
  std::vector<size_t> uis_counts;
  for (size_t n = 10; n <= scale.uis_rules; n += 10) {
    uis_counts.push_back(n);
  }
  RunDataset("uis", uis, uis_counts, 0xf19b);

  std::cout << "\nShape check vs paper: isConsist_r <= isConsist_t per row; "
               "real cases <= worst case; growth is quadratic in |Sigma|.\n"
               "The join checks only the pairs Prop. 3 lets conflict and "
               "reports the same conflicts.\n";

  RunScale();
}

}  // namespace
}  // namespace fixrep::bench

int main() {
  fixrep::bench::Run();
  return 0;
}
