// Ablations for the design choices DESIGN.md calls out:
//
//  A. Rule provenance: oracle-seeded rules (Section 7.1 expert workflow)
//     vs automatic discovery (conservative and permissive modes) — the
//     cost of removing the expert.
//  B. Heu cost model: unit-cost plurality vs similarity-weighted cost
//     (Bohannon et al.'s model) across error types.
//  C. Parallel repair: thread scaling of the tuple-parallel engine.
//  D. User effort: fixing rules (zero interactions) vs editing rules
//     with master data (one certification per application).

#include <iostream>
#include <string>
#include <thread>

#include "baselines/editing_master.h"
#include "baselines/heu.h"
#include "bench_util.h"
#include "common/timer.h"
#include "deps/violation.h"
#include "eval/metrics.h"
#include "eval/text_table.h"
#include "repair/driver.h"
#include "repair/lrepair.h"
#include "rulegen/discovery.h"

namespace fixrep::bench {
namespace {

void RuleProvenanceAblation(const Workload& workload) {
  std::cout << "\n-- Ablation A: oracle rules vs automatic discovery --\n";
  TextTable table({"rule source", "rules", "precision", "recall"});
  auto evaluate = [&](const std::string& name, const RuleSet& rules) {
    Table repaired = workload.dirty;
    FastRepairer repairer(&rules);
    repairer.RepairTable(&repaired);
    const Accuracy accuracy =
        EvaluateRepair(workload.data.clean, workload.dirty, repaired);
    table.AddRow({name, std::to_string(rules.size()),
                  FormatDouble(accuracy.precision()),
                  FormatDouble(accuracy.recall())});
  };
  evaluate("oracle seeds (Sec. 7.1)", workload.rules);
  DiscoveryOptions conservative;
  conservative.max_rules = workload.rules.size();
  evaluate("discovery, conservative",
           DiscoverRules(workload.dirty, workload.data.fds, conservative));
  DiscoveryOptions permissive = conservative;
  permissive.exclude_foreign_consensus = false;
  evaluate("discovery, permissive",
           DiscoverRules(workload.dirty, workload.data.fds, permissive));
  table.Print(std::cout);
}

void HeuCostModelAblation(size_t rows) {
  std::cout << "\n-- Ablation B: Heu unit cost vs similarity cost --\n";
  TextTable table({"typo share", "plurality P", "plurality R",
                   "similarity P", "similarity R"});
  for (const double typo_share : {0.0, 0.5, 1.0}) {
    const Workload workload =
        MakeHospWorkload(rows, 100, 0.10, typo_share);
    Accuracy accuracy[2];
    for (int variant = 0; variant < 2; ++variant) {
      HeuOptions options;
      options.use_similarity_cost = (variant == 1);
      Table repaired = workload.dirty;
      HeuRepairer heu(workload.data.fds, options);
      heu.Repair(&repaired);
      accuracy[variant] =
          EvaluateRepair(workload.data.clean, workload.dirty, repaired);
    }
    table.AddRow({FormatDouble(typo_share, 1),
                  FormatDouble(accuracy[0].precision()),
                  FormatDouble(accuracy[0].recall()),
                  FormatDouble(accuracy[1].precision()),
                  FormatDouble(accuracy[1].recall())});
  }
  table.Print(std::cout);
}

void ParallelScalingAblation(const Workload& workload) {
  std::cout << "\n-- Ablation C: parallel repair scaling ("
            << workload.dirty.num_rows() << " rows, "
            << workload.rules.size() << " rules) --\n";
  TextTable table({"threads", "time (ms)", "speedup"});
  double base_ms = 0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    // Median of three runs to steady the small numbers.
    double best_ms = 1e100;
    for (int run = 0; run < 3; ++run) {
      Table copy = workload.dirty;
      Timer timer;
      const std::unique_ptr<RuleDict> dict =
          RuleDict::CompileOrDie(workload.rules);
      RepairDriver(*dict, {.threads = threads}).Run(&copy);
      best_ms = std::min(best_ms, timer.ElapsedMillis());
    }
    if (threads == 1) base_ms = best_ms;
    table.AddRow({std::to_string(threads), FormatDouble(best_ms, 2),
                  FormatDouble(base_ms / best_ms, 2) + "x"});
  }
  table.Print(std::cout);
  std::cout << "(hardware threads available: "
            << std::thread::hardware_concurrency()
            << " — expect ~linear scaling only when > 1; correctness is "
               "bit-identical to serial either way, see parallel_test)\n";
}

void UserEffortAblation(const Workload& workload) {
  std::cout << "\n-- Ablation D: user effort, fixing rules vs editing "
               "rules with master data --\n";
  // Master data: the hospital dimension keyed by phone number, projected
  // from the clean data (master data is correct by definition).
  const Schema& schema = workload.data.clean.schema();
  const AttrId phn = schema.AttributeIndex("phn");
  const std::vector<AttrId> copied = {
      schema.AttributeIndex("zip"), schema.AttributeIndex("city"),
      schema.AttributeIndex("state")};
  Table master(workload.data.clean.schema_ptr(),
               workload.data.clean.pool_ptr());
  {
    LhsPartition by_phn = PartitionBy(workload.data.clean, {phn});
    for (const auto& [key, rows] : by_phn) {
      master.AppendRow(workload.data.clean.row(rows[0]));
    }
  }
  std::vector<EditingRule> editing_rules;
  for (const AttrId target : copied) {
    EditingRule rule;
    rule.match_attrs = {phn};
    rule.master_match_attrs = {phn};
    rule.update_attr = target;
    rule.master_update_attr = target;
    editing_rules.push_back(rule);
  }

  TextTable table({"method", "user interactions", "cells changed",
                   "precision", "recall"});
  {
    Table repaired = workload.dirty;
    FastRepairer repairer(&workload.rules);
    repairer.RepairTable(&repaired);
    const Accuracy accuracy =
        EvaluateRepair(workload.data.clean, workload.dirty, repaired);
    table.AddRow({"Fix (lRepair)", "0",
                  std::to_string(accuracy.cells_changed),
                  FormatDouble(accuracy.precision()),
                  FormatDouble(accuracy.recall())});
  }
  {
    Table repaired = workload.dirty;
    MasterEditRepairer repairer(editing_rules, &master);
    const EditingStats stats = repairer.Repair(
        &repaired, EditingUserModel::kOracle, &workload.data.clean);
    const Accuracy accuracy =
        EvaluateRepair(workload.data.clean, workload.dirty, repaired);
    table.AddRow({"Edit (oracle user)",
                  std::to_string(stats.user_interactions),
                  std::to_string(accuracy.cells_changed),
                  FormatDouble(accuracy.precision()),
                  FormatDouble(accuracy.recall())});
  }
  table.Print(std::cout);
  std::cout << "(editing rules repair zip/city/state only — what the "
               "master relation covers — and pay one certification per "
               "tuple-rule match)\n";
}

void Run() {
  const ExperimentScale scale = GetExperimentScale();
  std::cout << "Design ablations — " << DescribeScale(scale) << "\n";
  const Workload workload =
      MakeHospWorkload(scale.hosp_rows, scale.hosp_rules);
  RuleProvenanceAblation(workload);
  HeuCostModelAblation(scale.hosp_rows);
  ParallelScalingAblation(workload);
  UserEffortAblation(workload);
}

}  // namespace
}  // namespace fixrep::bench

int main() {
  fixrep::bench::Run();
  return 0;
}
