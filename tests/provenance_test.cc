#include <string>

#include <gtest/gtest.h>

#include "datagen/travel.h"
#include "repair/lrepair.h"
#include "repair/provenance.h"
#include "repair/session.h"

namespace fixrep {
namespace {

// The cRepair write log of one repair of `table` in place — what
// `fixrep_cli repair --log` prints.
RepairLog ChaseLog(const RuleSet& rules, Table* table) {
  RepairLog log;
  RepairSession session(&rules, {.engine = RepairEngine::kCRepair});
  const StatusOr<RepairReport> report = session.Repair(table, &log.repairs);
  EXPECT_TRUE(report.ok()) << report.status();
  return log;
}

class ProvenanceTest : public ::testing::Test {
 protected:
  TravelExample example_;
};

TEST_F(ProvenanceTest, RecordsEveryChange) {
  Table table = example_.dirty;
  const RepairLog log = ChaseLog(example_.rules, &table);
  ASSERT_EQ(log.repairs.size(), 4u);
  // The repaired table matches the clean one and each entry is a real
  // cell diff.
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(table.row(r), example_.clean.row(r));
  }
  for (const auto& repair : log.repairs) {
    EXPECT_EQ(example_.dirty.cell(repair.row, repair.attr),
              repair.old_value);
    EXPECT_EQ(table.cell(repair.row, repair.attr), repair.new_value);
    EXPECT_NE(repair.old_value, repair.new_value);
  }
}

TEST_F(ProvenanceTest, AttributesChangesToTheRightRules) {
  Table table = example_.dirty;
  const RepairLog log = ChaseLog(example_.rules, &table);
  const auto counts = log.PerRuleCounts(example_.rules.size());
  // Fig. 8: each of phi_1..phi_4 repairs exactly one cell.
  EXPECT_EQ(counts, (std::vector<size_t>{1, 1, 1, 1}));
  for (const auto& repair : log.repairs) {
    const FixingRule& rule = example_.rules.rule(repair.rule_index);
    EXPECT_EQ(rule.target, repair.attr);
    EXPECT_EQ(rule.fact, repair.new_value);
    EXPECT_TRUE(rule.IsNegative(repair.old_value));
  }
}

TEST_F(ProvenanceTest, AgreesWithFastRepairer) {
  Table by_provenance = example_.dirty;
  ChaseLog(example_.rules, &by_provenance);
  Table by_lrepair = example_.dirty;
  FastRepairer repairer(&example_.rules);
  repairer.RepairTable(&by_lrepair);
  for (size_t r = 0; r < by_provenance.num_rows(); ++r) {
    EXPECT_EQ(by_provenance.row(r), by_lrepair.row(r));
  }
}

TEST_F(ProvenanceTest, DescribeIsHumanReadable) {
  Table table = example_.dirty;
  const RepairLog log = ChaseLog(example_.rules, &table);
  ASSERT_FALSE(log.repairs.empty());
  // Find the r2[capital] repair.
  const CellRepair* capital_repair = nullptr;
  for (const auto& repair : log.repairs) {
    if (repair.row == 1 && repair.attr == 2) capital_repair = &repair;
  }
  ASSERT_NE(capital_repair, nullptr);
  const std::string text =
      log.Describe(*capital_repair, *example_.schema, *example_.pool);
  EXPECT_EQ(text, "row 1 capital: 'Shanghai' -> 'Beijing' by rule #0");
}

TEST_F(ProvenanceTest, CleanTableYieldsEmptyLog) {
  Table table = example_.clean;
  const RepairLog log = ChaseLog(example_.rules, &table);
  EXPECT_TRUE(log.repairs.empty());
}

}  // namespace
}  // namespace fixrep
