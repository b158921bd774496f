#include "repair/provenance.h"

namespace fixrep {

std::string RepairLog::Describe(const CellRepair& repair,
                                const Schema& schema,
                                const ValuePool& pool) const {
  auto value_string = [&pool](ValueId v) {
    return v == kNullValue ? std::string("_") : pool.GetString(v);
  };
  return "row " + std::to_string(repair.row) + " " +
         schema.attribute_name(repair.attr) + ": '" +
         value_string(repair.old_value) + "' -> '" +
         value_string(repair.new_value) + "' by rule #" +
         std::to_string(repair.rule_index);
}

std::vector<size_t> RepairLog::PerRuleCounts(size_t num_rules) const {
  // A log can outlive the rule set that produced it (a WAL audited
  // against a reloaded, possibly smaller rule file), so out-of-range
  // indices are left unattributed instead of CHECK-crashing the caller.
  // Attribution that must be exact validates the rule-set fingerprint
  // first (repair/recovery.h) and refuses on mismatch.
  std::vector<size_t> counts(num_rules, 0);
  for (const auto& repair : repairs) {
    if (repair.rule_index >= num_rules) continue;
    ++counts[repair.rule_index];
  }
  return counts;
}

}  // namespace fixrep
