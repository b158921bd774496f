#include "repair/crepair.h"

#include <string>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"

namespace fixrep {

ChaseRepairer::ChaseRepairer(const RuleSet* rules)
    : owned_dict_(RuleDict::CompileOrDie(*rules)),
      owned_handle_(owned_dict_->MakeHandle()),
      source_(owned_handle_->source()) {
  stats_.Reset(source_.num_rules());
  published_.Reset(source_.num_rules());
}

ChaseRepairer::ChaseRepairer(const RuleSource& source) : source_(source) {
  stats_.Reset(source_.num_rules());
  published_.Reset(source_.num_rules());
}

size_t ChaseRepairer::RepairTuple(TupleSpan t) {
  FIXREP_CHECK_EQ(t.size(), source_.arity());
  size_t cells_changed = 0;
  const Status status = ChaseWithBudget(t, /*max_steps=*/0, &cells_changed);
  FIXREP_CHECK(status.ok()) << status.message();
  return cells_changed;
}

Status ChaseRepairer::TryRepairTuple(TupleSpan t, size_t* cells_changed) {
  *cells_changed = 0;
  if (t.size() != source_.arity()) {
    ++stats_.tuples_examined;  // every attempt counts, even a failed one
    return Status::MalformedInput(
        "tuple arity " + std::to_string(t.size()) +
        " does not match schema arity " + std::to_string(source_.arity()));
  }
  if (FIXREP_FAULT("repair.tuple")) {
    ++stats_.tuples_examined;
    return Status::Internal("injected repair-worker fault");
  }
  return ChaseWithBudget(t, max_chase_steps_, cells_changed);
}

Status ChaseRepairer::ChaseWithBudget(TupleSpan t, size_t max_steps,
                                      size_t* cells_changed_out) {
  ++stats_.tuples_examined;
  const size_t num_rules = source_.num_rules();
  AttrSet assured;
  // Γ: rules not yet applied. Applied rules leave the set (Fig. 6 line 7);
  // non-matching rules are re-examined on the next outer iteration.
  std::vector<bool> applied(num_rules, false);
  // Budgeted chases keep an undo log so a kBudgetExhausted tuple leaves
  // both the tuple and the outcome stats untouched.
  Tuple original;
  std::vector<uint32_t> applied_order;
  if (max_steps > 0) original = t.ToTuple();
  const size_t log_mark = write_log_ != nullptr ? write_log_->size() : 0;
  size_t steps = 0;
  size_t cells_changed = 0;
  bool updated = true;
  while (updated) {
    updated = false;
    ++stats_.chase_iterations;
    for (uint32_t i = 0; i < num_rules; ++i) {
      if (applied[i]) continue;
      if (max_steps > 0 && ++steps > max_steps) {
        t.CopyFrom(original);
        if (write_log_ != nullptr) write_log_->resize(log_mark);
        for (const uint32_t rule_index : applied_order) {
          --stats_.rule_applications;
          --stats_.per_rule_applications[rule_index];
        }
        return Status::BudgetExhausted(
            "chase exceeded its budget of " + std::to_string(max_steps) +
            " rule examinations");
      }
      if (assured.Contains(source_.target(i)) || !source_.MatchesFlat(i, t)) {
        continue;
      }
      const AttrId target = source_.target(i);
      if (write_log_ != nullptr) {
        write_log_->push_back(
            {write_log_row_, target, t[target], source_.fact(i), i});
      }
      t[target] = source_.fact(i);
      assured.UnionWith(source_.assured(i));
      applied[i] = true;
      updated = true;
      ++cells_changed;
      ++stats_.rule_applications;
      ++stats_.per_rule_applications[i];
      if (max_steps > 0) applied_order.push_back(i);
    }
  }
  stats_.cells_changed += cells_changed;
  if (cells_changed > 0) ++stats_.tuples_changed;
  *cells_changed_out = cells_changed;
  return Status::Ok();
}

void ChaseRepairer::RepairRows(Table* table, size_t begin, size_t end) {
  for (size_t r = begin; r < end; ++r) {
    write_log_row_ = r;
    RepairTuple(table->WriteRow(r));
  }
}

void ChaseRepairer::RepairTable(Table* table) {
  FIXREP_TRACE_SPAN("crepair.chase");
  RepairRows(table, 0, table->num_rows());
  FlushMetrics();
}

void ChaseRepairer::FlushMetrics() {
  stats_.PublishDelta(published_, "crepair");
  published_ = stats_;
}

}  // namespace fixrep
