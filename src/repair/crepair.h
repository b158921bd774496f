#ifndef FIXREP_REPAIR_CREPAIR_H_
#define FIXREP_REPAIR_CREPAIR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "relation/table.h"
#include "repair/repair_stats.h"
#include "rules/rule_dict.h"
#include "rules/rule_set.h"

namespace fixrep {

// cRepair (Fig. 6): the chase-based repair algorithm. Per tuple it scans
// the remaining rules, applies any that is properly applicable, and
// repeats until a fixpoint — O(size(Σ)·|R|) per tuple. Correctness for a
// consistent Σ follows from the Church-Rosser property: any maximal
// sequence of proper applications reaches the unique fix.
//
// The scan reads rules through a RuleSource view (MatchesFlat is
// FixingRule::Matches over the compiled CSR patterns), so the reference
// chase reads the same image as lRepair, in either storage, and stays
// the cross-validation oracle for it.
class ChaseRepairer {
 public:
  // Compiles a private image of `rules`, bound to the set's pool.
  explicit ChaseRepairer(const RuleSet* rules);

  // Chases against an arbitrary source view (see FastRepairer). The
  // view's backing store and scratch must outlive the repairer.
  explicit ChaseRepairer(const RuleSource& source);

  // Attaches a rule-attributed write capture (nullptr detaches), as
  // FastRepairer::set_write_log does: every rule application appends one
  // CellRepair{row, attr, old, new, rule} to `log` in chase order, at the
  // row set_write_log_row last saw (RepairRows sets it per row). A chase
  // that fails leaves no entries.
  void set_write_log(std::vector<CellRepair>* log) { write_log_ = log; }
  void set_write_log_row(size_t row) { write_log_row_ = row; }

  // Chases one tuple to its fix in place through the view. Returns the
  // number of cells changed. Accepts a Table::WriteRow span or
  // (implicitly) an owning Tuple.
  size_t RepairTuple(TupleSpan t);

  // Per-tuple failure-isolating variant: reports a wrong-arity tuple as
  // kMalformedInput and a chase exceeding the step budget (see
  // set_max_chase_steps) as kBudgetExhausted instead of CHECK-failing or
  // spinning. On any error the tuple is restored to its original values
  // and no changes are recorded (tuples_examined and the chase-internal
  // work counters still record the attempt).
  Status TryRepairTuple(TupleSpan t, size_t* cells_changed);

  // Caps the number of rule examinations one TryRepairTuple chase may
  // spend before giving up with kBudgetExhausted; 0 (default) means
  // unlimited. A consistent rule set needs at most |Σ| applications per
  // tuple, so a budget of a few multiples of |Σ|² rule scans only trips
  // on pathological rule interaction. RepairTuple ignores the budget.
  void set_max_chase_steps(size_t max_steps) { max_chase_steps_ = max_steps; }
  size_t max_chase_steps() const { return max_chase_steps_; }

  // Repairs rows [begin, end) of `table` in place — what a cRepair
  // RepairDriver slot (repair/driver.h) runs in abort mode.
  void RepairRows(Table* table, size_t begin, size_t end);

  // Repairs every row of `table` in place.
  void RepairTable(Table* table);

  const RepairStats& stats() const { return stats_; }
  void ResetStats() {
    stats_.Reset(source_.num_rules());
    published_.Reset(source_.num_rules());
  }

  // Publishes stats accumulated since the last flush into the global
  // MetricsRegistry (fixrep.crepair.*). RepairTable flushes automatically.
  void FlushMetrics();

 private:
  // The chase proper; `max_steps` of 0 disables the budget.
  Status ChaseWithBudget(TupleSpan t, size_t max_steps,
                         size_t* cells_changed);

  std::unique_ptr<const RuleDict> owned_dict_;
  std::unique_ptr<const RuleDictHandle> owned_handle_;
  RuleSource source_;
  std::vector<CellRepair>* write_log_ = nullptr;
  size_t write_log_row_ = 0;
  size_t max_chase_steps_ = 0;
  RepairStats stats_;
  RepairStats published_;  // snapshot of stats_ at the last FlushMetrics
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_CREPAIR_H_
