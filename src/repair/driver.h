#ifndef FIXREP_REPAIR_DRIVER_H_
#define FIXREP_REPAIR_DRIVER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/quarantine.h"
#include "relation/table.h"
#include "repair/repair_stats.h"
#include "repair/session.h"
#include "rules/rule_dict.h"

namespace fixrep {

// The one repair driver. RepairSession::Repair builds one per call and
// the stream loop one per stream; callers that need range-level control
// (tests, benchmarks) use it directly.
//
// The repair of Section 6 — cRepair (Fig. 6) and lRepair (Fig. 7) alike
// — is a pure function of one tuple, so engines, widths and routings
// differ only in which chase runs and in how rows are handed out and
// failures and writes are collected. A driver is built once from a bound
// RuleDict and a RepairConfig (the stream knobs are ignored) and owns
// the per-slot state: a RuleDictHandle, the engine's repairer on it (a
// FastRepairer, or for kCRepair a ChaseRepairer), a MemoCache (lRepair
// under kAbort with use_memo; cRepair never memoizes), a failure list
// and a write capture. Slots are built serially — slot 0 here, the rest
// on first use — never more than the pool width, and reused by every
// later Run, so a stream keeps its memos across all its chunks.
//
// Run(table, begin, end) uses min(width, rows) slots, where the width is
// config.shards when > 0 and config.threads otherwise (0 = pool width):
// * one slot chases the range on the calling thread;
// * with threads, slots claim row ranges off the pool's atomic cursor;
// * with shards, each row goes to the slot its projection onto the
//   rules' mentioned attributes hashes to, so duplicate tuples share a
//   slot's memo (the deps-layer ValueVectorHash partitioner).
// A slot chases with the repairer's RepairRows under kAbort, and tuple
// by tuple with TryRepairTuple under kSkip/kQuarantine, where a failing
// tuple is restored to its original values and recorded. After the join
// the slots' stats are merged and published once as fixrep.lrepair.* or
// fixrep.crepair.*, failures are sorted by row, counted into
// fixrep.quarantine.tuples and (kQuarantine) forwarded to
// config.quarantine, and the write captures are appended to the write
// log in row order. Every width and routing therefore yields the bytes,
// diagnostics, write log and chase counters of a one-slot run.
class RepairDriver {
 public:
  // `dict` is borrowed, bound, and must outlive the driver.
  RepairDriver(const RuleDict& dict, const RepairConfig& config);
  ~RepairDriver();

  RepairDriver(const RepairDriver&) = delete;
  RepairDriver& operator=(const RepairDriver&) = delete;

  // Appends every later Run's committed cell writes to `log` as
  // CellRepair entries with absolute row indices: rows ascending, a
  // row's entries in chase order, failed tuples contributing none.
  // nullptr detaches.
  void set_write_log(std::vector<CellRepair>* log) { write_log_ = log; }

  // Repairs rows [begin, end) of `table` in place. Returns the run's
  // merged stats, valid until the next Run.
  const RepairStats& Run(Table* table, size_t begin, size_t end);
  const RepairStats& Run(Table* table) {
    return Run(table, 0, table->num_rows());
  }

  // The last Run's failed tuples in row order. Diagnostic::line is the
  // row index in the table; raw_text renders the restored values.
  const std::vector<Diagnostic>& failures() const { return failures_; }

  // Slots built so far; never more than the pool width.
  size_t slots() const { return slots_.size(); }

  // "lrepair.chase" or "crepair.chase": the span a whole-table repair
  // records around its Run.
  const char* chase_span() const {
    return config_.engine == RepairEngine::kCRepair ? "crepair.chase"
                                                    : "lrepair.chase";
  }

 private:
  struct Slot;

  // Chases rows [begin, end) on one slot under the configured policy.
  void Chase(Slot* slot, Table* table, size_t begin, size_t end) const;

  const RuleDict& dict_;
  const RepairConfig config_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<CellRepair>* write_log_ = nullptr;
  std::vector<AttrId> route_attrs_;  // shard key: the mentioned attributes
  RepairStats stats_;
  std::vector<Diagnostic> failures_;
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_DRIVER_H_
