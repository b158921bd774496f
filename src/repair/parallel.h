#ifndef FIXREP_REPAIR_PARALLEL_H_
#define FIXREP_REPAIR_PARALLEL_H_

#include <cstddef>

#include <vector>

#include "common/quarantine.h"
#include "common/status.h"
#include "relation/table.h"
#include "repair/memo_cache.h"
#include "repair/provenance.h"
#include "repair/repair_stats.h"
#include "repair/rule_index.h"
#include "rules/rule_set.h"

namespace fixrep {

// Multi-threaded whole-table repair.
//
// New call sites should go through RepairSession (repair/session.h) —
// the functions here are its engine layer and stay public for drivers
// that need range-level control (block-wise spill repair).
//
// Fixing-rule repair is embarrassingly parallel: each tuple is chased
// independently (Section 6 repairs one tuple at a time), so row ranges
// are claimed dynamically from the persistent ThreadPool's atomic
// cursor. All workers share one immutable rule backend (a RuleRepository
// — the in-RAM CompiledRuleIndex or a mapped RuleDict); each owns a
// RuleSourceHandle plus a FastRepairer scratch (and, when memoization is
// on, a worker-local MemoCache). The result is bit-identical to the
// serial engine in every configuration.
//
// Content-routed sharding (repair/sharded.h) is the sibling engine:
// same contract, but rows are partitioned by value instead of claimed
// by position, concentrating duplicate tuples onto one worker's caches.
struct ParallelRepairOptions {
  // 0 picks the pool's full width (caller + all pool workers); larger
  // counts are capped at it, so per-worker state never exceeds the width.
  size_t threads = 0;
  // Tuple-signature memoization (worker-local caches). Output is
  // bit-identical either way; duplicate-heavy tables repair much faster
  // with it on.
  bool use_memo = true;
  size_t memo_capacity = MemoCache::kDefaultCapacity;
  // Optional rule-attributed write capture (WAL journaling, provenance):
  // every committed cell write is appended as a CellRepair with an
  // absolute row index in `table`. Workers capture per slot; the merged
  // entries are appended after the join sorted by row with intra-row
  // chase order preserved — identical to what a serial run appends.
  std::vector<CellRepair>* write_log = nullptr;
};

// Repairs `table` against a pre-built shared rule backend. Returns the
// merged stats of all workers (published once into fixrep.lrepair.* so
// registry counts match a serial run).
RepairStats ParallelRepairTable(const RuleRepository& repo, Table* table,
                                const ParallelRepairOptions& options = {});

// Row-range variant: repairs rows [begin_row, end_row) only. The
// block-wise driver for spilling stores (repair/streaming.h): pin one
// RowStore block, repair exactly its rows, unpin. Identical per-row
// behavior to ParallelRepairTable; metrics are published per call, so a
// sequence of range calls covering a table sums to one whole-table call.
RepairStats ParallelRepairRows(const RuleRepository& repo, Table* table,
                               size_t begin_row, size_t end_row,
                               const ParallelRepairOptions& options = {});

// Convenience overload: compiles the index for `rules` (once per call),
// then repairs. Callers repairing many tables against one rule set should
// build the CompiledRuleIndex themselves and use the overload above.
RepairStats ParallelRepairTable(const RuleSet& rules, Table* table,
                                size_t threads = 0);

// Failure-isolating whole-table repair: a tuple that fails (chase budget
// exhausted, injected worker fault) is restored to its original values
// and skipped or quarantined, and the rest of the batch completes.
struct LenientRepairOptions {
  // Worker count semantics of ParallelRepairOptions::threads. The memo
  // fields are ignored: the lenient path never memoizes (isolation over
  // memoization); output on clean tuples is bit-identical regardless.
  ParallelRepairOptions parallel;
  // kSkip or kQuarantine; kAbort is rejected (use ParallelRepairTable
  // for fail-fast semantics).
  OnErrorPolicy on_error = OnErrorPolicy::kQuarantine;
  // Receives one Diagnostic per failed tuple when on_error is
  // kQuarantine, in row order regardless of worker interleaving.
  // Diagnostic::line is the row index; raw_text renders the original
  // (preserved) values.
  QuarantineSink* quarantine = nullptr;
  // Per-tuple chase-step budget forwarded to FastRepairer (0 =
  // unlimited).
  size_t max_chase_steps = 0;
  // Write capture, semantics of ParallelRepairOptions::write_log; failed
  // (restored) tuples contribute no entries.
  std::vector<CellRepair>* write_log = nullptr;
};

struct LenientRepairResult {
  RepairStats stats;  // merged over workers; failed tuples record no fix
  size_t tuples_quarantined = 0;
};

// Workers collect failures per slot; diagnostics are merged, sorted by
// row, counted into fixrep.quarantine.tuples, and forwarded to the sink
// from the calling thread after the join — sinks need no locking, and
// serial and parallel runs of the same input produce identical tables,
// stats, and diagnostics.
LenientRepairResult ParallelRepairTableLenient(
    const RuleRepository& repo, Table* table,
    const LenientRepairOptions& options = {});

// Row-range variant of the lenient path (see ParallelRepairRows).
// Diagnostic::line values are absolute row indices in `table`, so range
// calls compose into the same diagnostic stream as a whole-table call.
LenientRepairResult ParallelRepairRowsLenient(
    const RuleRepository& repo, Table* table, size_t begin_row,
    size_t end_row, const LenientRepairOptions& options = {});

}  // namespace fixrep

#endif  // FIXREP_REPAIR_PARALLEL_H_
