#ifndef FIXREP_REPAIR_SHARDED_H_
#define FIXREP_REPAIR_SHARDED_H_

#include <cstddef>
#include <vector>

#include "common/quarantine.h"
#include "relation/table.h"
#include "repair/memo_cache.h"
#include "repair/provenance.h"
#include "repair/repair_stats.h"
#include "rules/rule_source.h"

namespace fixrep {

// Sharded repair: hash-partition the rows, then chase each shard on its
// own worker with its own RuleSource handle.
//
// The pooled engine (repair/parallel.h) splits rows by position: any
// worker sees any tuple, so worker-local memo caches and — on the
// dictionary backend — translator memos and posting caches each relearn
// the whole table's value population. Sharding routes instead by
// *content*: a tuple's shard is the hash of its projection onto the
// rules' mentioned attributes (the deps-layer ValueVectorHash
// partitioner), so duplicate and near-duplicate tuples land on the same
// worker. Memo hits concentrate, and a dictionary worker's scratch only
// ever learns its shard's slice of the value space.
//
// Output is bit-identical to the serial and pooled engines in every
// configuration: the chase is a pure per-tuple function, so partitioning
// cannot change any cell; stats merge once (registry counts match a
// serial run); write-log capture and quarantine diagnostics are merged
// back into row order after the join.
//
// Works against any RuleRepository backend — handles are created
// serially before the workers run, one per shard.
struct ShardedRepairOptions {
  // Number of shards. 0 picks the pool's full width (workers + caller);
  // larger counts are capped at it, as each shard holds its own handle,
  // repairer and memo.
  size_t shards = 0;
  // Worker-local memoization (abort mode only, like the pooled engine).
  bool use_memo = true;
  size_t memo_capacity = MemoCache::kDefaultCapacity;
  // kAbort fails fast (a failing tuple CHECKs — abort-mode chases cannot
  // fail without a step budget); kSkip/kQuarantine isolate per tuple.
  OnErrorPolicy on_error = OnErrorPolicy::kAbort;
  // One Diagnostic per failed tuple when on_error is kQuarantine, in row
  // order. Diagnostic::line is the absolute row index in the table.
  QuarantineSink* quarantine = nullptr;
  // Per-tuple chase budget in lenient mode (0 = unlimited).
  size_t max_chase_steps = 0;
  // Rule-attributed write capture, ParallelRepairOptions::write_log
  // semantics: merged entries are row-ascending with intra-row chase
  // order preserved, identical to a serial run's capture.
  std::vector<CellRepair>* write_log = nullptr;
};

struct ShardedRepairResult {
  RepairStats stats;  // merged over shards, published once as lrepair
  size_t tuples_quarantined = 0;
  size_t shards_used = 0;
};

// Repairs rows [begin_row, end_row) of `table` in place. Metrics are
// published per call from the calling thread.
ShardedRepairResult ShardedRepairRows(const RuleRepository& repo,
                                      Table* table, size_t begin_row,
                                      size_t end_row,
                                      const ShardedRepairOptions& options = {});

ShardedRepairResult ShardedRepairTable(
    const RuleRepository& repo, Table* table,
    const ShardedRepairOptions& options = {});

}  // namespace fixrep

#endif  // FIXREP_REPAIR_SHARDED_H_
