#include "repair/sharded.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "common/log.h"
#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "deps/violation.h"
#include "repair/lrepair.h"

namespace fixrep {

namespace {

// Routes every row to a shard by hashing its projection onto the rules'
// mentioned attributes (ValueVectorHash — the deps-layer partitioner, so
// repair shards agree with FD partitions built over the same columns).
// Rows with identical projections always share a shard; that is the
// memo-locality invariant the engine exists for.
std::vector<std::vector<uint32_t>> RouteRows(const Table& table,
                                             size_t begin_row, size_t end_row,
                                             AttrSet mentioned,
                                             size_t num_shards) {
  std::vector<AttrId> attrs;
  for (AttrId a = 0; a < static_cast<AttrId>(table.num_columns()); ++a) {
    if (mentioned.Contains(a)) attrs.push_back(a);
  }
  std::vector<std::vector<uint32_t>> shard_rows(num_shards);
  const ValueVectorHash hasher;
  std::vector<ValueId> projection(attrs.size());
  for (size_t r = begin_row; r < end_row; ++r) {
    const TupleRef row = table.row(r);
    for (size_t i = 0; i < attrs.size(); ++i) projection[i] = row[attrs[i]];
    shard_rows[hasher(projection) % num_shards].push_back(
        static_cast<uint32_t>(r));
  }
  return shard_rows;
}

}  // namespace

ShardedRepairResult ShardedRepairRows(const RuleRepository& repo,
                                      Table* table, size_t begin_row,
                                      size_t end_row,
                                      const ShardedRepairOptions& options) {
  FIXREP_CHECK(table != nullptr);
  FIXREP_CHECK(begin_row <= end_row && end_row <= table->num_rows());
  ThreadPool& pool = ThreadPool::Global();
  const size_t rows = end_row - begin_row;
  const size_t num_shards = pool.Participants(options.shards, rows);
  const bool lenient = options.on_error != OnErrorPolicy::kAbort;
  const bool quarantining = options.on_error == OnErrorPolicy::kQuarantine &&
                            options.quarantine != nullptr;

  FIXREP_TRACE_SPAN("sharded.repair_table");
  auto& registry = CurrentMetrics();
  registry.GetCounter("fixrep.sharded.tables_repaired")->Add(1);
  registry.GetGauge("fixrep.sharded.shards")
      ->Set(static_cast<int64_t>(num_shards));
  FIXREP_LOG(Debug) << "sharded repair" << Kv("rows", rows)
                    << Kv("rules", repo.num_rules())
                    << Kv("shards", num_shards)
                    << Kv("memo", options.use_memo && !lenient ? 1 : 0);

  std::vector<std::vector<uint32_t>> shard_rows =
      RouteRows(*table, begin_row, end_row, repo.mentioned_attrs(),
                num_shards);

  // Per-shard state, created serially before any worker runs: the handle
  // (a repository's MakeHandle is serial-only), the repairer scratch on
  // its source view, and in abort mode a private memo.
  std::vector<std::unique_ptr<RuleSourceHandle>> handles;
  std::vector<std::unique_ptr<FastRepairer>> repairers;
  std::vector<std::unique_ptr<MemoCache>> memos;
  std::vector<std::vector<Diagnostic>> failures(lenient ? num_shards : 0);
  std::vector<std::vector<CellRepair>> shard_logs(
      options.write_log != nullptr ? num_shards : 0);
  handles.reserve(num_shards);
  repairers.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    handles.push_back(repo.MakeHandle());
    repairers.push_back(std::make_unique<FastRepairer>(handles[s]->source()));
    if (options.use_memo && !lenient) {
      memos.push_back(std::make_unique<MemoCache>(options.memo_capacity));
      repairers.back()->set_memo(memos.back().get());
    }
    if (lenient) {
      repairers.back()->set_max_chase_steps(options.max_chase_steps);
    }
    if (options.write_log != nullptr) {
      repairers.back()->set_write_log(&shard_logs[s]);
    }
  }

  // One shard per claim (grain 1): shards are the unit of scratch
  // affinity, and the cursor lets fast workers absorb several small
  // shards while a heavy one runs.
  pool.ParallelFor(
      num_shards, /*grain=*/1, /*max_participants=*/num_shards,
      [&](size_t begin, size_t end, size_t /*slot*/) {
        for (size_t s = begin; s < end; ++s) {
          FastRepairer& repairer = *repairers[s];
          if (!lenient) {
            for (const uint32_t r : shard_rows[s]) {
              repairer.set_write_log_row(r);
              repairer.RepairTuple(table->WriteRow(r));
            }
            continue;
          }
          for (const uint32_t r : shard_rows[s]) {
            size_t cells_changed = 0;
            repairer.set_write_log_row(r);
            const Status status = repairer.TryRepairTuple(
                table->WriteRow(r), &cells_changed);
            if (status.ok()) continue;
            failures[s].push_back(Diagnostic{r, status.code(),
                                             status.message(),
                                             table->FormatRow(r)});
          }
        }
      });

  ShardedRepairResult result;
  result.shards_used = num_shards;
  result.stats.Reset(repo.num_rules());
  for (const auto& repairer : repairers) {
    result.stats.MergeFrom(repairer->stats());
  }
  RepairStats empty;
  empty.Reset(repo.num_rules());
  result.stats.PublishDelta(empty, "lrepair");
  for (const auto& memo : memos) memo->FlushMetrics();

  if (lenient) {
    // Shard order is content-determined; diagnostics and sink output must
    // be row-ordered like the serial and pooled engines'.
    std::vector<Diagnostic> merged;
    for (auto& shard_failures : failures) {
      merged.insert(merged.end(),
                    std::make_move_iterator(shard_failures.begin()),
                    std::make_move_iterator(shard_failures.end()));
    }
    std::sort(merged.begin(), merged.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return a.line < b.line;
              });
    if (!merged.empty()) {
      registry.GetCounter("fixrep.quarantine.tuples")->Add(merged.size());
    }
    if (quarantining) {
      for (const Diagnostic& diagnostic : merged) {
        options.quarantine->Add(diagnostic);
      }
    }
    result.tuples_quarantined = merged.size();
  }

  if (options.write_log != nullptr) {
    // Each shard's capture is row-ascending (rows were routed in scan
    // order) and a row lives in exactly one shard, so a stable sort on
    // row reproduces the serial capture: rows ascending, intra-row
    // entries in chase order.
    std::vector<CellRepair>* out = options.write_log;
    const size_t mark = out->size();
    for (auto& shard_log : shard_logs) {
      out->insert(out->end(), std::make_move_iterator(shard_log.begin()),
                  std::make_move_iterator(shard_log.end()));
    }
    std::stable_sort(out->begin() + mark, out->end(),
                     [](const CellRepair& a, const CellRepair& b) {
                       return a.row < b.row;
                     });
  }
  return result;
}

ShardedRepairResult ShardedRepairTable(const RuleRepository& repo,
                                       Table* table,
                                       const ShardedRepairOptions& options) {
  FIXREP_CHECK(table != nullptr);
  return ShardedRepairRows(repo, table, 0, table->num_rows(), options);
}

}  // namespace fixrep
