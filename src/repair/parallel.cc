#include "repair/parallel.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "repair/lrepair.h"

namespace fixrep {

namespace {

// Appends the per-slot capture vectors to `out` in row order. Each slot's
// vector is already row-sorted (workers claim ranges off a monotone
// cursor and log rows in claim order), and a row is chased by exactly one
// slot, so a stable sort on row reproduces the serial capture: rows
// ascending, intra-row entries in chase order.
void MergeWriteLogs(std::vector<std::vector<CellRepair>>* slot_logs,
                    std::vector<CellRepair>* out) {
  if (out == nullptr) return;
  const size_t mark = out->size();
  for (auto& slot_log : *slot_logs) {
    out->insert(out->end(), std::make_move_iterator(slot_log.begin()),
                std::make_move_iterator(slot_log.end()));
  }
  std::stable_sort(out->begin() + mark, out->end(),
                   [](const CellRepair& a, const CellRepair& b) {
                     return a.row < b.row;
                   });
}

}  // namespace

RepairStats ParallelRepairRows(const RuleRepository& repo, Table* table,
                               size_t begin_row, size_t end_row,
                               const ParallelRepairOptions& options) {
  FIXREP_CHECK(table != nullptr);
  FIXREP_CHECK(begin_row <= end_row && end_row <= table->num_rows());
  ThreadPool& pool = ThreadPool::Global();
  const size_t rows = end_row - begin_row;
  const size_t threads = pool.Participants(options.threads, rows);

  if (threads <= 1 || rows == 0) {
    const std::unique_ptr<RuleSourceHandle> handle = repo.MakeHandle();
    FastRepairer repairer(handle->source());
    std::optional<MemoCache> memo;
    if (options.use_memo) {
      repairer.set_memo(&memo.emplace(options.memo_capacity));
    }
    repairer.set_write_log(options.write_log);
    if (begin_row == 0 && end_row == table->num_rows()) {
      repairer.RepairTable(table);  // flushes fixrep.lrepair.* itself
    } else {
      FIXREP_TRACE_SPAN("lrepair.chase");
      repairer.RepairRows(table, begin_row, end_row);
      repairer.FlushMetrics();
    }
    return repairer.stats();
  }

  FIXREP_TRACE_SPAN("parallel.repair_table");
  auto& registry = CurrentMetrics();
  registry.GetCounter("fixrep.parallel.tables_repaired")->Add(1);
  registry.GetGauge("fixrep.parallel.workers")
      ->Set(static_cast<int64_t>(threads));
  FIXREP_LOG(Debug) << "parallel repair" << Kv("rows", rows)
                    << Kv("rules", repo.num_rules())
                    << Kv("workers", threads)
                    << Kv("memo", options.use_memo ? 1 : 0);

  // Per-slot scratch, created up front and serially (MakeHandle is
  // serial-only): repairers are cheap now that the backend is shared
  // (four O(|Σ|) vectors), and pre-creation keeps the claimed-chunk
  // lambda allocation-free.
  std::vector<std::unique_ptr<RuleSourceHandle>> handles;
  std::vector<std::unique_ptr<FastRepairer>> repairers;
  std::vector<std::unique_ptr<MemoCache>> memos;
  std::vector<std::vector<CellRepair>> slot_logs(
      options.write_log != nullptr ? threads : 0);
  handles.reserve(threads);
  repairers.reserve(threads);
  memos.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    handles.push_back(repo.MakeHandle());
    repairers.push_back(
        std::make_unique<FastRepairer>(handles[w]->source()));
    if (options.use_memo) {
      memos.push_back(std::make_unique<MemoCache>(options.memo_capacity));
      repairers.back()->set_memo(memos.back().get());
    }
    if (options.write_log != nullptr) {
      repairers.back()->set_write_log(&slot_logs[w]);
    }
  }

  // Chunks small enough that fast workers absorb stragglers' leftovers,
  // large enough that the atomic cursor is off the per-tuple path.
  const size_t grain =
      std::clamp<size_t>(rows / (threads * 8), size_t{16}, size_t{2048});
  pool.ParallelFor(rows, grain, threads,
                   [&](size_t begin, size_t end, size_t slot) {
                     // Each claimed chunk runs through the row-group
                     // driver, so pooled workers get the same batched
                     // probes as a serial repair.
                     repairers[slot]->RepairRows(table, begin_row + begin,
                                                 begin_row + end);
                   });

  // Workers never flush — the merged stats are published once so registry
  // counts match the single-threaded run exactly.
  RepairStats merged;
  merged.Reset(repo.num_rules());
  for (const auto& repairer : repairers) merged.MergeFrom(repairer->stats());
  RepairStats empty;
  empty.Reset(repo.num_rules());
  merged.PublishDelta(empty, "lrepair");
  for (const auto& memo : memos) memo->FlushMetrics();
  MergeWriteLogs(&slot_logs, options.write_log);
  return merged;
}

RepairStats ParallelRepairTable(const RuleRepository& repo, Table* table,
                                const ParallelRepairOptions& options) {
  FIXREP_CHECK(table != nullptr);
  return ParallelRepairRows(repo, table, 0, table->num_rows(), options);
}

RepairStats ParallelRepairTable(const RuleSet& rules, Table* table,
                                size_t threads) {
  const CompiledRuleIndex index(&rules);
  ParallelRepairOptions options;
  options.threads = threads;
  return ParallelRepairTable(index, table, options);
}

LenientRepairResult ParallelRepairRowsLenient(
    const RuleRepository& repo, Table* table, size_t begin_row,
    size_t end_row, const LenientRepairOptions& options) {
  FIXREP_CHECK(table != nullptr);
  FIXREP_CHECK(begin_row <= end_row && end_row <= table->num_rows());
  FIXREP_CHECK(options.on_error != OnErrorPolicy::kAbort)
      << "lenient repair supports skip|quarantine; use ParallelRepairTable "
         "for fail-fast semantics";
  ThreadPool& pool = ThreadPool::Global();
  const size_t rows = end_row - begin_row;
  const size_t threads = pool.Participants(options.parallel.threads, rows);

  FIXREP_TRACE_SPAN("parallel.repair_table_lenient");
  auto& registry = CurrentMetrics();
  if (threads > 1) {
    registry.GetCounter("fixrep.parallel.tables_repaired")->Add(1);
    registry.GetGauge("fixrep.parallel.workers")
        ->Set(static_cast<int64_t>(threads));
  }
  FIXREP_LOG(Debug) << "lenient repair" << Kv("rows", rows)
                    << Kv("rules", repo.num_rules())
                    << Kv("workers", threads)
                    << Kv("budget", options.max_chase_steps);

  std::vector<std::unique_ptr<RuleSourceHandle>> handles;
  std::vector<std::unique_ptr<FastRepairer>> repairers;
  std::vector<std::vector<Diagnostic>> failures(threads);
  std::vector<std::vector<CellRepair>> slot_logs(
      options.write_log != nullptr ? threads : 0);
  handles.reserve(threads);
  repairers.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    handles.push_back(repo.MakeHandle());
    repairers.push_back(
        std::make_unique<FastRepairer>(handles[w]->source()));
    repairers.back()->set_max_chase_steps(options.max_chase_steps);
    if (options.write_log != nullptr) {
      repairers.back()->set_write_log(&slot_logs[w]);
    }
  }

  const size_t grain =
      std::clamp<size_t>(rows / (threads * 8), size_t{16}, size_t{2048});
  pool.ParallelFor(rows, grain, threads,
                   [&](size_t begin, size_t end, size_t slot) {
                     FastRepairer& repairer = *repairers[slot];
                     for (size_t i = begin; i < end; ++i) {
                       const size_t r = begin_row + i;
                       size_t cells_changed = 0;
                       repairer.set_write_log_row(r);
                       const Status status = repairer.TryRepairTuple(
                           table->WriteRow(r), &cells_changed);
                       if (status.ok()) continue;
                       // TryRepairTuple restored the row, so FormatRow
                       // renders the preserved original values.
                       failures[slot].push_back(
                           Diagnostic{r, status.code(), status.message(),
                                      table->FormatRow(r)});
                     }
                   });

  // Merge worker failure lists into row order so sink output (and any
  // downstream file) is identical to a serial run's.
  std::vector<Diagnostic> merged_failures;
  for (auto& slot_failures : failures) {
    merged_failures.insert(merged_failures.end(),
                           std::make_move_iterator(slot_failures.begin()),
                           std::make_move_iterator(slot_failures.end()));
  }
  std::sort(merged_failures.begin(), merged_failures.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return a.line < b.line;
            });
  if (!merged_failures.empty()) {
    registry.GetCounter("fixrep.quarantine.tuples")
        ->Add(merged_failures.size());
  }
  if (options.on_error == OnErrorPolicy::kQuarantine &&
      options.quarantine != nullptr) {
    for (const Diagnostic& diagnostic : merged_failures) {
      options.quarantine->Add(diagnostic);
    }
  }

  LenientRepairResult result;
  result.stats.Reset(repo.num_rules());
  for (const auto& repairer : repairers) {
    result.stats.MergeFrom(repairer->stats());
  }
  RepairStats empty;
  empty.Reset(repo.num_rules());
  result.stats.PublishDelta(empty, "lrepair");
  result.tuples_quarantined = merged_failures.size();
  MergeWriteLogs(&slot_logs, options.write_log);
  return result;
}

LenientRepairResult ParallelRepairTableLenient(
    const RuleRepository& repo, Table* table,
    const LenientRepairOptions& options) {
  FIXREP_CHECK(table != nullptr);
  return ParallelRepairRowsLenient(repo, table, 0, table->num_rows(),
                                   options);
}

}  // namespace fixrep
