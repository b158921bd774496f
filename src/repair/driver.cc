#include "repair/driver.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "deps/violation.h"
#include "repair/crepair.h"
#include "repair/lrepair.h"
#include "repair/memo_cache.h"

namespace fixrep {

struct RepairDriver::Slot {
  using Repairer = std::variant<FastRepairer, ChaseRepairer>;

  Slot(const RuleDict& dict, const RepairConfig& config)
      : handle(dict.MakeHandle()),
        repairer(config.engine == RepairEngine::kCRepair
                     ? Repairer(std::in_place_type<ChaseRepairer>,
                                handle->source())
                     : Repairer(std::in_place_type<FastRepairer>,
                                handle->source())) {
    FastRepairer* fast = std::get_if<FastRepairer>(&repairer);
    if (fast != nullptr && config.on_error == OnErrorPolicy::kAbort &&
        config.use_memo) {
      fast->set_memo(&memo.emplace(config.memo_capacity));
    }
    std::visit([&](auto& r) { r.set_max_chase_steps(config.max_chase_steps); },
               repairer);
  }

  std::unique_ptr<RuleDictHandle> handle;
  Repairer repairer;
  std::optional<MemoCache> memo;
  std::vector<Diagnostic> failures;
  std::vector<CellRepair> writes;  // multi-slot runs only
  std::vector<uint32_t> rows;      // rows routed here (sharded runs)
};

RepairDriver::RepairDriver(const RuleDict& dict, const RepairConfig& config)
    : dict_(dict), config_(config) {
  slots_.push_back(std::make_unique<Slot>(dict_, config_));
  const AttrSet mentioned = dict_.mentioned_attrs();
  for (AttrId a = 0; a < static_cast<AttrId>(dict_.arity()); ++a) {
    if (mentioned.Contains(a)) route_attrs_.push_back(a);
  }
}

RepairDriver::~RepairDriver() = default;

void RepairDriver::Chase(Slot* slot, Table* table, size_t begin,
                         size_t end) const {
  std::visit(
      [&](auto& repairer) {
        if (config_.on_error == OnErrorPolicy::kAbort) {
          repairer.RepairRows(table, begin, end);
          return;
        }
        for (size_t r = begin; r < end; ++r) {
          size_t cells_changed = 0;
          repairer.set_write_log_row(r);
          const Status status =
              repairer.TryRepairTuple(table->WriteRow(r), &cells_changed);
          if (status.ok()) continue;
          // TryRepairTuple restored the row, so FormatRow renders the
          // original.
          slot->failures.push_back(Diagnostic{r, status.code(),
                                              status.message(),
                                              table->FormatRow(r)});
        }
      },
      slot->repairer);
}

const RepairStats& RepairDriver::Run(Table* table, size_t begin,
                                     size_t end) {
  FIXREP_CHECK(table != nullptr);
  FIXREP_CHECK(begin <= end && end <= table->num_rows());
  ThreadPool& pool = ThreadPool::Global();
  const size_t rows = end - begin;
  const bool sharded = config_.shards > 0;
  const size_t n =
      pool.Participants(sharded ? config_.shards : config_.threads, rows);
  while (slots_.size() < n) {
    slots_.push_back(std::make_unique<Slot>(dict_, config_));
  }
  for (size_t s = 0; s < n; ++s) {
    std::visit(
        [&](auto& repairer) {
          repairer.ResetStats();
          repairer.set_write_log(write_log_ == nullptr ? nullptr
                                 : n == 1              ? write_log_
                                                       : &slots_[s]->writes);
        },
        slots_[s]->repairer);
  }

  auto& registry = CurrentMetrics();
  if (n == 1) {
    Chase(slots_[0].get(), table, begin, end);
  } else if (sharded) {
    FIXREP_TRACE_SPAN("sharded.repair_table");
    registry.GetCounter("fixrep.sharded.tables_repaired")->Add(1);
    registry.GetGauge("fixrep.sharded.shards")->Set(static_cast<int64_t>(n));
    const ValueVectorHash hasher;
    std::vector<ValueId> projection(route_attrs_.size());
    for (size_t s = 0; s < n; ++s) slots_[s]->rows.clear();
    for (size_t r = begin; r < end; ++r) {
      const TupleRef row = table->row(r);
      for (size_t i = 0; i < route_attrs_.size(); ++i) {
        projection[i] = row[route_attrs_[i]];
      }
      slots_[hasher(projection) % n]->rows.push_back(static_cast<uint32_t>(r));
    }
    // One shard per claim: the cursor lets fast workers absorb several
    // small shards while a heavy one runs.
    pool.ParallelFor(n, /*grain=*/1, n, [&](size_t lo, size_t hi, size_t) {
      for (size_t s = lo; s < hi; ++s) {
        for (const uint32_t r : slots_[s]->rows) {
          Chase(slots_[s].get(), table, r, r + 1);
        }
      }
    });
  } else {
    FIXREP_TRACE_SPAN("parallel.repair_table");
    registry.GetCounter("fixrep.parallel.tables_repaired")->Add(1);
    registry.GetGauge("fixrep.parallel.workers")->Set(static_cast<int64_t>(n));
    // Chunks small enough that fast workers absorb stragglers' leftovers,
    // large enough that the atomic cursor is off the per-tuple path.
    const size_t grain =
        std::clamp<size_t>(rows / (n * 8), size_t{16}, size_t{2048});
    pool.ParallelFor(rows, grain, n, [&](size_t lo, size_t hi, size_t slot) {
      Chase(slots_[slot].get(), table, begin + lo, begin + hi);
    });
  }

  // Merge on the calling thread: workers never publish, so the registry
  // sees one update per run whatever the width.
  stats_.Reset(dict_.num_rules());
  failures_.clear();
  const size_t log_mark = write_log_ != nullptr ? write_log_->size() : 0;
  for (size_t s = 0; s < n; ++s) {
    Slot& slot = *slots_[s];
    std::visit([&](auto& repairer) { stats_.MergeFrom(repairer.stats()); },
               slot.repairer);
    if (slot.memo.has_value()) slot.memo->FlushMetrics();
    failures_.insert(failures_.end(),
                     std::make_move_iterator(slot.failures.begin()),
                     std::make_move_iterator(slot.failures.end()));
    slot.failures.clear();
    if (n > 1 && write_log_ != nullptr) {
      write_log_->insert(write_log_->end(), slot.writes.begin(),
                         slot.writes.end());
      slot.writes.clear();
    }
  }
  stats_.PublishDelta(
      RepairStats{},
      config_.engine == RepairEngine::kCRepair ? "crepair" : "lrepair");
  if (n > 1) {
    // Each slot's list is row-ascending (a monotone cursor, or rows
    // routed in scan order) and a row lives in one slot, so a stable sort
    // on row reproduces the one-slot order.
    std::sort(failures_.begin(), failures_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return a.line < b.line;
              });
    if (write_log_ != nullptr) {
      std::stable_sort(write_log_->begin() + log_mark, write_log_->end(),
                       [](const CellRepair& a, const CellRepair& b) {
                         return a.row < b.row;
                       });
    }
  }
  if (!failures_.empty()) {
    registry.GetCounter("fixrep.quarantine.tuples")->Add(failures_.size());
    if (config_.on_error == OnErrorPolicy::kQuarantine &&
        config_.quarantine != nullptr) {
      for (const Diagnostic& diagnostic : failures_) {
        config_.quarantine->Add(diagnostic);
      }
    }
  }
  return stats_;
}

}  // namespace fixrep
