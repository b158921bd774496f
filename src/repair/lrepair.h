#ifndef FIXREP_REPAIR_LREPAIR_H_
#define FIXREP_REPAIR_LREPAIR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "relation/table.h"
#include "repair/memo_cache.h"
#include "repair/repair_stats.h"
#include "rules/rule_dict.h"
#include "rules/rule_set.h"

namespace fixrep {

// lRepair (Fig. 7): the fast repair algorithm, O(size(Σ)) per tuple.
//
// The rule-set-derived structures live in a RuleDict image
// (rules/rule_dict.h): a flat hash over (attribute, constant) keys
// into CSR-packed inverted lists plus flat per-rule side arrays,
// compiled or opened once per rule set and shared immutably by every
// engine. A FastRepairer is only the per-thread scratch on top of one
// worker's RuleSource view:
// * Hash counters c(phi) count how many evidence attributes the current
//   tuple agrees with. When c(phi) reaches |X_phi| the rule *may* match
//   and enters the candidate set Ω; applicability is re-verified on pop
//   (counters are never decremented when a cell is overwritten, exactly
//   as in the paper — stale full counters are filtered by verification).
// * Counters use epoch stamping so per-tuple initialization is O(|R|)
//   probes, not O(|Σ|) clears.
//
// Each rule enters Ω at most once and is checked at most once per tuple,
// which is what yields the linear bound.
//
// Optionally a MemoCache (set_memo) short-circuits the chase for
// byte-identical tuples by replaying the cached write set — bit-identical
// to re-chasing because the chase is a pure function of the tuple.
class FastRepairer {
 public:
  // Compiles a private image of `rules`, bound to the set's pool.
  explicit FastRepairer(const RuleSet* rules);

  // Chases against one worker's view: typically a
  // RuleDictHandle::source() of an image shared by many repairers. The
  // view's dictionary and handle must outlive the repairer.
  explicit FastRepairer(const RuleSource& source);

  const RuleSource& source() const { return source_; }

  // Attaches a memo cache (nullptr detaches). Borrowed; the cache is
  // single-owner, so never share one across concurrently-running
  // repairers.
  void set_memo(MemoCache* memo) { memo_ = memo; }
  MemoCache* memo() const { return memo_; }

  // Attaches a rule-attributed write capture (nullptr detaches): every
  // committed cell write — chase application or memo replay — appends one
  // CellRepair{row, attr, old, new, rule} to `log`, in write order. The
  // row recorded is whatever set_write_log_row last saw; RepairRows
  // maintains it itself, callers of RepairTuple/TryRepairTuple set it
  // per call. A chase that fails (budget exhausted,
  // restored tuple) leaves no entries. Borrowed and single-owner like the
  // memo: never share one log across concurrently-running repairers.
  void set_write_log(std::vector<CellRepair>* log) { write_log_ = log; }
  std::vector<CellRepair>* write_log() const { return write_log_; }
  void set_write_log_row(size_t row) { write_log_row_ = row; }

  // Repairs one tuple in place through the view; returns the number of
  // cells changed. Accepts a Table::WriteRow span or (implicitly) an
  // owning Tuple.
  size_t RepairTuple(TupleSpan t);

  // Per-tuple failure-isolating variant: reports a wrong-arity tuple as
  // kMalformedInput, an injected worker fault as kInternal, and a chase
  // exceeding the step budget (set_max_chase_steps) as kBudgetExhausted.
  // On any error the tuple is restored to its original values and no
  // changes are recorded (tuples_examined and the chase-internal work
  // counters still record the attempt). This path never consults the
  // memo cache — isolation over memoization; the repaired output is
  // bit-identical to RepairTuple's on tuples that succeed.
  Status TryRepairTuple(TupleSpan t, size_t* cells_changed);

  // Caps the number of Ω pops one TryRepairTuple chase may spend before
  // giving up with kBudgetExhausted; 0 (default) means unlimited. Each
  // rule enters Ω at most once per tuple, so a budget >= |Σ| only trips
  // on pathological rule interaction. RepairTuple ignores the budget.
  void set_max_chase_steps(size_t max_steps) { max_chase_steps_ = max_steps; }
  size_t max_chase_steps() const { return max_chase_steps_; }

  // Repairs rows [begin, end) of `table` in place — what every
  // RepairDriver slot (repair/driver.h) runs in abort mode.
  //
  // Without a memo, rows are processed in cache-sized groups: gather the
  // group's non-null cells of the evidence-mentioned attributes (cells
  // of any other column can never hit a posting list), probe them with
  // one LookupBatch (hashing with the active kernel plus slot/posting
  // prefetch), then chase each tuple off its precomputed ranges with the
  // counter bumps running back-to-back on warm postings. With a memo the
  // rows stay per-tuple and interleaved (Find, chase, Insert in row
  // order) so the memo hit/miss sequence — and therefore fixrep.memo.* —
  // does not depend on the grouping. Repaired output is bit-identical on
  // every path; only the probe schedule differs.
  void RepairRows(Table* table, size_t begin, size_t end);

  // Repairs every row of `table` in place.
  void RepairTable(Table* table);

  const RepairStats& stats() const { return stats_; }
  void ResetStats() {
    stats_.Reset(source_.num_rules());
    published_.Reset(source_.num_rules());
  }

  // Publishes stats accumulated since the last flush into the global
  // MetricsRegistry (fixrep.lrepair.*), plus the attached memo's
  // fixrep.memo.* deltas. RepairTable flushes automatically; callers
  // driving RepairRows or RepairTuple directly decide their own flush
  // granularity (RepairDriver merges its slots' stats and publishes them
  // itself).
  void FlushMetrics();

  // Seeds the epoch counter so tests can exercise the uint32 wrap-around
  // hard-reset path without chasing ~4B tuples.
  void SeedEpochForTest(uint32_t epoch) { epoch_ = epoch; }

 private:
  // Queue entries are the rule id with bit 31 carrying the prescreen
  // verdict on the batched path (set = provably rejected; the index
  // build checks num_rules < 2^31).
  static constexpr uint32_t kRejectedBit = uint32_t{1} << 31;

  // Bumps the counter of `rule_index` for the current epoch; enqueues the
  // rule when its evidence counter becomes full. The prescreened chase
  // inlines its own variant of this inside ChaseTuple (flagged enqueues,
  // |X|=1 counter skip, local stat tallies); this out-of-line form serves
  // the budgeted init loop and propagation bumps.
  void BumpCounter(uint32_t rule_index);

  // The non-memoized chase (Fig. 7 proper). A non-zero `max_steps`
  // bounds Ω pops; on exhaustion sets *exhausted, rolls the
  // rule-application stats back, and returns 0 (the caller restores the
  // tuple itself).
  //
  // `init_ranges` optionally carries the tuple's pre-probed posting
  // ranges — one per non-null evidence-attribute cell, in attribute
  // order (misses as empty ranges) — produced by LookupBatch over a row
  // group. When null, the chase probes the cells itself with one
  // per-tuple LookupBatch. There are two init loops over those ranges,
  // and both bump identical counters in identical order.
  //
  // With max_steps == 0 the chase is *prescreened*: each candidate's
  // applicability is decided at enqueue time (counter full proves the
  // evidence clause on the untouched tuple; the negative clause is one
  // cached NegativeMatch) and carried in the queue entry's flag bit, so
  // pops skip MatchesFlat until the first write dirties the tuple — and a
  // tuple with no surviving candidate skips its pop loop wholesale. This
  // is exact, not heuristic: a flagged candidate is rejected by the
  // unscreened chase too (its target untouched at pop means the same
  // negative test fails; its target written means the applier's assured
  // set covers it), so outputs, stat totals, and queue order are
  // bit-identical. Budgeted chases (max_steps > 0) init with BumpCounter
  // and verify every pop, so a step counts every candidate pop.
  size_t ChaseTuple(TupleSpan t, size_t max_steps = 0,
                    bool* exhausted = nullptr,
                    const PostingRange* init_ranges = nullptr,
                    size_t num_init_ranges = 0);

  std::unique_ptr<const RuleDict> owned_dict_;
  std::unique_ptr<const RuleDictHandle> owned_handle_;
  RuleSource source_;
  MemoCache* memo_ = nullptr;
  std::vector<CellRepair>* write_log_ = nullptr;
  size_t write_log_row_ = 0;
  size_t max_chase_steps_ = 0;

  // Per-tuple scratch state, epoch-stamped.
  uint32_t epoch_ = 0;
  std::vector<uint32_t> counter_;
  std::vector<uint32_t> counter_epoch_;
  std::vector<uint32_t> queued_epoch_;   // rule has entered Ω this epoch
  std::vector<uint32_t> checked_epoch_;  // rule was popped and consumed
  std::vector<uint32_t> queue_;          // Ω (id | kRejectedBit when flagged)
  std::vector<MemoCache::Write> writes_scratch_;  // chase log for the memo
  Tuple key_scratch_;  // a missed tuple's pre-repair cells, for the memo

  // The prescreen verdict memo: per rule, the last (t[B], verdict) pair
  // packed (value << 1) | is_negative with UINT64_MAX as "empty". The
  // verdict is a pure function of (rule, value) for an immutable index,
  // so the cache never expires — on duplicate-heavy data almost every
  // enqueue-time check is one load + compare.
  std::vector<uint64_t> flag_cache_;

  // Batched-probe scratch (RepairRows row groups and per-tuple batched
  // init): packed keys for every non-null cell, their resolved posting
  // ranges, and each row's [begin, end) offsets into them.
  std::vector<uint64_t> probe_keys_;
  std::vector<PostingRange> probe_ranges_;
  std::vector<uint32_t> group_offsets_;

  RepairStats stats_;
  RepairStats published_;  // snapshot of stats_ at the last FlushMetrics
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_LREPAIR_H_
