#include "repair/lrepair.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/trace.h"

namespace fixrep {

namespace {

void InitScratch(size_t num_rules, std::vector<uint32_t>* counter,
                 std::vector<uint32_t>* counter_epoch,
                 std::vector<uint32_t>* queued_epoch,
                 std::vector<uint32_t>* checked_epoch,
                 std::vector<uint64_t>* flag_cache) {
  counter->assign(num_rules, 0);
  counter_epoch->assign(num_rules, 0);
  queued_epoch->assign(num_rules, 0);
  checked_epoch->assign(num_rules, 0);
  flag_cache->assign(num_rules, UINT64_MAX);
}

}  // namespace

FastRepairer::FastRepairer(const RuleSet* rules)
    : owned_dict_(RuleDict::CompileOrDie(*rules)),
      owned_handle_(owned_dict_->MakeHandle()),
      source_(owned_handle_->source()) {
  InitScratch(source_.num_rules(), &counter_, &counter_epoch_,
              &queued_epoch_, &checked_epoch_, &flag_cache_);
  stats_.Reset(source_.num_rules());
  published_.Reset(source_.num_rules());
}

FastRepairer::FastRepairer(const RuleSource& source) : source_(source) {
  InitScratch(source_.num_rules(), &counter_, &counter_epoch_,
              &queued_epoch_, &checked_epoch_, &flag_cache_);
  stats_.Reset(source_.num_rules());
  published_.Reset(source_.num_rules());
}

void FastRepairer::BumpCounter(uint32_t rule_index) {
  ++stats_.counter_bumps;
  if (counter_epoch_[rule_index] != epoch_) {
    counter_epoch_[rule_index] = epoch_;
    counter_[rule_index] = 0;
  }
  ++counter_[rule_index];
  if (counter_[rule_index] == source_.evidence_count(rule_index) &&
      queued_epoch_[rule_index] != epoch_ &&
      checked_epoch_[rule_index] != epoch_) {
    queued_epoch_[rule_index] = epoch_;
    ++stats_.candidates_enqueued;
    queue_.push_back(rule_index);
  }
}

size_t FastRepairer::RepairTuple(TupleSpan t) {
  FIXREP_CHECK_EQ(t.size(), source_.arity());
  if (memo_ == nullptr) return ChaseTuple(t);

  const uint64_t hash = MemoCache::HashTuple(t);
  if (const std::optional<std::span<const MemoCache::Write>> writes =
          memo_->Find(hash, t)) {
    // Replay: identical tuple, identical fix. The outcome counters
    // (tuples/cells/rule applications) advance exactly as a chase would;
    // the chase-internal ones (counter bumps, Ω traffic) are skipped —
    // that skipped work is the win.
    ++stats_.tuples_examined;
    for (const MemoCache::Write& write : *writes) {
      if (write_log_ != nullptr) {
        write_log_->push_back({write_log_row_, write.attr, t[write.attr],
                               write.value, write.rule});
      }
      t[write.attr] = write.value;
      ++stats_.rule_applications;
      ++stats_.per_rule_applications[write.rule];
    }
    stats_.cells_changed += writes->size();
    if (!writes->empty()) ++stats_.tuples_changed;
    return writes->size();
  }

  // The pre-repair signature, copied aside since the chase mutates t.
  key_scratch_.assign(t.begin(), t.end());
  writes_scratch_.clear();
  const size_t changed = ChaseTuple(t);
  memo_->Insert(hash, key_scratch_, writes_scratch_);
  return changed;
}

Status FastRepairer::TryRepairTuple(TupleSpan t, size_t* cells_changed) {
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
  if (max_chase_steps_ == 0) {
    *cells_changed = ChaseTuple(t);
    return Status::Ok();
  }
  const Tuple original = t.ToTuple();
  writes_scratch_.clear();
  bool exhausted = false;
  *cells_changed = ChaseTuple(t, max_chase_steps_, &exhausted);
  if (exhausted) {
    t.CopyFrom(original);
    *cells_changed = 0;
    return Status::BudgetExhausted(
        "chase exceeded its budget of " +
        std::to_string(max_chase_steps_) + " candidate applications");
  }
  return Status::Ok();
}

size_t FastRepairer::ChaseTuple(TupleSpan t, size_t max_steps,
                                bool* exhausted,
                                const PostingRange* init_ranges,
                                size_t num_init_ranges) {
  ++stats_.tuples_examined;
  const size_t log_mark = write_log_ != nullptr ? write_log_->size() : 0;
  ++epoch_;
  if (epoch_ == 0) {
    // uint32 wrap-around after ~4B tuples: hard-reset the stamps.
    counter_epoch_.assign(counter_epoch_.size(), 0);
    queued_epoch_.assign(queued_epoch_.size(), 0);
    checked_epoch_.assign(checked_epoch_.size(), 0);
    epoch_ = 1;
  }
  queue_.clear();

  if (init_ranges == nullptr) {
    // Per-tuple init (memoized rows, lenient chases): pack this tuple's
    // non-null evidence-attribute cells and probe them with one
    // LookupBatch.
    probe_keys_.clear();
    for (const AttrId a : source_.evidence_attrs()) {
      const ValueId v = t[a];
      if (v == kNullValue) continue;
      probe_keys_.push_back(source_.ProbeKey(a, v));
    }
    probe_ranges_.resize(probe_keys_.size());
    source_.LookupBatch(ActiveSimdKernel(), probe_keys_.data(),
                        probe_keys_.size(), probe_ranges_.data());
    ++stats_.batch_probes;
    stats_.batch_keys += probe_keys_.size();
    init_ranges = probe_ranges_.data();
    num_init_ranges = probe_ranges_.size();
  }
  // Budgeted chases take the plain pop loop: a prescreen-flagged pop and
  // a verified-and-rejected pop both cost one step, but the
  // zero-survivor shortcut below would not, and budget exhaustion must
  // trip on exactly the pop an unscreened chase trips on.
  const bool prescreen = max_steps == 0;

  // Lines 2-7 of Fig. 7: initialize counters from the tuple's cells and
  // seed Ω with fully-counted rules.
  uint32_t survivors = 0;
  if (prescreen) {
    // The batched hot loop. Scratch pointers and stat tallies live in
    // locals so queue_.push_back's potential reallocation cannot force
    // them back to memory every iteration; the tallies fold into stats_
    // once per tuple. Semantically this bumps the exact counters, in
    // the exact order, the BumpCounter loop below would — |X|=1 rules just
    // skip the counter read-modify-write (one posting entry means one
    // init bump: the counter trivially fills, and a propagation bump
    // re-deriving it from a stale epoch reaches the same guards).
    uint32_t* const counter = counter_.data();
    uint32_t* const counter_epoch = counter_epoch_.data();
    uint32_t* const queued_epoch = queued_epoch_.data();
    const uint32_t* const checked_epoch = checked_epoch_.data();
    uint64_t* const flag_cache = flag_cache_.data();
    const RuleSource& index = source_;
    const uint32_t epoch = epoch_;
    size_t hits = 0;
    size_t bumps = 0;
    size_t enqueued = 0;
    const auto flag_of = [&](uint32_t rule) -> uint32_t {
      // Enqueue-time applicability: counter full on the untouched tuple
      // proves the evidence clause, so the verdict is the negative
      // clause alone — a pure function of (rule, t[B]) for an immutable
      // index, memoized per rule in flag_cache (UINT64_MAX = empty).
      const ValueId v = t[index.target(rule)];
      const uint64_t cached = flag_cache[rule];
      if ((cached >> 1) == static_cast<uint32_t>(v)) {
        return (cached & 1) ? 0u : kRejectedBit;
      }
      const bool neg = index.NegativeMatch(rule, v);
      flag_cache[rule] =
          (static_cast<uint64_t>(static_cast<uint32_t>(v)) << 1) |
          (neg ? 1u : 0u);
      return neg ? 0u : kRejectedBit;
    };
    for (uint32_t rule_index : index.empty_evidence_rules()) {
      queued_epoch[rule_index] = epoch;
      ++enqueued;
      const uint32_t flag = flag_of(rule_index);
      queue_.push_back(rule_index | flag);
      survivors += flag == 0;
    }
    for (size_t k = 0; k < num_init_ranges; ++k) {
      const PostingRange range = init_ranges[k];
      if (range.empty()) continue;
      ++hits;
      bumps += range.size();
      for (const uint32_t* p = range.begin; p != range.end; ++p) {
        const uint32_t rule = *p;
        const uint32_t evc = index.evidence_count(rule);
        if (evc != 1) {
          if (counter_epoch[rule] != epoch) {
            counter_epoch[rule] = epoch;
            counter[rule] = 0;
          }
          if (++counter[rule] != evc) continue;
        }
        if (queued_epoch[rule] == epoch || checked_epoch[rule] == epoch) {
          continue;
        }
        queued_epoch[rule] = epoch;
        ++enqueued;
        const uint32_t flag = flag_of(rule);
        queue_.push_back(rule | flag);
        survivors += flag == 0;
      }
    }
    stats_.index_hits += hits;
    stats_.counter_bumps += bumps;
    stats_.candidates_enqueued += enqueued;
  } else {
    for (uint32_t rule_index : source_.empty_evidence_rules()) {
      queued_epoch_[rule_index] = epoch_;
      ++stats_.candidates_enqueued;
      queue_.push_back(rule_index);
    }
    // Ranges arrive in attribute order with misses as empty ranges, so
    // this bumps the exact counters, in the exact order, the prescreened
    // loop above does.
    for (size_t k = 0; k < num_init_ranges; ++k) {
      const PostingRange range = init_ranges[k];
      if (range.empty()) continue;
      ++stats_.index_hits;
      for (const uint32_t* p = range.begin; p != range.end; ++p) {
        BumpCounter(*p);
      }
    }
  }

  if (prescreen && survivors == 0) {
    // Every candidate is pre-rejected and nothing can cascade: charge
    // the rejections in bulk and skip the pop loop. The checked stamps
    // the loop would have written are only ever read within this epoch,
    // and this epoch is over.
    stats_.candidates_rejected += queue_.size();
    return 0;
  }

  // Lines 8-16: chase over the candidate set.
  const bool log_writes = memo_ != nullptr || max_steps > 0;
  AttrSet assured;
  bool dirty = false;
  size_t steps = 0;
  size_t cells_changed = 0;
  while (!queue_.empty()) {
    const uint32_t entry = queue_.back();
    queue_.pop_back();
    const uint32_t rule_index = entry & ~kRejectedBit;
    if (checked_epoch_[rule_index] == epoch_) continue;
    if (max_steps > 0 && ++steps > max_steps) {
      // Budget blown: roll the rule-application stats back (cells/tuple
      // outcomes were never committed); the caller restores the tuple.
      for (const MemoCache::Write& write : writes_scratch_) {
        --stats_.rule_applications;
        --stats_.per_rule_applications[write.rule];
      }
      if (write_log_ != nullptr) write_log_->resize(log_mark);
      *exhausted = true;
      return 0;
    }
    checked_epoch_[rule_index] = epoch_;  // removed from Ω once and for all
    if (entry & kRejectedBit) {
      // Prescreen verdict from enqueue time: the negative clause failed
      // on the init tuple, so this pop rejects under the unscreened check
      // too (target untouched — same test; target written — assured).
      ++stats_.candidates_rejected;
      continue;
    }
    const AttrId target = source_.target(rule_index);
    // A prescreen survivor popped before the first write needs no
    // verification: its counter filled on the untouched tuple (evidence
    // clause) and its flag cleared (negative clause), so Matches holds.
    if ((dirty || !prescreen) &&
        (assured.Contains(target) ||
         !source_.MatchesFlat(rule_index, t))) {
      ++stats_.candidates_rejected;
      continue;
    }
    const ValueId fact = source_.fact(rule_index);
    if (write_log_ != nullptr) {
      write_log_->push_back(
          {write_log_row_, target, t[target], fact, rule_index});
    }
    t[target] = fact;
    assured.UnionWith(source_.assured(rule_index));
    dirty = true;
    ++cells_changed;
    ++stats_.rule_applications;
    ++stats_.per_rule_applications[rule_index];
    if (log_writes) {
      writes_scratch_.push_back({target, fact, rule_index});
    }
    // Propagate the new value through the inverted lists (lines 13-15).
    const uint64_t key = source_.ProbeKey(target, fact);
    PostingRange range;
    source_.LookupBatch(&key, 1, &range);
    if (range.empty()) continue;
    ++stats_.index_hits;
    for (const uint32_t* p = range.begin; p != range.end; ++p) {
      if (checked_epoch_[*p] != epoch_) BumpCounter(*p);
    }
  }

  stats_.cells_changed += cells_changed;
  if (cells_changed > 0) ++stats_.tuples_changed;
  return cells_changed;
}

void FastRepairer::RepairRows(Table* table, size_t begin, size_t end) {
  if (memo_ != nullptr) {
    // Memoized rows stay interleaved (Find, chase, Insert in row order)
    // so intra-group duplicates hit the memo exactly as they always
    // have.
    for (size_t r = begin; r < end; ++r) {
      write_log_row_ = r;
      RepairTuple(table->WriteRow(r));
    }
    return;
  }

  // 64 rows per group: the key/range scratch stays in L1 and the
  // prefetched posting lines are still resident when their row's bump
  // loop runs. Only evidence-mentioned attributes are gathered — every
  // other column's probe would miss by construction.
  constexpr size_t kRowGroup = 64;
  const SimdKernel kernel = ActiveSimdKernel();
  const size_t arity = source_.arity();
  const auto ev_attrs = source_.evidence_attrs();
  for (size_t group = begin; group < end; group += kRowGroup) {
    const size_t limit = std::min(end, group + kRowGroup);
    probe_keys_.clear();
    group_offsets_.clear();
    for (size_t r = group; r < limit; ++r) {
      group_offsets_.push_back(static_cast<uint32_t>(probe_keys_.size()));
      const TupleRef t = table->row(r);
      FIXREP_CHECK_EQ(t.size(), arity);
      for (const AttrId a : ev_attrs) {
        const ValueId v = t[a];
        if (v == kNullValue) continue;
        probe_keys_.push_back(source_.ProbeKey(a, v));
      }
    }
    group_offsets_.push_back(static_cast<uint32_t>(probe_keys_.size()));
    probe_ranges_.resize(probe_keys_.size());
    source_.LookupBatch(kernel, probe_keys_.data(), probe_keys_.size(),
                        probe_ranges_.data());
    ++stats_.batch_probes;
    stats_.batch_keys += probe_keys_.size();
    for (size_t r = group; r < limit; ++r) {
      const uint32_t lo = group_offsets_[r - group];
      const uint32_t hi = group_offsets_[r - group + 1];
      write_log_row_ = r;
      ChaseTuple(table->WriteRow(r), /*max_steps=*/0, /*exhausted=*/nullptr,
                 probe_ranges_.data() + lo, hi - lo);
    }
  }
}

void FastRepairer::RepairTable(Table* table) {
  FIXREP_TRACE_SPAN("lrepair.chase");
  RepairRows(table, 0, table->num_rows());
  FlushMetrics();
}

void FastRepairer::FlushMetrics() {
  stats_.PublishDelta(published_, "lrepair");
  published_ = stats_;
  if (memo_ != nullptr) memo_->FlushMetrics();
}

}  // namespace fixrep
