#ifndef FIXREP_REPAIR_RULE_INDEX_H_
#define FIXREP_REPAIR_RULE_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/simd.h"
#include "relation/table.h"
#include "rules/rule_set.h"
#include "rules/rule_source.h"

namespace fixrep {

// Immutable, cache-friendly compilation of a RuleSet for the lRepair hot
// path. Built once per rule set and shared read-only by every repair
// engine (serial, pooled parallel, sharded) — the per-call,
// per-worker index rebuild of the old design is gone.
//
// Layout:
// * An open-addressing flat hash (linear probing, power-of-two capacity,
//   <=50% load) maps the packed key (attr << 32 | value) to a postings
//   range. Probing touches one contiguous RuleSlot array — no node
//   allocations, no pointer chasing.
// * Postings are CSR-packed: one contiguous uint32_t rule-id array; each
//   hash slot stores its [begin, end) offsets.
// * Flat side arrays mirror the per-rule fields the chase touches
//   (|X_phi|, target attribute, fact value, assured bitmask), so counter
//   bumps and propagation never dereference a FixingRule.
// * The full evidence patterns and negative-pattern sets are CSR-packed
//   too (MatchesFlat), so candidate re-verification walks flat
//   (attr, value) pairs instead of chasing RuleSet/FixingRule pointers.
//
// This is the in-RAM RuleSource backend (rules/rule_source.h): engines
// chase against MakeSource()'s span view, and MakeHandle() plugs the
// index into any RuleRepository-driven engine. Because the index is
// built from the run's own ValuePool, its view needs no value
// translation and no posting cache — every accessor is exactly the load
// the pre-seam code performed. The direct probe methods below delegate
// to the same view and remain for callers and tests that address the
// index concretely.
//
// The rule set must outlive the index and must not be mutated afterwards.
class CompiledRuleIndex : public RuleRepository {
 public:
  explicit CompiledRuleIndex(const RuleSet* rules);

  CompiledRuleIndex(const CompiledRuleIndex&) = delete;
  CompiledRuleIndex& operator=(const CompiledRuleIndex&) = delete;

  const RuleSet& rules() const { return *rules_; }
  size_t num_rules() const override { return evidence_count_.size(); }
  size_t arity() const override { return arity_; }

  // The span view every engine chases against. Valid for the life of
  // the index; copies are cheap.
  RuleSource MakeSource() const { return view_; }

  // RuleRepository: a handle is just the view (no per-worker scratch).
  std::unique_ptr<RuleSourceHandle> MakeHandle() const override {
    return std::make_unique<RuleSourceHandle>(view_);
  }

  // RuleSetFingerprint of the compiled set, computed on first use.
  uint64_t fingerprint() const override;

  static uint64_t PackKey(AttrId attr, ValueId value) {
    return RuleSource::PackKey(attr, value);
  }

  // Rules phi with attr in X_phi and tp_phi[attr] == value. Empty range
  // when no rule mentions the cell.
  PostingRange Lookup(AttrId attr, ValueId value) const {
    return view_.Lookup(attr, value);
  }

  // Batched probe (see RuleSource::LookupBatch).
  void LookupBatch(SimdKernel kernel, const uint64_t* keys, size_t n,
                   PostingRange* out) const {
    view_.LookupBatch(kernel, keys, n, out);
  }
  void LookupBatch(const uint64_t* keys, size_t n, PostingRange* out) const {
    view_.LookupBatch(keys, n, out);
  }

  // |X_phi| — the evidence counter threshold for rule i.
  uint32_t evidence_count(uint32_t rule) const {
    return evidence_count_[rule];
  }
  AttrId target(uint32_t rule) const { return target_[rule]; }
  ValueId fact(uint32_t rule) const { return fact_[rule]; }
  AttrSet assured(uint32_t rule) const {
    return AttrSet::FromBits(assured_bits_[rule]);
  }

  // v in Tp[B_phi] — the negative-pattern clause of Matches alone.
  bool NegativeMatch(uint32_t rule, ValueId v) const {
    return view_.NegativeMatch(rule, v);
  }

  // t |- phi, evaluated over the CSR side arrays. Semantically identical
  // to rules().rule(i).Matches(t).
  bool MatchesFlat(uint32_t rule, TupleRef t) const {
    return view_.MatchesFlat(rule, t);
  }

  // Rules with empty evidence (always candidates).
  const std::vector<uint32_t>& empty_evidence_rules() const {
    return empty_evidence_rules_;
  }

  // The distinct attributes appearing in any rule's evidence pattern,
  // ascending.
  const std::vector<AttrId>& evidence_attrs() const {
    return evidence_attr_list_;
  }

  // Union of every rule's evidence and target attributes — the attribute
  // closure the chase can ever read or write. Columns outside this set
  // are invisible to repair, which is what makes streaming column
  // pruning (repair/streaming.h) safe.
  AttrSet mentioned_attrs() const override { return mentioned_attrs_; }

  size_t num_keys() const { return num_keys_; }
  size_t num_postings() const { return postings_.size(); }
  // Total heap footprint of the compiled structures, in bytes.
  size_t bytes() const;

 private:
  const RuleSet* rules_;
  size_t arity_ = 0;
  size_t num_keys_ = 0;
  size_t mask_ = 0;
  std::vector<RuleSlot> slots_;
  std::vector<uint32_t> postings_;
  std::vector<uint32_t> evidence_count_;
  std::vector<AttrId> target_;
  std::vector<ValueId> fact_;
  std::vector<uint64_t> assured_bits_;
  std::vector<uint32_t> empty_evidence_rules_;
  // CSR evidence patterns and negative-pattern sets (MatchesFlat):
  // rule i's evidence pairs are (ev_attrs_, ev_values_)[ev_offsets_[i]
  // .. ev_offsets_[i+1]), its sorted negative patterns
  // neg_values_[neg_offsets_[i] .. neg_offsets_[i+1]).
  std::vector<uint32_t> ev_offsets_;
  std::vector<AttrId> ev_attrs_;
  std::vector<ValueId> ev_values_;
  std::vector<uint32_t> neg_offsets_;
  std::vector<ValueId> neg_values_;
  std::vector<AttrId> evidence_attr_list_;
  AttrSet mentioned_attrs_;
  RuleSource view_;  // spans over the vectors above, wired in the ctor

  mutable std::once_flag fingerprint_once_;
  mutable uint64_t fingerprint_ = 0;
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_RULE_INDEX_H_
