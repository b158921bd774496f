#include "rules/consistency.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace fixrep {

namespace {

// True if the evidence patterns agree on X_a ∩ X_b (both empty overlap
// and equal constants count as compatible) — the precondition for any
// tuple to match both rules (line 2 of Fig. 4).
bool EvidenceCompatible(const FixingRule& a, const FixingRule& b) {
  // Merge-walk the two sorted attribute lists.
  size_t i = 0;
  size_t j = 0;
  while (i < a.evidence_attrs.size() && j < b.evidence_attrs.size()) {
    if (a.evidence_attrs[i] < b.evidence_attrs[j]) {
      ++i;
    } else if (a.evidence_attrs[i] > b.evidence_attrs[j]) {
      ++j;
    } else {
      if (a.evidence_values[i] != b.evidence_values[j]) return false;
      ++i;
      ++j;
    }
  }
  return true;
}

// First value in Tp_a[B] ∩ Tp_b[B], or kNullValue if disjoint.
ValueId FirstNegativeOverlap(const FixingRule& a, const FixingRule& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.negative_patterns.size() && j < b.negative_patterns.size()) {
    if (a.negative_patterns[i] < b.negative_patterns[j]) {
      ++i;
    } else if (a.negative_patterns[i] > b.negative_patterns[j]) {
      ++j;
    } else {
      return a.negative_patterns[i];
    }
  }
  return kNullValue;
}

// Builds a minimal tuple matching both rules; attributes not constrained
// by either rule stay kNullValue. `target_a`/`target_b` choose the values
// for the rules' target attributes when they are not pinned by the other
// rule's evidence.
Tuple BuildWitness(const FixingRule& a, const FixingRule& b, size_t arity,
                   ValueId target_a, ValueId target_b) {
  Tuple t(arity, kNullValue);
  for (size_t i = 0; i < a.evidence_attrs.size(); ++i) {
    t[a.evidence_attrs[i]] = a.evidence_values[i];
  }
  for (size_t i = 0; i < b.evidence_attrs.size(); ++i) {
    t[b.evidence_attrs[i]] = b.evidence_values[i];
  }
  // Targets last: if a target is in the other rule's evidence the
  // evidence constant is the value that makes both match, so only set it
  // when still unpinned.
  if (t[a.target] == kNullValue) t[a.target] = target_a;
  if (t[b.target] == kNullValue) t[b.target] = target_b;
  return t;
}

}  // namespace

std::string Conflict::Describe(const RuleSet& rules) const {
  std::string out = "conflict between rule #" + std::to_string(rule_i) +
                    " and rule #" + std::to_string(rule_j) + " (";
  switch (kind) {
    case ConflictKind::kSameTargetDivergentFacts:
      out += "same target, overlapping negative patterns, different facts";
      break;
    case ConflictKind::kTargetInEvidenceIj:
      out += "rule #" + std::to_string(rule_i) +
             "'s target is evidence of rule #" + std::to_string(rule_j);
      break;
    case ConflictKind::kTargetInEvidenceJi:
      out += "rule #" + std::to_string(rule_j) +
             "'s target is evidence of rule #" + std::to_string(rule_i);
      break;
    case ConflictKind::kMutualTargetInEvidence:
      out += "each rule's target is evidence of the other";
      break;
    case ConflictKind::kDivergentFix:
      out += "two application orders yield different fixes";
      break;
    case ConflictKind::kSameTargetDivergentAssured:
      out += "same target and fact from different evidence patterns "
             "(divergent assured sets; strict mode)";
      break;
  }
  out += ")\n  phi_i: " +
         rules.rule(rule_i).Format(rules.schema(), rules.pool());
  out += "\n  phi_j: " +
         rules.rule(rule_j).Format(rules.schema(), rules.pool());
  if (!witness.empty()) {
    out += "\n  witness: (";
    for (size_t a = 0; a < witness.size(); ++a) {
      if (a > 0) out += ", ";
      out += witness[a] == kNullValue ? std::string("_")
                                      : rules.pool().GetString(witness[a]);
    }
    out += ")";
  }
  return out;
}

bool PairConsistentChar(const FixingRule& a, const FixingRule& b,
                        size_t arity, Conflict* conflict) {
  if (!EvidenceCompatible(a, b)) return true;

  auto report = [&](ConflictKind kind, ValueId target_a, ValueId target_b) {
    if (conflict != nullptr) {
      conflict->kind = kind;
      conflict->witness = BuildWitness(a, b, arity, target_a, target_b);
    }
    return false;
  };

  if (a.target == b.target) {
    // Case 1: a tuple with t[B] in both negative-pattern sets gets two
    // different facts depending on which rule fires first.
    const ValueId overlap = FirstNegativeOverlap(a, b);
    if (overlap != kNullValue && a.fact != b.fact) {
      return report(ConflictKind::kSameTargetDivergentFacts, overlap,
                    overlap);
    }
    return true;
  }

  // Case 2: different targets. a's target inside b's evidence means
  // whichever rule fires first freezes or rewrites the shared attribute.
  const ValueId b_evidence_at_a_target = b.EvidenceValueFor(a.target);
  const ValueId a_evidence_at_b_target = a.EvidenceValueFor(b.target);
  const bool a_target_in_b =
      b_evidence_at_a_target != kNullValue &&
      a.IsNegative(b_evidence_at_a_target);
  const bool b_target_in_a =
      a_evidence_at_b_target != kNullValue &&
      b.IsNegative(a_evidence_at_b_target);
  const bool bi_in_xj = b_evidence_at_a_target != kNullValue;
  const bool bj_in_xi = a_evidence_at_b_target != kNullValue;

  if (bi_in_xj && !bj_in_xi) {
    if (a_target_in_b) {
      return report(ConflictKind::kTargetInEvidenceIj, kNullValue,
                    b.negative_patterns.front());
    }
    return true;
  }
  if (bj_in_xi && !bi_in_xj) {
    if (b_target_in_a) {
      return report(ConflictKind::kTargetInEvidenceJi,
                    a.negative_patterns.front(), kNullValue);
    }
    return true;
  }
  if (bi_in_xj && bj_in_xi) {
    if (a_target_in_b && b_target_in_a) {
      return report(ConflictKind::kMutualTargetInEvidence, kNullValue,
                    kNullValue);
    }
    return true;
  }
  // Case 2(d): targets are independent of both evidence patterns; the
  // updates commute.
  return true;
}

bool PairConsistentStrictChar(const FixingRule& a, const FixingRule& b,
                              size_t arity, Conflict* conflict) {
  if (!PairConsistentChar(a, b, arity, conflict)) return false;
  if (a.target != b.target || a.fact != b.fact ||
      !EvidenceCompatible(a, b)) {
    return true;
  }
  const ValueId overlap = FirstNegativeOverlap(a, b);
  if (overlap == kNullValue) return true;
  // Identical evidence patterns assure the same set, so the firing order
  // is immaterial; only genuinely different patterns are flagged.
  if (a.evidence_attrs == b.evidence_attrs &&
      a.evidence_values == b.evidence_values) {
    return true;
  }
  if (conflict != nullptr) {
    conflict->kind = ConflictKind::kSameTargetDivergentAssured;
    conflict->witness = BuildWitness(a, b, arity, overlap, overlap);
  }
  return false;
}

void ChaseWithPriority(const std::vector<const FixingRule*>& priority,
                       Tuple* t) {
  AttrSet assured;
  std::vector<bool> applied(priority.size(), false);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < priority.size(); ++i) {
      if (applied[i]) continue;
      const FixingRule& rule = *priority[i];
      if (assured.Contains(rule.target) || !rule.Matches(*t)) continue;
      rule.Apply(*t);
      assured.UnionWith(rule.AssuredSet());
      applied[i] = true;
      progressed = true;
      break;  // restart the scan so the chase order is deterministic
    }
  }
}

bool PairConsistentEnum(const FixingRule& a, const FixingRule& b,
                        size_t arity, Conflict* conflict) {
  // Per-attribute candidate values drawn from both rules' evidence and
  // negative patterns (Section 5.2.1); every attribute not involved in
  // either rule keeps the out-of-domain placeholder kNullValue.
  std::vector<AttrId> attrs;
  std::vector<std::vector<ValueId>> values;
  auto add_value = [&](AttrId attr, ValueId v) {
    const auto it = std::find(attrs.begin(), attrs.end(), attr);
    size_t idx;
    if (it == attrs.end()) {
      attrs.push_back(attr);
      values.emplace_back();
      idx = attrs.size() - 1;
    } else {
      idx = static_cast<size_t>(it - attrs.begin());
    }
    if (std::find(values[idx].begin(), values[idx].end(), v) ==
        values[idx].end()) {
      values[idx].push_back(v);
    }
  };
  for (const FixingRule* rule : {&a, &b}) {
    for (size_t i = 0; i < rule->evidence_attrs.size(); ++i) {
      add_value(rule->evidence_attrs[i], rule->evidence_values[i]);
    }
    for (const ValueId v : rule->negative_patterns) {
      add_value(rule->target, v);
    }
  }

  uint64_t total = 1;
  for (const auto& vs : values) {
    total *= vs.size();
    FIXREP_CHECK_LE(total, uint64_t{1} << 24)
        << "tuple enumeration blow-up; use isConsist_r for such rules";
  }

  const std::vector<const FixingRule*> order_ab = {&a, &b};
  const std::vector<const FixingRule*> order_ba = {&b, &a};
  std::vector<size_t> counters(attrs.size(), 0);
  Tuple t(arity, kNullValue);
  for (uint64_t n = 0; n < total; ++n) {
    uint64_t rest = n;
    for (size_t i = 0; i < attrs.size(); ++i) {
      const size_t k = rest % values[i].size();
      rest /= values[i].size();
      t[attrs[i]] = values[i][k];
    }
    Tuple fix_ab = t;
    ChaseWithPriority(order_ab, &fix_ab);
    Tuple fix_ba = t;
    ChaseWithPriority(order_ba, &fix_ba);
    if (fix_ab != fix_ba) {
      if (conflict != nullptr) {
        conflict->kind = ConflictKind::kDivergentFix;
        conflict->witness = t;
      }
      return false;
    }
  }
  return true;
}

namespace {

using PairChecker = bool (*)(const FixingRule&, const FixingRule&, size_t,
                             Conflict*);

// Runs a pair checker over pairs handed to it in (i, j) order, collects
// the conflicts and publishes the consistency counters once, when it goes
// out of scope (so also after an early return).
class PairRun {
 public:
  PairRun(const RuleSet& rules, std::vector<Conflict>* conflicts,
          bool find_all, PairChecker checker)
      : rules_(rules),
        conflicts_(conflicts),
        find_all_(find_all),
        checker_(checker) {}
  PairRun(const PairRun&) = delete;
  PairRun& operator=(const PairRun&) = delete;
  ~PairRun() {
    auto& registry = CurrentMetrics();
    registry.GetCounter("fixrep.consistency.pairs_checked")
        ->Add(pairs_checked_);
    registry.GetCounter("fixrep.consistency.conflicts_detected")
        ->Add(conflicts_detected_);
  }

  // Checks rules i < j; false once the run should stop (the first
  // conflict when not finding all).
  bool Check(size_t i, size_t j) {
    ++pairs_checked_;
    Conflict conflict;
    if (checker_(rules_.rule(i), rules_.rule(j), rules_.schema().arity(),
                 &conflict)) {
      return true;
    }
    ++conflicts_detected_;
    conflict.rule_i = i;
    conflict.rule_j = j;
    if (conflicts_ != nullptr) conflicts_->push_back(std::move(conflict));
    return find_all_;
  }

  bool consistent() const { return conflicts_detected_ == 0; }

 private:
  const RuleSet& rules_;
  std::vector<Conflict>* conflicts_;
  const bool find_all_;
  const PairChecker checker_;
  size_t pairs_checked_ = 0;
  size_t conflicts_detected_ = 0;
};

bool CheckAllPairs(const RuleSet& rules, std::vector<Conflict>* conflicts,
                   bool find_all, PairChecker checker) {
  FIXREP_TRACE_SPAN("consistency.check");
  PairRun run(rules, conflicts, find_all, checker);
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = i + 1; j < rules.size(); ++j) {
      if (!run.Check(i, j)) return false;
    }
  }
  return run.consistent();
}

// --- The Prop. 3 candidate join ---
//
// PairConsistentChar and PairConsistentStrictChar can only fail on a pair
// whose evidence patterns agree on their common attributes and that
// shares a key (B, v) in one of two ways: both rules target B with v
// among their negative patterns (case 1 and the strict case), or one
// rule targets B with v among its negatives while the other has the
// evidence constant tp[B] = v (case 2). Every other pair is consistent.

// A rule's posting under a key packed by PostingKey.
struct Posting {
  uint64_t key;
  uint32_t rule;
  bool operator<(const Posting& other) const {
    return key != other.key ? key < other.key : rule < other.rule;
  }
};

// (attr, value) in the high bits; the low bit is 1 for an evidence
// constant tp[attr] = value and 0 for a negative pattern of target attr,
// so a key's negative postings sort before its evidence postings.
uint64_t PostingKey(AttrId attr, ValueId value, bool evidence) {
  return (uint64_t{static_cast<uint32_t>(attr)} << 33) |
         (uint64_t{static_cast<uint32_t>(value)} << 1) |
         (evidence ? 1u : 0u);
}

void EmitPair(uint32_t a, uint32_t b, std::vector<uint64_t>* pairs) {
  if (a > b) std::swap(a, b);
  pairs->push_back((uint64_t{a} << 32) | b);
}

// Hash of a rule's evidence constants on the attributes in `mask`.
uint64_t ProjectionHash(const FixingRule& rule, uint64_t mask) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t k = 0; k < rule.evidence_attrs.size(); ++k) {
    if ((mask >> rule.evidence_attrs[k]) & 1) {
      h = (h ^ static_cast<uint32_t>(rule.evidence_values[k])) *
          0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
  }
  return h;
}

// Finds the evidence-compatible pairs among the rules of one key. Each
// side is grouped by evidence attribute set, and each pair of groups is
// joined by hashing one on the constants of the attributes both sets
// hold, so one constant shared by very many rules costs the compatible
// pairs it holds, not all pairs. The buffers are reused from key to key.
class KeyJoin {
 public:
  KeyJoin(const RuleSet& rules, std::vector<uint64_t>* pairs)
      : rules_(rules), pairs_(pairs) {}

  // Emits every evidence-compatible pair of left x right, or of left's
  // distinct pairs when `same` (left and right are then the same list).
  void Join(const std::vector<uint32_t>& left,
            const std::vector<uint32_t>& right, bool same) {
    if (same ? left.size() < 2 : right.empty()) return;
    SortByEvidenceAttrs(left, &left_);
    if (!same) SortByEvidenceAttrs(right, &right_);
    const std::vector<Keyed>& rhs = same ? left_ : right_;
    for (size_t g = 0, g_end; g < left_.size(); g = g_end) {
      g_end = RunEnd(left_, g);
      for (size_t h = same ? g : 0, h_end; h < rhs.size(); h = h_end) {
        h_end = RunEnd(rhs, h);
        JoinGroups({left_.data() + g, g_end - g},
                   {rhs.data() + h, h_end - h},
                   left_[g].first & rhs[h].first, same && g == h);
      }
    }
  }

 private:
  // A rule keyed by its evidence attribute set or by a projection hash.
  using Keyed = std::pair<uint64_t, uint32_t>;

  void SortByEvidenceAttrs(const std::vector<uint32_t>& members,
                           std::vector<Keyed>* out) const {
    out->clear();
    for (const uint32_t r : members) {
      out->emplace_back(rules_.rule(r).EvidenceSet().bits(), r);
    }
    std::sort(out->begin(), out->end());
  }

  // End of the run of equal keys that starts at `begin`.
  static size_t RunEnd(const std::vector<Keyed>& sorted, size_t begin) {
    size_t end = begin + 1;
    while (end < sorted.size() && sorted[end].first == sorted[begin].first) {
      ++end;
    }
    return end;
  }

  void EmitIfCompatible(uint32_t a, uint32_t b) {
    if (EvidenceCompatible(rules_.rule(a), rules_.rule(b))) {
      EmitPair(a, b, pairs_);
    }
  }

  // Emits the evidence-compatible pairs of p x q (of p's distinct pairs
  // when `same`): their constants agree on the shared attributes
  // `common`, so they are found by hashing q on that projection and
  // probing with p.
  void JoinGroups(std::span<const Keyed> p, std::span<const Keyed> q,
                  uint64_t common, bool same) {
    hashed_.clear();
    for (const auto& [mask, r] : q) {
      hashed_.emplace_back(ProjectionHash(rules_.rule(r), common), r);
    }
    std::sort(hashed_.begin(), hashed_.end());
    if (same) {
      for (size_t x = 0, end; x < hashed_.size(); x = end) {
        end = RunEnd(hashed_, x);
        for (size_t a = x; a < end; ++a) {
          for (size_t b = a + 1; b < end; ++b) {
            EmitIfCompatible(hashed_[a].second, hashed_[b].second);
          }
        }
      }
      return;
    }
    for (const auto& [mask, a] : p) {
      const uint64_t h = ProjectionHash(rules_.rule(a), common);
      auto it = std::lower_bound(hashed_.begin(), hashed_.end(),
                                 Keyed{h, 0});
      for (; it != hashed_.end() && it->first == h; ++it) {
        EmitIfCompatible(a, it->second);
      }
    }
  }

  const RuleSet& rules_;
  std::vector<uint64_t>* pairs_;
  std::vector<Keyed> left_;
  std::vector<Keyed> right_;
  std::vector<Keyed> hashed_;
};

// The pairs (i < j, packed as i << 32 | j) that Prop. 3 lets conflict and
// whose evidence patterns are compatible, sorted and distinct: the order
// in which the all-pairs loop would reach them.
std::vector<uint64_t> CandidatePairs(const RuleSet& rules) {
  FIXREP_CHECK_LT(rules.size(), size_t{1} << 32);
  std::vector<Posting> postings;
  for (size_t i = 0; i < rules.size(); ++i) {
    const FixingRule& rule = rules.rule(i);
    const auto r = static_cast<uint32_t>(i);
    for (const ValueId v : rule.negative_patterns) {
      postings.push_back({PostingKey(rule.target, v, false), r});
    }
    for (size_t k = 0; k < rule.evidence_attrs.size(); ++k) {
      postings.push_back(
          {PostingKey(rule.evidence_attrs[k], rule.evidence_values[k], true),
           r});
    }
  }
  std::sort(postings.begin(), postings.end());

  std::vector<uint64_t> pairs;
  KeyJoin join(rules, &pairs);
  std::vector<uint32_t> negatives;
  std::vector<uint32_t> evidence;
  for (size_t x = 0; x < postings.size();) {
    const uint64_t key = postings[x].key >> 1;
    negatives.clear();
    evidence.clear();
    for (; x < postings.size() && postings[x].key >> 1 == key; ++x) {
      (postings[x].key & 1 ? evidence : negatives).push_back(postings[x].rule);
    }
    if (negatives.empty()) continue;
    join.Join(negatives, negatives, /*same=*/true);   // case 1
    join.Join(negatives, evidence, /*same=*/false);   // case 2
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

// Runs `checker` on the candidate pairs only. Every other pair passes
// both characterizations, and candidates come in all-pairs order, so the
// conflicts (and the first one) equal CheckAllPairs's.
bool CheckCandidatePairs(const RuleSet& rules,
                         std::vector<Conflict>* conflicts, bool find_all,
                         PairChecker checker) {
  FIXREP_TRACE_SPAN("consistency.check");
  PairRun run(rules, conflicts, find_all, checker);
  for (const uint64_t pair : CandidatePairs(rules)) {
    if (!run.Check(pair >> 32, pair & 0xffffffffu)) return false;
  }
  return run.consistent();
}

}  // namespace

bool IsConsistentChar(const RuleSet& rules, std::vector<Conflict>* conflicts,
                      bool find_all) {
  return CheckCandidatePairs(rules, conflicts, find_all, &PairConsistentChar);
}

bool IsConsistentEnum(const RuleSet& rules, std::vector<Conflict>* conflicts,
                      bool find_all) {
  return CheckAllPairs(rules, conflicts, find_all, &PairConsistentEnum);
}

bool IsConsistentStrict(const RuleSet& rules,
                        std::vector<Conflict>* conflicts, bool find_all) {
  return CheckCandidatePairs(rules, conflicts, find_all,
                             &PairConsistentStrictChar);
}

}  // namespace fixrep
