#ifndef FIXREP_RULES_CONSISTENCY_H_
#define FIXREP_RULES_CONSISTENCY_H_

#include <string>
#include <vector>

#include "rules/rule_set.h"

namespace fixrep {

// Why a pair of rules conflicts, following the case analysis of Fig. 4.
enum class ConflictKind {
  // Case 1: B_i = B_j, Tp_i ∩ Tp_j != {}, and the facts differ.
  kSameTargetDivergentFacts,
  // Case 2(a): B_i in X_j, B_j not in X_i, and tp_j[B_i] in Tp_i[B_i].
  kTargetInEvidenceIj,
  // Case 2(b): symmetric to 2(a).
  kTargetInEvidenceJi,
  // Case 2(c): both directions hold.
  kMutualTargetInEvidence,
  // Found by tuple enumeration: two application orders reach different
  // fixpoints on the witness tuple.
  kDivergentFix,
  // Strict-mode only (see PairConsistentStrictChar): B_i = B_j with the
  // SAME fact but different evidence patterns, and a tuple can match
  // both. The pair alone is confluent, but whichever rule fires first
  // assures a different attribute set, which can divert a third rule —
  // the counterexample this library found to the paper's Proposition 3.
  kSameTargetDivergentAssured,
};

// A detected conflict between two rules of a set, with a witness tuple
// that has two different fixes (built by both checkers).
struct Conflict {
  size_t rule_i = 0;
  size_t rule_j = 0;
  ConflictKind kind = ConflictKind::kDivergentFix;
  Tuple witness;  // attributes not pinned by the conflict are kNullValue

  // Renders the conflict for diagnostics (rules + kind + witness).
  std::string Describe(const RuleSet& rules) const;
};

// --- Pairwise checks (Proposition 3 reduces set consistency to pairs) ---

// Rule characterization (algorithm isConsist_r, Fig. 4). O(size per pair)
// expected time using hashing / sorted-set intersection. If inconsistent
// and `conflict` is non-null, fills kind and a witness tuple.
bool PairConsistentChar(const FixingRule& a, const FixingRule& b,
                        size_t arity, Conflict* conflict);

// Tuple enumeration (algorithm isConsist_t, Section 5.2.1): enumerates the
// product of per-attribute constants drawn from the two rules' evidence
// and negative patterns, chases both application orders on each tuple and
// compares the fixpoints. Exponential in the number of involved
// attributes; exact, used to cross-validate the characterization.
bool PairConsistentEnum(const FixingRule& a, const FixingRule& b,
                        size_t arity, Conflict* conflict);

// Strict pairwise check: everything PairConsistentChar flags, plus
// kSameTargetDivergentAssured pairs.
//
// Why this exists: the paper's Proposition 3 claims a set is consistent
// iff all pairs are, but randomized testing of this library produced a
// counterexample — three rules, pairwise consistent under Fig. 4, where
// two rules write the SAME fact to the same target from different
// evidence sets; the order in which they fire assures different
// attributes, and a third rule targeting an attribute in that difference
// fires in one order but not the other, yielding two distinct fixpoints.
// Pairwise *strict* consistency provably restores the Church-Rosser
// property: by the Fig. 4 case analysis extended with the equal-fact
// case, no two strictly-consistent rules that are simultaneously
// properly applicable can lead to different (tuple, assured-set) states
// up to joinability, so local confluence plus termination (Newman's
// lemma) gives unique fixes.
bool PairConsistentStrictChar(const FixingRule& a, const FixingRule& b,
                              size_t arity, Conflict* conflict);

// --- Whole-set checks ---

// isConsist_r over the set. Early-exits on the first conflict unless
// `find_all` is set. `conflicts` may be null.
//
// Only candidate pairs are checked: by Prop. 3 a pair can conflict only
// if the rules share a target and a negative value, or one rule's target
// is the other's evidence attribute with that evidence constant among
// its negatives, and only if their evidence patterns agree where both
// are defined. A join over (attribute, value) postings finds those
// pairs; PairConsistentChar runs on them in (i, j) order, so the
// conflicts, their order and the first conflict equal those of checking
// every pair. `fixrep.consistency.pairs_checked` counts the candidates.
bool IsConsistentChar(const RuleSet& rules,
                      std::vector<Conflict>* conflicts = nullptr,
                      bool find_all = false);

// isConsist_t over all pairs (the paper's baseline; no candidate join).
bool IsConsistentEnum(const RuleSet& rules,
                      std::vector<Conflict>* conflicts = nullptr,
                      bool find_all = false);

// Strict variant of IsConsistentChar, over the same candidate pairs (a
// strict conflict also shares a target and a negative value); a set
// passing this check has provably unique fixes for every tuple. Used by
// rule generation and the resolution workflow so the repaired data is
// deterministic even in the Proposition-3 corner case.
bool IsConsistentStrict(const RuleSet& rules,
                        std::vector<Conflict>* conflicts = nullptr,
                        bool find_all = false);

// Chases `t` to a fixpoint: repeatedly applies the first properly
// applicable rule in `priority` order (restarting the scan after each
// application). For a consistent set the result is the unique fix of t
// regardless of the order (Church-Rosser); for checkers, running two
// different priority orders exposes divergent fixes.
void ChaseWithPriority(const std::vector<const FixingRule*>& priority,
                       Tuple* t);

}  // namespace fixrep

#endif  // FIXREP_RULES_CONSISTENCY_H_
