#include "rulegen/rulegen.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/trace.h"
#include "deps/violation.h"
#include "relation/active_domain.h"
#include "rules/resolution.h"

namespace fixrep {

namespace {

// A mined rule before selection: its negative patterns are a range of
// one flat list, and its evidence pattern is the partition's key.
struct Candidate {
  size_t support = 0;  // clean rows sharing the evidence pattern
  size_t fd_index = 0;
  const std::vector<ValueId>* lhs_values = nullptr;
  ValueId fact = kNullValue;
  size_t negatives_begin = 0;
  size_t negatives_end = 0;
};

// The clean rows grouped by one FD left-hand side, and per row whether
// the dirty row still carries that row's clean evidence.
struct LhsGroups {
  LhsPartition partition;
  std::vector<uint8_t> evidence_intact;
};

LhsGroups GroupByLhs(const Table& clean, const Table& dirty,
                     const std::vector<AttrId>& lhs) {
  LhsGroups groups{PartitionBy(clean, lhs),
                   std::vector<uint8_t>(clean.num_rows(), 1)};
  for (size_t r = 0; r < clean.num_rows(); ++r) {
    for (const AttrId a : lhs) {
      if (dirty.cell(r, a) != clean.cell(r, a)) {
        groups.evidence_intact[r] = 0;
        break;
      }
    }
  }
  return groups;
}

// A target attribute's dirty column, and the values seen in it that
// never occur in the clean column: typos and other out-of-domain strays.
// Those are safe negative patterns for any rule targeting the attribute
// (they are wrong in every context).
struct TargetValues {
  std::vector<ValueId> dirty;
  std::vector<ValueId> out_of_domain;  // sorted by id
};

TargetValues ValuesOf(const Table& clean, const Table& dirty, AttrId attr) {
  // Dense marks over pool ids: 1 = in the clean column, 2 = collected.
  std::vector<uint8_t> marks(clean.pool().size(), 0);
  for (size_t r = 0; r < clean.num_rows(); ++r) {
    const ValueId v = clean.cell(r, attr);
    if (v != kNullValue) marks[static_cast<size_t>(v)] = 1;
  }
  TargetValues values;
  values.dirty.resize(dirty.num_rows());
  for (size_t r = 0; r < dirty.num_rows(); ++r) {
    const ValueId v = dirty.cell(r, attr);
    values.dirty[r] = v;
    if (v != kNullValue && marks[static_cast<size_t>(v)] == 0) {
      marks[static_cast<size_t>(v)] = 2;
      values.out_of_domain.push_back(v);
    }
  }
  std::sort(values.out_of_domain.begin(), values.out_of_domain.end());
  return values;
}

}  // namespace

RuleSet GenerateRules(const Table& clean, const Table& dirty,
                      const std::vector<FunctionalDependency>& fds,
                      const RuleGenOptions& options) {
  FIXREP_CHECK(clean.pool_ptr() == dirty.pool_ptr())
      << "clean and dirty tables must share a value pool";
  FIXREP_CHECK_EQ(clean.num_rows(), dirty.num_rows());
  Rng rng(options.seed);
  const auto normalized = NormalizeToSingleRhs(fds);

  // One clean partition per distinct left-hand side, shared by the FDs
  // that normalization split off it.
  std::map<std::vector<AttrId>, LhsGroups> partitions;
  {
    FIXREP_TRACE_SPAN("rulegen.partition");
    for (const auto& fd : normalized) {
      if (partitions.count(fd.lhs) == 0) {
        partitions.emplace(fd.lhs, GroupByLhs(clean, dirty, fd.lhs));
      }
    }
  }

  RuleSet rules(clean.schema_ptr(), clean.pool_ptr());
  {
    FIXREP_TRACE_SPAN("rulegen.candidates");
    const auto clean_domains = ActiveDomains(clean);
    std::map<AttrId, TargetValues> targets;
    for (const auto& fd : normalized) {
      if (targets.count(fd.rhs[0]) == 0) {
        targets.emplace(fd.rhs[0], ValuesOf(clean, dirty, fd.rhs[0]));
      }
    }

    std::vector<Candidate> candidates;
    std::vector<ValueId> negatives;
    // Dense marks over pool ids for the negatives of the group being mined.
    std::vector<uint8_t> collected(clean.pool().size(), 0);
    for (size_t fd_index = 0; fd_index < normalized.size(); ++fd_index) {
      const auto& fd = normalized[fd_index];
      const AttrId target = fd.rhs[0];
      const LhsGroups& groups = partitions.at(fd.lhs);
      const TargetValues& values = targets.at(target);

      for (const auto& [lhs_values, clean_rows] : groups.partition) {
        if (clean_rows.size() < options.min_support) continue;
        // The clean data satisfies the FD, so the group's RHS value is
        // unique: it becomes the rule's fact.
        const ValueId fact = clean.cell(clean_rows[0], target);
        const size_t begin = negatives.size();
        const auto add_if_new = [&](ValueId v) {
          if (v == fact || collected[static_cast<size_t>(v)] != 0) return false;
          collected[static_cast<size_t>(v)] = 1;
          negatives.push_back(v);
          return true;
        };

        // Observed wrong values: what the dirty data carries for this
        // evidence pattern besides the fact (the violations an expert
        // would be shown). The expert certifies the evidence before
        // blaming the target (cf. editing rules, where the user asserts
        // the LHS is correct): a row whose evidence cells are themselves
        // corrupted merely *looks* like a member of this group, and its
        // target value — correct in its true group — must not be recorded
        // as a negative pattern. The oracle plays that expert by checking
        // the row's evidence against the ground truth: only this clean
        // group's rows whose dirty evidence is intact count, in row order.
        for (const size_t row : clean_rows) {
          if (groups.evidence_intact[row] == 0) continue;
          const ValueId v = values.dirty[row];
          if (v != kNullValue) add_if_new(v);
        }

        // Enrichment (Section 7.1 "rule enrichment"): enlarge the negative
        // patterns with further known-wrong values.
        for (size_t e = 0; e < options.extra_negatives_per_rule; ++e) {
          const bool from_active_domain =
              rng.Bernoulli(options.active_domain_enrich_probability) ||
              values.out_of_domain.empty();
          const auto& source = from_active_domain
                                   ? clean_domains[static_cast<size_t>(target)]
                                   : values.out_of_domain;
          if (source.size() < 2) continue;
          for (int attempt = 0; attempt < 8; ++attempt) {
            if (add_if_new(source[rng.Uniform(source.size())])) break;
          }
        }
        for (size_t k = begin; k < negatives.size(); ++k) {
          collected[static_cast<size_t>(negatives[k])] = 0;
        }
        if (negatives.size() == begin) continue;
        candidates.push_back({clean_rows.size(), fd_index, &lhs_values, fact,
                              begin, negatives.size()});
      }
    }

    // Most useful rules first: by support, then deterministic tie-breaks.
    // An FD's evidence patterns are distinct, so the order is total and
    // the top `max_rules` are those a full sort would put first.
    const size_t keep = std::min(options.max_rules, candidates.size());
    std::partial_sort(
        candidates.begin(), candidates.begin() + static_cast<ptrdiff_t>(keep),
        candidates.end(), [](const Candidate& a, const Candidate& b) {
          if (a.support != b.support) return a.support > b.support;
          if (a.fd_index != b.fd_index) return a.fd_index < b.fd_index;
          return *a.lhs_values < *b.lhs_values;
        });
    for (size_t k = 0; k < keep; ++k) {
      const Candidate& candidate = candidates[k];
      FixingRule rule;
      // fd.lhs is sorted, so evidence attrs/values are in order.
      rule.evidence_attrs = normalized[candidate.fd_index].lhs;
      rule.evidence_values = *candidate.lhs_values;
      rule.target = normalized[candidate.fd_index].rhs[0];
      rule.negative_patterns.assign(
          negatives.begin() + static_cast<ptrdiff_t>(candidate.negatives_begin),
          negatives.begin() + static_cast<ptrdiff_t>(candidate.negatives_end));
      std::sort(rule.negative_patterns.begin(), rule.negative_patterns.end());
      rule.fact = candidate.fact;
      rules.Add(std::move(rule));
    }
  }

  if (options.resolve_conflicts) ResolveByPruning(&rules);
  return rules;
}

}  // namespace fixrep
