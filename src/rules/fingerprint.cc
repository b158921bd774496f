#include "rules/fingerprint.h"

#include <algorithm>
#include <string_view>
#include <vector>

namespace fixrep {

uint64_t RuleSetFingerprint(const RuleSet& rules) {
  // Canonical text, NOT SerializeRules: negative_patterns is sorted by
  // ValueId, and ids depend on the pool's interning history, so the
  // serialized order of a rule's negatives varies with which pool
  // parsed the file. Render negatives sorted by string instead so the
  // fingerprint is a property of the rules alone. '\x1f'/'\x1e' unit
  // separators keep adjacent fields from aliasing each other.
  // The text is hashed as it is produced (FNV-1a 64), never built.
  uint64_t h = 14695981039346656037ull;
  const auto feed = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  const Schema& schema = rules.schema();
  const ValuePool& pool = rules.pool();
  std::vector<std::string_view> negatives;
  for (size_t i = 0; i < rules.size(); ++i) {
    const FixingRule& rule = rules.rule(i);
    for (size_t e = 0; e < rule.evidence_attrs.size(); ++e) {
      feed(schema.attribute_name(rule.evidence_attrs[e]));
      feed("\x1f");
      feed(pool.GetString(rule.evidence_values[e]));
      feed("\x1f");
    }
    feed(schema.attribute_name(rule.target));
    feed("\x1f");
    negatives.clear();
    for (const ValueId v : rule.negative_patterns) {
      negatives.push_back(pool.GetString(v));
    }
    std::sort(negatives.begin(), negatives.end());
    for (const std::string_view v : negatives) {
      feed(v);
      feed("\x1f");
    }
    feed(pool.GetString(rule.fact));
    feed("\x1e");
  }
  return h;
}

}  // namespace fixrep
