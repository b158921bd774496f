#ifndef FIXREP_RULES_RULE_IO_H_
#define FIXREP_RULES_RULE_IO_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "common/quarantine.h"
#include "common/status.h"
#include "rules/rule_set.h"

namespace fixrep {

// Line-oriented text format for fixing rules:
//
//   # phi_1 from the paper's Example 3
//   RULE
//     IF country = China
//     WRONG capital IN Shanghai | Hongkong
//     THEN capital = Beijing
//   END
//
// * Zero or more IF lines give the evidence pattern.
// * Exactly one WRONG line gives the target attribute and its negative
//   patterns, '|'-separated.
// * Exactly one THEN line gives the fact; its attribute must equal the
//   WRONG attribute.
// * '#' starts a comment line; blank lines are ignored.
// * An unquoted value is trimmed of surrounding whitespace and runs to
//   the next '|' (negative patterns) or the end of the line. A value
//   starting with '"' is quoted, CSV-style: read verbatim to the closing
//   quote, "" standing for one '"', so it may hold edge blanks, '|', '"'
//   and line breaks. WriteRules quotes empty values, values with edge
//   blanks and values holding '|', '"', CR or LF, so every value
//   round-trips. Attribute names must not contain '='.
//
// Two tiers of entry points:
//  * ParseRules / ParseRulesFromString / ParseRulesFile / WriteRulesFile
//    CHECK-fail with a line number on malformed input — for
//    developer-authored rule files.
//  * The *Lenient / Try* variants return Status and, per
//    RuleParseOptions::on_error, recover at RULE...END granularity: a
//    malformed block (bad directive, unknown attribute, missing
//    WRONG/THEN, ...) is skipped or quarantined whole — raw text
//    preserved — and parsing resumes at the next block.

struct RuleParseOptions {
  OnErrorPolicy on_error = OnErrorPolicy::kAbort;
  // Receives one Diagnostic per dropped block (or stray top-level line)
  // when on_error is kQuarantine. Diagnostic::line is the 1-based line
  // of the first error in the block; raw_text is the whole block.
  QuarantineSink* quarantine = nullptr;
};

// Every dropped block ticks fixrep.quarantine.rules (kSkip and
// kQuarantine).
StatusOr<RuleSet> ParseRulesLenient(std::istream& in,
                                    std::shared_ptr<const Schema> schema,
                                    std::shared_ptr<ValuePool> pool,
                                    const RuleParseOptions& options = {});

StatusOr<RuleSet> ParseRulesFileLenient(const std::string& path,
                                        std::shared_ptr<const Schema> schema,
                                        std::shared_ptr<ValuePool> pool,
                                        const RuleParseOptions& options = {});

// Writes, flushes, and verifies the stream so short writes surface as
// kIoError instead of silently truncating.
Status TryWriteRulesFile(const RuleSet& rules, const std::string& path);

// CHECK-ing wrappers over the lenient/Try variants above.
RuleSet ParseRules(std::istream& in, std::shared_ptr<const Schema> schema,
                   std::shared_ptr<ValuePool> pool);

RuleSet ParseRulesFromString(const std::string& text,
                             std::shared_ptr<const Schema> schema,
                             std::shared_ptr<ValuePool> pool);

RuleSet ParseRulesFile(const std::string& path,
                       std::shared_ptr<const Schema> schema,
                       std::shared_ptr<ValuePool> pool);

void WriteRules(const RuleSet& rules, std::ostream& out);

std::string SerializeRules(const RuleSet& rules);

void WriteRulesFile(const RuleSet& rules, const std::string& path);

}  // namespace fixrep

#endif  // FIXREP_RULES_RULE_IO_H_
