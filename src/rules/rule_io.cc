#include "rules/rule_io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace fixrep {

namespace {

struct PendingRule {
  std::vector<std::pair<std::string, std::string>> evidence;
  std::string target;
  std::vector<std::string> negatives;
  std::string fact;
  bool has_wrong = false;
  bool has_then = false;
};

Status LineError(int line_no, const std::string& message) {
  return Status::MalformedInput("line " + std::to_string(line_no) + ": " +
                                message);
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

// Supplies the next raw input line to a quoted value that goes on over
// a line break; false at the end of the input.
using NextLine = std::function<bool(std::string*)>;

// Reads the value fields of `body`, separated by `separator` ('\0': the
// whole body is one field). A field whose first non-blank byte is '"'
// is quoted: it is read verbatim up to the closing quote, with "" for
// one '"', across line breaks (taking lines from `next_line`), and only
// blanks may follow it. Any other field is trimmed; in a '|' list
// (negative patterns) it must not be empty.
Status ReadValues(std::string_view body, char separator, int line_no,
                  const NextLine& next_line, std::vector<std::string>* out) {
  std::string continued;  // the line a quoted value went on to
  size_t i = 0;
  while (true) {
    while (i < body.size() && IsSpace(body[i])) ++i;
    std::string value;
    if (i < body.size() && body[i] == '"') {
      ++i;
      while (true) {
        if (i == body.size()) {
          if (!next_line(&continued)) {
            return LineError(line_no, "unterminated quoted value");
          }
          value += '\n';
          body = continued;
          i = 0;
        } else if (body[i] != '"') {
          value += body[i++];
        } else if (i + 1 < body.size() && body[i + 1] == '"') {
          value += '"';
          i += 2;
        } else {
          ++i;
          break;
        }
      }
      while (i < body.size() && IsSpace(body[i])) ++i;
      if (i < body.size() && (separator == '\0' || body[i] != separator)) {
        return LineError(line_no, "text after a closing quote");
      }
    } else {
      const size_t end =
          separator == '\0' ? body.size()
                            : std::min(body.find(separator, i), body.size());
      value = std::string(Trim(body.substr(i, end - i)));
      if (value.empty() && separator == '|') {
        return LineError(line_no, "empty negative pattern");
      }
      i = end;
    }
    out->push_back(std::move(value));
    if (i >= body.size()) return Status::Ok();
    ++i;  // the separator
  }
}

// Splits "attr = value" at the first '=' and reads the value (see
// ReadValues).
Status SplitAssignment(std::string_view body, int line_no,
                       const NextLine& next_line,
                       std::pair<std::string, std::string>* out) {
  const size_t eq = body.find('=');
  if (eq == std::string_view::npos) {
    return LineError(line_no, "expected 'attr = value'");
  }
  std::vector<std::string> value;
  FIXREP_RETURN_IF_ERROR(
      ReadValues(body.substr(eq + 1), '\0', line_no, next_line, &value));
  *out = {std::string(Trim(body.substr(0, eq))), std::move(value[0])};
  return Status::Ok();
}

Status CheckKnownAttribute(const Schema& schema, const std::string& attr,
                           int line_no) {
  if (schema.FindAttribute(attr) == kInvalidAttr) {
    return LineError(line_no, "schema '" + schema.name() +
                                  "' has no attribute '" + attr + "'");
  }
  return Status::Ok();
}

// Parses one directive line into `pending`; returns a non-ok Status with
// line context on any malformation (including schema-level problems that
// MakeRule would otherwise CHECK-fail on, so lenient callers can recover).
// `line` is the directive's first line, untrimmed at its end (a quoted
// value keeps its blanks); `next_line` supplies the lines a quoted value
// goes on to.
Status ParseDirective(std::string_view line, int line_no,
                      const NextLine& next_line, const Schema& schema,
                      PendingRule* pending) {
  if (StartsWith(line, "IF ")) {
    std::pair<std::string, std::string> assignment;
    FIXREP_RETURN_IF_ERROR(
        SplitAssignment(line.substr(3), line_no, next_line, &assignment));
    FIXREP_RETURN_IF_ERROR(
        CheckKnownAttribute(schema, assignment.first, line_no));
    for (const auto& [attr, value] : pending->evidence) {
      if (attr == assignment.first) {
        return LineError(line_no,
                         "duplicate evidence attribute '" + attr + "'");
      }
    }
    if (pending->has_wrong && assignment.first == pending->target) {
      return LineError(line_no, "target B must not appear in X");
    }
    pending->evidence.push_back(std::move(assignment));
    return Status::Ok();
  }
  if (StartsWith(line, "WRONG ")) {
    if (pending->has_wrong) return LineError(line_no, "duplicate WRONG");
    const std::string_view body = line.substr(6);
    const size_t in_pos = body.find(" IN ");
    if (in_pos == std::string_view::npos) {
      return LineError(line_no, "expected 'WRONG attr IN v1 | v2'");
    }
    const std::string target(Trim(body.substr(0, in_pos)));
    FIXREP_RETURN_IF_ERROR(CheckKnownAttribute(schema, target, line_no));
    for (const auto& [attr, value] : pending->evidence) {
      if (attr == target) {
        return LineError(line_no, "target B must not appear in X");
      }
    }
    std::vector<std::string> negatives;
    FIXREP_RETURN_IF_ERROR(ReadValues(body.substr(in_pos + 4), '|', line_no,
                                      next_line, &negatives));
    pending->target = target;
    pending->negatives = std::move(negatives);
    pending->has_wrong = true;
    return Status::Ok();
  }
  if (StartsWith(line, "THEN ")) {
    if (pending->has_then) return LineError(line_no, "duplicate THEN");
    std::pair<std::string, std::string> assignment;
    FIXREP_RETURN_IF_ERROR(
        SplitAssignment(line.substr(5), line_no, next_line, &assignment));
    if (!pending->has_wrong) {
      return LineError(line_no, "THEN before WRONG");
    }
    if (assignment.first != pending->target) {
      return LineError(line_no,
                       "THEN attribute must match the WRONG attribute");
    }
    for (const std::string& negative : pending->negatives) {
      if (assignment.second == negative) {
        return LineError(
            line_no, "the fact must not be one of the negative patterns");
      }
    }
    pending->fact = std::move(assignment.second);
    pending->has_then = true;
    return Status::Ok();
  }
  return LineError(line_no,
                   "unknown directive '" + std::string(line) + "'");
}

}  // namespace

StatusOr<RuleSet> ParseRulesLenient(std::istream& in,
                                    std::shared_ptr<const Schema> schema,
                                    std::shared_ptr<ValuePool> pool,
                                    const RuleParseOptions& options) {
  RuleSet rules(schema, std::move(pool));
  const bool lenient = options.on_error != OnErrorPolicy::kAbort;
  Counter* quarantined_rules =
      CurrentMetrics().GetCounter("fixrep.quarantine.rules");

  PendingRule pending;
  bool in_rule = false;
  bool block_failed = false;
  Status block_error = Status::Ok();
  size_t block_error_line = 0;
  std::string block_raw;
  std::string raw;
  int line_no = 0;

  // Drops one quarantined unit (a whole block, or a stray top-level
  // line) with the first error observed in it.
  const auto quarantine = [&](size_t error_line, const Status& error,
                              const std::string& raw_text) {
    quarantined_rules->Add(1);
    if (options.on_error == OnErrorPolicy::kQuarantine &&
        options.quarantine != nullptr) {
      options.quarantine->Add(
          Diagnostic{error_line, error.code(), error.message(), raw_text});
    }
  };
  const auto fail_block = [&](const Status& error) {
    if (block_failed) return;  // keep the first error
    block_failed = true;
    block_error = error;
    block_error_line = static_cast<size_t>(line_no);
  };

  while (std::getline(in, raw)) {
    ++line_no;
    const std::string_view line = Trim(raw);
    if (in_rule) {
      block_raw += raw;
      block_raw += '\n';
    }
    if (line.empty() || line.front() == '#') continue;

    if (line == "RULE") {
      if (!in_rule) {
        pending = PendingRule{};
        in_rule = true;
        block_failed = false;
        block_raw = raw + "\n";
        continue;
      }
      const Status error = LineError(line_no, "nested RULE");
      if (!lenient) return error;
      fail_block(error);
      // The RULE line opens a fresh block; the dead one is quarantined
      // without its trailing RULE line.
      block_raw.resize(block_raw.size() - raw.size() - 1);
      quarantine(block_error_line, block_error, block_raw);
      pending = PendingRule{};
      block_failed = false;
      block_raw = raw + "\n";
      continue;
    }
    if (!in_rule) {
      const Status error = LineError(line_no, "directive outside RULE...END");
      if (!lenient) return error;
      quarantine(static_cast<size_t>(line_no), error, raw);
      continue;
    }
    if (line == "END") {
      in_rule = false;
      if (!block_failed) {
        if (!pending.has_wrong) {
          fail_block(LineError(line_no, "rule without WRONG"));
        } else if (!pending.has_then) {
          fail_block(LineError(line_no, "rule without THEN"));
        }
      }
      if (block_failed) {
        if (!lenient) return block_error;
        quarantine(block_error_line, block_error, block_raw);
        continue;
      }
      rules.Add(MakeRule(*schema, &rules.pool(), pending.evidence,
                         pending.target, pending.negatives, pending.fact));
      continue;
    }
    if (block_failed) continue;  // skip to END once the block is dead
    // A quoted value that goes on over a line break reads the next lines
    // of the block here.
    const NextLine next_line = [&](std::string* next) {
      if (!std::getline(in, *next)) return false;
      ++line_no;
      block_raw += *next;
      block_raw += '\n';
      return true;
    };
    const std::string_view untrimmed_end(
        line.data(), raw.size() - (line.data() - raw.data()));
    const Status error =
        ParseDirective(untrimmed_end, line_no, next_line, *schema, &pending);
    if (!error.ok()) {
      if (!lenient) return error;
      fail_block(error);
    }
  }
  if (in_rule) {
    const Status error =
        Status::MalformedInput("unterminated RULE at end of input");
    if (!lenient) return error;
    if (!block_failed) fail_block(error);
    quarantine(block_error_line, block_error, block_raw);
  }
  return rules;
}

StatusOr<RuleSet> ParseRulesFileLenient(const std::string& path,
                                        std::shared_ptr<const Schema> schema,
                                        std::shared_ptr<ValuePool> pool,
                                        const RuleParseOptions& options) {
  std::ifstream in(path);
  if (FIXREP_FAULT("rules.open_read") || !in.good()) {
    return Status::IoError("cannot open " + path);
  }
  return ParseRulesLenient(in, std::move(schema), std::move(pool), options);
}

RuleSet ParseRules(std::istream& in, std::shared_ptr<const Schema> schema,
                   std::shared_ptr<ValuePool> pool) {
  StatusOr<RuleSet> result =
      ParseRulesLenient(in, std::move(schema), std::move(pool));
  FIXREP_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

RuleSet ParseRulesFromString(const std::string& text,
                             std::shared_ptr<const Schema> schema,
                             std::shared_ptr<ValuePool> pool) {
  std::istringstream in(text);
  return ParseRules(in, std::move(schema), std::move(pool));
}

RuleSet ParseRulesFile(const std::string& path,
                       std::shared_ptr<const Schema> schema,
                       std::shared_ptr<ValuePool> pool) {
  StatusOr<RuleSet> result =
      ParseRulesFileLenient(path, std::move(schema), std::move(pool));
  FIXREP_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

namespace {

// Writes `value` so that ReadValues returns it unchanged: raw when it
// is, quoted (with "" for '"') when it is empty, has blanks at an edge,
// or holds '|', '"', CR or LF.
void WriteValue(std::ostream& out, std::string_view value) {
  const bool plain =
      !value.empty() && !IsSpace(value.front()) && !IsSpace(value.back()) &&
      value.find_first_of("|\"\r\n") == std::string_view::npos;
  if (plain) {
    out << value;
    return;
  }
  out << '"';
  for (const char c : value) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

}  // namespace

void WriteRules(const RuleSet& rules, std::ostream& out) {
  const Schema& schema = rules.schema();
  const ValuePool& pool = rules.pool();
  for (size_t i = 0; i < rules.size(); ++i) {
    const FixingRule& rule = rules.rule(i);
    out << "RULE\n";
    for (size_t e = 0; e < rule.evidence_attrs.size(); ++e) {
      out << "  IF " << schema.attribute_name(rule.evidence_attrs[e])
          << " = ";
      WriteValue(out, pool.GetString(rule.evidence_values[e]));
      out << "\n";
    }
    out << "  WRONG " << schema.attribute_name(rule.target) << " IN ";
    for (size_t n = 0; n < rule.negative_patterns.size(); ++n) {
      if (n > 0) out << " | ";
      WriteValue(out, pool.GetString(rule.negative_patterns[n]));
    }
    out << "\n  THEN " << schema.attribute_name(rule.target) << " = ";
    WriteValue(out, pool.GetString(rule.fact));
    out << "\nEND\n";
    if (i + 1 < rules.size()) out << "\n";
  }
}

std::string SerializeRules(const RuleSet& rules) {
  std::ostringstream out;
  WriteRules(rules, out);
  return out.str();
}

Status TryWriteRulesFile(const RuleSet& rules, const std::string& path) {
  std::ofstream out(path);
  if (FIXREP_FAULT("rules.open_write") || !out.good()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  WriteRules(rules, out);
  if (FIXREP_FAULT("rules.write_flush")) out.setstate(std::ios::badbit);
  out.flush();
  if (!out.good()) {
    return Status::IoError("write failed for " + path +
                           " (disk full or stream error)");
  }
  return Status::Ok();
}

void WriteRulesFile(const RuleSet& rules, const std::string& path) {
  const Status status = TryWriteRulesFile(rules, path);
  FIXREP_CHECK(status.ok()) << status.message();
}

}  // namespace fixrep
