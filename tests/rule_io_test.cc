#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "rulegen/rulegen.h"
#include "rules/consistency.h"
#include "rules/fingerprint.h"
#include "rules/rule_io.h"
#include "testing_util.h"

namespace fixrep {
namespace {

class RuleIoTest : public ::testing::Test {
 protected:
  TravelExample example_;

  RuleSet Parse(const std::string& text) {
    return ParseRulesFromString(text, example_.schema, example_.pool);
  }
};

TEST_F(RuleIoTest, ParsesPhi1) {
  const RuleSet rules = Parse(
      "# phi_1\n"
      "RULE\n"
      "  IF country = China\n"
      "  WRONG capital IN Shanghai | Hongkong\n"
      "  THEN capital = Beijing\n"
      "END\n");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.rule(0), example_.rules.rule(0));
}

TEST_F(RuleIoTest, ParsesMultipleEvidenceLines) {
  const RuleSet rules = Parse(
      "RULE\n"
      "IF capital = Tokyo\n"
      "IF city = Tokyo\n"
      "IF conf = ICDE\n"
      "WRONG country IN China\n"
      "THEN country = Japan\n"
      "END\n");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.rule(0), example_.rules.rule(2));
}

TEST_F(RuleIoTest, SerializeParseRoundTrip) {
  const std::string text = SerializeRules(example_.rules);
  const RuleSet again = Parse(text);
  ASSERT_EQ(again.size(), example_.rules.size());
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again.rule(i), example_.rules.rule(i)) << "rule " << i;
  }
}

TEST_F(RuleIoTest, CommentsAndBlankLinesIgnored) {
  const RuleSet rules = Parse(
      "\n# header comment\n\n"
      "RULE\n"
      "  # inner comment\n"
      "  IF country = Canada\n"
      "  WRONG capital IN Toronto\n"
      "  THEN capital = Ottawa\n"
      "END\n\n");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.rule(0), example_.rules.rule(1));
}

TEST_F(RuleIoTest, ValuesWithSpaces) {
  const RuleSet rules = Parse(
      "RULE\n"
      "IF country = New Zealand\n"
      "WRONG capital IN Auckland City | Hamilton\n"
      "THEN capital = Wellington\n"
      "END\n");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(example_.pool->GetString(rules.rule(0).evidence_values[0]),
            "New Zealand");
  EXPECT_EQ(example_.pool->GetString(rules.rule(0).fact), "Wellington");
  EXPECT_EQ(rules.rule(0).negative_patterns.size(), 2u);
}

TEST_F(RuleIoTest, EmptyInputYieldsEmptySet) {
  EXPECT_EQ(Parse("").size(), 0u);
  EXPECT_EQ(Parse("# only comments\n").size(), 0u);
}

TEST_F(RuleIoTest, RejectsUnterminatedRule) {
  EXPECT_DEATH(Parse("RULE\nIF country = China\n"), "unterminated");
}

TEST_F(RuleIoTest, RejectsRuleWithoutWrong) {
  EXPECT_DEATH(Parse("RULE\nIF country = China\nEND\n"), "without WRONG");
}

TEST_F(RuleIoTest, RejectsRuleWithoutThen) {
  EXPECT_DEATH(
      Parse("RULE\nWRONG capital IN Shanghai\nEND\n"), "without THEN");
}

TEST_F(RuleIoTest, RejectsThenAttrMismatch) {
  EXPECT_DEATH(Parse("RULE\n"
                     "WRONG capital IN Shanghai\n"
                     "THEN city = Beijing\n"
                     "END\n"),
               "must match");
}

TEST_F(RuleIoTest, RejectsUnknownDirective) {
  EXPECT_DEATH(Parse("RULE\nWHEN x = y\nEND\n"), "unknown directive");
}

TEST_F(RuleIoTest, RejectsDirectiveOutsideRule) {
  EXPECT_DEATH(Parse("IF country = China\n"), "outside RULE");
}

TEST_F(RuleIoTest, RejectsNestedRule) {
  EXPECT_DEATH(Parse("RULE\nRULE\n"), "nested RULE");
}

TEST_F(RuleIoTest, RejectsUnknownAttribute) {
  EXPECT_DEATH(Parse("RULE\n"
                     "IF planet = Mars\n"
                     "WRONG capital IN X\n"
                     "THEN capital = Y\n"
                     "END\n"),
               "no attribute");
}

TEST_F(RuleIoTest, FileRoundTrip) {
  const std::string path = testing::TestTempPath("rules.txt");
  WriteRulesFile(example_.rules, path);
  const RuleSet again = ParseRulesFile(path, example_.schema, example_.pool);
  ASSERT_EQ(again.size(), example_.rules.size());
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again.rule(i), example_.rules.rule(i));
  }
}

// Values the parser would not return unchanged if written raw: edge
// blanks, '|', '"', CR, LF, the empty string. The writer quotes them and
// the parser reads them back byte for byte.
TEST_F(RuleIoTest, QuotedValuesRoundTripExactly) {
  const std::vector<std::string> values = {
      "Floor7 ", " lead", "\ttab", "a | b", "say \"hi\"", "\"",
      "two\nlines", "cr\rhere", "crlf\r\n", "", "  ", "plain"};
  RuleSet rules(example_.schema, example_.pool);
  for (const std::string& v : values) {
    rules.Add(MakeRule(*example_.schema, example_.pool.get(),
                       {{"country", v}}, "capital", {v + "x", "y" + v},
                       v + "fact"));
  }
  const std::string text = SerializeRules(rules);
  const RuleSet again = Parse(text);
  ASSERT_EQ(again.size(), rules.size()) << text;
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(again.rule(i), rules.rule(i)) << "value '" << values[i] << "'";
  }
  EXPECT_EQ(SerializeRules(again), text);
  // Plain values stay unquoted, so existing files read as before.
  EXPECT_NE(text.find("IF country = plain\n"), std::string::npos) << text;
}

TEST_F(RuleIoTest, QuotedValueSpansLinesAndKeepsBlanks) {
  const RuleSet rules = Parse(
      "RULE\n"
      "  IF country = \"New \n   Zealand \"\n"
      "  WRONG capital IN \"Auck|land\" |  Hamilton  | \"\"\"q\"\"\"\n"
      "  THEN capital = \"\"\n"
      "END\n");
  ASSERT_EQ(rules.size(), 1u);
  const FixingRule& rule = rules.rule(0);
  EXPECT_EQ(example_.pool->GetString(rule.evidence_values[0]),
            "New \n   Zealand ");
  std::vector<std::string> negatives;
  for (const ValueId v : rule.negative_patterns) {
    negatives.push_back(example_.pool->GetString(v));
  }
  std::sort(negatives.begin(), negatives.end());
  EXPECT_EQ(negatives,
            (std::vector<std::string>{"\"q\"", "Auck|land", "Hamilton"}));
  EXPECT_EQ(example_.pool->GetString(rule.fact), "");
}

TEST_F(RuleIoTest, RejectsMalformedQuotes) {
  const auto parse = [&](const std::string& text) {
    std::istringstream in(text);
    return ParseRulesLenient(in, example_.schema, example_.pool).status();
  };
  // Text between the closing quote and the next separator.
  EXPECT_EQ(parse("RULE\nIF country = \"a\"b\nWRONG capital IN x\n"
                  "THEN capital = y\nEND\n")
                .code(),
            StatusCode::kMalformedInput);
  // A quote still open at the end of the input.
  const Status open = parse("RULE\nIF country = \"a\nWRONG capital IN x\n"
                            "THEN capital = y\nEND\n");
  EXPECT_EQ(open.code(), StatusCode::kMalformedInput);
  EXPECT_NE(open.message().find("unterminated quoted value"),
            std::string::npos)
      << open.message();
  // An unquoted empty negative pattern is still refused; a quoted one
  // is a value.
  EXPECT_EQ(parse("RULE\nWRONG capital IN x |\nTHEN capital = y\nEND\n")
                .code(),
            StatusCode::kMalformedInput);
  EXPECT_TRUE(parse("RULE\nWRONG capital IN x | \"\"\nTHEN capital = y\n"
                    "END\n")
                  .ok());
}

// Property: rules mined from noisy data survive WriteRules and a parse
// into the same pool unchanged — equal fingerprint, the same rules in
// the same order, and the same strict consistency verdict. Dirty values
// with edge blanks are what the miner turns into negative patterns.
TEST(RuleIoRoundTrip, GeneratedRuleSetsReloadUnchanged) {
  struct Case {
    std::string name;
    GeneratedData data;
  };
  std::vector<Case> cases;
  {
    HospOptions options;
    options.rows = 3000;
    cases.push_back({"hosp", GenerateHosp(options)});
  }
  {
    UisOptions options;
    options.rows = 3000;
    cases.push_back({"uis", GenerateUis(options)});
  }
  size_t quoted_values = 0;
  for (Case& c : cases) {
    Table dirty = c.data.clean;
    InjectNoise(&dirty, ConstraintAttributes(*c.data.schema, c.data.fds), {});
    const RuleSet rules = GenerateRules(c.data.clean, dirty, c.data.fds, {});
    ASSERT_GT(rules.size(), 0u) << c.name;
    const std::string text = SerializeRules(rules);
    for (size_t i = 0; i + 2 < text.size(); ++i) {
      quoted_values += text.compare(i, 3, "= \"") == 0 ||
                       text.compare(i, 3, "| \"") == 0 ||
                       text.compare(i, 3, "N \"") == 0;
    }
    const RuleSet again =
        ParseRulesFromString(text, c.data.schema, c.data.pool);
    EXPECT_EQ(RuleSetFingerprint(again), RuleSetFingerprint(rules))
        << c.name;
    ASSERT_EQ(again.size(), rules.size()) << c.name;
    for (size_t i = 0; i < rules.size(); ++i) {
      ASSERT_EQ(again.rule(i), rules.rule(i)) << c.name << " rule " << i;
    }
    EXPECT_EQ(IsConsistentStrict(again), IsConsistentStrict(rules))
        << c.name;
  }
  TravelExample travel;
  const RuleSet again = ParseRulesFromString(SerializeRules(travel.rules),
                                             travel.schema, travel.pool);
  EXPECT_EQ(RuleSetFingerprint(again), RuleSetFingerprint(travel.rules));
  EXPECT_EQ(IsConsistentStrict(again), IsConsistentStrict(travel.rules));
  // The noisy sets must exercise the quoting, or the property is vacuous.
  EXPECT_GT(quoted_values, 0u);
}

}  // namespace
}  // namespace fixrep
