#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "datagen/travel.h"
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

}  // namespace
}  // namespace fixrep
