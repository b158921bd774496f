#ifndef FIXREP_TESTS_TESTING_UTIL_H_
#define FIXREP_TESTS_TESTING_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "relation/csv.h"
#include "relation/schema.h"
#include "relation/value_pool.h"
#include "rules/fixing_rule.h"
#include "rules/rule_dict.h"
#include "rules/rule_set.h"

namespace fixrep::testing {

// A small universe for randomized tests: 4-attribute schema, per-attribute
// value spaces "a<attr>v<k>" so that values collide across rules (which is
// what makes conflicts and cascades reachable) but never across
// attributes.
struct RandomRuleUniverse {
  std::shared_ptr<ValuePool> pool = std::make_shared<ValuePool>();
  std::shared_ptr<const Schema> schema = std::make_shared<Schema>(
      "R", std::vector<std::string>{"a0", "a1", "a2", "a3"});
  int values_per_attribute = 4;

  ValueId Value(AttrId attr, int k) {
    return pool->Intern("a" + std::to_string(attr) + "v" + std::to_string(k));
  }

  FixingRule RandomRule(Rng* rng) {
    FixingRule rule;
    const auto arity = static_cast<AttrId>(schema->arity());
    rule.target = static_cast<AttrId>(rng->Uniform(arity));
    for (AttrId a = 0; a < arity; ++a) {
      if (a == rule.target || !rng->Bernoulli(0.5)) continue;
      rule.evidence_attrs.push_back(a);
      rule.evidence_values.push_back(
          Value(a, static_cast<int>(rng->Uniform(values_per_attribute))));
    }
    // Leave at least one non-negative value so a fact always exists.
    const size_t max_negatives =
        std::min<size_t>(3, static_cast<size_t>(values_per_attribute) - 1);
    const size_t num_negatives = 1 + rng->Uniform(max_negatives);
    while (rule.negative_patterns.size() < num_negatives) {
      const ValueId v = Value(
          rule.target, static_cast<int>(rng->Uniform(values_per_attribute)));
      if (!rule.IsNegative(v)) {
        rule.negative_patterns.push_back(v);
        std::sort(rule.negative_patterns.begin(),
                  rule.negative_patterns.end());
      }
    }
    // values_per_attribute > max negatives, so a fact always exists.
    while (true) {
      const ValueId v = Value(
          rule.target, static_cast<int>(rng->Uniform(values_per_attribute)));
      if (!rule.IsNegative(v)) {
        rule.fact = v;
        break;
      }
    }
    rule.Validate(*schema);
    return rule;
  }

  // A random tuple over the value universe; with probability null_share a
  // cell is the out-of-universe placeholder.
  Tuple RandomTuple(Rng* rng, double null_share = 0.2) {
    Tuple t(schema->arity(), kNullValue);
    for (size_t a = 0; a < schema->arity(); ++a) {
      if (rng->Bernoulli(null_share)) continue;
      t[a] = Value(static_cast<AttrId>(a),
                   static_cast<int>(rng->Uniform(values_per_attribute)));
    }
    return t;
  }
};

// Minimal recursive-descent JSON syntax checker for validating metric /
// trace dumps without a JSON dependency. Accepts exactly one value with
// optional surrounding whitespace; numbers are the JSON grammar's.
class JsonChecker {
 public:
  static bool IsValid(const std::string& text) {
    JsonChecker checker(text);
    return checker.Value() && (checker.Ws(), checker.pos_ == text.size());
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Eat(char c) { return Peek() == c && (++pos_, true); }
  void Ws() {
    while (Peek() == ' ' || Peek() == '\n' || Peek() == '\t' ||
           Peek() == '\r') {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool String() {
    if (!Eat('"')) return false;
    while (Peek() != '"') {
      if (Peek() == '\0') return false;
      if (Eat('\\')) {
        if (Peek() == '\0') return false;
      }
      ++pos_;
    }
    return Eat('"');
  }

  bool Number() {
    const size_t start = pos_;
    Eat('-');
    while (Peek() >= '0' && Peek() <= '9') ++pos_;
    if (Eat('.')) {
      while (Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    return pos_ > start;
  }

  bool Value() {
    Ws();
    if (Peek() == '{') {
      ++pos_;
      Ws();
      if (Eat('}')) return true;
      do {
        Ws();
        if (!String()) return false;
        Ws();
        if (!Eat(':')) return false;
        if (!Value()) return false;
        Ws();
      } while (Eat(','));
      return Eat('}');
    }
    if (Peek() == '[') {
      ++pos_;
      Ws();
      if (Eat(']')) return true;
      do {
        if (!Value()) return false;
        Ws();
      } while (Eat(','));
      return Eat(']');
    }
    if (Peek() == '"') return String();
    if (Peek() == 't') return Literal("true");
    if (Peek() == 'f') return Literal("false");
    if (Peek() == 'n') return Literal("null");
    return Number();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Names each test's private directory when the test starts and removes
// it with its contents when the test ends. Registered before main (see
// kTestTempDirRegistered), so the name is fixed in the test's own
// process: a death-test child forked from it writes into the same
// directory, which the parent then cleans up.
class TestTempDirListener : public ::testing::EmptyTestEventListener {
 public:
  static TestTempDirListener& Get() {
    static TestTempDirListener* const listener = [] {
      auto* created = new TestTempDirListener;  // owned by gtest
      ::testing::UnitTest::GetInstance()->listeners().Append(created);
      return created;
    }();
    return *listener;
  }

  void OnTestStart(const ::testing::TestInfo& info) override {
    std::string name = "fixrep_" + std::string(info.test_suite_name()) + "_" +
                       info.name() + "_" + std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');
    dir = ::testing::TempDir() + name;
  }
  void OnTestEnd(const ::testing::TestInfo&) override {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dir.clear();
  }

  std::string dir;
};

inline const bool kTestTempDirRegistered =
    (TestTempDirListener::Get(), true);

// The running test's private directory,
// TempDir()/fixrep_<suite>_<test>_<pid>: created on first use and
// removed with its contents when the test ends. Suites that write files
// put them here instead of at fixed paths, so test processes running
// side by side under `ctest -j` (or one test repeated) never share one.
inline std::string TestTempDir() {
  const std::string& dir = TestTempDirListener::Get().dir;
  EXPECT_FALSE(dir.empty()) << "TestTempDir() used outside a test";
  std::filesystem::create_directories(dir);
  return dir;
}

// `name` inside TestTempDir().
inline std::string TestTempPath(std::string_view name) {
  return TestTempDir() + "/" + std::string(name);
}

// `name` inside a directory private to this test process,
// TempDir()/fixrep_<pid>, for fixtures built once and shared by every
// test in the process. The directory is removed at exit by the process
// that created it (not by forked children).
inline std::string ProcessTempPath(std::string_view name) {
  struct ProcessDir {
    pid_t owner = ::getpid();
    std::string path =
        ::testing::TempDir() + "fixrep_" + std::to_string(::getpid());
    ProcessDir() { std::filesystem::create_directories(path); }
    ~ProcessDir() {
      if (::getpid() != owner) return;
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const ProcessDir dir;
  return dir.path + "/" + std::string(name);
}

// `rules` written by CompileRuleDict to `name` inside TestTempDir(),
// mapped back by RuleDict::Open and bound to the set's schema and pool:
// the image RuleDict::Compile builds in memory, in its other storage.
// Null (with a test failure) when any step fails.
inline std::unique_ptr<RuleDict> ReopenedImage(const RuleSet& rules,
                                               std::string_view name) {
  const std::string path = TestTempPath(name);
  const Status compiled = CompileRuleDict(rules, path);
  EXPECT_TRUE(compiled.ok()) << compiled;
  StatusOr<std::unique_ptr<RuleDict>> opened = RuleDict::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!compiled.ok() || !opened.ok()) return nullptr;
  const Status bound = (*opened)->Bind(rules.schema(), rules.pool_ptr());
  EXPECT_TRUE(bound.ok()) << bound;
  if (!bound.ok()) return nullptr;
  return std::move(opened).value();
}

// The image of `rules` in the named storage: compiled in memory, or
// compiled to a file named `name` and opened from it.
inline std::unique_ptr<RuleDict> ImageIn(bool mapped, const RuleSet& rules,
                                         std::string_view name) {
  return mapped ? ReopenedImage(rules, name) : RuleDict::CompileOrDie(rules);
}

// Seeded structural mutations of CSV text: insert, delete or replace a
// byte drawn mostly from the dialect's structural characters, duplicate
// a range, or truncate. The CSV fuzzer reads the results against its
// oracle; the daemon's splice test repairs them.
inline std::string MutateCsvBytes(const std::string& base, Rng* rng) {
  static constexpr char kBytes[] = ",\"\r\n\"\",a \n";
  std::string s = base;
  const size_t edits = 1 + rng->Uniform(6);
  for (size_t e = 0; e < edits; ++e) {
    const size_t pos = s.empty() ? 0 : rng->Uniform(s.size() + 1);
    const char byte = kBytes[rng->Uniform(sizeof(kBytes) - 1)];
    switch (rng->Uniform(10)) {
      case 0:
      case 1:
      case 2:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos), byte);
        break;
      case 3:
      case 4:
        if (pos < s.size()) s.erase(pos, 1);
        break;
      case 5:
      case 6:
      case 7:
        if (pos < s.size()) s[pos] = byte;
        break;
      case 8: {
        const size_t len = rng->Uniform(40);
        const std::string range = s.substr(std::min(pos, s.size()), len);
        s.insert(rng->Uniform(s.size() + 1), range);
        break;
      }
      default:
        if (rng->Bernoulli(0.3)) s.resize(pos);
        break;
    }
  }
  return s;
}

// `input` with `splice` applied: the repaired batch a daemon's repair
// result spells over the request CSV it answers. A splice that does not
// fit `input` fails the test (and yields "").
inline std::string SplicedCsv(std::string_view input,
                              const CsvSplice& splice) {
  std::string out;
  const Status applied = ApplyCsvSplice(input, splice, &out);
  EXPECT_TRUE(applied.ok()) << applied;
  return applied.ok() ? out : std::string();
}

}  // namespace fixrep::testing

#endif  // FIXREP_TESTS_TESTING_UTIL_H_
