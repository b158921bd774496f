#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "relation/active_domain.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "relation/value_pool.h"

namespace fixrep {
namespace {

TEST(ValuePoolTest, InternIsIdempotent) {
  ValuePool pool;
  const ValueId a = pool.Intern("Beijing");
  const ValueId b = pool.Intern("Shanghai");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("Beijing"), a);
  EXPECT_EQ(pool.Intern("Shanghai"), b);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(ValuePoolTest, GetStringRoundTrips) {
  ValuePool pool;
  const ValueId a = pool.Intern("China");
  EXPECT_EQ(pool.GetString(a), "China");
}

TEST(ValuePoolTest, FindWithoutIntern) {
  ValuePool pool;
  EXPECT_EQ(pool.Find("nope"), kNullValue);
  pool.Intern("yes");
  EXPECT_EQ(pool.Find("yes"), 0);
  EXPECT_EQ(pool.Find("nope"), kNullValue);
}

TEST(ValuePoolTest, EmptyStringIsAValue) {
  ValuePool pool;
  const ValueId empty = pool.Intern("");
  EXPECT_NE(empty, kNullValue);
  EXPECT_EQ(pool.GetString(empty), "");
}

TEST(ValuePoolTest, ManyValuesKeepStableStrings) {
  ValuePool pool;
  std::vector<ValueId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(pool.Intern("value_" + std::to_string(i)));
  }
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(pool.GetString(ids[i]), "value_" + std::to_string(i));
  }
  EXPECT_EQ(pool.size(), 10000u);
}

// The intern index hashes short values (under 4 and under 8 bytes) and
// long ones on different paths; every byte position must count, and ids
// must survive the index growing many times over.
TEST(ValuePoolTest, IndexTellsApartValuesDifferingInOneByte) {
  ValuePool pool;
  std::vector<std::string> values;
  for (size_t length = 0; length <= 24; ++length) {
    const std::string base(length, 'a');
    values.push_back(base);
    for (size_t at = 0; at < length; ++at) {
      for (const char ch : {'b', '\0', '\xff'}) {
        std::string changed = base;
        changed[at] = ch;
        values.push_back(changed);
      }
    }
  }
  for (int i = 0; i < 20000; ++i) values.push_back("v" + std::to_string(i));
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(pool.Intern(values[i]), static_cast<ValueId>(i)) << i;
  }
  ASSERT_EQ(pool.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(pool.Find(values[i]), static_cast<ValueId>(i)) << i;
    EXPECT_EQ(pool.Intern(values[i]), static_cast<ValueId>(i)) << i;
    EXPECT_EQ(pool.GetString(static_cast<ValueId>(i)), values[i]);
  }
  EXPECT_EQ(pool.size(), values.size());
  EXPECT_EQ(pool.Find("c"), kNullValue);
  EXPECT_EQ(pool.Find(std::string(25, 'a')), kNullValue);
  EXPECT_EQ(pool.Find("v20000"), kNullValue);
}

// Intern, Find and GetView against an unordered_map reference over 100K
// mixed operations: random byte strings of 0-40 bytes (NUL and 0xFF
// included), each next to copies differing in one byte at every position
// and copies one byte longer or shorter ("ab" and "ab\0"), interned and
// looked up in random order. Ids must stay dense, in first-occurrence
// order, and every lookup must agree with the reference.
TEST(ValuePoolTest, InternIndexMatchesReferenceMap) {
  Rng rng(0x5ca1ab1e);
  auto random_bytes = [&] {
    static constexpr char kBytes[] = {'a', 'b', '\0', '\xff', ',', '7'};
    std::string s(rng.Uniform(41), '\0');
    for (char& ch : s) {
      ch = rng.Bernoulli(0.5) ? kBytes[rng.Uniform(sizeof(kBytes))]
                              : static_cast<char>(rng.Uniform(256));
    }
    return s;
  };
  std::vector<std::string> candidates;
  while (candidates.size() < 60000) {
    const std::string base = random_bytes();
    candidates.push_back(base);
    for (size_t at = 0; at < base.size(); ++at) {
      std::string changed = base;
      changed[at] = static_cast<char>(changed[at] ^ (1 << rng.Uniform(8)));
      candidates.push_back(changed);
    }
    candidates.push_back(base + '\0');
    candidates.push_back(base + base.substr(0, 1));
    if (!base.empty()) candidates.push_back(base.substr(0, base.size() - 1));
  }
  ValuePool pool;
  std::unordered_map<std::string, ValueId> reference;
  for (int op = 0; op < 100000; ++op) {
    const std::string& value = candidates[rng.Uniform(candidates.size())];
    const auto known = reference.find(value);
    if (rng.Bernoulli(0.3)) {
      ASSERT_EQ(pool.Find(value),
                known == reference.end() ? kNullValue : known->second)
          << "op " << op;
      continue;
    }
    // A new value takes the next dense id.
    const ValueId want = known == reference.end()
                             ? static_cast<ValueId>(reference.size())
                             : known->second;
    ASSERT_EQ(pool.Intern(value), want) << "op " << op;
    reference.emplace(value, want);
    ASSERT_EQ(pool.size(), reference.size());
  }
  for (const auto& [value, id] : reference) {
    ASSERT_EQ(pool.Find(value), id);
    ASSERT_EQ(pool.GetView(id).text, value);
    ASSERT_EQ(pool.GetString(id), value);
    EXPECT_EQ(pool.GetView(id).csv_quoted,
              value.find_first_of(",\"\r\n") != std::string::npos);
  }
}

TEST(SchemaTest, AttributeLookup) {
  const Schema schema("Travel",
                      {"name", "country", "capital", "city", "conf"});
  EXPECT_EQ(schema.arity(), 5u);
  EXPECT_EQ(schema.name(), "Travel");
  EXPECT_EQ(schema.AttributeIndex("country"), 1);
  EXPECT_EQ(schema.attribute_name(2), "capital");
  EXPECT_EQ(schema.FindAttribute("nope"), kInvalidAttr);
  EXPECT_EQ(schema.FindAttribute("conf"), 4);
}

TEST(SchemaTest, Equality) {
  const Schema a("R", {"x", "y"});
  const Schema b("R", {"x", "y"});
  const Schema c("R", {"y", "x"});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(SchemaDeathTest, DuplicateAttributeAborts) {
  EXPECT_DEATH(Schema("R", {"x", "x"}), "duplicate attribute");
}

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : pool_(std::make_shared<ValuePool>()),
        schema_(std::make_shared<Schema>(
            "Travel", std::vector<std::string>{"name", "country", "capital",
                                               "city", "conf"})),
        table_(schema_, pool_) {}

  std::shared_ptr<ValuePool> pool_;
  std::shared_ptr<const Schema> schema_;
  Table table_;
};

TEST_F(TableTest, AppendAndReadBack) {
  table_.AppendRowStrings({"George", "China", "Beijing", "Beijing", "SIGMOD"});
  ASSERT_EQ(table_.num_rows(), 1u);
  EXPECT_EQ(table_.num_columns(), 5u);
  EXPECT_EQ(table_.CellString(0, 1), "China");
  EXPECT_EQ(table_.cell(0, 2), pool_->Find("Beijing"));
}

TEST_F(TableTest, SetCell) {
  table_.AppendRowStrings({"Ian", "China", "Shanghai", "Hongkong", "ICDE"});
  const ValueId beijing = pool_->Intern("Beijing");
  table_.WriteCell(0, 2, beijing);
  EXPECT_EQ(table_.CellString(0, 2), "Beijing");
}

TEST_F(TableTest, SharedPoolComparesAcrossTables) {
  table_.AppendRowStrings({"a", "b", "c", "d", "e"});
  Table other(schema_, pool_);
  other.AppendRowStrings({"a", "b", "c", "d", "e"});
  EXPECT_EQ(table_.row(0), other.row(0));
}

TEST_F(TableTest, FormatRow) {
  table_.AppendRowStrings({"Mike", "Canada", "Toronto", "Toronto", "ICDE"});
  EXPECT_EQ(table_.FormatRow(0), "(Mike, Canada, Toronto, Toronto, ICDE)");
}

TEST_F(TableTest, ArityMismatchAborts) {
  EXPECT_DEATH(table_.AppendRowStrings({"too", "few"}), "");
}

TEST(ActiveDomainTest, DistinctPerColumnInFirstSeenOrder) {
  auto pool = std::make_shared<ValuePool>();
  auto schema = std::make_shared<Schema>(
      "R", std::vector<std::string>{"a", "b"});
  Table table(schema, pool);
  table.AppendRowStrings({"x", "1"});
  table.AppendRowStrings({"y", "1"});
  table.AppendRowStrings({"x", "2"});
  const auto domains = ActiveDomains(table);
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[0].size(), 2u);
  EXPECT_EQ(domains[1].size(), 2u);
  EXPECT_EQ(domains[0][0], pool->Find("x"));
  EXPECT_EQ(domains[0][1], pool->Find("y"));
}

TEST(ActiveDomainTest, SkipsNulls) {
  auto pool = std::make_shared<ValuePool>();
  auto schema =
      std::make_shared<Schema>("R", std::vector<std::string>{"a"});
  Table table(schema, pool);
  table.AppendRow({kNullValue});
  table.AppendRow({pool->Intern("v")});
  const auto domains = ActiveDomains(table);
  EXPECT_EQ(domains[0].size(), 1u);
}

}  // namespace
}  // namespace fixrep
