#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/string_util.h"
#include "relation/csv.h"
#include "rules/fixing_rule.h"
#include "rules/rule_dict.h"
#include "rules/rule_set.h"
#include "testing_util.h"

namespace fixrep {
namespace {

Table ReadFromString(const std::string& text) {
  std::istringstream in(text);
  return ReadCsv(in, "test", std::make_shared<ValuePool>());
}

std::string WriteToString(const Table& table) {
  std::ostringstream out;
  WriteCsv(table, out);
  return out.str();
}

TEST(CsvTest, HeaderBecomesSchema) {
  const Table table = ReadFromString("a,b,c\n1,2,3\n");
  EXPECT_EQ(table.schema().arity(), 3u);
  EXPECT_EQ(table.schema().attribute_name(0), "a");
  EXPECT_EQ(table.schema().attribute_name(2), "c");
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.CellString(0, 1), "2");
}

TEST(CsvTest, EmptyFieldsPreserved) {
  const Table table = ReadFromString("a,b\n,x\ny,\n");
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.CellString(0, 0), "");
  EXPECT_EQ(table.CellString(0, 1), "x");
  EXPECT_EQ(table.CellString(1, 1), "");
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  const Table table =
      ReadFromString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.CellString(0, 0), "x,y");
  EXPECT_EQ(table.CellString(0, 1), "he said \"hi\"");
}

TEST(CsvTest, QuotedNewline) {
  const Table table = ReadFromString("a,b\n\"line1\nline2\",z\n");
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.CellString(0, 0), "line1\nline2");
}

TEST(CsvTest, ToleratesCrlfAndMissingFinalNewline) {
  const Table table = ReadFromString("a,b\r\n1,2\r\n3,4");
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.CellString(1, 1), "4");
}

TEST(CsvTest, RoundTrip) {
  const std::string original =
      "name,country,capital\n"
      "George,China,Beijing\n"
      "Ian,\"Chi,na\",\"say \"\"x\"\"\"\n";
  const Table table = ReadFromString(original);
  const Table again = ReadFromString(WriteToString(table));
  ASSERT_EQ(again.num_rows(), table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(again.CellString(r, static_cast<AttrId>(c)),
                table.CellString(r, static_cast<AttrId>(c)));
    }
  }
}

TEST(CsvTest, WriterQuotesOnlyWhenNeeded) {
  auto pool = std::make_shared<ValuePool>();
  auto schema =
      std::make_shared<Schema>("R", std::vector<std::string>{"a", "b"});
  Table table(schema, pool);
  table.AppendRowStrings({"plain", "with,comma"});
  EXPECT_EQ(WriteToString(table), "a,b\nplain,\"with,comma\"\n");
}

TEST(CsvTest, ByteCountersTrackParsedAndEmittedBytes) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  auto value = [](const char* name) {
    return MetricsRegistry::Global().GetCounter(name)->Value();
  };
  const std::string text = "a,b\r\n\"x,y\",2\n3,4";
  const uint64_t parsed_before = value("fixrep.csv.bytes_parsed");
  const Table table = ReadFromString(text);
  EXPECT_EQ(value("fixrep.csv.bytes_parsed") - parsed_before, text.size());
  const uint64_t emitted_before = value("fixrep.csv.bytes_emitted");
  const std::string written = WriteToString(table);
  EXPECT_EQ(value("fixrep.csv.bytes_emitted") - emitted_before,
            written.size());
}

TEST(CsvDeathTest, ArityMismatchAborts) {
  EXPECT_DEATH(ReadFromString("a,b\n1,2,3\n"), "arity mismatch");
}

TEST(CsvDeathTest, EmptyInputAborts) {
  EXPECT_DEATH(ReadFromString(""), "empty CSV");
}

TEST(CsvDeathTest, MissingFileAborts) {
  EXPECT_DEATH(
      ReadCsvFile("/nonexistent/p.csv", "x", std::make_shared<ValuePool>()),
      "cannot open");
}

// The emit path renders cells from ValuePool::GetView. For every id,
// however it was interned, the view must be the stored string itself
// and its quote flag the structural-byte scan WriteCsvField would do.
void ExpectViewsMatchStrings(const ValuePool& pool) {
  for (size_t i = 0; i < pool.size(); ++i) {
    const ValueId id = static_cast<ValueId>(i);
    const std::string& text = pool.GetString(id);
    const ValueView& view = pool.GetView(id);
    EXPECT_EQ(view.text.data(), text.data()) << "id " << id;
    EXPECT_EQ(view.text, text) << "id " << id;
    EXPECT_EQ(view.csv_quoted,
              FindCsvSpecial(text.data(), text.data() + text.size()) !=
                  text.data() + text.size())
        << "id " << id << " '" << text << "'";
  }
}

TEST(ValuePoolViewTest, AgreesWithGetStringForInternedIds) {
  ValuePool pool;
  for (const char* text : {"", "plain", "with,comma", "say \"hi\"", "cr\r",
                           "lf\n", "spaces are plain", "0123456789abcdef"}) {
    pool.Intern(text);
  }
  // Enough values that the deque behind GetString spans many blocks.
  for (int i = 0; i < 2000; ++i) {
    pool.Intern(i % 3 == 0 ? "q\"" + std::to_string(i) : std::to_string(i));
  }
  ExpectViewsMatchStrings(pool);
}

TEST(ValuePoolViewTest, AgreesWithGetStringForOverlayCommits) {
  ValuePool pool;
  pool.Intern("known");
  ValueOverlay overlay(&pool);
  for (const char* text : {"known", "staged,one", "staged", "\"", "staged"}) {
    overlay.Resolve(text);
  }
  EXPECT_EQ(overlay.Commit(), 3u);
  ExpectViewsMatchStrings(pool);
}

TEST(ValuePoolViewTest, AgreesWithGetStringForRuleDictBindFacts) {
  auto compile_pool = std::make_shared<ValuePool>();
  const auto schema = std::make_shared<Schema>(
      "R", std::vector<std::string>{"country", "capital"});
  RuleSet rules(schema, compile_pool);
  rules.Add(MakeRule(*schema, compile_pool.get(), {{"country", "China"}},
                     "capital", {"Shanghai"}, "Beijing, \"capital\""));
  rules.Add(MakeRule(*schema, compile_pool.get(), {{"country", "Canada"}},
                     "capital", {"Toronto"}, "Ottawa"));
  const std::string path = testing::TestTempPath("views.dict");
  ASSERT_TRUE(CompileRuleDict(rules, path).ok());
  auto dict = RuleDict::Open(path);
  ASSERT_TRUE(dict.ok()) << dict.status();
  auto pool = std::make_shared<ValuePool>();
  pool->Intern("pre-existing");
  ASSERT_TRUE((*dict)->Bind(*schema, pool).ok());
  ASSERT_GT(pool->size(), 1u);
  ExpectViewsMatchStrings(*pool);
}

TEST(ValuePoolViewDeathTest, OutOfRangeIdFails) {
  ValuePool pool;
  pool.Intern("only");
  EXPECT_DEATH(pool.GetView(1), "");
  EXPECT_DEATH(pool.GetView(-1), "");
  EXPECT_DEATH(pool.GetView(kNullValue - 5), "");
}

TEST(CsvSpliceTest, WriteCsvSpliceWritesWhatApplyCsvSpliceBuilds) {
  // Over a thousand edits (more than one writev batch of pieces), with
  // empty replacements, pure insertions and edits at both ends, written
  // after bytes the file's stream already holds.
  std::string input = "id,v\n";
  for (int r = 0; r < 3000; ++r) {
    input += std::to_string(r) + ",x" + std::to_string(r % 7) + "\n";
  }
  Rng rng(17);
  CsvSplice splice;
  uint64_t at = 0;
  uint64_t erased = 0;
  while (at < input.size()) {
    const uint64_t begin = at + (at == 0 ? 0 : rng.Uniform(30));
    if (begin > input.size()) break;
    const CsvEdit edit{begin, std::min<uint64_t>(rng.Uniform(6),
                                                 input.size() - begin),
                       rng.Uniform(4)};
    splice.inserts.append(edit.insert,
                          static_cast<char>('a' + rng.Uniform(3)));
    splice.edits.push_back(edit);
    erased += edit.erase;
    at = edit.begin + edit.erase;
  }
  splice.output_size = input.size() - erased + splice.inserts.size();
  ASSERT_GT(splice.edits.size(), 1000u);
  std::string want;
  ASSERT_TRUE(ApplyCsvSplice(input, splice, &want).ok());

  const std::string path = testing::TestTempPath("spliced.csv");
  StatusOr<AtomicFile> out = AtomicFile::Create(path);
  ASSERT_TRUE(out.ok()) << out.status();
  out->stream() << "prefix\n";
  ASSERT_TRUE(WriteCsvSplice(input, splice, &out.value()).ok());
  out->stream() << "suffix\n";
  ASSERT_TRUE(out->Commit().ok());
  std::ifstream in(path, std::ios::binary);
  const std::string got{std::istreambuf_iterator<char>(in), {}};
  EXPECT_TRUE(got == "prefix\n" + want + "suffix\n");

  // A splice that does not fit writes nothing and is an error.
  CsvSplice wrong = splice;
  ++wrong.output_size;
  StatusOr<AtomicFile> refused = AtomicFile::Create(path);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(WriteCsvSplice(input, wrong, &refused.value()).code(),
            StatusCode::kMalformedInput);
}

}  // namespace
}  // namespace fixrep
