#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "relation/csv.h"

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

}  // namespace
}  // namespace fixrep
