// Differential mutation fuzzer for the CSV tokenizer and emitter
// (relation/csv.cc). The reference oracle is the char-at-a-time reader
// and per-field ostream writer the byte-span implementation replaced,
// kept here verbatim. Seeded PRNG mutations of generated hosp, travel and
// uis CSV plus a hostile corpus are read under every --on-error policy,
// whole (stream, file, in-memory payload), chunked at {1, 7, 1024} rows,
// and through tiny refill blocks so records straddle block boundaries at
// every offset. Fields, ValueIds, quarantine diagnostics, rendered bytes
// and consumed-byte counts must all match the oracle.
//
// The file read (ReadCsvFileLenient) has its own oracle: the in-memory
// read of the same bytes, on multi-MiB hosp files with hostile fields
// spliced in, into empty and pre-populated pools, under every policy,
// and on hostile records read through refill blocks of every small size.

#include <algorithm>
#include <fstream>
#include <functional>
#include <istream>
#include <iterator>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/random.h"
#include "datagen/hosp.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "testing_util.h"

namespace fixrep {

// Opens readers with a chosen refill block size (the production reader
// always uses CsvChunkReader::kReadBlockBytes).
struct CsvReaderTestPeer {
  static StatusOr<CsvChunkReader> Open(std::istream& in, size_t block_bytes,
                                       std::shared_ptr<ValuePool> pool,
                                       const CsvReadOptions& options) {
    return CsvChunkReader::OpenImpl(
        CsvChunkReader(&in, -1, {}, options, block_bytes), "fuzz",
        std::move(pool));
  }
  // ReadCsvFileLenient with a chosen refill block size.
  static StatusOr<Table> ReadFile(const std::string& path, size_t block_bytes,
                                  std::shared_ptr<ValuePool> pool,
                                  const CsvReadOptions& options) {
    return CsvChunkReader::ReadFile(path, "fuzz", std::move(pool), options,
                                    block_bytes);
  }
};

namespace {

// --- Reference oracle: the reader and writer before the byte-span rewrite.

bool OracleReadRecord(std::istream& in, std::vector<std::string>* fields,
                      std::string* raw, bool* unterminated) {
  fields->clear();
  if (raw != nullptr) raw->clear();
  *unterminated = false;
  std::string field;
  bool in_quotes = false;
  bool saw_any = false;
  int c;
  while ((c = in.get()) != EOF) {
    saw_any = true;
    const char ch = static_cast<char>(c);
    if (raw != nullptr && ch != '\n' && ch != '\r') raw->push_back(ch);
    if (in_quotes) {
      if (raw != nullptr && (ch == '\n' || ch == '\r')) raw->push_back(ch);
      if (ch == '"') {
        if (in.peek() == '"') {
          in.get();
          field.push_back('"');
          if (raw != nullptr) raw->push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(ch);
      }
      continue;
    }
    switch (ch) {
      case '"':
        in_quotes = true;
        break;
      case ',':
        fields->push_back(std::move(field));
        field.clear();
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        fields->push_back(std::move(field));
        return true;
      default:
        field.push_back(ch);
        break;
    }
  }
  if (!saw_any) return false;
  *unterminated = in_quotes;
  fields->push_back(std::move(field));
  return true;
}

void OracleWriteField(const std::string& field, std::ostream& out) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) {
    out << field;
    return;
  }
  out << '"';
  for (const char ch : field) {
    if (ch == '"') out << '"';
    out << ch;
  }
  out << '"';
}

void OracleWriteRow(const std::vector<std::string>& fields,
                    std::ostream& out) {
  for (size_t a = 0; a < fields.size(); ++a) {
    if (a > 0) out << ',';
    OracleWriteField(fields[a], out);
  }
  out << '\n';
}

std::string OracleQuarantineRecord(const Diagnostic& d) {
  std::ostringstream out;
  OracleWriteField("csv", out);
  out << ',' << d.line << ',' << StatusCodeName(d.code) << ',';
  OracleWriteField(d.message, out);
  out << ',';
  OracleWriteField(d.raw_text, out);
  out << '\n';
  return out.str();
}

// What a read produces: a fatal status, or the header, appended rows
// (strings and ids) and dropped-record diagnostics, plus the rendering.
struct ReadResult {
  Status status = Status::Ok();
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::vector<ValueId>> ids;
  std::vector<Diagnostic> diagnostics;
  std::string rendered;
  uint64_t bytes_read = 0;
};

ReadResult OracleRead(const std::string& text, OnErrorPolicy policy) {
  ReadResult result;
  std::istringstream in(text);
  bool unterminated = false;
  if (!OracleReadRecord(in, &result.header, nullptr, &unterminated)) {
    result.status = Status::MalformedInput("empty CSV input");
    return result;
  }
  if (unterminated) {
    result.status = Status::MalformedInput(
        "unterminated quoted field at EOF in CSV header");
    return result;
  }
  std::unordered_set<std::string> seen;
  for (const std::string& name : result.header) {
    if (!seen.insert(name).second) {
      result.status = Status::MalformedInput(
          "duplicate CSV header column '" + name + "'");
      return result;
    }
  }
  ValuePool pool;
  std::vector<std::string> fields;
  std::string raw;
  for (size_t record = 0;
       OracleReadRecord(in, &fields, &raw, &unterminated); ++record) {
    Status problem = Status::Ok();
    if (unterminated) {
      problem = Status::MalformedInput("unterminated quoted field at EOF");
    } else if (fields.size() != result.header.size()) {
      problem = Status::MalformedInput(
          "CSV record arity mismatch at row " + std::to_string(record) +
          " (got " + std::to_string(fields.size()) + ", want " +
          std::to_string(result.header.size()) + ")");
    }
    if (!problem.ok()) {
      if (policy == OnErrorPolicy::kAbort) {
        result.status = problem;
        return result;
      }
      if (policy == OnErrorPolicy::kQuarantine) {
        result.diagnostics.push_back(
            Diagnostic{record, problem.code(), problem.message(), raw});
      }
      continue;
    }
    std::vector<ValueId> ids;
    for (const std::string& field : fields) ids.push_back(pool.Intern(field));
    result.ids.push_back(std::move(ids));
    result.rows.push_back(fields);
  }
  std::ostringstream out;
  OracleWriteRow(result.header, out);
  for (const auto& row : result.rows) OracleWriteRow(row, out);
  result.rendered = out.str();
  result.bytes_read = text.size();
  return result;
}

// --- The implementation under test, read every way it can be.

void CollectRows(const Table& table, ReadResult* result) {
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> row;
    std::vector<ValueId> ids;
    for (size_t a = 0; a < table.num_columns(); ++a) {
      row.push_back(table.CellString(r, static_cast<AttrId>(a)));
      ids.push_back(table.cell(r, static_cast<AttrId>(a)));
    }
    result->rows.push_back(std::move(row));
    result->ids.push_back(std::move(ids));
  }
}

// A whole-table read (ReadCsvLenient and friends).
ReadResult FromTable(StatusOr<Table> table, VectorQuarantineSink* sink) {
  ReadResult result;
  if (!table.ok()) {
    result.status = table.status();
    return result;
  }
  result.header = table->schema().attribute_names();
  CollectRows(*table, &result);
  result.diagnostics = sink->diagnostics();
  std::ostringstream out;
  WriteCsv(*table, out);
  result.rendered = out.str();
  std::string appended = "prefix";
  AppendCsv(*table, &appended);
  EXPECT_EQ(appended, "prefix" + result.rendered) << "AppendCsv";
  return result;
}

// A chunked read through CsvChunkReader, written chunk by chunk as the
// streaming driver does: each chunk spliced over the bytes the reader
// kept for it (WriteCsvChunk, every verbatim record copied). A non-null
// `spans` receives the record spans of the whole read, gathered chunk
// by chunk.
ReadResult FromReader(StatusOr<CsvChunkReader> reader_or, size_t chunk_rows,
                      VectorQuarantineSink* sink,
                      CsvRecordSpans* spans = nullptr) {
  ReadResult result;
  if (!reader_or.ok()) {
    result.status = reader_or.status();
    return result;
  }
  CsvChunkReader& reader = reader_or.value();
  result.header = reader.schema()->attribute_names();
  std::ostringstream out;
  WriteCsvHeader(*reader.schema(), out);
  Table chunk = reader.MakeChunkTable();
  CsvRecordSpans chunk_spans;
  if (spans != nullptr) {  // takes the header's span, no rows yet
    reader.RecordSpansInto(spans);
    reader.RecordSpansInto(nullptr);
  }
  while (true) {
    chunk.Clear();
    reader.RecordSpansInto(&chunk_spans);
    StatusOr<size_t> read = reader.ReadChunk(&chunk, chunk_rows);
    if (!read.ok()) {
      result.status = read.status();
      return result;
    }
    EXPECT_EQ(read.value(), chunk.num_rows());
    EXPECT_LE(read.value(), chunk_rows);
    if (spans != nullptr) {
      spans->rows.insert(spans->rows.end(), chunk_spans.rows.begin(),
                         chunk_spans.rows.end());
      spans->dropped += chunk_spans.dropped;
    }
    if (read.value() == 0 && reader.at_end()) break;
    chunk_spans.header = {reader.chunk_offset(), reader.chunk_offset(), true};
    const StatusOr<CsvChunkEmit> written = WriteCsvChunk(
        reader.chunk_bytes(), chunk_spans, chunk, {}, out);
    EXPECT_TRUE(written.ok()) << written.status();
    CollectRows(chunk, &result);
  }
  reader.RecordSpansInto(nullptr);
  result.diagnostics = sink->diagnostics();
  result.rendered = out.str();
  result.bytes_read = reader.bytes_read();
  return result;
}

void ExpectSame(const ReadResult& want, const ReadResult& got,
                bool compare_ids, const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(want.status.code(), got.status.code()) << got.status.message();
  EXPECT_EQ(want.status.message(), got.status.message());
  if (!want.status.ok()) return;
  EXPECT_EQ(want.header, got.header);
  ASSERT_EQ(want.rows, got.rows);
  if (compare_ids) {
    EXPECT_EQ(want.ids, got.ids);
  }
  ASSERT_EQ(want.diagnostics.size(), got.diagnostics.size());
  for (size_t i = 0; i < want.diagnostics.size(); ++i) {
    const Diagnostic& w = want.diagnostics[i];
    const Diagnostic& g = got.diagnostics[i];
    EXPECT_EQ(w.line, g.line) << "diagnostic " << i;
    EXPECT_EQ(w.code, g.code) << "diagnostic " << i;
    EXPECT_EQ(w.message, g.message) << "diagnostic " << i;
    EXPECT_EQ(w.raw_text, g.raw_text) << "diagnostic " << i;
    std::ostringstream rendered;
    WriteQuarantineRecord(rendered, "csv", g);
    EXPECT_EQ(OracleQuarantineRecord(w), rendered.str()) << "diagnostic " << i;
  }
  EXPECT_EQ(want.rendered, got.rendered);
  if (got.bytes_read != 0) {
    EXPECT_EQ(want.bytes_read, got.bytes_read);
  }
}

class CsvFuzz : public ::testing::Test {
 protected:
  // Reads `text` every way under every policy and compares each against
  // the oracle.
  void CheckAllWays(const std::string& text, const std::string& label) {
    for (const OnErrorPolicy policy :
         {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
          OnErrorPolicy::kQuarantine}) {
      const ReadResult want = OracleRead(text, policy);
      const std::string context =
          label + " policy=" + OnErrorPolicyName(policy);
      auto options = [&](VectorQuarantineSink* sink) {
        CsvReadOptions o;
        o.on_error = policy;
        o.quarantine = sink;
        return o;
      };
      {
        VectorQuarantineSink sink;
        std::istringstream in(text);
        ExpectSame(want,
                   FromTable(ReadCsvLenient(in, "fuzz",
                                            std::make_shared<ValuePool>(),
                                            options(&sink)),
                             &sink),
                   true, context + " stream");
      }
      {
        VectorQuarantineSink sink;
        ExpectSame(want,
                   FromTable(ReadCsvBytesLenient(text, "fuzz",
                                                 std::make_shared<ValuePool>(),
                                                 options(&sink)),
                             &sink),
                   true, context + " bytes");
      }
      {
        VectorQuarantineSink sink;
        {
          std::ofstream file(file_path_, std::ios::binary | std::ios::trunc);
          file.write(text.data(), static_cast<std::streamsize>(text.size()));
        }
        ExpectSame(want,
                   FromTable(ReadCsvFileLenient(file_path_, "fuzz",
                                                std::make_shared<ValuePool>(),
                                                options(&sink)),
                             &sink),
                   true, context + " file");
      }
      for (const size_t chunk_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
        {
          VectorQuarantineSink sink;
          std::istringstream in(text);
          ExpectSame(want,
                     FromReader(CsvChunkReader::Open(
                                    in, "fuzz", std::make_shared<ValuePool>(),
                                    options(&sink)),
                                chunk_rows, &sink),
                     true, context + " chunk_rows=" + std::to_string(chunk_rows));
        }
        VectorQuarantineSink sink;
        ExpectSame(want,
                   FromReader(CsvChunkReader::OpenBytes(
                                  text, "fuzz", std::make_shared<ValuePool>(),
                                  options(&sink)),
                              chunk_rows, &sink),
                   true,
                   context + " bytes chunk_rows=" + std::to_string(chunk_rows));
      }
      for (const size_t block : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                                 size_t{64}}) {
        VectorQuarantineSink sink;
        std::istringstream in(text);
        ExpectSame(want,
                   FromReader(CsvReaderTestPeer::Open(
                                  in, block, std::make_shared<ValuePool>(),
                                  options(&sink)),
                              7, &sink),
                   true, context + " block=" + std::to_string(block));
        VectorQuarantineSink file_sink;
        ExpectSame(want,
                   FromTable(CsvReaderTestPeer::ReadFile(
                                 file_path_, block,
                                 std::make_shared<ValuePool>(),
                                 options(&file_sink)),
                             &file_sink),
                   true, context + " file block=" + std::to_string(block));
      }
      CheckSplice(text, options(nullptr), want, context);
      if (HasFatalFailure()) return;
    }
  }

  // The in-memory read with record spans: spans are ordered, dropped
  // records are the gaps between them, and a splice over `text` gives
  // AppendCsv of the table read from it, as read (an empty write log) and
  // with every third row's first cell rewritten (to a value that needs
  // quoting on odd rows; the log names each write). A wrong verbatim
  // flag or span shows up as a byte difference.
  static void CheckSplice(const std::string& text,
                          const CsvReadOptions& options,
                          const ReadResult& want, const std::string& context) {
    SCOPED_TRACE(context + " splice");
    if (!want.status.ok()) return;
    StatusOr<CsvChunkReader> reader = CsvChunkReader::OpenBytes(
        text, "fuzz", std::make_shared<ValuePool>(), options);
    ASSERT_TRUE(reader.ok()) << reader.status();
    CsvRecordSpans spans;
    reader->RecordSpansInto(&spans);
    Table table = reader->MakeChunkTable();
    ASSERT_TRUE(
        reader->ReadChunk(&table, std::numeric_limits<size_t>::max()).ok());
    ASSERT_EQ(spans.rows.size(), table.num_rows());
    EXPECT_EQ(spans.dropped, reader->records_read() - table.num_rows());
    EXPECT_EQ(spans.header.begin, 0u);
    uint64_t at = spans.header.end;
    for (const CsvRecordSpan& span : spans.rows) {
      EXPECT_LE(at, span.begin);
      EXPECT_LT(span.begin, span.end);
      at = span.end;
    }
    EXPECT_LE(at, text.size());
    if (spans.dropped == 0) {
      EXPECT_EQ(at, text.size());
    }
    Table repaired = table;
    std::vector<CellRepair> writes;
    for (size_t r = 0; r < repaired.num_rows(); r += 3) {
      const ValueId value = repaired.pool().Intern(r % 2 ? "x,\"y" : "z");
      writes.push_back({r, 0, repaired.cell(r, 0), value, 0});
      repaired.WriteCell(r, 0, value);
    }
    for (const auto& [result, log] :
         {std::pair{&table, std::vector<CellRepair>{}},
          std::pair{&repaired, writes}}) {
      const CsvSplice splice = SpliceCsv(text, spans, *result, log);
      std::string spliced;
      const Status applied = ApplyCsvSplice(text, splice, &spliced);
      ASSERT_TRUE(applied.ok()) << applied;
      std::string rendered;
      AppendCsv(*result, &rendered);
      ASSERT_EQ(spliced, rendered);
    }
  }

  // Reads `text` through refill blocks of every size from 1 to 80 bytes
  // under every policy: rows, ids, diagnostics, rendering and consumed
  // bytes must match the oracle, and record spans (with their verbatim
  // flags) the in-memory read's.
  void CheckEveryRefillBlock(const std::string& text,
                             const std::string& label) {
    for (const OnErrorPolicy policy :
         {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
          OnErrorPolicy::kQuarantine}) {
      const ReadResult want = OracleRead(text, policy);
      CsvRecordSpans want_spans;
      {
        StatusOr<CsvChunkReader> reader = CsvChunkReader::OpenBytes(
            text, "fuzz", std::make_shared<ValuePool>(), {policy, nullptr});
        if (reader.ok()) {
          reader->RecordSpansInto(&want_spans);
          Table table = reader->MakeChunkTable();
          (void)reader->ReadChunk(&table, std::numeric_limits<size_t>::max());
        }
      }
      for (size_t block = 1; block <= 80; ++block) {
        const std::string context = label + " policy=" +
                                    OnErrorPolicyName(policy) +
                                    " block=" + std::to_string(block);
        VectorQuarantineSink sink;
        std::istringstream in(text);
        StatusOr<CsvChunkReader> reader = CsvReaderTestPeer::Open(
            in, block, std::make_shared<ValuePool>(), {policy, &sink});
        CsvRecordSpans spans;
        ExpectSame(want, FromReader(std::move(reader), 7, &sink, &spans),
                   true, context);
        if (!want.status.ok()) continue;
        SCOPED_TRACE(context);
        ExpectSameSpan(want_spans.header, spans.header);
        EXPECT_EQ(want_spans.dropped, spans.dropped);
        ASSERT_EQ(want_spans.rows.size(), spans.rows.size());
        for (size_t r = 0; r < spans.rows.size(); ++r) {
          ExpectSameSpan(want_spans.rows[r], spans.rows[r]);
        }
        if (HasFailure()) return;
      }
    }
  }

  static void ExpectSameSpan(const CsvRecordSpan& want,
                             const CsvRecordSpan& got) {
    EXPECT_EQ(want.begin, got.begin);
    EXPECT_EQ(want.end, got.end);
    EXPECT_EQ(want.verbatim, got.verbatim) << "span at " << got.begin;
  }

  void FuzzCorpus(const std::string& base, uint64_t seed, size_t cases) {
    CheckAllWays(base, "unmutated");
    Rng rng(seed);
    for (size_t i = 0; i < cases && !HasFatalFailure(); ++i) {
      CheckAllWays(testing::MutateCsvBytes(base, &rng),
                   "seed=" + std::to_string(seed) +
                       " case=" + std::to_string(i));
    }
  }

  static std::string Render(const Table& table, size_t max_rows) {
    std::ostringstream out;
    OracleWriteRow(table.schema().attribute_names(), out);
    for (size_t r = 0; r < table.num_rows() && r < max_rows; ++r) {
      std::vector<std::string> row;
      for (size_t a = 0; a < table.num_columns(); ++a) {
        row.push_back(table.CellString(r, static_cast<AttrId>(a)));
      }
      OracleWriteRow(row, out);
    }
    return out.str();
  }

  const std::string file_path_ = testing::TestTempPath("case.csv");
};

TEST_F(CsvFuzz, HospMutationsMatchOracle) {
  HospOptions options;
  options.rows = 40;
  FuzzCorpus(Render(GenerateHosp(options).clean, 40), 0x4051, 120);
}

TEST_F(CsvFuzz, TravelMutationsMatchOracle) {
  const TravelExample example;
  FuzzCorpus(Render(example.dirty, 100), 0x7a, 200);
}

TEST_F(CsvFuzz, UisMutationsMatchOracle) {
  UisOptions options;
  options.rows = 40;
  FuzzCorpus(Render(GenerateUis(options).clean, 40), 0x0715, 120);
}

TEST_F(CsvFuzz, HostileCorpusMatchesOracle) {
  const std::vector<std::string> corpus = {
      "",
      "\n",
      "a",
      "a\n",
      "a,b",
      "a,b\n1,2",
      "a,b\n1,2\n",
      "a,b\r\n1,2\r\n3,4",
      // Quotes in the middle of a field open quoting; text after a
      // closing quote is kept.
      "a,b\nx\"y,z\"w,2\n",
      "a,b\n\"quoted\"tail,2\n",
      "a,b\n\"q\"\"x\"\"\"after,\"\"\n",
      "a,b\nmid\"dle\"\"quote\",2\n",
      // Bare '\r' outside and inside quotes, and CR-only line ends.
      "a,b\n1\r2,3\n",
      "a,b\n\"1\r2\",3\n",
      "a,b\r1,2\r3,4\r",
      "a,b\n1,2\r",
      "a,b\n1,2\r\r\n",
      // Newlines inside quotes.
      "a,b\n\"line1\nline2\",z\n\"x\r\ny\",w\n",
      // Unterminated quotes at EOF.
      "a,b\n1,\"open",
      "a,b\n1,2\n\"open,\n\n3,4\n",
      "\"unterminated header",
      "a,b\n1,\"ends on quote\"",
      "a,b\n1,\"\"",
      "a,b\n1,\"",
      // Ragged rows and empty lines.
      "a,b,c\n1,2\n1,2,3\n1,2,3,4\n\n\n5,6,7\n",
      "a\n\n\n",
      "a,b\n\n1,2\n\r\n",
      // Header problems.
      "a,a\n1,2\n",
      "\"a\",\"a\"\n",
      ",\n1,2\n",
      // Quoting that survives a round trip of hostile content.
      "a,b\n\",\",\"\"\"\"\n\" \",\"\n\"\n",
  };
  for (size_t i = 0; i < corpus.size() && !HasFatalFailure(); ++i) {
    CheckAllWays(corpus[i], "corpus[" + std::to_string(i) + "]");
  }
}

TEST_F(CsvFuzz, RecordsLongerThanTheRefillBlockMatchOracle) {
  // A quoted field of 300 bytes with embedded quotes and newlines,
  // repeated: every tiny block size splits it at a different offset.
  std::string big = "\"";
  for (int i = 0; i < 60; ++i) big += "ab\"\"\n,";
  big += "\"";
  std::string text = "k,v\n";
  for (int r = 0; r < 5; ++r) text += std::to_string(r) + "," + big + "\n";
  text += "tail,\"unterminated " + big;
  CheckAllWays(text, "long records");
}

TEST_F(CsvFuzz, RecordLongerThanDefaultBlockGrowsTheBuffer) {
  // One record larger than CsvChunkReader::kReadBlockBytes forces the
  // production refill to grow past its block size.
  const std::string field(CsvChunkReader::kReadBlockBytes * 2 + 17, 'x');
  const std::string text = "k,v\n1,\"" + field + "\"\n2,short\n";
  std::istringstream in(text);
  VectorQuarantineSink sink;
  const ReadResult got = FromReader(
      CsvChunkReader::Open(in, "fuzz", std::make_shared<ValuePool>()), 1024,
      &sink);
  ExpectSame(OracleRead(text, OnErrorPolicy::kAbort), got, true, "2 MiB");
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}

// Plain records take only the scan: fixrep.csv.records_fallback counts
// exactly the records handed to the general tokenizer, however the bytes
// arrive.
TEST_F(CsvFuzz, OnlyHandedOffRecordsReachTheGeneralTokenizer) {
  const std::string text =
      "a,b\n"
      "1,2\n"        // plain
      "3,4\r\n"      // plain, CRLF
      "\"5\",6\n"    // a quote: handed off
      "7\r8,9\n"     // a bare '\r': handed off
      "1,2,3\n"      // too many fields: handed off
      "\n"           // too few: handed off
      "x,y\n"        // plain
      "last,row";    // no final '\n': handed off
  {
    std::ofstream file(file_path_, std::ios::binary | std::ios::trunc);
    file << text;
  }
  const CsvReadOptions skip{OnErrorPolicy::kSkip, nullptr};
  const std::vector<std::function<StatusOr<Table>()>> reads = {
      [&] {
        return ReadCsvBytesLenient(text, "t", std::make_shared<ValuePool>(),
                                   skip);
      },
      [&] {
        std::istringstream in(text);
        return ReadCsvLenient(in, "t", std::make_shared<ValuePool>(), skip);
      },
      [&] {
        return ReadCsvFileLenient(file_path_, "t",
                                  std::make_shared<ValuePool>(), skip);
      },
      [&] {
        return CsvReaderTestPeer::ReadFile(file_path_, 3,
                                           std::make_shared<ValuePool>(),
                                           skip);
      },
  };
  for (size_t i = 0; i < reads.size(); ++i) {
    SCOPED_TRACE("read " + std::to_string(i));
    const uint64_t before = CounterValue("fixrep.csv.records_fallback");
    const StatusOr<Table> table = reads[i]();
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ(table->num_rows(), 6u);
    EXPECT_EQ(CounterValue("fixrep.csv.records_fallback") - before, 5u);
  }
}

// --- The fused scan's boundaries. Data records are scanned in 64-byte
// windows that start at the first data byte (and again after each record
// handed to the general tokenizer or each refill).

// A data record (arity 2) whose byte `k` starts `special`: ',' '\n' and
// CRLF records are plain, '"' and bare '\r' ones go to the general
// tokenizer, and a '\n' at byte 0 is an empty record of the wrong arity.
std::string RecordWithSpecialAt(const std::string& special, size_t k) {
  const std::string pad(k, 'x');
  if (special == ",") return pad + ",y\n";
  if (special == "\"") return pad + "\"q\",y\n";
  if (special == "\r") return pad + "\r,y\n";
  // "\n" and "\r\n" end the record; its comma comes first.
  return k == 0 ? special : "," + pad.substr(1) + special;
}

TEST_F(CsvFuzz, StructuralBytesAtEveryWindowOffsetMatchOracle) {
  // A 64-byte plain record: the record after it starts the second window.
  const std::string fill = "p," + std::string(61, 'x') + "\n";
  ASSERT_EQ(fill.size(), 64u);
  std::string all = "a,b\n";
  for (const std::string special : {",", "\"", "\r", "\r\n", "\n"}) {
    for (size_t k = 0; k < 64 && !HasFatalFailure(); ++k) {
      const std::string record = RecordWithSpecialAt(special, k);
      const std::string label = "special=" + std::to_string(special[0]) +
                                "/" + std::to_string(special.size()) +
                                " offset=" + std::to_string(k);
      CheckAllWays("a,b\n" + record + "1,2\n3,4", label);
      CheckAllWays("a,b\n" + fill + record + "1,2\n3,4\n",
                   label + " second window");
      all += fill.substr(0, k % 17) + record;
    }
  }
  CheckEveryRefillBlock(all + "5,6", "every offset");
}

TEST_F(CsvFuzz, FieldsOfEveryLengthUpTo70MatchOracle) {
  std::string text = "a,b,c\n";
  for (size_t n = 0; n <= 70; ++n) {
    text += std::string(n, 'f') + "," + std::string(70 - n, 'g') + "," +
            std::to_string(n) + (n % 5 == 0 ? "\r\n" : "\n");
  }
  // The same lengths again with a quoted middle field.
  for (size_t n = 0; n <= 70; n += 7) {
    text += std::string(n, 'f') + ",\"" + std::string(70 - n, 'g') +
            "\"," + std::to_string(n) + "\n";
  }
  CheckAllWays(text, "field lengths");
  CheckEveryRefillBlock(text, "field lengths");
}

TEST_F(CsvFuzz, PayloadsEndingAroundAWindowEdgeMatchOracle) {
  // Data of 64w-1, 64w and 64w+1 bytes after the header, whose final
  // record ends in each terminator or none.
  for (size_t windows = 1; windows <= 3; ++windows) {
    for (const size_t size : {64 * windows - 1, 64 * windows,
                              64 * windows + 1}) {
      for (const std::string end : {"", "\n", "\r", "\r\n"}) {
        std::string data;
        while (size - data.size() >= 32) data += "xxxxxx,yyyyyyyy\n";
        data += "z," + std::string(size - data.size() - 2 - end.size(), 'z') +
                end;
        ASSERT_EQ(data.size(), size);
        CheckAllWays("a,b\n" + data, "data bytes=" + std::to_string(size) +
                                         " end=" +
                                         std::to_string(end.size()));
      }
    }
  }
}

// --- Whole-file ingest.

// Multi-MiB whole-file reads (ReadCsvFileLenient) compared with the
// in-memory read of the same bytes: cells, ValueIds, pool order,
// diagnostics and bytes_parsed must match, into empty and pre-populated
// pools alike (which also drives the pool's intern index through many
// grows).
class FileIngest : public ::testing::Test {
 protected:
  // About 4.5 MiB of hosp rows. Every fifth row carries a hostile field
  // (a quoted '\n', a "" escape, a comma, a CRLF inside quotes) and
  // every seventh ends in CRLF.
  static const std::string& HospText() {
    static const std::string* text = [] {
      HospOptions options;
      options.rows = 21000;
      options.num_hospitals = 700;
      const Table table = GenerateHosp(options).clean;
      static const char* const kHostile[] = {
          "two\nlines", "say \"\"hi\"\"", "a,b", "crlf\r\ninside",
          "\"", "\n", ",\"\n\"\",",
      };
      auto* out = new std::string();
      std::ostringstream rendered;
      OracleWriteRow(table.schema().attribute_names(), rendered);
      for (size_t r = 0; r < table.num_rows(); ++r) {
        std::vector<std::string> row;
        for (size_t a = 0; a < table.num_columns(); ++a) {
          row.push_back(table.CellString(r, static_cast<AttrId>(a)));
        }
        if (r % 5 == 0) {
          row[r % row.size()] = kHostile[(r / 5) % std::size(kHostile)];
        }
        std::ostringstream line;
        OracleWriteRow(row, line);
        std::string bytes = line.str();
        if (r % 7 == 0) bytes.insert(bytes.size() - 1, "\r");
        rendered << bytes;
      }
      *out = rendered.str();
      return out;
    }();
    return *text;
  }

  // A pool holding some of the file's values (every ninth distinct one,
  // in reverse) and some it never mentions.
  static std::shared_ptr<ValuePool> PrepopulatedPool() {
    auto pool = std::make_shared<ValuePool>();
    const StatusOr<Table> table =
        ReadCsvBytesLenient(HospText(), "seed", std::make_shared<ValuePool>());
    const ValuePool& values = table->pool();
    for (size_t id = values.size(); id-- > 0;) {
      if (id % 9 == 0) pool->Intern(values.GetString(static_cast<ValueId>(id)));
      if (id % 97 == 0) pool->Intern("absent " + std::to_string(id));
    }
    return pool;
  }

  struct Read {
    Status status = Status::Ok();
    std::vector<std::vector<ValueId>> ids;
    std::vector<std::string> pool;  // every pool value, in id order
    std::vector<Diagnostic> diagnostics;
    uint64_t bytes_parsed = 0;
  };

  static Read Collect(const std::function<StatusOr<Table>()>& read,
                      const ValuePool& pool, VectorQuarantineSink* sink) {
    Read result;
    const uint64_t parsed = CounterValue("fixrep.csv.bytes_parsed");
    StatusOr<Table> table = read();
    result.bytes_parsed = CounterValue("fixrep.csv.bytes_parsed") - parsed;
    result.diagnostics = sink->diagnostics();
    for (size_t id = 0; id < pool.size(); ++id) {
      result.pool.push_back(pool.GetString(static_cast<ValueId>(id)));
    }
    if (!table.ok()) {
      result.status = table.status();
      return result;
    }
    for (size_t r = 0; r < table->num_rows(); ++r) {
      const TupleRef row = table->row(r);
      result.ids.emplace_back(row.begin(), row.end());
    }
    return result;
  }

  // Writes `text`, reads it whole-file and in memory with the same
  // policy into equal pools, and requires identical results.
  void ExpectSameAsInMemory(const std::string& text,
                                  OnErrorPolicy policy, bool prepopulated) {
    {
      std::ofstream file(path_, std::ios::binary | std::ios::trunc);
      file.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    const auto make_pool = [&] {
      return prepopulated ? PrepopulatedPool() : std::make_shared<ValuePool>();
    };
    const std::shared_ptr<ValuePool> file_pool = make_pool();
    const std::shared_ptr<ValuePool> bytes_pool = make_pool();
    VectorQuarantineSink file_sink;
    VectorQuarantineSink bytes_sink;
    CsvReadOptions file_options{policy, &file_sink};
    CsvReadOptions bytes_options{policy, &bytes_sink};
    const Read got = Collect(
        [&] { return ReadCsvFileLenient(path_, "t", file_pool, file_options); },
        *file_pool, &file_sink);
    const Read want = Collect(
        [&] {
          return ReadCsvBytesLenient(text, "t", bytes_pool, bytes_options);
        },
        *bytes_pool, &bytes_sink);
    SCOPED_TRACE(std::string("policy=") + OnErrorPolicyName(policy) +
                 (prepopulated ? " prepopulated" : " empty pool"));
    ExpectSameRead(want, got);
  }

  static void ExpectSameRead(const Read& want, const Read& got) {
    EXPECT_EQ(want.status.code(), got.status.code());
    EXPECT_EQ(want.status.message(), got.status.message());
    EXPECT_TRUE(want.ids == got.ids) << "cell ids differ";
    EXPECT_TRUE(want.pool == got.pool) << "pool contents or order differ";
    EXPECT_EQ(want.bytes_parsed, got.bytes_parsed);
    EXPECT_EQ(want.diagnostics.size(), got.diagnostics.size());
    for (size_t i = 0;
         i < std::min(want.diagnostics.size(), got.diagnostics.size()); ++i) {
      EXPECT_EQ(want.diagnostics[i].line, got.diagnostics[i].line);
      EXPECT_EQ(want.diagnostics[i].message, got.diagnostics[i].message);
      EXPECT_EQ(want.diagnostics[i].raw_text, got.diagnostics[i].raw_text);
    }
  }

  const std::string path_ = testing::TestTempPath("file_ingest.csv");
};

TEST_F(FileIngest, HeaderOnlyFileReadsNoRows) {
  for (const std::string text : {"a,b", "a,b\n", "a,b\r\n"}) {
    {
      std::ofstream file(path_, std::ios::binary | std::ios::trunc);
      file << text;
    }
    StatusOr<Table> table =
        ReadCsvFileLenient(path_, "t", std::make_shared<ValuePool>());
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ(table->schema().arity(), 2u);
    EXPECT_EQ(table->num_rows(), 0u);
  }
}

TEST_F(FileIngest, MatchesInMemoryReadIntoEmptyAndPrepopulatedPools) {
  ASSERT_GE(HospText().size(), 4 * CsvChunkReader::kReadBlockBytes);
  for (const bool prepopulated : {false, true}) {
    ExpectSameAsInMemory(HospText(), OnErrorPolicy::kAbort, prepopulated);
  }
}

TEST_F(FileIngest, ArityErrorNearTheEndAbortsAtTheSameRow) {
  std::string text = HospText();
  // A short record a few rows before the end, then an unterminated quote.
  size_t at = text.size() - 1;
  for (int lines = 0; lines < 4; ++lines) at = text.rfind('\n', at - 1);
  text.insert(at + 1, "only,three,fields\n");
  for (const OnErrorPolicy policy :
       {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
        OnErrorPolicy::kQuarantine}) {
    ExpectSameAsInMemory(text, policy, false);
    ExpectSameAsInMemory(text + "x,\"open", policy, true);
  }
}

TEST_F(FileIngest, MalformedRecordsThroughoutKeepDiagnostics) {
  std::string text = HospText();
  for (size_t at = text.size() / 5; at < text.size();
       at += text.size() / 5) {
    const size_t line = text.find("\nPN", at);
    if (line == std::string::npos) break;
    text.insert(line + 1, ",\n\n");
  }
  for (const OnErrorPolicy policy :
       {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
        OnErrorPolicy::kQuarantine}) {
    ExpectSameAsInMemory(text, policy, policy == OnErrorPolicy::kSkip);
  }
}

TEST_F(FileIngest, FaultSiteIsHitOncePerRecord) {
  if (!kFaultInjectionEnabled) GTEST_SKIP() << "needs fault injection";
  FaultPlan never;
  never.skip_hits = UINT64_MAX;
  FaultRegistry::Global().Arm("csv.append_row", never);
  ExpectSameAsInMemory(HospText(), OnErrorPolicy::kAbort, false);
  const uint64_t hits = FaultRegistry::Global().HitCount("csv.append_row");
  FaultRegistry::Global().DisarmAll();
  // Both reads evaluated the site once per record.
  EXPECT_EQ(hits, 2u * 21000u);
}

// Refill blocks of every size from 1 to 80 bytes, and a few around the
// production block: every record, quoted newline, "" escape and CRLF of
// the text lands across some refill boundary, and a record longer than
// the block forces the buffer to grow.
TEST_F(FileIngest, RecordsStraddlingEveryRefillBoundaryMatchInMemoryRead) {
  std::string text = "id,note,city\n";
  static const char* const kNotes[] = {
      "plain", "\"two\nlines\"", "\"say \"\"hi\"\"\"", "\"a,b\"",
      "\"crlf\r\ninside\"", "\"\"", "tail\r",
  };
  for (int r = 0; r < 60; ++r) {
    text += std::to_string(r) + "," + kNotes[r % std::size(kNotes)] + ",c" +
            std::to_string(r % 4) + (r % 3 == 0 ? "\r\n" : "\n");
    if (r == 17) text += "short,record\n";
    if (r == 31) text += "7,\"" + std::string(300, 'x') + "\n\",long\n";
  }
  for (const std::string& input : {text, text + "9,\"open,end"}) {
    {
      std::ofstream file(path_, std::ios::binary | std::ios::trunc);
      file.write(input.data(), static_cast<std::streamsize>(input.size()));
    }
    std::vector<size_t> blocks;
    for (size_t block = 1; block <= 80; ++block) blocks.push_back(block);
    blocks.push_back(input.size() - 1);
    blocks.push_back(input.size());
    blocks.push_back(CsvChunkReader::kReadBlockBytes);
    for (const OnErrorPolicy policy :
         {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
          OnErrorPolicy::kQuarantine}) {
      auto bytes_pool = std::make_shared<ValuePool>();
      VectorQuarantineSink bytes_sink;
      const Read want = Collect(
          [&] {
            return ReadCsvBytesLenient(input, "fuzz", bytes_pool,
                                       CsvReadOptions{policy, &bytes_sink});
          },
          *bytes_pool, &bytes_sink);
      for (const size_t block : blocks) {
        SCOPED_TRACE(std::string("policy=") + OnErrorPolicyName(policy) +
                     " block=" + std::to_string(block) +
                     " bytes=" + std::to_string(input.size()));
        auto file_pool = std::make_shared<ValuePool>();
        VectorQuarantineSink file_sink;
        const Read got = Collect(
            [&] {
              return CsvReaderTestPeer::ReadFile(
                  path_, block, file_pool, CsvReadOptions{policy, &file_sink});
            },
            *file_pool, &file_sink);
        ExpectSameRead(want, got);
        if (HasFailure()) return;
      }
    }
  }
}

// Where one chunk of a read lies: its kept rows, its input offset and
// its size in bytes.
struct ChunkEnd {
  size_t rows = 0;
  uint64_t offset = 0;
  size_t bytes = 0;
};

// Reads `text` from a stream through refill blocks of `block` bytes in
// chunks of at most `max_rows` rows, recording spans as a stream repair
// does (so every chunk is kept and ends within the keep bound), and
// writes each chunk through WriteCsvChunk after the header into *out.
std::vector<ChunkEnd> ReadChunkEnds(const std::string& text, size_t block,
                                    OnErrorPolicy policy, size_t max_rows,
                                    std::string* out) {
  std::istringstream in(text);
  VectorQuarantineSink sink;
  StatusOr<CsvChunkReader> reader = CsvReaderTestPeer::Open(
      in, block, std::make_shared<ValuePool>(), {policy, &sink});
  EXPECT_TRUE(reader.ok()) << reader.status();
  if (!reader.ok()) return {};
  std::ostringstream rendered;
  WriteCsvHeader(*reader->schema(), rendered);
  std::vector<ChunkEnd> ends;
  Table chunk = reader->MakeChunkTable();
  CsvRecordSpans spans;
  while (true) {
    chunk.Clear();
    reader->RecordSpansInto(&spans);
    const size_t records_before = reader->records_read();
    const StatusOr<size_t> read = reader->ReadChunk(&chunk, max_rows);
    EXPECT_TRUE(read.ok()) << read.status();
    if (!read.ok() || (read.value() == 0 && reader->at_end())) break;
    const std::string_view bytes = reader->chunk_bytes();
    EXPECT_EQ(bytes, std::string_view(text).substr(reader->chunk_offset(),
                                                   bytes.size()));
    // Past the bound only a chunk of one record, which always fits.
    if (bytes.size() > CsvChunkReader::kKeepBytes) {
      EXPECT_EQ(reader->records_read() - records_before, 1u)
          << "chunk at " << reader->chunk_offset();
    }
    ends.push_back({read.value(), reader->chunk_offset(), bytes.size()});
    spans.header = {reader->chunk_offset(), reader->chunk_offset(), true};
    const StatusOr<CsvChunkEmit> written =
        WriteCsvChunk(bytes, spans, chunk, {}, rendered);
    EXPECT_TRUE(written.ok()) << written.status();
  }
  reader->RecordSpansInto(nullptr);
  *out = rendered.str();
  return ends;
}

// Byte-bounded chunks end at the same records however the input arrives:
// refill blocks of every size from 1 to 80 bytes and the production
// block cut a mutated 2.5 MB input (short records, a record longer than
// the keep bound, hostile quoting) into the same chunks under skip and
// quarantine, and every read splices to the whole-table rendering.
TEST_F(FileIngest, ByteBoundedChunksEndAtTheSameRecordsAtEveryRefillBlock) {
  const std::string& hosp = HospText();
  std::string text = hosp.substr(0, hosp.find("\nPN", 2400000) + 1);
  for (size_t at = text.size() / 7; at < text.size(); at += text.size() / 7) {
    const size_t line = text.find("\nPN", at);
    if (line == std::string::npos) break;
    text.insert(line + 1, ",\nshort,record\n");
  }
  {
    const size_t line = text.find("\nPN", text.size() / 2);
    const std::string huge =
        "\"" + std::string(CsvChunkReader::kKeepBytes, 'h') + "\"\n";
    text.insert(line + 1, huge);
  }
  ASSERT_GT(text.size(), 3 * CsvChunkReader::kKeepBytes);
  for (const OnErrorPolicy policy :
       {OnErrorPolicy::kSkip, OnErrorPolicy::kQuarantine}) {
    std::string want_csv;
    {
      StatusOr<Table> table = ReadCsvBytesLenient(
          text, "fuzz", std::make_shared<ValuePool>(), {policy, nullptr});
      ASSERT_TRUE(table.ok()) << table.status();
      std::ostringstream rendered;
      WriteCsv(table.value(), rendered);
      want_csv = rendered.str();
    }
    for (const size_t max_rows : {size_t{4096}, ~size_t{0}}) {
      std::string got_csv;
      const std::vector<ChunkEnd> want = ReadChunkEnds(
          text, CsvChunkReader::kReadBlockBytes, policy, max_rows, &got_csv);
      ASSERT_GE(want.size(), 4u);
      ASSERT_EQ(got_csv, want_csv);
      for (size_t block = 1; block <= 80; ++block) {
        SCOPED_TRACE(std::string("policy=") + OnErrorPolicyName(policy) +
                     " max_rows=" + std::to_string(max_rows) +
                     " block=" + std::to_string(block));
        const std::vector<ChunkEnd> got =
            ReadChunkEnds(text, block, policy, max_rows, &got_csv);
        ASSERT_EQ(got.size(), want.size());
        for (size_t c = 0; c < got.size(); ++c) {
          EXPECT_EQ(got[c].rows, want[c].rows) << "chunk " << c;
          EXPECT_EQ(got[c].offset, want[c].offset) << "chunk " << c;
          EXPECT_EQ(got[c].bytes, want[c].bytes) << "chunk " << c;
        }
        ASSERT_EQ(got_csv, want_csv);
      }
    }
  }
}

TEST_F(FileIngest, OpenReadFaultFailsTheFileReadOnly) {
  if (!kFaultInjectionEnabled) GTEST_SKIP() << "needs fault injection";
  const std::string text = "a,b\n1,2\n";
  {
    std::ofstream file(path_, std::ios::binary | std::ios::trunc);
    file << text;
  }
  FaultRegistry::Global().Arm("csv.open_read", FaultPlan{});
  const uint64_t parsed = CounterValue("fixrep.csv.bytes_parsed");
  const StatusOr<Table> failed =
      ReadCsvFileLenient(path_, "t", std::make_shared<ValuePool>());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(CounterValue("fixrep.csv.bytes_parsed"), parsed);
  // The in-memory read never opens a file, so it neither hits the site
  // nor fails while it is armed.
  const StatusOr<Table> in_memory =
      ReadCsvBytesLenient(text, "t", std::make_shared<ValuePool>());
  EXPECT_TRUE(in_memory.ok());
  EXPECT_EQ(FaultRegistry::Global().HitCount("csv.open_read"), 1u);
  FaultRegistry::Global().DisarmAll();
  const StatusOr<Table> read =
      ReadCsvFileLenient(path_, "t", std::make_shared<ValuePool>());
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->num_rows(), 1u);
}

}  // namespace
}  // namespace fixrep
