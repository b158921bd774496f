#ifndef FIXREP_RELATION_CSV_H_
#define FIXREP_RELATION_CSV_H_

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/quarantine.h"
#include "common/status.h"
#include "relation/table.h"

namespace fixrep {

class AtomicFile;

// Minimal RFC-4180-style CSV: comma-separated, '"'-quoted fields with ""
// escapes; the first record is the header and becomes the schema.
//
// Two tiers of entry points:
//  * ReadCsv / ReadCsvFile / WriteCsvFile CHECK-fail on malformed input
//    or IO failure — for trusted, developer-controlled artifacts.
//  * The *Lenient / Try* variants return Status and, per
//    CsvReadOptions::on_error, can skip or quarantine malformed data
//    records (arity mismatch, unterminated quote at EOF) instead of
//    failing the whole read. Header problems (empty input, unterminated
//    quote, duplicate column names) are always fatal: without a schema
//    there is nothing to salvage. Unquoted whitespace is preserved
//    verbatim either way.
//
// For out-of-core ingestion, CsvChunkReader parses the same format
// incrementally: open once (header -> schema), then pull fixed-size row
// chunks — the input side of the streaming repair pipeline
// (repair/streaming.h, docs/storage.md).
//
// The exact dialect (mid-field quotes, text after a closing quote, bare
// '\r', quarantine raw_text) is pinned in docs/formats.md and by the
// differential fuzzer in tests/csv_fuzz_test.cc.

struct CsvReadOptions {
  OnErrorPolicy on_error = OnErrorPolicy::kAbort;
  // Receives a Diagnostic per dropped record when on_error is
  // kQuarantine. Diagnostic::line is the 0-based data-record ordinal
  // (header excluded), matching the row index a clean read would give
  // the record; raw_text preserves the record verbatim.
  QuarantineSink* quarantine = nullptr;
};

// Where one record lies in the input: [begin, end) includes its
// terminator. A record is verbatim when every field took the tokenizer's
// fast path (no '"', no bare '\r') and it ends in a bare '\n': exactly
// then, emitting its fields unchanged gives back its bytes.
struct CsvRecordSpan {
  uint64_t begin = 0;
  uint64_t end = 0;
  bool verbatim = false;
};

// The record layout of a read (CsvChunkReader::RecordSpansInto): the
// header's span, one span per kept record in row order, and the count of
// records dropped under kSkip or kQuarantine (their bytes are the gaps
// between kept spans).
struct CsvRecordSpans {
  CsvRecordSpan header;
  std::vector<CsvRecordSpan> rows;
  size_t dropped = 0;
};

// Incremental CSV reader: parses the header eagerly at Open, then hands
// out data records in chunks of at most `max_rows`, applying the same
// lenient error policy as ReadCsvLenient. Record ordinals (and thus
// quarantine Diagnostic::line values) are global across chunks, so a
// chunked read of a file is indistinguishable from a whole-file read.
//
// The reader tokenizes contiguous bytes: a stream or a file is pulled
// through one refill buffer of kReadBlockBytes (grown only to hold a
// record longer than half of it, or a kept chunk), an in-memory payload
// is read in place. While it records spans (RecordSpansInto), a refilled
// read keeps the bytes of the chunk being read, not just its pending
// record, and ends each chunk within kKeepBytes of input, so a writer
// can copy its unchanged records (chunk_bytes). Kept chunks alternate
// between two buffers, so a chunk's bytes outlive the read of the next
// one: a writer can splice chunk k while chunk k+1 is read.
// Data records are read by one fused scan: a 64-byte window at a time,
// it finds the structural bytes (',' '"' '\r' '\n') and resolves each
// plain field in the pool straight from its view into those bytes. The
// scan hands the records it cannot take (a '"' or a bare '\r', a wrong
// arity, a final record with no '\n') to the record-at-a-time tokenizer,
// which unescapes fields through scratch storage.
class CsvChunkReader {
 public:
  // Small enough to stay in cache while the tokenizer walks it. On 20K
  // hosp rows, blocks of 64 KiB to 1 MiB read within 1.5 ms of each
  // other, and 256 KiB was the fastest.
  static constexpr size_t kReadBlockBytes = size_t{256} << 10;
  // The most input bytes of a kept chunk of more than one record. A
  // 4096-row hosp chunk is about 0.9 MB; on 20K hosp rows 1 MiB chunks
  // took less CPU than 2 MiB ones, whose buffer faults in more pages.
  static constexpr size_t kKeepBytes = 4 * kReadBlockBytes;

  // Reads and validates the header. Header problems are fatal (same
  // policy as ReadCsvLenient). The stream must outlive the reader, which
  // reads ahead of the records it has handed out, straight from the
  // stream's buffer: a stream tied to `in` is never flushed.
  static StatusOr<CsvChunkReader> Open(std::istream& in,
                                       const std::string& relation_name,
                                       std::shared_ptr<ValuePool> pool,
                                       const CsvReadOptions& options = {});
  // The same over an in-memory payload, tokenized in place with no copy.
  // `bytes` must outlive the reader.
  static StatusOr<CsvChunkReader> OpenBytes(std::string_view bytes,
                                            const std::string& relation_name,
                                            std::shared_ptr<ValuePool> pool,
                                            const CsvReadOptions& options = {});

  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const std::shared_ptr<ValuePool>& pool() const { return pool_; }

  // An empty table bound to the reader's schema and pool, for use as the
  // chunk buffer (Clear() it between chunks to reuse the allocation).
  Table MakeChunkTable() const { return Table(schema_, pool_); }

  // Appends up to `max_rows` data records to *chunk (which must use the
  // reader's schema) and returns the number appended; a kept chunk also
  // ends before a record past kKeepBytes (Fits), so chunks end where
  // record lengths and `max_rows` say, however the input arrives.
  // Malformed records follow the open options: kAbort returns their
  // error, kSkip/kQuarantine drop them (they count toward the record
  // ordinal but not toward the returned row count), so a chunk may
  // return 0 before the end of input, which at_end() tells.
  StatusOr<size_t> ReadChunk(Table* chunk, size_t max_rows);

  bool at_end() const { return at_end_; }
  // Data records consumed so far, including dropped ones.
  size_t records_read() const { return record_; }
  // The current quarantine sink (may be null). Streaming WAL journaling
  // swaps a capture sink in around a ReadChunk to see exactly the
  // diagnostics one chunk produced; error policy and record ordinals
  // are unaffected by the swap.
  QuarantineSink* quarantine() const { return options_.quarantine; }
  QuarantineSink* SwapQuarantine(QuarantineSink* sink) {
    QuarantineSink* previous = options_.quarantine;
    options_.quarantine = sink;
    return previous;
  }
  // Resolves data fields through *overlay instead of interning them, for
  // a pool other threads read (relation/value_pool.h ValueOverlay; null
  // goes back to interning). Only the resolve step changes: tokenizing,
  // error policy and diagnostics are the same either way.
  void ResolveThrough(ValueOverlay* overlay) { overlay_ = overlay; }
  // Records the header's span into *spans (keeping its rows' capacity)
  // and, from here on, a span per record ReadChunk keeps and a count of
  // the records it drops (null stops recording). Spans are for splicing
  // over bytes in memory, so a refilled read that records them keeps
  // each chunk's bytes.
  void RecordSpansInto(CsvRecordSpans* spans);
  // The input bytes of every record (kept or dropped) the last ReadChunk
  // consumed: always for an in-memory payload, for a stream or file when
  // that read recorded spans, and empty otherwise. Valid until the read
  // after the next one starts (for a payload, as long as the payload);
  // the first byte is at input offset chunk_offset().
  std::string_view chunk_bytes() const {
    if (refilled() && !keeping_) return {};
    return {data() + chunk_begin_,
            static_cast<size_t>(consumed_ - chunk_offset_)};
  }
  uint64_t chunk_offset() const { return chunk_offset_; }
  // Input bytes consumed by the records read so far (header included),
  // for input-progress reporting.
  uint64_t bytes_read() const { return consumed_; }

 private:
  friend struct CsvReaderTestPeer;  // tiny refill blocks for the fuzzer

  enum class Tokenized { kRecord, kNeedMore, kEnd };
  enum class FieldEnd { kComma, kRecord, kNeedMore };
  // Why a read stopped: max_rows reached or a kAbort problem (kDone), a
  // record for the general tokenizer, a record past the buffered bytes,
  // a record past the kept chunk's bound (Fits), or the end of input.
  enum class Scan { kDone, kHandOff, kNeedMore, kFull, kEnd };

  friend StatusOr<Table> ReadCsvFileLenient(const std::string& path,
                                            const std::string& relation_name,
                                            std::shared_ptr<ValuePool> pool,
                                            const CsvReadOptions& options);

  // Exactly one source: a stream (`in`), a file descriptor (`fd` >= 0,
  // read with read(2) and not owned) or an in-memory payload.
  CsvChunkReader(std::istream* in, int fd, std::string_view bytes,
                 const CsvReadOptions& options, size_t block_bytes);

  static StatusOr<CsvChunkReader> OpenImpl(CsvChunkReader reader,
                                           const std::string& relation_name,
                                           std::shared_ptr<ValuePool> pool);
  // ReadCsvFileLenient with a chosen refill block size.
  static StatusOr<Table> ReadFile(const std::string& path,
                                  const std::string& relation_name,
                                  std::shared_ptr<ValuePool> pool,
                                  const CsvReadOptions& options,
                                  size_t block_bytes);

  // The fused scan: appends plain records from pos_ until it has to
  // stop (Scan), leaving pos_ at the first record it did not take.
  Scan ScanPlainRecords(Table* chunk, size_t max_rows, size_t* appended,
                        Status* problem);
  // Reads the record at pos_ through Tokenize (a scan hand-off): kFull
  // leaves it unread, kDone settles it (*problem as in Settle).
  Scan ReadGeneralRecord(Table* chunk, size_t* appended, Status* problem);
  // Whether the record at input offsets [begin, end) belongs to the
  // chunk being read: its first record always does, any record of a
  // chunk that is not kept does, and others end within kKeepBytes.
  bool Fits(uint64_t begin, uint64_t end) const {
    return !keeping_ || begin == chunk_offset_ ||
           end - chunk_offset_ <= kKeepBytes;
  }
  // Field `attr` of the record being read: a value `pool` holds gets its
  // id in row_ now; a new value waits in deferred_ for Settle, so a
  // dropped record leaves the pool untouched.
  void Resolve(const ValuePool& pool, size_t attr, std::string_view field) {
    const ValueId id = pool.Find(field);
    row_[attr] = id;
    if (id == kNullValue) deferred_.emplace_back(attr, field);
  }
  // Keeps the record just consumed (every field Resolved) when `problem`
  // is ok and the csv.append_row fault site stays quiet, and drops it
  // otherwise under the error policy. Non-ok only under kAbort.
  Status Settle(Status problem, Table* chunk, size_t* appended);

  bool refilled() const { return in_ != nullptr || fd_ >= 0; }
  const char* data() const {
    return refilled() ? buffer_.get() : bytes_.data();
  }
  // Tokenizes the next record into fields_, refilling as needed; false
  // at end of input.
  bool NextRecord();
  Tokenized Tokenize();
  FieldEnd UnescapeField(const char* p, const char* end, const char** next);
  // Moves what must stay (the kept chunk, or the pending record) to the
  // buffer's front, growing the buffer to fit it, and reads more input
  // after it.
  void Refill();
  // Carries the unconsumed bytes [pos_, end_) over to the front of the
  // other buffer and reads on there, so the kept chunk read last stays
  // where chunk_bytes() showed it.
  void SwitchBuffers();
  // Reads up to `n` bytes from the stream or fd into `out`; fewer only at
  // the end of input (a read error counts as the end).
  size_t ReadInput(char* out, size_t n);
  // The consumed record's text, terminator excluded.
  std::string_view RecordText() const {
    return std::string_view(data() + record_begin_, record_size_);
  }

  std::istream* in_;          // the stream source, or null
  int fd_;                    // the file source, or -1
  std::string_view bytes_;    // the in-memory payload
  // Refill buffer (stream and file input), never zero-filled; malloc'd,
  // so it grows with realloc.
  struct FreeBytes {
    void operator()(char* p) const { std::free(p); }
  };
  std::unique_ptr<char, FreeBytes> buffer_;
  size_t buffer_size_ = 0;
  // The other buffer: the previous kept chunk's (SwitchBuffers).
  std::unique_ptr<char, FreeBytes> spare_;
  size_t spare_size_ = 0;
  size_t block_bytes_;
  size_t pos_ = 0;            // first unconsumed byte of data()
  size_t end_ = 0;            // end of the bytes available in data()
  bool input_done_ = false;   // nothing left past end_
  uint64_t consumed_ = 0;
  // The chunk ReadChunk is reading: whether a refill keeps its bytes,
  // from data() offset chunk_begin_, input offset chunk_offset_.
  bool keeping_ = false;
  size_t chunk_begin_ = 0;
  uint64_t chunk_offset_ = 0;
  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<ValuePool> pool_;
  CsvReadOptions options_;
  ValueOverlay* overlay_ = nullptr;
  size_t record_ = 0;
  bool at_end_ = false;
  // The record being assembled: a cell per attribute, and the fields
  // Resolve left for Settle (attribute, view into data() or unescaped_).
  std::vector<ValueId> row_;
  std::vector<std::pair<size_t, std::string_view>> deferred_;
  // General-tokenizer scratch, reused across the whole read: field views
  // into data() or into unescaped_ (a deque, so growing it moves no
  // string a view points into), and the last record's span.
  std::vector<std::string_view> fields_;
  std::deque<std::string> unescaped_;
  size_t unescaped_used_ = 0;
  bool unterminated_ = false;
  size_t record_begin_ = 0;
  size_t record_size_ = 0;
  // The last record's offset in the whole input and whether it is
  // verbatim (CsvRecordSpan), and the header's span.
  uint64_t record_offset_ = 0;
  bool verbatim_ = false;
  CsvRecordSpan header_span_;
  CsvRecordSpans* spans_ = nullptr;
};

// Reads a table from a stream. `relation_name` names the schema. Every
// dropped record ticks fixrep.quarantine.rows (kSkip and kQuarantine).
StatusOr<Table> ReadCsvLenient(std::istream& in,
                               const std::string& relation_name,
                               std::shared_ptr<ValuePool> pool,
                               const CsvReadOptions& options = {});

// Reads a table from an in-memory CSV payload, tokenized in place.
StatusOr<Table> ReadCsvBytesLenient(std::string_view bytes,
                                    const std::string& relation_name,
                                    std::shared_ptr<ValuePool> pool,
                                    const CsvReadOptions& options = {});

// ReadCsvBytesLenient for a pool other threads read concurrently: the
// caller holds only read access to `pool`, and data fields are resolved
// through `overlay` (built over that pool) instead of interned. Cells of
// values the pool lacked hold provisional ids until the caller commits
// the overlay under exclusive access and calls Table::ApplyOverlay. A
// non-null `spans` receives the read's record layout (CsvRecordSpans).
StatusOr<Table> ReadCsvBytesResolved(std::string_view bytes,
                                     const std::string& relation_name,
                                     std::shared_ptr<ValuePool> pool,
                                     ValueOverlay* overlay,
                                     const CsvReadOptions& options = {},
                                     CsvRecordSpans* spans = nullptr);

// Reads a table from a file path through the reader's refill buffer with
// read(2), so a concurrently truncated file reads short instead of
// faulting (as mmap would), and one that grows or is a pipe is read to
// EOF. Memory is the buffer plus the table, not the file size. Pre-sizes
// the row store from the file size.
StatusOr<Table> ReadCsvFileLenient(const std::string& path,
                                   const std::string& relation_name,
                                   std::shared_ptr<ValuePool> pool,
                                   const CsvReadOptions& options = {});

// Writes header + rows; fields containing comma/quote/newline are quoted.
// Every writer renders into one reused byte buffer and hands it to the
// stream with ostream::write in blocks of about 128 KiB.
void WriteCsv(const Table& table, std::ostream& out);

// WriteCsv rendered straight onto the end of *out, with no stream.
void AppendCsv(const Table& table, std::string* out);

// One replacement in a CsvSplice: input bytes [begin, begin + erase)
// give way to the next `insert` bytes of CsvSplice::inserts.
struct CsvEdit {
  uint64_t begin = 0;
  uint64_t erase = 0;
  uint64_t insert = 0;
  bool operator==(const CsvEdit&) const = default;
};

// An output expressed against the input it was read from: the input
// with ordered, non-overlapping byte ranges replaced. `inserts` holds
// every edit's replacement, concatenated in edit order, and
// `output_size` the size of the result.
struct CsvSplice {
  uint64_t output_size = 0;
  std::vector<CsvEdit> edits;
  std::string inserts;
  bool operator==(const CsvSplice&) const = default;
};

// AppendCsv of `repaired` as a splice over `input`, which it was read
// from with layout `spans` before a repair rewrote cells in place and
// recorded every write in `log` (rows ascending). `input` starts at
// input offset spans.header.begin: 0 for a whole read, a chunk's offset
// (with an empty header span) for one chunk. Only the rows the log
// names and records that are not verbatim are rendered; dropped records
// become deletions. Edits closer than sizeof(CsvEdit) bytes are merged (the
// verbatim rows between them rendered too), so a splice never spends
// more on an edit than the unchanged bytes it skips. Ticks
// fixrep.csv.bytes_emitted by inserts.size().
CsvSplice SpliceCsv(std::string_view input, const CsvRecordSpans& spans,
                    const Table& repaired, const std::vector<CellRepair>& log);

// Ok when `splice` fits `input`. kMalformedInput when the edits are
// unordered, overlap, reach past `input` or overflow, when their insert
// sizes do not add up to inserts.size(), or when the result would not be
// output_size bytes — the splice may come off the wire.
Status CheckCsvSplice(std::string_view input, const CsvSplice& splice);

// Writes `input` with `splice` applied to *out (replacing its contents),
// after CheckCsvSplice; on an error *out is untouched.
Status ApplyCsvSplice(std::string_view input, const CsvSplice& splice,
                      std::string* out);

// Where CSV output goes: a std::ostream, or an AtomicFile that takes
// runs of bytes already in memory as gathered writes (AtomicFile::Append,
// up to IOV_MAX pieces per writev) after what its stream() holds.
// Converts implicitly from either, so a caller passes what it writes to.
class CsvOutput {
 public:
  CsvOutput(std::ostream& out) : stream_(&out) {}  // NOLINT(runtime/explicit)
  CsvOutput(AtomicFile* file);                     // NOLINT(runtime/explicit)

  // For rendered CSV.
  std::ostream& stream() const { return *stream_; }
  // Writes `pieces` in order: one writev per IOV_MAX pieces to an
  // AtomicFile, one ostream::write each to a stream. kIoError when the
  // output takes them short.
  Status Write(std::span<const std::string_view> pieces) const;

 private:
  std::ostream* stream_;
  AtomicFile* file_ = nullptr;
};

// Appends `input` with `splice` applied to `out` as pieces: the input
// ranges between edits and the replacement bytes, after CheckCsvSplice,
// so the spliced output is never built in memory. Ticks
// fixrep.csv.bytes_copied by the input bytes written.
Status WriteCsvSplice(std::string_view input, const CsvSplice& splice,
                      CsvOutput out);

// What WriteCsvChunk wrote: bytes copied from the input, rows rendered.
struct CsvChunkEmit {
  uint64_t bytes_copied = 0;
  size_t rows_rendered = 0;
};

// Writes the rows of `chunk` (no header) to `out`, after a repair
// rewrote cells in place and recorded every write in `log` (chunk rows,
// ascending). `input` holds the bytes the chunk was read from
// (CsvChunkReader::chunk_bytes) and `spans` their layout, with
// spans.header an empty span at the chunk's input offset. The rows go
// out as WriteCsvSplice of SpliceCsv: unchanged verbatim records are
// copied from `input` and only the rows `log` names and records that
// are not verbatim are rendered, so the bytes are those WriteCsv
// renders for the chunk's rows.
StatusOr<CsvChunkEmit> WriteCsvChunk(std::string_view input,
                                     const CsvRecordSpans& spans,
                                     const Table& chunk,
                                     const std::vector<CellRepair>& log,
                                     CsvOutput out);

// The header line of WriteCsv alone; a stream follows it with each
// chunk's WriteCsvChunk.
void WriteCsvHeader(const Schema& schema, std::ostream& out);

// Writes, flushes, and verifies the stream so short writes (disk full,
// revoked mount) surface as kIoError instead of silently truncating.
Status TryWriteCsvFile(const Table& table, const std::string& path);

// CHECK-ing wrappers over the lenient/Try variants above.
Table ReadCsv(std::istream& in, const std::string& relation_name,
              std::shared_ptr<ValuePool> pool);
Table ReadCsvFile(const std::string& path, const std::string& relation_name,
                  std::shared_ptr<ValuePool> pool);
void WriteCsvFile(const Table& table, const std::string& path);

}  // namespace fixrep

#endif  // FIXREP_RELATION_CSV_H_
