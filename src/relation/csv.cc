#include "relation/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace fixrep {

namespace {

// The emit block. On 20K hosp rows 128 KiB and 1 MiB measured the same
// in cli.write, and the smaller block touches 200 fewer pages per run.
constexpr size_t kEmitBlockBytes = size_t{128} << 10;

// A quarantined record's raw_text: its bytes with every '\r' and '\n'
// outside quotes dropped. Toggling on each '"' tracks the quote state
// exactly, since an escaped "" inside quotes toggles out and straight
// back in.
std::string RawRecordText(std::string_view record) {
  std::string raw;
  bool in_quotes = false;
  for (const char ch : record) {
    if (ch == '"') {
      in_quotes = !in_quotes;
    } else if (!in_quotes && (ch == '\n' || ch == '\r')) {
      continue;
    }
    raw.push_back(ch);
  }
  return raw;
}

void TickCounter(const char* name, uint64_t n) {
  if (n > 0) CurrentMetrics().GetCounter(name)->Add(n);
}

#if defined(__SSE2__)
// Bit i set when byte i of the 64 at `p` is one of ',' '"' '\r' '\n':
// four compares and a movemask per 16 bytes (SSE2 is baseline on
// x86-64).
uint64_t StructuralMask(const char* p) {
  const __m128i comma = _mm_set1_epi8(',');
  const __m128i quote = _mm_set1_epi8('"');
  const __m128i cr = _mm_set1_epi8('\r');
  const __m128i lf = _mm_set1_epi8('\n');
  uint64_t mask = 0;
  for (int i = 0; i < 4; ++i) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * i));
    const __m128i hit =
        _mm_or_si128(_mm_or_si128(_mm_cmpeq_epi8(v, comma),
                                  _mm_cmpeq_epi8(v, quote)),
                     _mm_or_si128(_mm_cmpeq_epi8(v, cr),
                                  _mm_cmpeq_epi8(v, lf)));
    mask |= uint64_t{static_cast<uint32_t>(_mm_movemask_epi8(hit))}
            << (16 * i);
  }
  return mask;
}

// Hands out the structural bytes of [p, end) in order, walking the set
// bits of one 64-byte window mask at a time. Windows start at `p`; the
// last, partial one is copied into a zeroed block first, so no load
// reaches past `end`.
class StructuralScanner {
 public:
  StructuralScanner(const char* p, const char* end)
      : base_(p), size_(static_cast<size_t>(end - p)), mask_(Window(0)) {}

  // The next structural byte, or `end` when none is left.
  const char* Next() {
    while (mask_ == 0) {
      at_ += 64;
      if (at_ >= size_) return base_ + size_;
      mask_ = Window(at_);
    }
    const size_t i = at_ + static_cast<size_t>(std::countr_zero(mask_));
    mask_ &= mask_ - 1;
    return base_ + i;
  }

 private:
  uint64_t Window(size_t at) const {
    if (size_ - at >= 64) return StructuralMask(base_ + at);
    char tail[64] = {};
    if (at < size_) std::memcpy(tail, base_ + at, size_ - at);
    return StructuralMask(tail);
  }

  const char* base_;
  size_t size_;
  size_t at_ = 0;  // start of the current window
  uint64_t mask_;  // its structural bytes not handed out yet
};
#else
// Without SSE2 the scan finds structural bytes with FindCsvSpecial.
class StructuralScanner {
 public:
  StructuralScanner(const char* p, const char* end) : p_(p), end_(end) {}

  const char* Next() {
    const char* const q = FindCsvSpecial(p_, end_);
    p_ = q == end_ ? q : q + 1;
    return q;
  }

 private:
  const char* p_;
  const char* end_;
};
#endif

// Renders CSV into one reused block buffer and hands each full block on
// with a single ostream::write (or string append), so output costs one
// bounds check and one memcpy per field. Ticks fixrep.csv.bytes_emitted
// once, when it goes out of scope.
class CsvEmitter {
 public:
  explicit CsvEmitter(std::ostream* out) : out_(out) {}
  explicit CsvEmitter(std::string* out) : str_(out) {}
  CsvEmitter(const CsvEmitter&) = delete;
  CsvEmitter& operator=(const CsvEmitter&) = delete;
  ~CsvEmitter() {
    Flush();
    TickCounter("fixrep.csv.bytes_emitted", emitted_);
  }

  void Header(const Schema& schema) {
    for (size_t a = 0; a < schema.arity(); ++a) {
      Field(a, schema.attribute_name(static_cast<AttrId>(a)));
    }
    EndRow();
  }

  void Rows(const Table& table) {
    for (size_t r = 0; r < table.num_rows(); ++r) Row(table, r);
  }

  void Row(const Table& table, size_t r) {
    const ValuePool& pool = table.pool();
    const TupleRef row = table.row(r);
    for (size_t a = 0; a < row.size(); ++a) Cell(a, pool, row[a]);
    EndRow();
  }

  // Bytes rendered so far, handed on or not.
  uint64_t size() const { return emitted_ + size_; }

 private:
  // Cell `index` of the current row from its pooled view: the quote
  // decision was made at intern time, so a plain value is one memcpy.
  void Cell(size_t index, const ValuePool& pool, ValueId id) {
    if (id == kNullValue) {
      Field(index, {});
      return;
    }
    const ValueView& view = pool.GetView(id);
    const std::string_view text = view.text;
    if (view.csv_quoted) {
      Commit(WriteQuotedCsvField(text, FieldRoom(index, CsvFieldBound(text))));
      return;
    }
    char* out = FieldRoom(index, text.size());
    std::memcpy(out, text.data(), text.size());
    Commit(out + text.size());
  }

  // Field `index` of the current row: a separating ',' and the field.
  void Field(size_t index, std::string_view field) {
    Commit(WriteCsvField(field, FieldRoom(index, CsvFieldBound(field))));
  }

  // Room for field `index` of at most `n` bytes plus its separating ',';
  // returns where the field goes.
  char* FieldRoom(size_t index, size_t n) {
    char* out = Room(n + 1);
    if (index > 0) *out++ = ',';
    return out;
  }
  // Marks everything up to `end` as rendered.
  void Commit(const char* end) {
    size_ = static_cast<size_t>(end - buf_.get());
  }
  void EndRow() { *Room(1) = '\n'; ++size_; }

  // Makes room for `n` more bytes, handing the block on once it is full.
  char* Room(size_t n) {
    if (capacity_ - size_ < n) {
      Flush();
      if (capacity_ < n) {
        capacity_ = std::max(n, kEmitBlockBytes);
        buf_ = std::make_unique_for_overwrite<char[]>(capacity_);
      }
    }
    return buf_.get() + size_;
  }
  void Flush() {
    if (size_ == 0) return;
    if (out_ != nullptr) {
      out_->write(buf_.get(), static_cast<std::streamsize>(size_));
    } else {
      str_->append(buf_.get(), size_);
    }
    emitted_ += size_;
    size_ = 0;
  }

  std::ostream* out_ = nullptr;
  std::string* str_ = nullptr;
  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  uint64_t emitted_ = 0;
};

}  // namespace

CsvChunkReader::CsvChunkReader(std::istream* in, int fd,
                               std::string_view bytes,
                               const CsvReadOptions& options,
                               size_t block_bytes)
    : in_(in),
      fd_(fd),
      bytes_(bytes),
      block_bytes_(std::max<size_t>(block_bytes, 1)),
      end_(refilled() ? 0 : bytes.size()),
      input_done_(!refilled()),
      options_(options) {}

StatusOr<CsvChunkReader> CsvChunkReader::Open(std::istream& in,
                                              const std::string& relation_name,
                                              std::shared_ptr<ValuePool> pool,
                                              const CsvReadOptions& options) {
  return OpenImpl(CsvChunkReader(&in, -1, {}, options, kReadBlockBytes),
                  relation_name, std::move(pool));
}

StatusOr<CsvChunkReader> CsvChunkReader::OpenBytes(
    std::string_view bytes, const std::string& relation_name,
    std::shared_ptr<ValuePool> pool, const CsvReadOptions& options) {
  return OpenImpl(
      CsvChunkReader(nullptr, -1, bytes, options, kReadBlockBytes),
      relation_name, std::move(pool));
}

StatusOr<CsvChunkReader> CsvChunkReader::OpenImpl(
    CsvChunkReader reader, const std::string& relation_name,
    std::shared_ptr<ValuePool> pool) {
  if (!reader.NextRecord()) {
    return Status::MalformedInput("empty CSV input");
  }
  if (reader.unterminated_) {
    return Status::MalformedInput(
        "unterminated quoted field at EOF in CSV header");
  }
  std::vector<std::string> names(reader.fields_.begin(),
                                 reader.fields_.end());
  {
    std::unordered_set<std::string> seen;
    for (const std::string& name : names) {
      if (!seen.insert(name).second) {
        return Status::MalformedInput("duplicate CSV header column '" + name +
                                      "'");
      }
    }
  }
  TickCounter("fixrep.csv.bytes_parsed", reader.consumed_);
  reader.row_.resize(names.size());
  reader.header_span_ = {0, reader.consumed_, reader.verbatim_};
  reader.schema_ = std::make_shared<Schema>(relation_name, std::move(names));
  reader.pool_ = std::move(pool);
  return reader;
}

void CsvChunkReader::Refill() {
  FIXREP_CHECK(refilled() && !input_done_);
  // What stays: the kept chunk from its first byte, or else the pending
  // record. Every refill reads at least a block, and at least as many
  // bytes as the pending record holds, so a long record stays linear.
  const size_t from = keeping_ ? chunk_begin_ : pos_;
  const size_t pending = end_ - from;
  const size_t step = std::max(block_bytes_, end_ - pos_);
  // A kept chunk reads a block at a time into the room after it, so
  // the scan walks cache-sized blocks, and moves to the front only when
  // that room runs out (one that follows a kept chunk starts there:
  // SwitchBuffers); the buffer then grows once to hold a whole kept
  // chunk and a block (its pages fault in only as they are read into).
  // Otherwise the buffer holds one block, doubles for a pending record
  // longer than half of it, and each refill fills it.
  if (!keeping_ || buffer_size_ - end_ < step) {
    const size_t size = keeping_ ? std::max(pending, kKeepBytes) + step
                                 : std::max(block_bytes_, 2 * pending);
    if (buffer_size_ < size) {
      // realloc can move a large buffer's pages rather than copy them
      // into fresh ones that each fault in.
      buffer_.reset(static_cast<char*>(std::realloc(buffer_.release(), size)));
      FIXREP_CHECK(buffer_ != nullptr) << "out of memory growing the CSV buffer";
      buffer_size_ = size;
    }
    if (from > 0 && pending > 0) {
      std::memmove(buffer_.get(), buffer_.get() + from, pending);
    }
    pos_ -= from;
    if (keeping_) chunk_begin_ = 0;
    end_ = pending;
  }
  const size_t want = keeping_ ? step : buffer_size_ - end_;
  const size_t got = ReadInput(buffer_.get() + end_, want);
  end_ += got;
  if (got < want) input_done_ = true;
}

void CsvChunkReader::SwitchBuffers() {
  const size_t tail = end_ - pos_;
  const size_t size = std::max(tail, block_bytes_);
  if (spare_size_ < size) {
    spare_.reset(static_cast<char*>(std::realloc(spare_.release(), size)));
    FIXREP_CHECK(spare_ != nullptr) << "out of memory growing the CSV buffer";
    spare_size_ = size;
  }
  if (tail > 0) std::memcpy(spare_.get(), buffer_.get() + pos_, tail);
  std::swap(buffer_, spare_);
  std::swap(buffer_size_, spare_size_);
  pos_ = 0;
  end_ = tail;
}

size_t CsvChunkReader::ReadInput(char* out, size_t n) {
  if (in_ != nullptr) {
    // Straight from the stream's buffer: istream::read would flush a
    // tied output stream (std::cin's std::cout), which a stream's
    // calling thread may be writing while its reader thread reads. Short
    // only at end of input; a read error (a filebuf throws one) counts
    // as the end, as istream::read's badbit did.
    std::streambuf* buffer = in_->rdbuf();
    if (buffer == nullptr) return 0;
    try {
      return static_cast<size_t>(
          buffer->sgetn(out, static_cast<std::streamsize>(n)));
    } catch (const std::ios_base::failure&) {
      return 0;
    }
  }
  // read(2) may come back short on a pipe before its end: loop to EOF.
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd_, out + got, n - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<size_t>(r);
  }
  return got;
}

bool CsvChunkReader::NextRecord() {
  while (true) {
    switch (Tokenize()) {
      case Tokenized::kRecord:
        return true;
      case Tokenized::kEnd:
        return false;
      case Tokenized::kNeedMore:
        Refill();
        break;
    }
  }
}

CsvChunkReader::Tokenized CsvChunkReader::Tokenize() {
  const char* const begin = data() + pos_;
  const char* const end = data() + end_;
  fields_.clear();
  unescaped_used_ = 0;
  unterminated_ = false;
  if (begin == end) {
    return input_done_ ? Tokenized::kEnd : Tokenized::kNeedMore;
  }

  // Consumes the record [begin, terminator) plus `skip` terminator bytes.
  auto finish = [&](const char* terminator, size_t skip) {
    record_begin_ = pos_;
    record_offset_ = consumed_;
    record_size_ = static_cast<size_t>(terminator - begin);
    const size_t size = record_size_ + skip;
    pos_ += size;
    consumed_ += size;
    return Tokenized::kRecord;
  };
  verbatim_ = false;
  bool unescaped = false;  // some field took the slow path
  const char* p = begin;
  while (true) {
    const char* q = FindCsvSpecial(p, end);
    if (q == end) {
      if (!input_done_) return Tokenized::kNeedMore;
      fields_.emplace_back(p, static_cast<size_t>(q - p));
      return finish(end, 0);
    }
    if (*q == ',') {
      fields_.emplace_back(p, static_cast<size_t>(q - p));
      p = q + 1;
      continue;
    }
    if (*q == '\n') {
      fields_.emplace_back(p, static_cast<size_t>(q - p));
      verbatim_ = !unescaped;
      return finish(q, 1);
    }
    if (*q == '\r' && q + 1 < end && q[1] == '\n') {
      fields_.emplace_back(p, static_cast<size_t>(q - p));
      return finish(q + 1, 1);
    }
    // A quote or a bare '\r': this field needs unescaping.
    unescaped = true;
    const char* next = nullptr;
    switch (UnescapeField(p, end, &next)) {
      case FieldEnd::kNeedMore:
        return Tokenized::kNeedMore;
      case FieldEnd::kComma:
        p = next;
        break;
      case FieldEnd::kRecord:
        return next == end ? finish(end, 0) : finish(next, 1);
    }
  }
}

// The quote-aware slow path over one field starting at `p`: inside
// quotes "" is a literal quote and any other byte (',' '\r' '\n'
// included) is data; outside quotes a '"' opens quoting anywhere in the
// field (so text after a closing quote is kept), a bare '\r' is dropped,
// ',' ends the field and '\n' the record. On kComma *next is the byte
// after the comma; on kRecord it is the '\n' or `end`.
CsvChunkReader::FieldEnd CsvChunkReader::UnescapeField(const char* p,
                                                       const char* end,
                                                       const char** next) {
  if (unescaped_used_ == unescaped_.size()) unescaped_.emplace_back();
  std::string& field = unescaped_[unescaped_used_++];
  field.clear();
  bool in_quotes = false;
  while (true) {
    if (p == end) {
      if (!input_done_) return FieldEnd::kNeedMore;
      unterminated_ = in_quotes;
      fields_.emplace_back(field);
      *next = end;
      return FieldEnd::kRecord;
    }
    if (in_quotes) {
      const char* quote = static_cast<const char*>(
          std::memchr(p, '"', static_cast<size_t>(end - p)));
      if (quote == nullptr) quote = end;
      field.append(p, quote);
      p = quote;
      if (p == end) continue;
      if (p + 1 < end && p[1] == '"') {
        field.push_back('"');
        p += 2;
      } else {
        in_quotes = false;
        ++p;
      }
      continue;
    }
    const char* special = FindCsvSpecial(p, end);
    field.append(p, special);
    p = special;
    if (p == end) continue;
    switch (*p) {
      case '"':
        in_quotes = true;
        ++p;
        break;
      case '\r':
        ++p;
        break;
      case ',':
        fields_.emplace_back(field);
        *next = p + 1;
        return FieldEnd::kComma;
      default:  // '\n'
        fields_.emplace_back(field);
        *next = p;
        return FieldEnd::kRecord;
    }
  }
}

void CsvChunkReader::RecordSpansInto(CsvRecordSpans* spans) {
  spans_ = spans;
  if (spans_ == nullptr) return;
  spans_->header = header_span_;
  spans_->rows.clear();
  spans_->dropped = 0;
}

StatusOr<size_t> CsvChunkReader::ReadChunk(Table* chunk, size_t max_rows) {
  FIXREP_CHECK(chunk != nullptr);
  FIXREP_CHECK_EQ(chunk->num_columns(), schema_->arity());
  // A read that follows a kept chunk goes on in the other buffer, so the
  // kept chunk's bytes outlive it.
  if (keeping_) SwitchBuffers();
  keeping_ = refilled() && spans_ != nullptr;
  chunk_begin_ = pos_;
  chunk_offset_ = consumed_;
  size_t appended = 0;
  uint64_t fallback = 0;
  Status problem = Status::Ok();
  while (problem.ok() && appended < max_rows) {
    Scan scan = ScanPlainRecords(chunk, max_rows, &appended, &problem);
    if (scan == Scan::kHandOff) {
      ++fallback;
      scan = ReadGeneralRecord(chunk, &appended, &problem);
    }
    if (scan == Scan::kNeedMore) {
      Refill();
    } else if (scan == Scan::kFull) {
      break;
    } else if (scan == Scan::kEnd) {
      at_end_ = true;
      break;
    }
  }
  TickCounter("fixrep.csv.bytes_parsed", consumed_ - chunk_offset_);
  CurrentMetrics().GetCounter("fixrep.csv.records_fallback")->Add(fallback);
  if (!problem.ok()) return problem;
  return appended;
}

CsvChunkReader::Scan CsvChunkReader::ScanPlainRecords(Table* chunk,
                                                      size_t max_rows,
                                                      size_t* appended,
                                                      Status* problem) {
  const ValuePool& pool =
      overlay_ != nullptr ? overlay_->pool() : chunk->pool();
  const size_t arity = row_.size();
  const char* const end = data() + end_;
  StructuralScanner scanner(data() + pos_, end);
  while (*appended < max_rows) {
    const char* const begin = data() + pos_;
    if (begin == end) return input_done_ ? Scan::kEnd : Scan::kNeedMore;
    deferred_.clear();
    // Fields end at each ',' up to the first other structural byte.
    const char* field = begin;
    size_t attr = 0;
    const char* q = scanner.Next();
    for (; q != end && *q == ','; q = scanner.Next()) {
      if (attr + 1 == arity) return Scan::kHandOff;  // too many fields
      Resolve(pool, attr++, {field, static_cast<size_t>(q - field)});
      field = q + 1;
    }
    // The record ends at a '\n' or a CRLF; everything else goes to the
    // general tokenizer, once the bytes to decide are in the buffer.
    if (q == end || (*q == '\r' && q + 1 == end)) {
      return input_done_ ? Scan::kHandOff : Scan::kNeedMore;
    }
    const char* terminator = q;  // the record's text ends here
    if (*q == '\r' && q[1] == '\n') {
      terminator = scanner.Next();
    } else if (*q != '\n') {
      return Scan::kHandOff;  // a '"' or a bare '\r'
    }
    if (attr + 1 != arity) return Scan::kHandOff;  // too few fields
    record_size_ = static_cast<size_t>(terminator - begin);
    if (!Fits(consumed_, consumed_ + record_size_ + 1)) return Scan::kFull;
    Resolve(pool, attr, {field, static_cast<size_t>(q - field)});
    record_begin_ = pos_;
    record_offset_ = consumed_;
    verbatim_ = terminator == q;
    pos_ += record_size_ + 1;
    consumed_ += record_size_ + 1;
    *problem = Settle(Status::Ok(), chunk, appended);
    if (!problem->ok()) return Scan::kDone;
  }
  return Scan::kDone;
}

CsvChunkReader::Scan CsvChunkReader::ReadGeneralRecord(Table* chunk,
                                                       size_t* appended,
                                                       Status* problem) {
  const bool read = NextRecord();
  FIXREP_CHECK(read) << "the scan hands off only a record it saw";
  if (!Fits(record_offset_, consumed_)) {  // unread it for the next chunk
    pos_ = record_begin_;
    consumed_ = record_offset_;
    return Scan::kFull;
  }
  deferred_.clear();
  if (unterminated_) {
    *problem = Settle(
        Status::MalformedInput("unterminated quoted field at EOF"), chunk,
        appended);
  } else if (fields_.size() != row_.size()) {
    *problem = Settle(Status::MalformedInput(
                          "CSV record arity mismatch at row " +
                          std::to_string(record_) + " (got " +
                          std::to_string(fields_.size()) + ", want " +
                          std::to_string(row_.size()) + ")"),
                      chunk, appended);
  } else {
    const ValuePool& pool =
        overlay_ != nullptr ? overlay_->pool() : chunk->pool();
    for (size_t a = 0; a < fields_.size(); ++a) {
      Resolve(pool, a, fields_[a]);
    }
    *problem = Settle(Status::Ok(), chunk, appended);
  }
  return Scan::kDone;
}

Status CsvChunkReader::Settle(Status problem, Table* chunk,
                              size_t* appended) {
  if (problem.ok() && FIXREP_FAULT("csv.append_row")) {
    problem = Status::Internal("injected failure appending row " +
                               std::to_string(record_));
  }
  if (problem.ok()) {
    for (const auto& [attr, field] : deferred_) {
      row_[attr] = overlay_ != nullptr ? overlay_->Resolve(field)
                                       : chunk->pool().Intern(field);
    }
    chunk->AppendRow(TupleRef(row_));
    if (spans_ != nullptr) {
      spans_->rows.push_back({record_offset_, consumed_, verbatim_});
    }
    ++record_;
    ++*appended;
    return Status::Ok();
  }
  if (options_.on_error == OnErrorPolicy::kAbort) return problem;
  CurrentMetrics().GetCounter("fixrep.quarantine.rows")->Add(1);
  if (options_.on_error == OnErrorPolicy::kQuarantine &&
      options_.quarantine != nullptr) {
    options_.quarantine->Add(Diagnostic{record_, problem.code(),
                                        problem.message(),
                                        RawRecordText(RecordText())});
  }
  ++record_;
  if (spans_ != nullptr) ++spans_->dropped;
  return Status::Ok();
}

namespace {

// Drains an opened reader into one table; `expected_rows` pre-sizes the
// row store when the caller can estimate it (0 = unknown).
StatusOr<Table> ReadAll(StatusOr<CsvChunkReader> reader, size_t expected_rows) {
  if (!reader.ok()) return reader.status();
  Table table = reader.value().MakeChunkTable();
  if (expected_rows > 0) table.Reserve(expected_rows);
  StatusOr<size_t> appended = reader.value().ReadChunk(
      &table, std::numeric_limits<size_t>::max());
  if (!appended.ok()) return appended.status();
  return table;
}

}  // namespace

StatusOr<Table> ReadCsvLenient(std::istream& in,
                               const std::string& relation_name,
                               std::shared_ptr<ValuePool> pool,
                               const CsvReadOptions& options) {
  return ReadAll(
      CsvChunkReader::Open(in, relation_name, std::move(pool), options),
      /*expected_rows=*/0);
}

StatusOr<Table> ReadCsvBytesLenient(std::string_view bytes,
                                    const std::string& relation_name,
                                    std::shared_ptr<ValuePool> pool,
                                    const CsvReadOptions& options) {
  return ReadAll(
      CsvChunkReader::OpenBytes(bytes, relation_name, std::move(pool),
                                options),
      /*expected_rows=*/0);
}

StatusOr<Table> ReadCsvBytesResolved(std::string_view bytes,
                                     const std::string& relation_name,
                                     std::shared_ptr<ValuePool> pool,
                                     ValueOverlay* overlay,
                                     const CsvReadOptions& options,
                                     CsvRecordSpans* spans) {
  StatusOr<CsvChunkReader> reader =
      CsvChunkReader::OpenBytes(bytes, relation_name, std::move(pool),
                                options);
  if (reader.ok()) {
    reader.value().ResolveThrough(overlay);
    reader.value().RecordSpansInto(spans);
  }
  return ReadAll(std::move(reader), /*expected_rows=*/0);
}

StatusOr<Table> CsvChunkReader::ReadFile(const std::string& path,
                                         const std::string& relation_name,
                                         std::shared_ptr<ValuePool> pool,
                                         const CsvReadOptions& options,
                                         size_t block_bytes) {
  const int fd = FIXREP_FAULT("csv.open_read")
                     ? -1
                     : ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  const size_t size =
      ::fstat(fd, &st) == 0 && st.st_size > 0 ? static_cast<size_t>(st.st_size)
                                              : 0;
  // Pre-size the row store from the file size (CSV rows are rarely under
  // 32 bytes): under-reserving costs one late grow, over-reserving only
  // untouched address space. The intern index is not pre-sized: it
  // grows by doubling 8-byte slots, and distinct values are a small,
  // unknown fraction of the bytes.
  StatusOr<Table> table = ReadAll(
      OpenImpl(CsvChunkReader(nullptr, fd, {}, options, block_bytes),
               relation_name, std::move(pool)),
      size / 32);
  ::close(fd);
  return table;
}

StatusOr<Table> ReadCsvFileLenient(const std::string& path,
                                   const std::string& relation_name,
                                   std::shared_ptr<ValuePool> pool,
                                   const CsvReadOptions& options) {
  return CsvChunkReader::ReadFile(path, relation_name, std::move(pool),
                                  options, CsvChunkReader::kReadBlockBytes);
}

void WriteCsvHeader(const Schema& schema, std::ostream& out) {
  CsvEmitter(&out).Header(schema);
}

namespace {

// The splice walker behind SpliceCsv and WriteCsvChunk: fills the empty
// *splice and returns the number of rows it rendered.
size_t SpliceRecords(std::string_view input, const CsvRecordSpans& spans,
                     const Table& repaired, const std::vector<CellRepair>& log,
                     CsvSplice* splice) {
  FIXREP_CHECK_EQ(spans.rows.size(), repaired.num_rows());
  const uint64_t base = spans.header.begin;  // input offset of input[0]
  size_t rows_rendered = 0;
  {
    CsvEmitter emitter(&splice->inserts);
    // Records are numbered from -1, the header, to `records`, past the
    // last row. Records [kept, r) lie between the last edit and record r.
    const auto records = static_cast<ptrdiff_t>(repaired.num_rows());
    ptrdiff_t kept = -1;
    uint64_t insert_begin = 0;  // emitter size when the last edit opened
    auto render = [&](ptrdiff_t r) {
      if (r < 0) {
        emitter.Header(repaired.schema());
      } else {
        emitter.Row(repaired, static_cast<size_t>(r));
        ++rows_rendered;
      }
    };
    // Opens an edit at input offset `begin`, before record r, or extends
    // the last edit over records [kept, r) (verbatim and unchanged, so
    // rendering them gives their bytes) when they are shorter than an
    // edit.
    auto open_edit = [&](uint64_t begin, ptrdiff_t r) {
      if (!splice->edits.empty()) {
        const CsvEdit& last = splice->edits.back();
        if (begin - base - (last.begin + last.erase) < sizeof(CsvEdit)) {
          for (ptrdiff_t k = kept; k < r; ++k) render(k);
          return;
        }
      }
      splice->edits.push_back({begin - base, 0, 0});
      insert_begin = emitter.size();
    };
    auto close_edit = [&](uint64_t end) {
      CsvEdit& open = splice->edits.back();
      open.erase = end - base - open.begin;
      open.insert = emitter.size() - insert_begin;
    };
    uint64_t at = base;  // end of the previous record
    const uint64_t input_end = base + input.size();
    auto logged = log.begin();  // the first write not yet passed
    for (ptrdiff_t r = -1; r <= records; ++r) {
      const auto row = static_cast<size_t>(r);  // used once r >= 0
      const CsvRecordSpan next =
          r < 0         ? spans.header
          : r < records ? spans.rows[row]
                        : CsvRecordSpan{input_end, input_end};
      if (next.begin > at) {  // records dropped before this one
        open_edit(at, r);
        close_edit(next.begin);
        kept = r;
      }
      if (r == records) break;
      const auto row_writes = logged;  // this row's writes, if any
      while (r >= 0 && logged != log.end() && logged->row == row) ++logged;
      if (!next.verbatim || logged != row_writes) {
        open_edit(next.begin, r);
        render(r);
        close_edit(next.end);
        kept = r + 1;
      }
      at = next.end;
    }
    FIXREP_CHECK(logged == log.end()) << "write log rows out of order";
  }
  uint64_t erased = 0;
  for (const CsvEdit& e : splice->edits) erased += e.erase;
  splice->output_size = input.size() - erased + splice->inserts.size();
  return rows_rendered;
}

}  // namespace

CsvSplice SpliceCsv(std::string_view input, const CsvRecordSpans& spans,
                    const Table& repaired, const std::vector<CellRepair>& log) {
  CsvSplice splice;
  SpliceRecords(input, spans, repaired, log, &splice);
  return splice;
}

Status CheckCsvSplice(std::string_view input, const CsvSplice& splice) {
  uint64_t at = 0;  // input bytes accounted for
  uint64_t inserted = 0;
  uint64_t size = 0;  // output bytes
  for (const CsvEdit& e : splice.edits) {
    if (e.begin < at || e.begin > input.size() ||
        e.erase > input.size() - e.begin) {
      return Status::MalformedInput(
          "splice edit at " + std::to_string(e.begin) +
          " is out of order or past the " + std::to_string(input.size()) +
          "-byte input");
    }
    if (e.insert > splice.inserts.size() - inserted) {
      return Status::MalformedInput("splice edits insert more than the " +
                                    std::to_string(splice.inserts.size()) +
                                    " replacement bytes");
    }
    size += (e.begin - at) + e.insert;
    inserted += e.insert;
    at = e.begin + e.erase;
  }
  size += input.size() - at;
  if (inserted != splice.inserts.size()) {
    return Status::MalformedInput("splice leaves replacement bytes unused");
  }
  if (size != splice.output_size) {
    return Status::MalformedInput(
        "splice output is " + std::to_string(size) + " bytes, declared " +
        std::to_string(splice.output_size));
  }
  return Status::Ok();
}

namespace {

// Calls piece(bytes) for each run of the spliced output, in order: the
// input between edits and each edit's replacement. The splice must have
// passed CheckCsvSplice against `input`.
template <typename Piece>
void ForEachSplicePiece(std::string_view input, const CsvSplice& splice,
                        Piece piece) {
  const char* insert = splice.inserts.data();
  size_t at = 0;
  for (const CsvEdit& e : splice.edits) {
    piece(input.substr(at, e.begin - at));
    piece(std::string_view(insert, e.insert));
    insert += e.insert;
    at = e.begin + e.erase;
  }
  piece(input.substr(at));
}

// WriteCsvSplice of a splice known to fit `input`.
Status WriteSplicePieces(std::string_view input, const CsvSplice& splice,
                         CsvOutput out) {
  std::vector<std::string_view> pieces;
  pieces.reserve(2 * splice.edits.size() + 1);
  ForEachSplicePiece(input, splice, [&pieces](std::string_view bytes) {
    pieces.push_back(bytes);
  });
  TickCounter("fixrep.csv.bytes_copied",
              splice.output_size - splice.inserts.size());
  return out.Write(pieces);
}

}  // namespace

Status ApplyCsvSplice(std::string_view input, const CsvSplice& splice,
                      std::string* out) {
  FIXREP_RETURN_IF_ERROR(CheckCsvSplice(input, splice));
  out->clear();
  out->reserve(splice.output_size);
  ForEachSplicePiece(input, splice,
                     [out](std::string_view bytes) { out->append(bytes); });
  return Status::Ok();
}

CsvOutput::CsvOutput(AtomicFile* file)
    : stream_(&file->stream()), file_(file) {}

Status CsvOutput::Write(std::span<const std::string_view> pieces) const {
  if (file_ != nullptr) return file_->Append(pieces);
  for (const std::string_view piece : pieces) {
    stream_->write(piece.data(), static_cast<std::streamsize>(piece.size()));
  }
  if (!stream_->good()) return Status::IoError("CSV output write failed");
  return Status::Ok();
}

Status WriteCsvSplice(std::string_view input, const CsvSplice& splice,
                      CsvOutput out) {
  FIXREP_RETURN_IF_ERROR(CheckCsvSplice(input, splice));
  return WriteSplicePieces(input, splice, out);
}

StatusOr<CsvChunkEmit> WriteCsvChunk(std::string_view input,
                                     const CsvRecordSpans& spans,
                                     const Table& chunk,
                                     const std::vector<CellRepair>& log,
                                     CsvOutput out) {
  CsvChunkEmit emit;
  CsvSplice splice;
  emit.rows_rendered = SpliceRecords(input, spans, chunk, log, &splice);
  emit.bytes_copied = splice.output_size - splice.inserts.size();
  FIXREP_RETURN_IF_ERROR(WriteSplicePieces(input, splice, out));
  return emit;
}

void WriteCsv(const Table& table, std::ostream& out) {
  CsvEmitter emitter(&out);
  emitter.Header(table.schema());
  emitter.Rows(table);
}

void AppendCsv(const Table& table, std::string* out) {
  CsvEmitter emitter(out);
  emitter.Header(table.schema());
  emitter.Rows(table);
}

Status TryWriteCsvFile(const Table& table, const std::string& path) {
  if (FIXREP_FAULT("csv.open_write")) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  // Stage under a unique name beside `path` and rename into place on
  // Commit, so a crash or a failed write never leaves a truncated CSV
  // under the final name.
  StatusOr<AtomicFile> out = AtomicFile::Create(path);
  if (!out.ok()) return out.status();
  WriteCsv(table, out->stream());
  if (FIXREP_FAULT("csv.write_flush")) {
    out->stream().setstate(std::ios::badbit);
  }
  return out->Commit();
}

Table ReadCsv(std::istream& in, const std::string& relation_name,
              std::shared_ptr<ValuePool> pool) {
  StatusOr<Table> result = ReadCsvLenient(in, relation_name, std::move(pool));
  FIXREP_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

Table ReadCsvFile(const std::string& path, const std::string& relation_name,
                  std::shared_ptr<ValuePool> pool) {
  StatusOr<Table> result =
      ReadCsvFileLenient(path, relation_name, std::move(pool));
  FIXREP_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

void WriteCsvFile(const Table& table, const std::string& path) {
  const Status status = TryWriteCsvFile(table, path);
  FIXREP_CHECK(status.ok()) << status.message();
}

}  // namespace fixrep
