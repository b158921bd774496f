#include "repair/streaming.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "common/log.h"
#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "relation/row_store.h"
#include "repair/driver.h"

namespace fixrep {

namespace {

// Rows between live fixrep.progress.rows publications. Small enough that
// an endpoint scrape mid-chunk sees movement even in a large chunk (an
// in-memory payload read with no row limit is one chunk), large enough
// to keep the counter off the per-tuple path.
constexpr size_t kProgressStride = 2048;

// Live progress state, published from the calling thread only. Counters
// are cumulative across the run; gauges reflect the latest chunk.
struct LiveProgress {
  Counter* rows = nullptr;
  Gauge* chunk = nullptr;
  Gauge* input_bytes = nullptr;
  size_t pending_rows = 0;

  explicit LiveProgress(MetricsRegistry* registry) {
    rows = registry->GetCounter("fixrep.progress.rows");
    chunk = registry->GetGauge("fixrep.progress.chunk");
    input_bytes = registry->GetGauge("fixrep.progress.input_bytes_read");
  }

  void AddRows(size_t n) {
    pending_rows += n;
    if (pending_rows >= kProgressStride) FlushRows();
  }

  void FlushRows() {
    if (pending_rows == 0) return;
    rows->Add(pending_rows);
    pending_rows = 0;
  }
};

// One chunk's read: the reader thread fills it, the calling thread takes
// it at the hand-off. It holds the rows, their record spans and CSV
// diagnostics, the overlay the chunk's new values wait in, and the
// reader state the chunk's turn needs.
struct ChunkSlot {
  explicit ChunkSlot(Table empty) : table(std::move(empty)) {}

  Table table;
  CsvRecordSpans spans;
  VectorQuarantineSink csv_capture;
  // Set when the reader thread read the chunk.
  std::optional<ValueOverlay> overlay;
  StatusOr<size_t> read = size_t{0};
  uint64_t read_ns = 0;
  uint64_t chunk_offset = 0;
  // CsvChunkReader::chunk_bytes: valid until the read after the next.
  std::string_view bytes;
  uint64_t bytes_read = 0;
  bool at_end = false;
};

// The stream's reader thread. The calling thread posts the next read
// (Read) and later takes its slot (Take). The reader thread resolves
// every chunk's values through the slot's overlay, so the shared pool is
// only read while the calling thread repairs, journals and emits the
// previous chunk. Between reads the reader thread is idle, and the
// calling thread may commit an overlay (write the pool) and reuse a
// slot. The reader thread's counters (bytes parsed, fallback records,
// quarantined rows) accumulate in a private scope that Take flushes from
// the calling thread, so they land in the caller's registry; a chunk
// read but never taken publishes nothing.
//
// When the calling thread's affinity allows one CPU only, there is no
// reader thread: the two threads could only take turns on that CPU, and
// the overlay's staging, commit and id rewrite would be pure cost
// (under `taskset -c 0` on a 4-vCPU VM a perfbench stream took 36.3 ms
// with the thread against 34.1 ms serially). Take then reads the chunk
// on the calling thread, interning straight into the pool, as the
// serial loop did.
class ChunkReaderThread {
 public:
  ChunkReaderThread(CsvChunkReader* reader, size_t max_rows,
                    MetricsRegistry* registry)
      : reader_(reader),
        max_rows_(max_rows),
        registry_(registry),
        scope_(&untaken_) {
    if (!CallerMayUseAnotherCpu()) return;
    // ReadChunk registers it even when it counts nothing, and a flush
    // carries only nonzero counts.
    registry_->GetCounter("fixrep.csv.records_fallback");
    thread_ = std::thread([this] { Loop(); });
  }

  // Waits for a read in progress, then stops the thread.
  ~ChunkReaderThread() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  ChunkReaderThread(const ChunkReaderThread&) = delete;
  ChunkReaderThread& operator=(const ChunkReaderThread&) = delete;

  // Posts a read of the next chunk into *slot; the last one posted must
  // have been taken.
  void Read(ChunkSlot* slot) {
    if (!thread_.joinable()) {
      next_ = slot;
      return;
    }
    StayOffCallersCpu();
    {
      std::lock_guard<std::mutex> lock(mu_);
      FIXREP_CHECK(next_ == nullptr && done_ == nullptr);
      next_ = slot;
    }
    cv_.notify_all();
  }

  // Returns the slot of the read Read posted once it is read, with the
  // reader thread idle. *wait_ns is the time this took: waiting for the
  // reader thread, or, with no thread, reading the chunk.
  ChunkSlot* Take(uint64_t* wait_ns) {
    const uint64_t start_ns = TraceNowNanos();
    ChunkSlot* slot = nullptr;
    if (!thread_.joinable()) {
      slot = std::exchange(next_, nullptr);
      ReadInto(slot, /*staged=*/false);
    } else {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_ != nullptr; });
        slot = std::exchange(done_, nullptr);
      }
      scope_.registry().FlushInto(registry_);
    }
    *wait_ns = TraceNowNanos() - start_ns;
    return slot;
  }

 private:
  static bool CallerMayUseAnotherCpu() {
    cpu_set_t allowed;
    return sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
           CPU_COUNT(&allowed) > 1;
  }

  // Keeps the reader thread off the CPU the calling thread is on, when
  // the caller may run on another, so the two run side by side even
  // where the kernel leaves a new thread on its creator's CPU: on a
  // 4-vCPU VM every thread of a process stayed on one CPU, and two busy
  // threads each took twice as long as one. Checked at each posted
  // read, since a busy host moves the calling thread.
  void StayOffCallersCpu() {
    const int here = sched_getcpu();
    if (here < 0 || here == avoided_cpu_) return;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    CPU_CLR(here, &allowed);
    if (CPU_COUNT(&allowed) == 0) return;
    pthread_setaffinity_np(thread_.native_handle(), sizeof(allowed), &allowed);
    avoided_cpu_ = here;
  }

  void Loop() {
    MetricScope::Activation active(&scope_);
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || next_ != nullptr; });
      if (stop_) return;
      ChunkSlot* slot = std::exchange(next_, nullptr);
      lock.unlock();
      ReadInto(slot, /*staged=*/true);
      lock.lock();
      done_ = slot;
      cv_.notify_all();
    }
  }

  // Reads the next chunk into *slot, staging its new values in the
  // slot's overlay or interning them.
  void ReadInto(ChunkSlot* slot, bool staged) {
    slot->table.Clear();
    slot->csv_capture.Clear();
    if (staged) {
      slot->overlay.emplace(reader_->pool().get());
    } else {
      slot->overlay.reset();
    }
    reader_->RecordSpansInto(&slot->spans);
    reader_->SwapQuarantine(&slot->csv_capture);
    reader_->ResolveThrough(slot->overlay ? &*slot->overlay : nullptr);
    const uint64_t start_ns = TraceNowNanos();
    slot->read = reader_->ReadChunk(&slot->table, max_rows_);
    slot->read_ns = TraceNowNanos() - start_ns;
    slot->chunk_offset = reader_->chunk_offset();
    slot->bytes = reader_->chunk_bytes();
    slot->bytes_read = reader_->bytes_read();
    slot->at_end = reader_->at_end();
  }

  CsvChunkReader* const reader_;
  const size_t max_rows_;
  MetricsRegistry* const registry_;
  MetricsRegistry untaken_;  // where a chunk never taken leaves its counts
  MetricScope scope_;
  std::mutex mu_;
  std::condition_variable cv_;
  ChunkSlot* next_ = nullptr;  // a read requested, not started
  ChunkSlot* done_ = nullptr;  // a read finished, not taken
  bool stop_ = false;
  int avoided_cpu_ = -1;  // the CPU StayOffCallersCpu last kept it off
  std::thread thread_;  // none for a caller limited to one CPU
};

// Writes a durable chunk's journaled deltas into the re-read `chunk`, the
// chunk's repair without a chase, and records each write in *log (the
// chunk's write log for its splice). Every value a rule writes is in the
// pool once the rules are bound, so a delta value is looked up, never
// interned: the pool stays read-only while the reader thread reads the
// next chunk, and a value it lacks is a divergence.
Status ApplyJournaledDeltas(const WalChunk& durable, Table* chunk,
                            std::vector<CellRepair>* log) {
  const ValuePool& pool = chunk->pool();
  for (const WalCellDelta& delta : durable.deltas) {
    if (delta.row >= chunk->num_rows() || delta.attr >= chunk->num_columns() ||
        (!log->empty() && delta.row < log->back().row)) {
      return Status::MalformedInput(
          "resume divergence: journaled delta addresses row " +
          std::to_string(delta.row) + " attr " + std::to_string(delta.attr) +
          " outside chunk " + std::to_string(durable.chunk_index) +
          " or out of row order");
    }
    const auto row = static_cast<size_t>(delta.row);
    const auto attr = static_cast<AttrId>(delta.attr);
    const ValueId value = pool.Find(delta.new_value);
    if (value == kNullValue) {
      return Status::MalformedInput(
          "resume divergence: chunk " + std::to_string(durable.chunk_index) +
          " journaled the value '" + delta.new_value +
          "', which no rule writes");
    }
    log->push_back({row, attr, chunk->cell(row, attr), value,
                    delta.rule_index});
    chunk->WriteCell(row, attr, value);
  }
  return Status::Ok();
}

// Reports the end of a resume's replay: `replayed` holds the totals of
// the durable chunks.
void PublishResume(const RecoveredRun& resume, const RepairReport& replayed,
                   MetricsRegistry* registry) {
  registry->GetCounter("fixrep.wal.chunks_replayed")->Add(replayed.chunks);
  registry->GetCounter("fixrep.wal.rows_replayed")->Add(replayed.rows);
  FIXREP_LOG(Info) << "resumed from WAL"
                   << Kv("chunks_replayed", replayed.chunks)
                   << Kv("rows_replayed", replayed.rows);
  if (TelemetryJournal* telemetry = GetGlobalJournal()) {
    TelemetryEvent event("resume");
    event.Set("chunks_replayed", static_cast<uint64_t>(replayed.chunks))
        .Set("rows_replayed", static_cast<uint64_t>(replayed.rows))
        .Set("cells_changed_replayed",
             static_cast<uint64_t>(replayed.cells_changed))
        .Set("durable_bytes", resume.durable_bytes);
    telemetry->Append(event);
  }
}

}  // namespace

StatusOr<RepairReport> StreamRepair(const RuleDict& dict,
                                    const RepairConfig& config,
                                    ChunkJournal* journal,
                                    const RecoveredRun* resume,
                                    CsvChunkReader* reader,
                                    CsvOutput out,
                                    std::vector<CellRepair>* log) {
  FIXREP_CHECK(reader != nullptr);
  FIXREP_CHECK_GT(config.chunk_rows, 0u);
  if (reader->schema()->arity() != dict.arity()) {
    return Status::MalformedInput(
        "stream arity " + std::to_string(reader->schema()->arity()) +
        " does not match rule arity " + std::to_string(dict.arity()));
  }
  FIXREP_TRACE_SPAN("streaming.run");
  const bool quarantining = config.on_error == OnErrorPolicy::kQuarantine &&
                            config.quarantine != nullptr;
  FIXREP_LOG(Debug) << "streaming repair" << Kv("chunk_rows", config.chunk_rows)
                    << Kv("threads", config.threads)
                    << Kv("shards", config.shards)
                    << Kv("rules", dict.num_rules());

  // One driver for the whole stream. Its failures come back at
  // chunk-local rows and are rebased here, so it forwards none itself.
  RepairConfig driver_config = config;
  driver_config.quarantine = nullptr;
  RepairDriver driver(dict, driver_config);

  // The chunk's write log (chunk-local rows: the driver's for a
  // repaired chunk, the journaled deltas for a replayed one) and its
  // tuple diagnostics, both cleared per chunk. The log names the rows
  // the chunk's splice renders; a repaired chunk also writes it to the
  // WAL at commit time and rebases it onto the caller's log.
  const bool journaling = journal != nullptr;
  std::vector<CellRepair> chunk_deltas;
  std::vector<Diagnostic> chunk_diags;
  driver.set_write_log(&chunk_deltas);

  // CSV-level quarantine journaling (WAL version >= 2): each slot's
  // capture sink sees exactly the reader diagnostics one chunk produced.
  // A repaired chunk journals them; a replayed chunk must reproduce the
  // ones its log holds, so resume validates the re-read input against
  // the log instead of silently trusting it. Appending to a resumed
  // version-1 log keeps the old record set (old scanners refuse the new
  // type), and its replayed diagnostics are only forwarded.
  const bool journal_csv =
      journaling &&
      (resume == nullptr || resume->header.version >= kCsvQuarantineWalVersion);

  WriteCsvHeader(*reader->schema(), out.stream());

  RepairReport result;
  // Two chunks in flight: the reader thread fills one slot while this
  // thread repairs, journals and emits the other. No more rows than a
  // kept chunk can hold: a record is at least `arity` bytes (its
  // separators and terminator).
  ChunkSlot slots[2] = {ChunkSlot(reader->MakeChunkTable()),
                        ChunkSlot(reader->MakeChunkTable())};
  for (ChunkSlot& slot : slots) {
    slot.table.Reserve(std::min(config.chunk_rows,
                                CsvChunkReader::kKeepBytes / dict.arity()));
  }

  auto& registry = CurrentMetrics();
  LiveProgress progress(&registry);

  // The caller's CSV sink gets each chunk's diagnostics at that chunk's
  // turn, just before its tuple diagnostics. When the stream ends,
  // whichever way, the reader thread is joined first and then the
  // reader's sink, span recording and interning are restored.
  QuarantineSink* const live_sink = reader->quarantine();
  struct RestoreReader {
    CsvChunkReader* reader;
    QuarantineSink* sink;
    ~RestoreReader() {
      reader->SwapQuarantine(sink);
      reader->RecordSpansInto(nullptr);
      reader->ResolveThrough(nullptr);
    }
  } restore_reader{reader, live_sink};
  ChunkReaderThread reader_thread(reader, config.chunk_rows, &registry);
  reader_thread.Read(&slots[0]);

  // Crash recovery: the first resume->chunks.size() chunks are durable
  // in the log of a previous run. Each is re-read from the input and
  // checked against the log (row count, base row, CSV diagnostics), its
  // journaled deltas are applied without a chase, its journaled tuple
  // diagnostics are forwarded, and its rows are re-emitted. That is
  // byte-identical to the uninterrupted run because the chase is a pure
  // per-tuple function: same input chunk + same deltas = same rows.
  bool replaying = resume != nullptr;

  while (true) {
    if (replaying && result.chunks == resume->chunks.size()) {
      replaying = false;
      progress.FlushRows();
      PublishResume(*resume, result, &registry);
    }
    const WalChunk* durable =
        replaying ? &resume->chunks[result.chunks] : nullptr;
    chunk_deltas.clear();
    chunk_diags.clear();

    // The hand-off, with the reader idle: the chunk's new values are
    // interned in first-occurrence order, chunk after chunk, so every
    // value gets the id a serial read would give it.
    uint64_t read_wait_ns = 0;
    ChunkSlot& slot = *reader_thread.Take(&read_wait_ns);
    Table& chunk = slot.table;
    if (slot.overlay && !slot.overlay->empty()) {
      slot.overlay->Commit();
      chunk.ApplyOverlay(*slot.overlay);
    }
    const StatusOr<size_t>& read = slot.read;
    if (journal_csv && durable != nullptr && read.ok() &&
        slot.csv_capture.diagnostics() != durable->csv_quarantined) {
      return Status::MalformedInput(
          "resume divergence at chunk " +
          std::to_string(durable->chunk_index) + ": WAL journaled " +
          std::to_string(durable->csv_quarantined.size()) +
          " CSV-level diagnostics, re-reading the input rendered " +
          std::to_string(slot.csv_capture.size()) +
          " (or their contents differ) — was the input modified since "
          "the journaled run?");
    }
    if (live_sink != nullptr) {
      for (const Diagnostic& diagnostic : slot.csv_capture.diagnostics()) {
        live_sink->Add(diagnostic);
      }
    }
    if (!read.ok()) return read.status();
    if (durable == nullptr && read.value() == 0 && slot.at_end) break;
    if (durable != nullptr &&
        (read.value() != durable->rows || durable->base_row != result.rows)) {
      return Status::MalformedInput(
          "resume divergence at chunk " +
          std::to_string(durable->chunk_index) + ": WAL recorded " +
          std::to_string(durable->rows) + " rows at base " +
          std::to_string(durable->base_row) + ", re-reading gave " +
          std::to_string(read.value()) + " at base " +
          std::to_string(result.rows) +
          " — was the input modified since the journaled run?");
    }
    // The reader thread reads the next chunk while this one is repaired
    // and written.
    reader_thread.Read(&slot == &slots[0] ? &slots[1] : &slots[0]);
    ++result.chunks;
    const size_t cells_before = result.cells_changed;
    const size_t quarantined_before = result.tuples_quarantined;
    const uint64_t chunk_start_ns = TraceNowNanos();
    progress.chunk->Set(static_cast<int64_t>(result.chunks));
    progress.input_bytes->Set(static_cast<int64_t>(slot.bytes_read));

    if (durable != nullptr) {
      FIXREP_RETURN_IF_ERROR(
          ApplyJournaledDeltas(*durable, &chunk, &chunk_deltas));
      if (quarantining) {
        for (const Diagnostic& diagnostic : durable->quarantined) {
          config.quarantine->Add(diagnostic);
        }
      }
      if (durable->tuples_quarantined > 0) {
        registry.GetCounter("fixrep.quarantine.tuples")
            ->Add(durable->tuples_quarantined);
      }
      result.cells_changed += durable->cells_changed;
      result.tuples_quarantined += durable->tuples_quarantined;
      progress.AddRows(chunk.num_rows());
    } else {
      // Progress-stride runs, so live fixrep.progress.rows moves within
      // a large chunk; diagnostics go out at global row indices.
      const size_t end = chunk.num_rows();
      for (size_t sub = 0; sub < end; sub += kProgressStride) {
        const size_t sub_end = std::min(end, sub + kProgressStride);
        result.cells_changed +=
            driver.Run(&chunk, sub, sub_end).cells_changed;
        progress.AddRows(sub_end - sub);
        result.tuples_quarantined += driver.failures().size();
        if (!quarantining) continue;
        for (const Diagnostic& d : driver.failures()) {
          Diagnostic rebased{result.rows + d.line, d.code, d.message,
                             d.raw_text};
          config.quarantine->Add(rebased);
          if (journaling) chunk_diags.push_back(std::move(rebased));
        }
      }
    }

    // Commit a repaired chunk to the WAL BEFORE emitting its rows: once
    // a row is in the output stream it is covered by a durable chunk, so
    // a crash at any point resumes to byte-identical output.
    if (journaling && durable == nullptr) {
      Status journaled = journal->BeginChunk(
          result.chunks, result.rows, chunk.num_rows());
      const ValuePool& pool = *chunk.pool_ptr();
      for (const CellRepair& repair : chunk_deltas) {
        if (!journaled.ok()) break;
        WalCellDelta delta;
        delta.row = repair.row;
        delta.attr = static_cast<uint32_t>(repair.attr);
        delta.old_is_null = repair.old_value == kNullValue;
        if (!delta.old_is_null) {
          delta.old_value = pool.GetString(repair.old_value);
        }
        delta.new_value = pool.GetString(repair.new_value);
        delta.rule_index = repair.rule_index;
        journaled = journal->AddDelta(delta);
      }
      if (journal_csv) {
        for (const Diagnostic& diagnostic : slot.csv_capture.diagnostics()) {
          if (!journaled.ok()) break;
          journaled = journal->AddCsvQuarantine(diagnostic);
        }
      }
      for (const Diagnostic& diagnostic : chunk_diags) {
        if (!journaled.ok()) break;
        journaled = journal->AddQuarantine(diagnostic);
      }
      if (journaled.ok()) {
        journaled = journal->Commit(
            result.chunks, chunk.num_rows(),
            result.cells_changed - cells_before,
            result.tuples_quarantined - quarantined_before);
      }
      if (!journaled.ok()) return journaled.WithContext("WAL journaling");
      registry.GetCounter("fixrep.wal.chunks_committed")->Add(1);
      registry.GetCounter("fixrep.wal.deltas_journaled")
          ->Add(chunk_deltas.size());
      if (TelemetryJournal* telemetry = GetGlobalJournal()) {
        TelemetryEvent event("wal_commit");
        event.Set("chunk", static_cast<uint64_t>(result.chunks))
            .Set("deltas", static_cast<uint64_t>(chunk_deltas.size()))
            .Set("quarantined", static_cast<uint64_t>(chunk_diags.size()))
            .Set("wal_bytes", journal->appended_bytes())
            .Set("fsyncs", journal->fsync_count());
        telemetry->Append(event);
      }
    }

    // Unchanged verbatim records are copied from the kept input; the
    // rest is rendered. The chunk's bytes start at its offset, with no
    // header of their own.
    const uint64_t emit_start_ns = TraceNowNanos();
    slot.spans.header = {slot.chunk_offset, slot.chunk_offset, true};
    StatusOr<CsvChunkEmit> emitted = WriteCsvChunk(
        slot.bytes, slot.spans, chunk, chunk_deltas, out);
    if (!emitted.ok()) {
      return emitted.status().WithContext("writing the repaired stream");
    }
    const uint64_t emit_ns = TraceNowNanos() - emit_start_ns;
    if (log != nullptr && durable == nullptr) {
      for (CellRepair repair : chunk_deltas) {
        repair.row += result.rows;
        log->push_back(repair);
      }
    }
    result.rows += chunk.num_rows();
    result.peak_chunk_bytes =
        std::max(result.peak_chunk_bytes, chunk.store().bytes());
    progress.FlushRows();
    TelemetryJournal* telemetry = GetGlobalJournal();
    if (durable == nullptr && telemetry != nullptr) {
      const uint64_t duration_ns = TraceNowNanos() - chunk_start_ns;
      TelemetryEvent event("chunk");
      event.Set("index", static_cast<uint64_t>(result.chunks))
          .Set("rows", static_cast<uint64_t>(chunk.num_rows()))
          .Set("rows_total", static_cast<uint64_t>(result.rows))
          .Set("cells_changed_total",
               static_cast<uint64_t>(result.cells_changed))
          .Set("duration_ns", duration_ns)
          .Set("read_ns", slot.read_ns)
          .Set("read_wait_ns", read_wait_ns)
          .Set("emit_ns", emit_ns)
          .Set("bytes_copied", emitted->bytes_copied)
          .Set("rows_rendered", static_cast<uint64_t>(emitted->rows_rendered))
          .Set("cell_bytes", static_cast<uint64_t>(chunk.store().bytes()));
      if (duration_ns > 0) {
        event.Set("rows_per_s", static_cast<double>(chunk.num_rows()) * 1e9 /
                                    static_cast<double>(duration_ns));
      }
      telemetry->Append(event);
    }
  }

  progress.FlushRows();
  registry.GetCounter("fixrep.streaming.chunks")->Add(result.chunks);
  registry.GetCounter("fixrep.streaming.rows")->Add(result.rows);
  FIXREP_LOG(Debug) << "streaming repair done"
                    << Kv("rows", result.rows)
                    << Kv("chunks", result.chunks)
                    << Kv("cells_changed", result.cells_changed)
                    << Kv("quarantined", result.tuples_quarantined)
                    << Kv("peak_chunk_bytes", result.peak_chunk_bytes);
  return result;
}

}  // namespace fixrep
