#include "repair/streaming.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
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

// Writes a durable chunk's journaled deltas into the re-read `chunk` by
// interning the recorded strings, the chunk's repair without a chase,
// and records each write in *log (the chunk's write log for its splice).
Status ApplyJournaledDeltas(const WalChunk& durable, Table* chunk,
                            std::vector<CellRepair>* log) {
  ValuePool& pool = *chunk->pool_ptr();
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
    const ValueId value = pool.Intern(delta.new_value);
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

  // Each chunk's record spans, for splicing its output over the bytes
  // the reader kept (CsvChunkReader::chunk_bytes). The reader stops
  // recording into them when the stream ends, whichever way.
  CsvRecordSpans spans;
  struct StopRecording {
    CsvChunkReader* reader;
    ~StopRecording() { reader->RecordSpansInto(nullptr); }
  } stop_recording{reader};

  // CSV-level quarantine journaling (WAL version >= 2): a capture sink
  // interposed around each ReadChunk sees exactly the reader
  // diagnostics one chunk produced. A repaired chunk journals them; a
  // replayed chunk must reproduce the ones its log holds, so resume
  // validates the re-read input against the log instead of silently
  // trusting it. Appending to a resumed version-1 log keeps the old
  // record set (old scanners refuse the new type), and its replayed
  // diagnostics flow straight through.
  const bool journal_csv =
      journaling &&
      (resume == nullptr || resume->header.version >= kCsvQuarantineWalVersion);
  VectorQuarantineSink csv_capture;

  WriteCsvHeader(*reader->schema(), out.stream());

  RepairReport result;
  Table chunk = reader->MakeChunkTable();
  // No more rows than a kept chunk can hold: a record is at least
  // `arity` bytes (its separators and terminator).
  chunk.Reserve(std::min(config.chunk_rows,
                         CsvChunkReader::kKeepBytes / dict.arity()));

  auto& registry = CurrentMetrics();
  LiveProgress progress(&registry);

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
    chunk.Clear();
    chunk_deltas.clear();
    chunk_diags.clear();
    reader->RecordSpansInto(&spans);
    QuarantineSink* live_sink = nullptr;
    if (journal_csv) {
      csv_capture.Clear();
      live_sink = reader->SwapQuarantine(&csv_capture);
    }
    const uint64_t read_start_ns = TraceNowNanos();
    StatusOr<size_t> read = reader->ReadChunk(&chunk, config.chunk_rows);
    const uint64_t read_ns = TraceNowNanos() - read_start_ns;
    if (journal_csv) {
      reader->SwapQuarantine(live_sink);
      if (durable != nullptr && read.ok() &&
          csv_capture.diagnostics() != durable->csv_quarantined) {
        return Status::MalformedInput(
            "resume divergence at chunk " +
            std::to_string(durable->chunk_index) + ": WAL journaled " +
            std::to_string(durable->csv_quarantined.size()) +
            " CSV-level diagnostics, re-reading the input rendered " +
            std::to_string(csv_capture.size()) +
            " (or their contents differ) — was the input modified since "
            "the journaled run?");
      }
      // The capture must be invisible to the caller's sink. On a
      // replayed chunk it equals the journaled records, checked above.
      if (live_sink != nullptr) {
        for (const Diagnostic& diagnostic : csv_capture.diagnostics()) {
          live_sink->Add(diagnostic);
        }
      }
    }
    if (!read.ok()) return read.status();
    if (durable == nullptr && read.value() == 0 && reader->at_end()) break;
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
    ++result.chunks;
    const size_t cells_before = result.cells_changed;
    const size_t quarantined_before = result.tuples_quarantined;
    const uint64_t chunk_start_ns = TraceNowNanos();
    progress.chunk->Set(static_cast<int64_t>(result.chunks));
    progress.input_bytes->Set(static_cast<int64_t>(reader->bytes_read()));

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
        for (const Diagnostic& diagnostic : csv_capture.diagnostics()) {
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
    spans.header = {reader->chunk_offset(), reader->chunk_offset(), true};
    StatusOr<CsvChunkEmit> emitted = WriteCsvChunk(
        reader->chunk_bytes(), spans, chunk, chunk_deltas, out);
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
          .Set("read_ns", read_ns)
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
