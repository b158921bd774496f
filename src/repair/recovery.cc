#include "repair/recovery.h"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "rules/rule_io.h"

namespace fixrep {

namespace {

// The crash half of a crash site: flush what a real kill would leave in
// the file, then die the way the kill-and-resume harness's SIGKILL
// does — no atexit handlers, no stack unwinding, no buffered IO flush.
[[noreturn]] void CrashForFaultInjection() {
  std::raise(SIGKILL);
  std::abort();  // unreachable unless SIGKILL is somehow masked
}

std::string EncodeHeader(const WalRunHeader& header) {
  std::string payload;
  WalPutU32(&payload, header.version);
  WalPutU64(&payload, header.rule_fingerprint);
  WalPutU32(&payload, static_cast<uint32_t>(header.attribute_names.size()));
  for (const std::string& name : header.attribute_names) {
    WalPutString(&payload, name);
  }
  WalPutU64(&payload, header.chunk_rows);
  WalPutU8(&payload, header.on_error);
  return payload;
}

bool DecodeHeader(std::string_view payload, WalRunHeader* header) {
  WalCursor cursor(payload);
  uint32_t num_attrs = 0;
  if (!cursor.GetU32(&header->version) ||
      !cursor.GetU64(&header->rule_fingerprint) ||
      !cursor.GetU32(&num_attrs)) {
    return false;
  }
  // Every name carries at least its 4-byte length, so a count the payload
  // cannot hold is refused before anything is allocated for it.
  if (num_attrs > cursor.remaining() / 4) return false;
  header->attribute_names.resize(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    if (!cursor.GetString(&header->attribute_names[a])) return false;
  }
  if (!cursor.GetU64(&header->chunk_rows)) return false;
  if (!cursor.GetU8(&header->on_error)) return false;
  return cursor.at_end();
}

std::string EncodeDelta(const WalCellDelta& delta) {
  std::string payload;
  WalPutU64(&payload, delta.row);
  WalPutU32(&payload, delta.attr);
  WalPutU8(&payload, delta.old_is_null ? 1 : 0);
  WalPutString(&payload, delta.old_value);
  WalPutString(&payload, delta.new_value);
  WalPutU64(&payload, delta.rule_index);
  return payload;
}

bool DecodeDelta(std::string_view payload, WalCellDelta* delta) {
  WalCursor cursor(payload);
  uint8_t old_is_null = 0;
  if (!cursor.GetU64(&delta->row) || !cursor.GetU32(&delta->attr) ||
      !cursor.GetU8(&old_is_null) || !cursor.GetString(&delta->old_value) ||
      !cursor.GetString(&delta->new_value) ||
      !cursor.GetU64(&delta->rule_index)) {
    return false;
  }
  delta->old_is_null = old_is_null != 0;
  return cursor.at_end();
}

std::string EncodeQuarantine(const Diagnostic& diagnostic) {
  std::string payload;
  WalPutU64(&payload, static_cast<uint64_t>(diagnostic.line));
  WalPutU8(&payload, static_cast<uint8_t>(diagnostic.code));
  WalPutString(&payload, diagnostic.message);
  WalPutString(&payload, diagnostic.raw_text);
  return payload;
}

bool DecodeQuarantine(std::string_view payload, Diagnostic* diagnostic) {
  WalCursor cursor(payload);
  uint64_t line = 0;
  uint8_t code = 0;
  if (!cursor.GetU64(&line) || !cursor.GetU8(&code) ||
      !cursor.GetString(&diagnostic->message) ||
      !cursor.GetString(&diagnostic->raw_text)) {
    return false;
  }
  diagnostic->line = static_cast<size_t>(line);
  diagnostic->code = static_cast<StatusCode>(code);
  return cursor.at_end();
}

std::string EncodeChunkMeta(uint64_t chunk_index, uint64_t a, uint64_t b,
                            uint64_t c) {
  std::string payload;
  WalPutU64(&payload, chunk_index);
  WalPutU64(&payload, a);
  WalPutU64(&payload, b);
  WalPutU64(&payload, c);
  return payload;
}

bool DecodeChunkMeta(std::string_view payload, uint64_t* chunk_index,
                     uint64_t* a, uint64_t* b, uint64_t* c) {
  WalCursor cursor(payload);
  return cursor.GetU64(chunk_index) && cursor.GetU64(a) && cursor.GetU64(b) &&
         cursor.GetU64(c) && cursor.at_end();
}

Status MalformedWal(const std::string& path, const std::string& detail) {
  return Status::MalformedInput("WAL '" + path + "': " + detail);
}

}  // namespace

StatusOr<ChunkJournal> ChunkJournal::Create(const std::string& path,
                                            const WalRunHeader& header) {
  StatusOr<WalWriter> writer = WalWriter::Create(path);
  if (!writer.ok()) return writer.status();
  ChunkJournal journal(std::move(writer).value());
  FIXREP_RETURN_IF_ERROR(journal.writer_.Append(
      static_cast<uint8_t>(WalRec::kHeader), EncodeHeader(header)));
  // Sync now: a run killed inside its first chunk must still leave a
  // scannable (zero-chunk) log behind.
  FIXREP_RETURN_IF_ERROR(journal.writer_.Sync());
  return journal;
}

StatusOr<ChunkJournal> ChunkJournal::Resume(const std::string& path,
                                            uint64_t durable_bytes) {
  StatusOr<WalWriter> writer = WalWriter::OpenForAppend(path, durable_bytes);
  if (!writer.ok()) return writer.status();
  return ChunkJournal(std::move(writer).value());
}

Status ChunkJournal::BeginChunk(uint64_t chunk_index, uint64_t base_row,
                                uint64_t rows) {
  return writer_.Append(static_cast<uint8_t>(WalRec::kChunkBegin),
                        EncodeChunkMeta(chunk_index, base_row, rows, 0));
}

Status ChunkJournal::AddDelta(const WalCellDelta& delta) {
  return writer_.Append(static_cast<uint8_t>(WalRec::kCellDelta),
                        EncodeDelta(delta));
}

Status ChunkJournal::AddQuarantine(const Diagnostic& diagnostic) {
  return writer_.Append(static_cast<uint8_t>(WalRec::kQuarantine),
                        EncodeQuarantine(diagnostic));
}

Status ChunkJournal::AddCsvQuarantine(const Diagnostic& diagnostic) {
  return writer_.Append(static_cast<uint8_t>(WalRec::kCsvQuarantine),
                        EncodeQuarantine(diagnostic));
}

Status ChunkJournal::Commit(uint64_t chunk_index, uint64_t rows,
                            uint64_t cells_changed,
                            uint64_t tuples_quarantined) {
  if (FIXREP_FAULT("wal.crash_after_append")) {
    // Die with the chunk's records written but no commit record: replay
    // must discard them as an uncommitted tail.
    (void)writer_.FlushNoSync();
    CrashForFaultInjection();
  }
  const std::string payload =
      EncodeChunkMeta(chunk_index, rows, cells_changed, tuples_quarantined);
  if (FIXREP_FAULT("wal.crash_before_commit")) {
    // Die mid-write of the commit record itself: everything before it
    // lands whole, then half a frame — the CRC/torn-frame replay case.
    (void)writer_.FlushNoSync();
    (void)writer_.Append(static_cast<uint8_t>(WalRec::kChunkCommit),
                         payload);
    writer_.WriteTornBufferForCrash();
    CrashForFaultInjection();
  }
  FIXREP_RETURN_IF_ERROR(writer_.Append(
      static_cast<uint8_t>(WalRec::kChunkCommit), payload));
  FIXREP_RETURN_IF_ERROR(writer_.Sync());
  if (FIXREP_FAULT("wal.crash_after_commit")) {
    // Die with the chunk durable but its rows never emitted: resume
    // must re-emit them from the log.
    CrashForFaultInjection();
  }
  return Status::Ok();
}

StatusOr<RecoveredRun> ScanWal(const std::string& path) {
  StatusOr<WalReader> opened = WalReader::Open(path);
  if (!opened.ok()) return opened.status();
  WalReader& reader = opened.value();

  RecoveredRun run;
  bool have_header = false;
  std::optional<WalChunk> pending;
  WalRecord record;
  while (reader.Next(&record)) {
    switch (static_cast<WalRec>(record.type)) {
      case WalRec::kHeader: {
        if (have_header) return MalformedWal(path, "duplicate header record");
        if (!DecodeHeader(record.payload, &run.header)) {
          return MalformedWal(path, "undecodable header record");
        }
        if (run.header.version < kMinWalFormatVersion ||
            run.header.version > kWalFormatVersion) {
          return MalformedWal(
              path, "format version " + std::to_string(run.header.version) +
                        " (this build reads versions " +
                        std::to_string(kMinWalFormatVersion) + ".." +
                        std::to_string(kWalFormatVersion) + ")");
        }
        have_header = true;
        run.durable_bytes = reader.durable_bytes();
        break;
      }
      case WalRec::kChunkBegin: {
        if (!have_header) return MalformedWal(path, "chunk before header");
        if (pending.has_value()) {
          // A begin can only follow a commit in the durable prefix; an
          // interrupted chunk is always the LAST thing in the file.
          return MalformedWal(path, "chunk_begin inside an open chunk");
        }
        WalChunk chunk;
        uint64_t zero = 0;
        if (!DecodeChunkMeta(record.payload, &chunk.chunk_index,
                             &chunk.base_row, &chunk.rows, &zero)) {
          return MalformedWal(path, "undecodable chunk_begin record");
        }
        pending = std::move(chunk);
        break;
      }
      case WalRec::kCellDelta: {
        if (!pending.has_value()) {
          return MalformedWal(path, "cell_delta outside a chunk");
        }
        WalCellDelta delta;
        if (!DecodeDelta(record.payload, &delta)) {
          return MalformedWal(path, "undecodable cell_delta record");
        }
        pending->deltas.push_back(std::move(delta));
        break;
      }
      case WalRec::kQuarantine: {
        if (!pending.has_value()) {
          return MalformedWal(path, "quarantine outside a chunk");
        }
        Diagnostic diagnostic;
        if (!DecodeQuarantine(record.payload, &diagnostic)) {
          return MalformedWal(path, "undecodable quarantine record");
        }
        pending->quarantined.push_back(std::move(diagnostic));
        break;
      }
      case WalRec::kCsvQuarantine: {
        if (run.header.version < kCsvQuarantineWalVersion) {
          return MalformedWal(path,
                              "csv_quarantine record in a version-" +
                                  std::to_string(run.header.version) + " log");
        }
        if (!pending.has_value()) {
          return MalformedWal(path, "csv_quarantine outside a chunk");
        }
        Diagnostic diagnostic;
        if (!DecodeQuarantine(record.payload, &diagnostic)) {
          return MalformedWal(path, "undecodable csv_quarantine record");
        }
        pending->csv_quarantined.push_back(std::move(diagnostic));
        break;
      }
      case WalRec::kChunkCommit: {
        if (!pending.has_value()) {
          return MalformedWal(path, "chunk_commit outside a chunk");
        }
        uint64_t chunk_index = 0;
        uint64_t rows = 0;
        if (!DecodeChunkMeta(record.payload, &chunk_index, &rows,
                             &pending->cells_changed,
                             &pending->tuples_quarantined)) {
          return MalformedWal(path, "undecodable chunk_commit record");
        }
        if (chunk_index != pending->chunk_index || rows != pending->rows) {
          return MalformedWal(
              path, "chunk_commit #" + std::to_string(chunk_index) +
                        " does not match open chunk #" +
                        std::to_string(pending->chunk_index));
        }
        run.chunks.push_back(std::move(pending).value());
        pending.reset();
        run.durable_bytes = reader.durable_bytes();
        break;
      }
      default:
        return MalformedWal(path, "unknown record type " +
                                      std::to_string(record.type));
    }
  }
  if (!have_header) {
    return MalformedWal(path, "no header record in the durable prefix");
  }
  // Anything past the last commit — a torn frame, or whole records of a
  // chunk that never committed — is the crash residue resume truncates.
  run.tail_discarded = reader.tail_truncated() || pending.has_value() ||
                       reader.durable_bytes() != run.durable_bytes;
  return run;
}

Status ValidateWalHeader(const WalRunHeader& header,
                         uint64_t rule_fingerprint,
                         const std::vector<std::string>& attribute_names,
                         uint64_t chunk_rows, OnErrorPolicy on_error) {
  if (header.rule_fingerprint != rule_fingerprint) {
    return Status::MalformedInput(
        "WAL was written under a different rule set (fingerprint mismatch); "
        "resume requires the original rules");
  }
  if (header.attribute_names != attribute_names) {
    return Status::MalformedInput(
        "WAL was written for a different schema (" +
        std::to_string(header.arity()) + " attributes vs " +
        std::to_string(attribute_names.size()) + " in the input)");
  }
  if (header.chunk_rows != chunk_rows) {
    return Status::MalformedInput(
        "WAL was written with chunk_rows=" +
        std::to_string(header.chunk_rows) + ", this run uses " +
        std::to_string(chunk_rows) +
        "; chunk boundaries must match to resume");
  }
  if (header.on_error != static_cast<uint8_t>(on_error)) {
    return Status::MalformedInput(
        "WAL was written under a different --on-error policy; resume "
        "requires the original policy");
  }
  return Status::Ok();
}

Status ValidateWalFingerprint(const WalRunHeader& header,
                              const RuleSet& rules) {
  if (header.rule_fingerprint != RuleSetFingerprint(rules)) {
    return Status::MalformedInput(
        "rule set does not match the WAL (fingerprint mismatch): rule "
        "indices in the log would be misattributed — load the rule file "
        "the run was journaled under");
  }
  return Status::Ok();
}

StatusOr<WalAudit> BuildAudit(const RecoveredRun& run) {
  if (run.header.arity() == 0) {
    return Status::MalformedInput(
        "WAL header carries no attribute names; nothing to audit");
  }
  WalAudit audit;
  audit.schema = std::make_shared<const Schema>(
      "wal", std::vector<std::string>(run.header.attribute_names));
  audit.pool = std::make_shared<ValuePool>();
  for (const WalChunk& chunk : run.chunks) {
    for (const WalCellDelta& delta : chunk.deltas) {
      CellRepair repair;
      repair.row = static_cast<size_t>(chunk.base_row + delta.row);
      repair.attr = static_cast<AttrId>(delta.attr);
      repair.old_value =
          delta.old_is_null ? kNullValue : audit.pool->Intern(delta.old_value);
      repair.new_value = audit.pool->Intern(delta.new_value);
      repair.rule_index = static_cast<size_t>(delta.rule_index);
      audit.log.repairs.push_back(repair);
    }
  }
  return audit;
}

StatusOr<RollbackReport> RollbackRule(const RecoveredRun& run,
                                      const RuleSet& rules,
                                      size_t rule_index,
                                      const std::string& repaired_csv,
                                      const std::string& out_csv) {
  FIXREP_RETURN_IF_ERROR(ValidateWalFingerprint(run.header, rules));
  if (rule_index >= rules.size()) {
    return Status::MalformedInput(
        "rule index " + std::to_string(rule_index) +
        " out of range: the rule set has " + std::to_string(rules.size()) +
        " rules");
  }
  auto pool = std::make_shared<ValuePool>();
  StatusOr<Table> loaded = ReadCsvFileLenient(repaired_csv, "rollback", pool);
  if (!loaded.ok()) return loaded.status();
  Table& table = loaded.value();
  if (table.num_columns() != run.header.arity()) {
    return Status::MalformedInput(
        "'" + repaired_csv + "' has " + std::to_string(table.num_columns()) +
        " columns but the WAL was written for " +
        std::to_string(run.header.arity()));
  }

  RollbackReport report;
  size_t last_row_touched = SIZE_MAX;
  for (const WalChunk& chunk : run.chunks) {
    for (const WalCellDelta& delta : chunk.deltas) {
      if (delta.rule_index != rule_index) continue;
      const size_t row = static_cast<size_t>(chunk.base_row + delta.row);
      const AttrId attr = static_cast<AttrId>(delta.attr);
      if (row >= table.num_rows()) {
        return Status::MalformedInput(
            "WAL delta at row " + std::to_string(row) + " but '" +
            repaired_csv + "' has only " + std::to_string(table.num_rows()) +
            " rows — not the output of the journaled run?");
      }
      // The chase writes each cell at most once, so the journaled new
      // value is the final value: anything else means the file was
      // modified since the repair, and restoring the old value would
      // clobber that edit.
      if (table.CellString(row, attr) != delta.new_value) {
        return Status::MalformedInput(
            "row " + std::to_string(row) + " " +
            run.header.attribute_names[delta.attr] + " holds '" +
            table.CellString(row, attr) + "', expected '" + delta.new_value +
            "' — '" + repaired_csv +
            "' was modified since the journaled repair; refusing rollback");
      }
      table.WriteCell(row, attr,
                      delta.old_is_null ? kNullValue
                                        : pool->Intern(delta.old_value));
      ++report.cells_restored;
      if (row != last_row_touched) {
        ++report.rows_touched;
        last_row_touched = row;
      }
    }
  }
  FIXREP_RETURN_IF_ERROR(TryWriteCsvFile(table, out_csv));
  return report;
}

}  // namespace fixrep
