#ifndef FIXREP_REPAIR_RECOVERY_H_
#define FIXREP_REPAIR_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/quarantine.h"
#include "common/status.h"
#include "common/wal.h"
#include "relation/schema.h"
#include "relation/value_pool.h"
#include "repair/provenance.h"
#include "rules/fingerprint.h"
#include "rules/rule_set.h"

// Durable streaming repair (docs/durability.md): the record layer over
// common/wal.h that makes RepairSession::RepairStream crash-recoverable,
// auditable, and rule-by-rule reversible.
//
// Record protocol — one header, then per committed chunk:
//
//   header | chunk_begin cell_delta* csv_quarantine* quarantine*
//            chunk_commit | ...
//
// ChunkJournal appends the records; each Commit group-fsyncs, so the
// durable prefix of the file always ends at a chunk_commit. The
// streaming session commits each chunk BEFORE emitting its rows, and
// the output file is atomically renamed into place only at the end
// (common/atomic_file.h) — a crash anywhere loses no committed chunk
// and never exposes a partial output.
//
// ScanWal replays a log front to back: committed chunks are returned
// with their deltas and tuple diagnostics; an uncommitted tail (torn
// frame, chunk_begin without its chunk_commit) is reported and its byte
// offset excluded from durable_bytes, which ChunkJournal::Resume
// truncates away before appending.
//
// Values travel as strings, not ValueIds — a WAL written by one process
// replays in another, and the header carries the schema's attribute
// names so `fixrep_cli audit` needs nothing but the log.
//
// Crash-injection sites (docs/robustness.md): "wal.crash_after_append"
// (die after the chunk's deltas are written, before its commit record),
// "wal.crash_before_commit" (die mid-write of the commit record — a
// torn final frame), "wal.crash_after_commit" (die with the chunk
// durable but its rows never emitted). All three raise SIGKILL after
// flushing, leaving exactly the file bytes a real kill would.

namespace fixrep {

// Version 2 added kCsvQuarantine: CSV-level diagnostics are journaled
// per chunk, so resume validates re-rendered input diagnostics against
// the log instead of silently trusting the input file. Version-1 logs
// are still scanned and resumed (they carry no CSV records, so resume
// falls back to re-rendering from the input, as version 1 always did).
inline constexpr uint32_t kWalFormatVersion = 2;
// The oldest version this build still reads.
inline constexpr uint32_t kMinWalFormatVersion = 1;
// The version that introduced CSV-level quarantine journaling.
inline constexpr uint32_t kCsvQuarantineWalVersion = 2;

// Record types inside the frame layer of common/wal.h.
enum class WalRec : uint8_t {
  kHeader = 1,
  kChunkBegin = 2,
  kCellDelta = 3,
  kQuarantine = 4,
  kChunkCommit = 5,
  kCsvQuarantine = 6,
};

// The run configuration a WAL was written under. Resume refuses a
// header that does not match the live run (ValidateWalHeader): byte
// identity is only guaranteed for an identical configuration.
struct WalRunHeader {
  uint32_t version = kWalFormatVersion;
  // FNV-1a over the serialized rule set (RuleSetFingerprint).
  uint64_t rule_fingerprint = 0;
  std::vector<std::string> attribute_names;
  uint64_t chunk_rows = 0;
  uint8_t on_error = 0;  // OnErrorPolicy, numeric

  size_t arity() const { return attribute_names.size(); }
};

// One journaled cell write, process-independent.
struct WalCellDelta {
  uint64_t row = 0;  // chunk-local row index
  uint32_t attr = 0;
  bool old_is_null = false;
  std::string old_value;
  std::string new_value;
  uint64_t rule_index = 0;

  bool operator==(const WalCellDelta&) const = default;
};

// One committed chunk recovered from a WAL.
struct WalChunk {
  uint64_t chunk_index = 0;  // 1-based, like RepairReport::chunks
  uint64_t base_row = 0;     // global output-row index of chunk row 0
  uint64_t rows = 0;
  uint64_t cells_changed = 0;
  uint64_t tuples_quarantined = 0;
  std::vector<WalCellDelta> deltas;
  // Tuple-level diagnostics at global rows.
  std::vector<Diagnostic> quarantined;
  // CSV-level diagnostics the reader produced while this chunk's records
  // were consumed (version >= 2; global record ordinals). Resume
  // forwards these instead of the re-rendered ones and refuses when the
  // two disagree — the loud alternative to assuming the input file is
  // still present and unchanged.
  std::vector<Diagnostic> csv_quarantined;
};

// RuleSetFingerprint — the rule-set identity WAL headers carry — lives
// in rules/fingerprint.h (included above): the same identity stamps
// compiled rule dictionaries, so it belongs to the rules layer.

// Appends the chunk protocol to a WAL file. Create/Resume sync the
// header position immediately, so even a run killed inside its first
// chunk leaves a scannable log.
class ChunkJournal {
 public:
  static StatusOr<ChunkJournal> Create(const std::string& path,
                                       const WalRunHeader& header);
  // Reopens an existing WAL for appending after ScanWal: truncates the
  // uncommitted tail at `durable_bytes` and continues the protocol.
  static StatusOr<ChunkJournal> Resume(const std::string& path,
                                       uint64_t durable_bytes);

  Status BeginChunk(uint64_t chunk_index, uint64_t base_row, uint64_t rows);
  Status AddDelta(const WalCellDelta& delta);
  Status AddQuarantine(const Diagnostic& diagnostic);
  // CSV-level (reader) diagnostic. Do not append to a log resumed from
  // a version-1 header: old scanners refuse the record type.
  Status AddCsvQuarantine(const Diagnostic& diagnostic);
  // Appends the commit record and group-fsyncs everything since the
  // last Commit. The chunk is durable iff this returns ok.
  Status Commit(uint64_t chunk_index, uint64_t rows, uint64_t cells_changed,
                uint64_t tuples_quarantined);

  uint64_t fsync_count() const { return writer_.fsync_count(); }
  uint64_t appended_bytes() const { return writer_.appended_bytes(); }
  Status Close() { return writer_.Close(); }

 private:
  explicit ChunkJournal(WalWriter writer) : writer_(std::move(writer)) {}

  WalWriter writer_;
};

// Everything a scan recovers from a WAL file.
struct RecoveredRun {
  WalRunHeader header;
  std::vector<WalChunk> chunks;  // committed chunks only, in log order
  // Byte offset just past the last chunk_commit (or the header when no
  // chunk committed) — the prefix ChunkJournal::Resume keeps.
  uint64_t durable_bytes = 0;
  // True when the log carried anything past that point: a torn frame
  // from a mid-write crash, or records of a chunk that never committed.
  bool tail_discarded = false;

  uint64_t rows_durable() const {
    uint64_t n = 0;
    for (const WalChunk& chunk : chunks) n += chunk.rows;
    return n;
  }
};

// Replays `path` front to back. kMalformedInput for a file that is not
// a WAL or whose durable prefix violates the record protocol; a torn or
// uncommitted *tail* is not an error (that is what crashes leave).
StatusOr<RecoveredRun> ScanWal(const std::string& path);

// Refuses a header that does not describe the live run. `chunk_rows`
// and `on_error` mismatches break replay determinism; a fingerprint or
// schema mismatch means the WAL belongs to different rules or data.
Status ValidateWalHeader(const WalRunHeader& header,
                         uint64_t rule_fingerprint,
                         const std::vector<std::string>& attribute_names,
                         uint64_t chunk_rows, OnErrorPolicy on_error);

// Fingerprint-only gate for attribution (audit --rules, rollback):
// refuses when `rules` is not the rule set the WAL was written under.
Status ValidateWalFingerprint(const WalRunHeader& header,
                              const RuleSet& rules);

// A WAL rendered back into provenance form: a RepairLog at global
// output rows plus the schema/pool needed to Describe it. Standalone —
// built entirely from the log, no rules or input required.
struct WalAudit {
  std::shared_ptr<const Schema> schema;
  std::shared_ptr<ValuePool> pool;
  RepairLog log;
};

StatusOr<WalAudit> BuildAudit(const RecoveredRun& run);

struct RollbackReport {
  size_t cells_restored = 0;
  size_t rows_touched = 0;
};

// Undoes every write rule `rule_index` made, against the repaired CSV
// at `repaired_csv`, writing the result to `out_csv` (atomically).
// Sound because the chase writes each (row, attr) cell at most once (a
// written target enters the assured set and is never rewritten): each
// delta independently verifies the cell still holds its new value —
// kMalformedInput if the file was edited since — and restores the old.
// Refuses on a fingerprint mismatch with `rules` or an out-of-range
// rule index. Re-repairing the output with the same rules restores the
// repaired bytes.
StatusOr<RollbackReport> RollbackRule(const RecoveredRun& run,
                                      const RuleSet& rules,
                                      size_t rule_index,
                                      const std::string& repaired_csv,
                                      const std::string& out_csv);

}  // namespace fixrep

#endif  // FIXREP_REPAIR_RECOVERY_H_
