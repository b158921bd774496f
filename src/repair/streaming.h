#ifndef FIXREP_REPAIR_STREAMING_H_
#define FIXREP_REPAIR_STREAMING_H_

#include <vector>

#include "common/status.h"
#include "relation/csv.h"
#include "repair/recovery.h"
#include "repair/session.h"

namespace fixrep {

// Chunked streaming repair: CSV in, repaired CSV out, with peak memory
// proportional to one chunk instead of the whole relation. This is the
// loop behind RepairSession::RepairStream (repair/session.h), which opens
// the WAL and calls it; call sites go through the session.
//
// The pipeline (docs/storage.md) is
//
//   CsvChunkReader --chunk--> repair in place --splice--> CsvOutput
//
// One chunk Table (its flat RowStore reused across chunks via Clear())
// holds at most config.chunk_rows rows at a time; repaired rows are
// emitted before the next chunk is read. Because fixing-rule repair is
// per tuple, chunking cannot change the output: the repaired stream is
// bit-identical to repairing the whole table in memory and writing it
// out (WriteCsv), for every chunk size, width, routing and error policy.
//
// The output contract: the header is rendered, then each chunk's rows
// go out through WriteCsvChunk as a splice over the chunk's input bytes,
// which the reader keeps (CsvChunkReader::chunk_bytes; a chunk read
// from a stream or file ends within kKeepBytes of input): runs of
// unchanged verbatim records are copied from the input, dropped records
// are skipped, and only records that are not verbatim and the rows the
// chunk's write log names are rendered (the driver's log for a repaired
// chunk, the journaled deltas for a replayed one). An AtomicFile output
// takes the pieces as gathered writes and starts their writeback as
// they pile up.
//
// One RepairDriver (repair/driver.h) repairs every chunk, so its slots —
// and, in abort mode, their memos — live across chunk boundaries, and
// memoization works across chunks exactly as across rows of a
// whole-table run. The driver publishes its metrics per run, so a stream
// that fails part way keeps the counts of the chunks it repaired.
//
// Memory: a chunk read from a stream or file holds at most
// kKeepBytes / arity rows (a record is at least arity bytes), so the
// chunk's cell block, reserved once for that many rows, never grows:
// its size (RepairReport::peak_chunk_bytes) is at most about
// kKeepBytes * sizeof(ValueId) whatever the input's length.
//
// Durability (docs/durability.md): a non-null `journal` receives each
// chunk as chunk_begin / cell_delta* / quarantine* / chunk_commit,
// committed (group fsync) BEFORE the chunk's rows are emitted, so a crash
// anywhere leaves every emitted row covered by a durable chunk. A
// non-null `resume` makes that scanned run's committed chunks the first
// chunks of the loop: each is re-read and checked against the log, its
// recorded deltas and diagnostics are replayed instead of a chase, and
// its rows are emitted like any other chunk's, so resumed output is
// byte-identical to an uninterrupted run. Replayed chunks journal
// nothing and emit no `chunk` or `wal_commit` telemetry; one `resume`
// event follows the last of them. The caller has validated the header
// (ValidateWalHeader) and reopened `journal` with ChunkJournal::Resume.
//
// Tuple diagnostics carry the global output-row index (what a
// whole-table run reports), and so do the entries a non-null `log`
// receives (the chunks repaired here; replayed chunks add none);
// malformed CSV records flow through the reader's own sink. Returns the
// totals, or the first error in abort mode. The reader's schema must
// match the rules' arity.
StatusOr<RepairReport> StreamRepair(const RuleDict& dict,
                                    const RepairConfig& config,
                                    ChunkJournal* journal,
                                    const RecoveredRun* resume,
                                    CsvChunkReader* reader,
                                    CsvOutput out,
                                    std::vector<CellRepair>* log = nullptr);

}  // namespace fixrep

#endif  // FIXREP_REPAIR_STREAMING_H_
