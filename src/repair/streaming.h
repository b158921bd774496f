#ifndef FIXREP_REPAIR_STREAMING_H_
#define FIXREP_REPAIR_STREAMING_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "relation/csv.h"
#include "repair/recovery.h"
#include "repair/session.h"

namespace fixrep {

// A CSV input whose stream has started: constructing it starts the
// stream's reader thread and posts the read of the first chunk, so that
// chunk is read while the caller loads the rules, builds its session and
// opens its output. Make it right after CsvChunkReader::Open and hand it
// to RepairSession::RepairStream, which spends it.
//
// While the first chunk is read the caller may still intern into the
// reader's pool (parse rules over it, RuleDict::Bind to it): that read
// stages every value it meets in its ValueOverlay and never looks into
// the pool. The stream commits the overlay at the chunk's hand-off,
// after the rules, so every value still gets the id of the serial order
// (rule constants first, then the input's values in first-occurrence
// order). A caller whose CPU affinity allows one CPU only gets no
// thread: each chunk, the first included, is read at its hand-off.
//
// The reader belongs to the input until the input is closed (the stream
// closes it whichever way it ends) or destroyed: the caller reads only
// its schema and pool, here. A read cannot be cancelled: closing or
// destroying a started input waits for the read it posted last (which
// runs if it has not started yet), so from a pipe whose writer stalls it
// returns only once the writer delivers the rest of that read or closes
// the input. That holds for an input dropped before any stream, say when
// the rules fail to load: it waits for the first chunk's read.
class StreamInput {
 public:
  // Starts reading `reader` in chunks of at most `chunk_rows` rows (> 0:
  // the RepairConfig::chunk_rows of the stream it feeds).
  StreamInput(CsvChunkReader* reader, size_t chunk_rows);
  ~StreamInput();

  StreamInput(const StreamInput&) = delete;
  StreamInput& operator=(const StreamInput&) = delete;

  const std::shared_ptr<const Schema>& schema() const;
  const std::shared_ptr<ValuePool>& pool() const;

  // Waits for the read posted last, ends the reader thread and hands
  // the reader back with its quarantine sink, span recording and
  // interning as they were. Idempotent; the input reads nothing more.
  void Close();

 private:
  friend StatusOr<RepairReport> StreamRepair(const RuleDict& dict,
                                             const RepairConfig& config,
                                             ChunkJournal* journal,
                                             const RecoveredRun* resume,
                                             StreamInput* input, CsvOutput out,
                                             std::vector<CellRepair>* log);
  class Reader;  // the reader thread and its two chunk slots
  std::unique_ptr<Reader> reader_;
};

// Chunked streaming repair: CSV in, repaired CSV out, with peak memory
// proportional to one chunk instead of the whole relation. This is the
// loop behind RepairSession::RepairStream (repair/session.h), which opens
// the WAL and calls it; call sites go through the session.
//
// The pipeline (docs/storage.md) has two stages:
//
//   reader thread:   CsvChunkReader --chunk k+1 (ValueOverlay)--> hand-off
//   calling thread:  chunk k: repair in place -> WAL commit -> splice
//                    --> CsvOutput
//
// The input's reader thread, started with the input, reads chunk 1 while
// the caller loads the rules and chunk k+1 while the calling thread
// repairs (or replays), journals and emits chunk k; at most two chunk
// Tables (flat RowStores reused via Clear()) of at most config.chunk_rows
// rows are in flight. While both threads run the reader only reads the
// pool (chunk 1's read not even that): it resolves new values through a
// chunk-local ValueOverlay, which the calling thread commits at the
// hand-off, with the reader idle and in chunk order, so every value gets
// the ValueId a serial read gives it. A caller limited to one CPU reads
// each chunk itself at the hand-off, interning directly, as a serial
// loop does (StreamInput). The hand-off also forwards the chunk's CSV
// diagnostics to the reader's sink and publishes the reader's counters
// to the calling thread's CurrentMetrics(), so sinks, registries and
// the memo see what a serial read -> repair -> emit loop showed them. A
// read error in chunk k+1 comes back after chunk k is journaled and
// emitted; the stream closes the input before it returns, so the reader
// thread never outlives the call. A read cannot be cancelled, so an
// error in chunk k (journaling, writing, a resume divergence) comes back
// once the read of chunk k+1 ends: at once from a file, but from a pipe
// whose writer stalls only when the writer delivers the rest of that
// read or closes the input. Because fixing-rule repair is per tuple,
// chunking cannot change the output: the repaired stream is
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
// kKeepBytes / arity rows (a record is at least arity bytes), so a
// chunk's cell block, reserved once for that many rows, never grows:
// its size (RepairReport::peak_chunk_bytes) is at most about
// kKeepBytes * sizeof(ValueId) whatever the input's length. Two chunks
// are in flight, so the stream holds two such blocks and the reader's
// two refill buffers, about 2 MiB of kept input.
//
// Durability (docs/durability.md): a non-null `journal` receives each
// chunk as chunk_begin / cell_delta* / quarantine* / chunk_commit,
// committed (group fsync) BEFORE the chunk's rows are emitted, so a crash
// anywhere leaves every emitted row covered by a durable chunk. A
// non-null `resume` makes that scanned run's committed chunks the first
// chunks of the loop: each is re-read and checked against the log, its
// recorded deltas and diagnostics are replayed instead of a chase (a
// delta's value must be one a rule writes, already in the pool), and
// its rows are emitted like any other chunk's, so resumed output is
// byte-identical to an uninterrupted run. Replayed chunks journal
// nothing and emit no `chunk` or `wal_commit` telemetry; one `resume`
// event follows the last of them. The caller has validated the header
// (ValidateWalHeader) and reopened `journal` with ChunkJournal::Resume.
//
// Tuple diagnostics carry the global output-row index (what a
// whole-table run reports), and so do the entries a non-null `log`
// receives (the chunks repaired here; replayed chunks add none);
// malformed CSV records reach the reader's own sink at their chunk's
// hand-off. Returns the totals, or the first error in abort mode. The
// input's schema must match the rules' arity and its chunk_rows the
// config's; the input is spent once the call returns. Its input stream
// is read straight from the stream's buffer, so an input tied to `out`
// (std::cin to std::cout) is never flushed from the reader thread.
StatusOr<RepairReport> StreamRepair(const RuleDict& dict,
                                    const RepairConfig& config,
                                    ChunkJournal* journal,
                                    const RecoveredRun* resume,
                                    StreamInput* input, CsvOutput out,
                                    std::vector<CellRepair>* log = nullptr);

}  // namespace fixrep

#endif  // FIXREP_REPAIR_STREAMING_H_
