#ifndef FIXREP_REPAIR_SESSION_H_
#define FIXREP_REPAIR_SESSION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/quarantine.h"
#include "common/status.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "repair/memo_cache.h"
#include "rules/rule_dict.h"
#include "rules/rule_set.h"

namespace fixrep {

class StreamInput;  // repair/streaming.h

// The unified repair entry point (docs/api.md).
//
// One RepairConfig picks an engine, a width or shard count, an error
// policy and (for streams) the memory and durability knobs. Every
// configuration of either engine runs through one RepairDriver
// (repair/driver.h): Repair builds one per call, RepairStream one per
// stream. The config holds only what changes the run; the rules come
// in as an object (a RuleSet or a bound RuleDict), and a caller that
// wants its counts apart wraps its calls in a MetricScope::Activation
// (common/metric_scope.h).

// Which repair algorithm drives the chase.
enum class RepairEngine {
  // lRepair (Fig. 7): O(size(Σ)) per tuple over a RuleDict image.
  // Supports every RepairConfig knob. The default.
  kLRepair,
  // cRepair (Fig. 6): the reference chase, O(size(Σ)·|R|) per tuple —
  // kept for cross-validation. Runs at any width, routing, policy and
  // chunk size, but never memoizes, and a stream with a WAL is refused
  // (the WAL header does not record the engine).
  kCRepair,
};

struct RepairConfig {
  RepairEngine engine = RepairEngine::kLRepair;
  // 1 = serial (the default); 0 = the pool's full width; >1 = that many
  // workers claiming row ranges, capped at the pool width.
  size_t threads = 1;
  // > 0: route rows to this many shards by content instead of claiming
  // them by position (RepairDriver); `threads` is then ignored, and the
  // count is capped at the pool width. Output is bit-identical either
  // way.
  size_t shards = 0;
  // Tuple-signature memoization, one cache per driver slot (lRepair in
  // abort mode only; lenient repair and cRepair never memoize). Output is
  // bit-identical either way.
  bool use_memo = true;
  size_t memo_capacity = MemoCache::kDefaultCapacity;
  // kAbort fails fast; kSkip/kQuarantine restore failing tuples to
  // their original values and keep going.
  OnErrorPolicy on_error = OnErrorPolicy::kAbort;
  // Receives one Diagnostic per failed tuple when on_error is
  // kQuarantine. Diagnostic::line is the row index (global output-row
  // index for streams).
  QuarantineSink* quarantine = nullptr;
  // Per-tuple chase-step budget in lenient mode (0 = unlimited).
  size_t max_chase_steps = 0;

  // --- streaming-only knobs (RepairStream) ---
  // Rows per chunk. kWholeFile sets no row limit: a chunk read from a
  // stream or file then ends only at the reader's keep bound
  // (CsvChunkReader::kKeepBytes of input), an in-memory payload is one
  // chunk (so its RAM is O(payload)). The stream's StreamInput is
  // started with the same count, since it reads the first chunk early.
  static constexpr size_t kWholeFile = ~size_t{0};
  size_t chunk_rows = size_t{64} * 1024;

  // --- durability (docs/durability.md) ---
  // Non-empty: journal every committed chunk of RepairStream to this
  // write-ahead log, fsynced before the chunk's rows are emitted. The
  // log carries the run configuration plus every cell delta and tuple
  // diagnostic, so it also feeds `fixrep_cli audit` and `rollback`.
  std::string wal_path = {};
  // With wal_path set: scan the existing log, validate its header
  // against this config and the reader's schema, truncate any
  // uncommitted tail, fast-forward past the durable chunks (re-emitting
  // their recorded output byte-identically), and resume repairing at
  // the first non-durable chunk.
  bool resume = false;
};

struct RepairReport {
  size_t rows = 0;  // rows repaired (streams: rows emitted)
  size_t cells_changed = 0;
  size_t tuples_quarantined = 0;
  // Streaming only:
  size_t chunks = 0;
  // The largest chunk cell block (RowStore::bytes) the stream held.
  size_t peak_chunk_bytes = 0;
};

class RepairSession {
 public:
  // Compiles `rules` into a heap image here, once, shared by every
  // Repair/RepairStream call and bound to each call's schema and pool.
  // A set the image format cannot hold fails every call with the
  // compile's Status.
  explicit RepairSession(const RuleSet* rules, const RepairConfig& config = {});

  // Shared-image session: chases through `dict`, compiled or opened and
  // bound elsewhere, without compiling anything per session. This is the
  // daemon's per-request path, where N concurrent sessions share one
  // immutable image, and the CLI's --rules-dict path. The caller keeps
  // `dict` alive and bound for the session's lifetime.
  RepairSession(const RuleDict* dict, const RepairConfig& config);

  RepairSession(const RepairSession&) = delete;
  RepairSession& operator=(const RepairSession&) = delete;

  // Repairs `table` in place per the config, recording one
  // lrepair.chase or crepair.chase span. A non-null `log` receives every
  // committed cell write (RepairDriver::set_write_log: rows ascending,
  // failed tuples contributing none).
  StatusOr<RepairReport> Repair(Table* table,
                                std::vector<CellRepair>* log = nullptr);

  // Streams `input` through chunked repair into `out` (CSV header +
  // repaired rows; a std::ostream, or an AtomicFile that takes copied
  // input as gathered writes: repair/streaming.h). The input was started
  // (StreamInput, repair/streaming.h) right after its reader opened, with
  // this config's chunk_rows, so its first chunk was read while the
  // caller loaded the rules and built this session; the call spends it,
  // closing it on every return. A non-null `log` receives the writes of
  // the chunks this call repairs, at global output-row indices. Returns
  // kMalformedInput for a cRepair stream with a WAL.
  StatusOr<RepairReport> RepairStream(StreamInput* input, CsvOutput out,
                                      std::vector<CellRepair>* log = nullptr);

 private:
  // The image for one call: the borrowed one as it is, or the compiled
  // one bound to the call's schema and pool.
  StatusOr<const RuleDict*> Image(const Schema& schema,
                                  const std::shared_ptr<ValuePool>& pool);

  RepairConfig config_;
  std::unique_ptr<RuleDict> owned_;  // compiled here
  const RuleDict* dict_ = nullptr;   // owned_ or borrowed
  Status compile_status_;            // a failed compile, for every call
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_SESSION_H_
