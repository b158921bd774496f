#ifndef FIXREP_REPAIR_MEMO_CACHE_H_
#define FIXREP_REPAIR_MEMO_CACHE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "relation/table.h"

namespace fixrep {

// Tuple-signature repair memoization.
//
// Real cleaning workloads are dominated by repeated value patterns:
// byte-identical dirty tuples recur (duplicated registrations, repeated
// form entries, hosp's provider rows). Chasing is a pure function of the
// tuple's cells — the rule index is immutable and the chase never looks
// outside the tuple — so two identical tuples always receive the identical
// write set, and replaying a cached (attr, value, rule) list is
// bit-identical to re-chasing (asserted by memo_cache_test against both
// engines).
//
// The cache is direct-mapped: capacity is a power of two, a tuple hashes
// to exactly one slot, and an insert simply overwrites whatever lived
// there (eviction is one slot assignment, no LRU lists). Hits require a
// full tuple compare, so hash collisions can cost a miss but never a
// wrong replay.
//
// Only the slot table is sized by the capacity, at 16 bytes a slot (hash
// tag, key index, write region); everything else is sized by the data.
// Pre-repair keys and write lists live in two arenas the cache owns: a
// slot takes its key cells once, on first use, and keeps them through
// every eviction (the arity is fixed), and its write region is reused in
// place unless a longer list arrives. Inserts make no allocation beyond
// arena growth.
//
// Single-owner: not thread-safe. Parallel repair gives each worker its
// own MemoCache (worker-local like the chase scratch); determinism holds
// because replay and re-chase agree.
class MemoCache {
 public:
  // One cached cell write: rule `rule` set t[attr] := value.
  struct Write {
    AttrId attr;
    ValueId value;
    uint32_t rule;
  };

  // Plain tallies; published into fixrep.memo.* by FlushMetrics.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  // 64Ki slots is a 1 MiB slot table: enough to cover the distinct-row
  // count of duplicate-heavy tables while staying far below table size.
  static constexpr size_t kDefaultCapacity = size_t{1} << 16;
  // The largest capacity a caller may ask for (1Mi slots, a 16 MiB slot
  // table). ParseRepairConfig refuses larger memo-capacity values.
  static constexpr size_t kMaxCapacity = size_t{1} << 20;

  // Rounds `capacity` up to a power of two; CHECKs it is at most
  // kMaxCapacity.
  explicit MemoCache(size_t capacity = kDefaultCapacity);

  // 64-bit signature of the full tuple (every cell participates).
  static uint64_t HashTuple(TupleRef t);

  // The cached write set for `t`, or nullopt on miss. `hash` must be
  // HashTuple(t). Counts a hit or a miss. The span is valid until the
  // next Insert.
  std::optional<std::span<const Write>> Find(uint64_t hash, TupleRef t);

  // Caches `writes` for the pre-repair tuple `key` (hash must match).
  // Overwrites the slot's previous occupant, counting an eviction.
  void Insert(uint64_t hash, TupleRef key, std::span<const Write> writes);

  size_t capacity() const { return mask_ + 1; }
  // Bytes held by the key and write arenas (the slot table excluded).
  size_t arena_bytes() const {
    return keys_.size() * sizeof(ValueId) + writes_.size() * sizeof(Write);
  }
  const Stats& stats() const { return stats_; }

  // Publishes the delta since the last flush into the global
  // MetricsRegistry (fixrep.memo.{hits,misses,insertions,evictions}).
  void FlushMetrics();

 private:
  struct Slot {
    uint32_t tag = 0;     // high half of the hash; the low bits chose the slot
    uint32_t key = 0;     // 1 + the entry's ordinal in keys_; 0 = empty
    uint32_t writes = 0;  // first Write of the slot's region in writes_
    uint16_t room = 0;    // the region's length
    uint16_t count = 0;   // writes in use
  };
  static_assert(sizeof(Slot) == 16);

  bool KeyEquals(const Slot& slot, TupleRef t) const;

  std::vector<Slot> slots_;
  size_t mask_;
  size_t arity_ = 0;           // set by the first Insert
  uint32_t entries_ = 0;       // slots holding a key
  std::vector<ValueId> keys_;  // arity_ cells per used slot
  std::vector<Write> writes_;  // every slot's write region
  Stats stats_;
  Stats published_;
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_MEMO_CACHE_H_
