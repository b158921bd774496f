#ifndef FIXREP_RULES_RULE_SOURCE_H_
#define FIXREP_RULES_RULE_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/simd.h"
#include "relation/table.h"

namespace fixrep {

// The read-side contract of a compiled rule set (docs/rules.md).
//
// Every repair engine (lrepair, crepair, parallel, sharded, streaming)
// chases tuples against the same flat structures: an
// open-addressing hash over packed (attribute, value) keys into
// CSR-packed inverted lists, per-rule side arrays (|X_phi|, target,
// fact, assured bitmask), and CSR evidence/negative patterns. RuleSource
// is that contract as a concrete view: a struct of spans plus inline
// probe methods, so the chase pays zero per-probe virtual dispatch no
// matter which backing store produced the spans.
//
// Two backends exist:
//  * CompiledRuleIndex (repair/rule_index.h) — the in-RAM compilation;
//    its view has no translator and no cache, so every accessor reduces
//    to exactly the loads the pre-seam code performed.
//  * RuleDict (rules/rule_dict.h) — a memory-mapped on-disk dictionary
//    whose pattern values live in the dictionary's own interned string
//    space. Its view carries a ValueTranslator (live ValueId -> dict
//    ValueId, memoized per worker) and a PostingCache (direct-mapped
//    hot-entry cache over resolved posting ranges, the MemoCache
//    pattern) so duplicate-heavy workloads probe mmap pages once.
//
// Value spaces. Tuple cells hold *live* ValueIds (the run's ValuePool).
// The spans' pattern values (ev_values, neg_values, slot keys) are in
// the *backend* space; `fact` is always live (a dictionary pre-interns
// its facts at bind time, rules/rule_dict.h). Accessors taking a tuple
// value translate internally — a live value with no backend equivalent
// translates to kAbsentValue, which matches nothing and probes to an
// empty range, exactly the semantics the in-RAM index gives a value no
// rule mentions. Byte-identical repair output across backends follows:
// same postings in the same (ascending rule id) order, same match
// verdicts, same facts written.
//
// Thread model: spans are immutable and shared; translator/cache are
// worker-private mutable scratch. Engines obtain one RuleSourceHandle
// per worker from a RuleRepository (serially, before the workers run)
// and hand each worker its handle's source.

// Contiguous slice of a CSR postings array: the indices of every rule
// whose evidence pattern contains one (attribute, value) cell.
struct PostingRange {
  const uint32_t* begin = nullptr;
  const uint32_t* end = nullptr;

  size_t size() const { return static_cast<size_t>(end - begin); }
  bool empty() const { return begin == end; }
};

// One open-addressing hash slot: packed key -> [begin, end) posting
// offsets. Shared by both backends (and the on-disk slot section is an
// array of exactly this struct).
struct RuleSlot {
  uint64_t key = UINT64_MAX;
  uint32_t begin = 0;
  uint32_t end = 0;
};

inline constexpr uint64_t kEmptyRuleKey = UINT64_MAX;

// A live ValueId with no equivalent in the backend value space. Never a
// valid interned id; compares unequal to every pattern value and packs
// to a key no slot holds.
inline constexpr ValueId kAbsentValue = -2;

// Per-worker live->backend value translation, memoized per live id so
// the steady-state cost is one bounds check and one array load. The
// virtual slow path runs once per distinct live value a worker sees,
// not per probe.
class ValueTranslator {
 public:
  virtual ~ValueTranslator() = default;

  ValueId Translate(ValueId live) {
    if (live < 0) return live;  // kNullValue passes through
    const auto i = static_cast<size_t>(live);
    if (i >= memo_.size()) memo_.resize(i + 1024, kUnresolved);
    ValueId mapped = memo_[i];
    if (mapped == kUnresolved) mapped = memo_[i] = Resolve(live);
    return mapped;
  }

 protected:
  // Maps one live id to its backend id, or kAbsentValue. Must be pure:
  // the result is memoized forever.
  virtual ValueId Resolve(ValueId live) = 0;

 private:
  static constexpr ValueId kUnresolved = INT32_MIN;
  std::vector<ValueId> memo_;
};

// Direct-mapped cache of resolved posting ranges (the MemoCache
// eviction discipline: power-of-two slots, overwrite on collision, full
// key compare on hit). Caches backend-space packed keys, including
// empty resolutions — for a demand-paged dictionary a hit skips the
// slot-table probe entirely, so hot (attr, value) pairs stop touching
// the mapped file at all.
class PostingCache {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 14;

  explicit PostingCache(size_t capacity = kDefaultCapacity) {
    size_t cap = 16;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    entries_.assign(cap, Entry{});
  }

  bool Find(uint64_t key, uint64_t hash, PostingRange* out) {
    const Entry& e = entries_[hash & mask_];
    if (!e.used || e.key != key) {
      ++misses_;
      return false;
    }
    ++hits_;
    *out = {e.begin, e.end};
    return true;
  }

  void Insert(uint64_t key, uint64_t hash, PostingRange range) {
    Entry& e = entries_[hash & mask_];
    e.used = true;
    e.key = key;
    e.begin = range.begin;
    e.end = range.end;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t capacity() const { return mask_ + 1; }

 private:
  struct Entry {
    bool used = false;
    uint64_t key = 0;
    const uint32_t* begin = nullptr;
    const uint32_t* end = nullptr;
  };

  size_t mask_ = 0;
  std::vector<Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// The flat view. Copyable and cheap (a handful of pointers); the backing
// store and scratch must outlive every copy.
class RuleSource {
 public:
  RuleSource() = default;

  // The packed probe key for one backend-space cell. attr < 64 (schemas
  // are bounded to 64 attributes) and interned values are non-negative,
  // so every valid key has its top bits clear and UINT64_MAX can mark an
  // empty slot. kAbsentValue packs to a value-field no real key carries.
  static uint64_t PackKey(AttrId attr, ValueId value) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(attr)) << 32) |
           static_cast<uint32_t>(value);
  }

  // The probe key for a *live* cell: translates into the backend value
  // space first. This is the only place engines pack keys.
  uint64_t ProbeKey(AttrId attr, ValueId live_value) const {
    const ValueId v = translator_ == nullptr
                          ? live_value
                          : translator_->Translate(live_value);
    return PackKey(attr, v);
  }

  // Rules phi with attr in X_phi and tp_phi[attr] == value, ascending.
  // Empty range when no rule mentions the cell (or the value has no
  // backend equivalent).
  PostingRange Lookup(AttrId attr, ValueId live_value) const {
    const uint64_t key = ProbeKey(attr, live_value);
    return CachedResolve(key, SplitMix64(key));
  }

  // Batched probe over pre-packed keys (from ProbeKey): hashes `n` keys
  // with `kernel`, prefetches every probed slot cacheline, resolves the
  // probes, and prefetches each hit's posting range. out[i] is exactly
  // what a scalar resolve of key i returns, for every kernel — batching
  // buys memory-level parallelism, never different results.
  void LookupBatch(SimdKernel kernel, const uint64_t* keys, size_t n,
                   PostingRange* out) const {
    // Sub-batch of 16: big enough to fill the load buffers with
    // independent slot fetches, small enough that the hash scratch stays
    // in registers / L1 and the prefetched lines are still resident when
    // resolved.
    constexpr size_t kSubBatch = 16;
    uint64_t hashes[kSubBatch];
    for (size_t base = 0; base < n; base += kSubBatch) {
      const size_t m = std::min(kSubBatch, n - base);
      HashBatch(kernel, keys + base, m, hashes);
      if (cache_ == nullptr) {
        // Issue all home-slot prefetches before any probe resolves: the
        // independent cache misses overlap instead of serializing.
        for (size_t i = 0; i < m; ++i) {
          PrefetchRead(&slots_[hashes[i] & slot_mask_]);
        }
        for (size_t i = 0; i < m; ++i) {
          const PostingRange r = Resolve(keys[base + i], hashes[i]);
          out[base + i] = r;
          // A hit's postings are consumed by the caller's bump loop
          // right after this returns — start those lines now.
          if (r.begin != r.end) PrefetchRead(r.begin);
        }
      } else {
        for (size_t i = 0; i < m; ++i) {
          out[base + i] = CachedResolve(keys[base + i], hashes[i]);
        }
      }
    }
  }
  void LookupBatch(const uint64_t* keys, size_t n, PostingRange* out) const {
    LookupBatch(ActiveSimdKernel(), keys, n, out);
  }

  // |X_phi| — the evidence counter threshold for rule i.
  uint32_t evidence_count(uint32_t rule) const {
    return evidence_count_[rule];
  }
  AttrId target(uint32_t rule) const { return target_[rule]; }
  // Live value space: safe to write into a tuple.
  ValueId fact(uint32_t rule) const { return fact_[rule]; }
  AttrSet assured(uint32_t rule) const {
    return AttrSet::FromBits(assured_bits_[rule]);
  }

  // v in Tp[B_phi] — the negative-pattern clause of Matches alone,
  // evaluated by binary search of rule i's flat sorted slice. `v` is a
  // live tuple value; translated before the search.
  bool NegativeMatch(uint32_t rule, ValueId v) const {
    if (translator_ != nullptr) v = translator_->Translate(v);
    const ValueId* neg_begin = neg_values_ + neg_offsets_[rule];
    const ValueId* neg_end = neg_values_ + neg_offsets_[rule + 1];
    return std::binary_search(neg_begin, neg_end, v);
  }

  // t |- phi, evaluated over the CSR side arrays: t[B] in Tp[B] (binary
  // search of the flat sorted slice) and t[X] = tp[X] (flat pair walk).
  // Semantically identical to FixingRule::Matches(t) on the rule the
  // backend compiled.
  bool MatchesFlat(uint32_t rule, TupleRef t) const {
    if (!NegativeMatch(rule, t[target_[rule]])) return false;
    const uint32_t ev_end = ev_offsets_[rule + 1];
    if (translator_ == nullptr) {
      for (uint32_t e = ev_offsets_[rule]; e < ev_end; ++e) {
        if (t[ev_attrs_[e]] != ev_values_[e]) return false;
      }
    } else {
      for (uint32_t e = ev_offsets_[rule]; e < ev_end; ++e) {
        if (translator_->Translate(t[ev_attrs_[e]]) != ev_values_[e]) {
          return false;
        }
      }
    }
    return true;
  }

  // Iterable view of a flat array (the spans below are backed by either
  // heap vectors or mapped file sections).
  template <typename T>
  struct Span {
    const T* data = nullptr;
    size_t count = 0;
    const T* begin() const { return data; }
    const T* end() const { return data + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const T& operator[](size_t i) const { return data[i]; }
  };

  // Rules with empty evidence (always candidates), ascending.
  Span<uint32_t> empty_evidence_rules() const {
    return {empty_evidence_rules_, num_empty_evidence_rules_};
  }

  // The distinct attributes appearing in any rule's evidence pattern,
  // ascending. Cells of any other attribute can never hit a posting
  // list, so batched gathers probe only these columns.
  Span<AttrId> evidence_attrs() const {
    return {evidence_attr_list_, num_evidence_attrs_};
  }

  // Union of every rule's evidence and target attributes — the attribute
  // closure the chase can ever read or write (streaming column pruning,
  // shard routing).
  AttrSet mentioned_attrs() const { return mentioned_attrs_; }

  size_t num_rules() const { return num_rules_; }
  size_t arity() const { return arity_; }

  ValueTranslator* translator() const { return translator_; }
  PostingCache* posting_cache() const { return cache_; }

  // Span wiring, used by the backends only.
  struct Init {
    const RuleSlot* slots = nullptr;
    size_t slot_mask = 0;
    const uint32_t* postings = nullptr;
    const uint32_t* evidence_count = nullptr;
    const AttrId* target = nullptr;
    const ValueId* fact = nullptr;
    const uint64_t* assured_bits = nullptr;
    const uint32_t* ev_offsets = nullptr;
    const AttrId* ev_attrs = nullptr;
    const ValueId* ev_values = nullptr;
    const uint32_t* neg_offsets = nullptr;
    const ValueId* neg_values = nullptr;
    const uint32_t* empty_evidence_rules = nullptr;
    size_t num_empty_evidence_rules = 0;
    const AttrId* evidence_attr_list = nullptr;
    size_t num_evidence_attrs = 0;
    AttrSet mentioned_attrs;
    size_t num_rules = 0;
    size_t arity = 0;
    ValueTranslator* translator = nullptr;
    PostingCache* cache = nullptr;
  };
  explicit RuleSource(const Init& init)
      : slots_(init.slots),
        slot_mask_(init.slot_mask),
        postings_(init.postings),
        evidence_count_(init.evidence_count),
        target_(init.target),
        fact_(init.fact),
        assured_bits_(init.assured_bits),
        ev_offsets_(init.ev_offsets),
        ev_attrs_(init.ev_attrs),
        ev_values_(init.ev_values),
        neg_offsets_(init.neg_offsets),
        neg_values_(init.neg_values),
        empty_evidence_rules_(init.empty_evidence_rules),
        num_empty_evidence_rules_(init.num_empty_evidence_rules),
        evidence_attr_list_(init.evidence_attr_list),
        num_evidence_attrs_(init.num_evidence_attrs),
        mentioned_attrs_(init.mentioned_attrs),
        num_rules_(init.num_rules),
        arity_(init.arity),
        translator_(init.translator),
        cache_(init.cache) {}

 private:
  // The shared probe tail: walk from the hashed home slot to the key's
  // slot or the first empty one.
  PostingRange Resolve(uint64_t key, uint64_t hash) const {
    size_t slot = hash & slot_mask_;
    while (true) {
      const RuleSlot& s = slots_[slot];
      if (s.key == key) {
        return {postings_ + s.begin, postings_ + s.end};
      }
      if (s.key == kEmptyRuleKey) return {};
      slot = (slot + 1) & slot_mask_;
    }
  }

  PostingRange CachedResolve(uint64_t key, uint64_t hash) const {
    if (cache_ == nullptr) return Resolve(key, hash);
    PostingRange range;
    if (cache_->Find(key, hash, &range)) return range;
    range = Resolve(key, hash);
    cache_->Insert(key, hash, range);
    return range;
  }

  const RuleSlot* slots_ = nullptr;
  size_t slot_mask_ = 0;
  const uint32_t* postings_ = nullptr;
  const uint32_t* evidence_count_ = nullptr;
  const AttrId* target_ = nullptr;
  const ValueId* fact_ = nullptr;
  const uint64_t* assured_bits_ = nullptr;
  const uint32_t* ev_offsets_ = nullptr;
  const AttrId* ev_attrs_ = nullptr;
  const ValueId* ev_values_ = nullptr;
  const uint32_t* neg_offsets_ = nullptr;
  const ValueId* neg_values_ = nullptr;
  const uint32_t* empty_evidence_rules_ = nullptr;
  size_t num_empty_evidence_rules_ = 0;
  const AttrId* evidence_attr_list_ = nullptr;
  size_t num_evidence_attrs_ = 0;
  AttrSet mentioned_attrs_;
  size_t num_rules_ = 0;
  size_t arity_ = 0;
  ValueTranslator* translator_ = nullptr;
  PostingCache* cache_ = nullptr;
};

// One worker's binding to a rule backend: the view plus whatever
// private scratch (translator memo, posting cache) the backend needs.
// Obtained serially via RuleRepository::MakeHandle before workers run;
// each worker uses its own handle's source for the whole run.
class RuleSourceHandle {
 public:
  explicit RuleSourceHandle(RuleSource source) : source_(source) {}
  virtual ~RuleSourceHandle() = default;

  RuleSourceHandle(const RuleSourceHandle&) = delete;
  RuleSourceHandle& operator=(const RuleSourceHandle&) = delete;

  const RuleSource& source() const { return source_; }

 protected:
  RuleSource source_;
};

// A compiled rule set viewed as a handle factory. Virtual dispatch
// happens once per worker (MakeHandle), never per probe. Both backends
// implement this; engines that need whole-set facts before any worker
// exists (scratch sizing, shard routing, WAL headers) read them here.
class RuleRepository {
 public:
  virtual ~RuleRepository() = default;

  virtual size_t num_rules() const = 0;
  virtual size_t arity() const = 0;
  virtual AttrSet mentioned_attrs() const = 0;
  // RuleSetFingerprint of the set this repository compiled
  // (rules/fingerprint.h) — the identity WAL headers journal.
  virtual uint64_t fingerprint() const = 0;
  // One worker's view + scratch. Call serially; the repository must
  // outlive every handle.
  virtual std::unique_ptr<RuleSourceHandle> MakeHandle() const = 0;
};

}  // namespace fixrep

#endif  // FIXREP_RULES_RULE_SOURCE_H_
