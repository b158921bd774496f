#ifndef FIXREP_RULES_RULE_SOURCE_H_
#define FIXREP_RULES_RULE_SOURCE_H_

#include <algorithm>
#include <cstdint>
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
// probe methods, with no virtual dispatch anywhere on the probe path.
//
// One layout backs every view: the FXRDICT image (rules/rule_dict.h).
// A RuleDict holds it either in one heap buffer (RuleDict::Compile, for
// rules compiled in this process) or in a mapped file (RuleDict::Open
// on what CompileRuleDict wrote); both are the same bytes, wired by the
// same code. The image's pattern values live in its own interned string
// space, so every view carries a ValueTranslator (live ValueId -> image
// ValueId, memoized per worker) and a PostingCache (direct-mapped
// hot-entry cache over resolved posting ranges, the MemoCache pattern),
// so duplicate-heavy workloads resolve each (attr, value) pair once.
//
// Value spaces. Tuple cells hold *live* ValueIds (the run's ValuePool).
// The spans' pattern values (ev_values, neg_values, slot keys) are in
// the *image* space; `fact` is always live (RuleDict::Bind pre-interns
// the facts). Accessors taking a tuple value translate internally — a
// live value with no image equivalent translates to kAbsentValue, which
// matches nothing and probes to an empty range: no rule mentions it.
//
// Thread model: spans are immutable and shared; translator/cache are
// worker-private mutable scratch. Engines obtain one RuleDictHandle per
// worker from a bound RuleDict (serially, before the workers run) and
// hand each worker its handle's source.

// Contiguous slice of a CSR postings array: the indices of every rule
// whose evidence pattern contains one (attribute, value) cell.
struct PostingRange {
  const uint32_t* begin = nullptr;
  const uint32_t* end = nullptr;

  size_t size() const { return static_cast<size_t>(end - begin); }
  bool empty() const { return begin == end; }
};

// One open-addressing hash slot: packed key -> [begin, end) posting
// offsets. The image's slot section is an array of exactly this struct.
struct RuleSlot {
  uint64_t key = UINT64_MAX;
  uint32_t begin = 0;
  uint32_t end = 0;
};

inline constexpr uint64_t kEmptyRuleKey = UINT64_MAX;

// A live ValueId with no equivalent in the image value space. Never a
// valid interned id; compares unequal to every pattern value and packs
// to a key no slot holds.
inline constexpr ValueId kAbsentValue = -2;

class RuleDict;

// Per-worker live->image value translation, memoized per live id so
// the steady-state cost is one bounds check and one array load. The
// string-hash probe (Resolve) runs once per distinct live value a
// worker sees, not per probe.
class ValueTranslator {
 public:
  explicit ValueTranslator(const RuleDict* dict) : dict_(dict) {}

  ValueId Translate(ValueId live) {
    if (live < 0) return live;  // kNullValue passes through
    const auto i = static_cast<size_t>(live);
    if (i >= memo_.size()) Grow(i);
    ValueId mapped = memo_[i];
    if (mapped == kUnresolved) mapped = memo_[i] = Resolve(live);
    return mapped;
  }

 private:
  // Maps one live id to its image id, or kAbsentValue
  // (rules/rule_dict.cc).
  ValueId Resolve(ValueId live) const;
  // Makes room for id `i`, at least doubling the memo, so N distinct
  // live values reallocate it O(log N) times.
  void Grow(size_t i) {
    memo_.resize(std::max({i + 1, 2 * memo_.size(), size_t{1024}}),
                 kUnresolved);
  }

  static constexpr ValueId kUnresolved = INT32_MIN;
  const RuleDict* dict_;
  std::vector<ValueId> memo_;
};

// Direct-mapped cache of resolved slots (the MemoCache eviction
// discipline: power-of-two entries, overwrite on collision, full key
// compare on hit). Caches image-space packed keys with their posting
// offsets, including empty resolutions: a hit skips the slot-table probe
// entirely, so hot (attr, value) pairs stop touching a mapped file's
// pages at all. An entry is a RuleSlot; kEmptyRuleKey marks an unused
// one, since no probe key carries it.
class PostingCache {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 14;

  PostingCache() : entries_(kDefaultCapacity) {}

  bool Find(uint64_t key, uint64_t hash, RuleSlot* out) {
    const RuleSlot& e = entries_[hash & (kDefaultCapacity - 1)];
    if (e.key != key) {
      ++misses_;
      return false;
    }
    ++hits_;
    *out = e;
    return true;
  }

  void Insert(uint64_t hash, const RuleSlot& resolved) {
    entries_[hash & (kDefaultCapacity - 1)] = resolved;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::vector<RuleSlot> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// The flat view. Copyable and cheap (a handful of pointers); the backing
// store and scratch must outlive every copy.
class RuleSource {
 public:
  RuleSource() = default;

  // The packed probe key for one image-space cell. attr < 64 (schemas
  // are bounded to 64 attributes) and interned values are non-negative,
  // so every valid key has its top bits clear and UINT64_MAX can mark an
  // empty slot. kAbsentValue packs to a value-field no real key carries.
  static uint64_t PackKey(AttrId attr, ValueId value) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(attr)) << 32) |
           static_cast<uint32_t>(value);
  }

  // The probe key for a *live* cell: translates into the image value
  // space first. This is the only place engines pack keys.
  uint64_t ProbeKey(AttrId attr, ValueId live_value) const {
    return PackKey(attr, translator_->Translate(live_value));
  }

  // Rules phi with attr in X_phi and tp_phi[attr] == value, ascending.
  // Empty range when no rule mentions the cell (or the value has no
  // image equivalent).
  PostingRange Lookup(AttrId attr, ValueId live_value) const {
    const uint64_t key = ProbeKey(attr, live_value);
    return CachedResolve(key, SplitMix64(key));
  }

  // Batched probe over pre-packed keys (from ProbeKey): hashes `n` keys
  // with `kernel` and resolves them through the posting cache. out[i] is
  // exactly what a scalar resolve of key i returns, for every kernel.
  void LookupBatch(SimdKernel kernel, const uint64_t* keys, size_t n,
                   PostingRange* out) const {
    // Sub-batch of 16: small enough that the hash scratch stays in
    // registers / L1.
    constexpr size_t kSubBatch = 16;
    uint64_t hashes[kSubBatch];
    for (size_t base = 0; base < n; base += kSubBatch) {
      const size_t m = std::min(kSubBatch, n - base);
      HashBatch(kernel, keys + base, m, hashes);
      for (size_t i = 0; i < m; ++i) {
        out[base + i] = CachedResolve(keys[base + i], hashes[i]);
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
    v = translator_->Translate(v);
    const ValueId* neg_begin = neg_values_ + neg_offsets_[rule];
    const ValueId* neg_end = neg_values_ + neg_offsets_[rule + 1];
    return std::binary_search(neg_begin, neg_end, v);
  }

  // t |- phi, evaluated over the CSR side arrays: t[B] in Tp[B] (binary
  // search of the flat sorted slice) and t[X] = tp[X] (flat pair walk).
  // Semantically identical to FixingRule::Matches(t) on the rule the
  // image compiled.
  bool MatchesFlat(uint32_t rule, TupleRef t) const {
    if (!NegativeMatch(rule, t[target_[rule]])) return false;
    const uint32_t ev_end = ev_offsets_[rule + 1];
    for (uint32_t e = ev_offsets_[rule]; e < ev_end; ++e) {
      if (translator_->Translate(t[ev_attrs_[e]]) != ev_values_[e]) {
        return false;
      }
    }
    return true;
  }

  // Iterable view of a flat array (an image section).
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

  // Span wiring, used by RuleDictHandle only.
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
  // The probe: the cached slot for `key`, or a walk from the hashed
  // home slot to the key's slot or the first empty one (a miss resolves
  // to an empty offset range and is cached too).
  PostingRange CachedResolve(uint64_t key, uint64_t hash) const {
    RuleSlot hit;
    if (!cache_->Find(key, hash, &hit)) {
      hit = {key, 0, 0};
      for (size_t slot = hash & slot_mask_;; slot = (slot + 1) & slot_mask_) {
        const RuleSlot& s = slots_[slot];
        if (s.key == key) {
          hit = s;
          break;
        }
        if (s.key == kEmptyRuleKey) break;
      }
      cache_->Insert(hash, hit);
    }
    return {postings_ + hit.begin, postings_ + hit.end};
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

}  // namespace fixrep

#endif  // FIXREP_RULES_RULE_SOURCE_H_
