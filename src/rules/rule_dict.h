#ifndef FIXREP_RULES_RULE_DICT_H_
#define FIXREP_RULES_RULE_DICT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relation/schema.h"
#include "relation/value_pool.h"
#include "rules/rule_set.h"
#include "rules/rule_source.h"

namespace fixrep {

// A compiled rule set as one memory-mapped file (docs/rules.md): the
// same flat structures CompiledRuleIndex builds in RAM — open-addressing
// slot table, CSR postings, per-rule side arrays, CSR evidence/negative
// patterns — serialized next to a private interned string pool and a
// string hash table, behind a CRC-checked header. `fixrep_cli rules
// compile` produces the artifact offline; OpenRuleDict maps it O(1)
// (magic/version/CRC/size validation only — no section is read until a
// probe faults its pages in), so a million-rule corpus costs open-time
// milliseconds and only the pages the workload actually touches.
//
// Value spaces. The dictionary's pattern values are ids into its own
// string pool, fixed at compile time — a run's live ValuePool knows
// nothing about them. Each worker handle carries a translator (live id
// -> dict id, resolved through the mapped string hash and memoized) and
// a direct-mapped PostingCache, so dup-heavy workloads probe the mapped
// sections about once per distinct (attr, value) pair. Facts flow the
// other way: Bind() pre-interns every distinct fact string into the
// live pool — serially, respecting the pool's single-writer rule — so
// RuleSource::fact() hands the chase live ids it can write into tuples.
//
// Integrity: Open refuses a wrong magic, an unknown version, a header
// CRC mismatch, a file whose size differs from the header's recorded
// size (truncation at any section boundary), section bounds that fall
// outside the file, or a repeated attribute name — always with Status,
// never UB. Bind refuses a schema whose attribute names differ from the
// compiled ones, and a fact whose string lies outside the string pool;
// the other sections' contents are trusted once the header passes. The
// header carries RuleSetFingerprint of the compiled set, so WAL resume
// validation works identically for dictionary-backed runs.

inline constexpr uint32_t kRuleDictFormatVersion = 1;
inline constexpr char kRuleDictMagic[8] = {'F', 'X', 'R', 'D',
                                           'I', 'C', 'T', '\0'};

// Section order inside the file. Every section is 8-byte aligned.
enum class DictSection : uint32_t {
  kAttrNames = 0,      // u32 count, then per name u32 length + bytes
  kSlots,              // RuleSlot[slot_count], keys in dict value space
  kPostings,           // u32[num_postings], ascending rule ids per key
  kEvidenceCount,      // u32[num_rules]
  kTarget,             // i32[num_rules]
  kFactStr,            // u32[num_rules], dict string ids
  kAssuredBits,        // u64[num_rules]
  kEvOffsets,          // u32[num_rules + 1]
  kEvAttrs,            // i32[num_ev_pairs]
  kEvValues,           // i32[num_ev_pairs], dict string ids
  kNegOffsets,         // u32[num_rules + 1]
  kNegValues,          // i32[num_neg_values], sorted per rule by dict id
  kEmptyEvidence,      // u32[num_empty_evidence]
  kEvidenceAttrList,   // i32[num_evidence_attrs]
  kStringOffsets,      // u32[num_strings + 1], byte offsets into kStringBytes
  kStringBytes,        // concatenated string bytes
  kStringHash,         // u32[string_hash_count], dict id or UINT32_MAX
};
inline constexpr size_t kNumDictSections = 17;

const char* DictSectionName(DictSection section);

// The fixed-size on-disk header. Plain bytes at offset 0; `header_crc`
// is Crc32 over the struct with that field zeroed.
struct RuleDictHeader {
  char magic[8];
  uint32_t version = 0;
  uint32_t header_crc = 0;
  uint64_t file_size = 0;
  uint64_t fingerprint = 0;
  uint64_t mentioned_bits = 0;
  uint32_t num_rules = 0;
  uint32_t arity = 0;
  uint32_t slot_count = 0;  // power of two
  uint32_t num_keys = 0;
  uint64_t num_postings = 0;
  uint32_t num_strings = 0;
  uint32_t string_hash_count = 0;  // power of two
  uint64_t num_ev_pairs = 0;
  uint64_t num_neg_values = 0;
  uint32_t num_empty_evidence = 0;
  uint32_t num_evidence_attrs = 0;
  uint64_t section_offset[kNumDictSections] = {};
  uint64_t section_bytes[kNumDictSections] = {};
};

// Compiles `rules` into a dictionary file at `path`. Deterministic: the
// same rule set produces the same bytes (dict string ids are assigned
// in first-appearance order over the rule scan; slot and hash tables
// are filled in sorted key order). Crash-atomic via AtomicFile.
Status CompileRuleDict(const RuleSet& rules, const std::string& path);

class RuleDict;

// Per-handle scratch: resolves live ids through the mapped string hash.
class DictTranslator : public ValueTranslator {
 public:
  explicit DictTranslator(const RuleDict* dict) : dict_(dict) {}

 protected:
  ValueId Resolve(ValueId live) override;

 private:
  const RuleDict* dict_;
};

// One worker's binding: translator memo + hot posting cache + the view.
class RuleDictHandle : public RuleSourceHandle {
 public:
  RuleDictHandle(const RuleDict* dict, size_t cache_capacity);

  const PostingCache& cache() const { return cache_; }

 private:
  DictTranslator translator_;
  PostingCache cache_;
};

class RuleDict : public RuleRepository {
 public:
  // Maps the file and validates its header; O(1) in corpus size. The
  // mapping lives until destruction.
  static StatusOr<std::unique_ptr<RuleDict>> Open(const std::string& path);

  ~RuleDict() override;
  RuleDict(const RuleDict&) = delete;
  RuleDict& operator=(const RuleDict&) = delete;

  // Attaches the dictionary to a live run: validates `schema` against
  // the compiled attribute names and pre-interns every distinct fact
  // string into `pool` (serial — call before any worker exists; the
  // pool's single-writer interning rule is why this is not lazy).
  // Idempotent for the same pool; rebinding to a different pool redoes
  // the fact interning.
  Status Bind(const Schema& schema, std::shared_ptr<ValuePool> pool);
  bool bound() const { return pool_ != nullptr; }

  // RuleRepository. MakeHandle requires a successful Bind.
  size_t num_rules() const override { return header_->num_rules; }
  size_t arity() const override { return header_->arity; }
  AttrSet mentioned_attrs() const override {
    return AttrSet::FromBits(header_->mentioned_bits);
  }
  uint64_t fingerprint() const override { return header_->fingerprint; }
  std::unique_ptr<RuleSourceHandle> MakeHandle() const override;

  // Hot-entry cache capacity for handles made after the call (entries,
  // rounded up to a power of two).
  void set_hot_cache_capacity(size_t entries) { cache_capacity_ = entries; }
  size_t hot_cache_capacity() const { return cache_capacity_; }

  // Introspection (rules inspect, benches).
  const RuleDictHeader& header() const { return *header_; }
  const std::string& path() const { return path_; }
  size_t file_bytes() const { return map_size_; }
  const std::vector<std::string>& attribute_names() const {
    return attribute_names_;
  }

  // The dictionary string for a dict id (a view into the mapping).
  std::string_view DictString(uint32_t id) const;
  // Probes the mapped string hash: dict id of `s`, or kAbsentValue.
  ValueId FindString(std::string_view s) const;

 private:
  friend class DictTranslator;
  friend class RuleDictHandle;

  RuleDict() = default;

  Status ValidateAndWire();
  const uint8_t* SectionPtr(DictSection section) const {
    return static_cast<const uint8_t*>(map_) +
           header_->section_offset[static_cast<size_t>(section)];
  }
  RuleSource::Init BaseInit() const;

  std::string path_;
  void* map_ = nullptr;
  size_t map_size_ = 0;
  const RuleDictHeader* header_ = nullptr;

  // Wired section pointers (into the mapping).
  const RuleSlot* slots_ = nullptr;
  const uint32_t* postings_ = nullptr;
  const uint32_t* evidence_count_ = nullptr;
  const AttrId* target_ = nullptr;
  const uint32_t* fact_str_ = nullptr;
  const uint64_t* assured_bits_ = nullptr;
  const uint32_t* ev_offsets_ = nullptr;
  const AttrId* ev_attrs_ = nullptr;
  const ValueId* ev_values_ = nullptr;
  const uint32_t* neg_offsets_ = nullptr;
  const ValueId* neg_values_ = nullptr;
  const uint32_t* empty_evidence_ = nullptr;
  const AttrId* evidence_attr_list_ = nullptr;
  const uint32_t* string_offsets_ = nullptr;
  const char* string_bytes_ = nullptr;
  const uint32_t* string_hash_ = nullptr;

  std::vector<std::string> attribute_names_;

  // Bind products.
  std::shared_ptr<ValuePool> pool_;
  std::vector<ValueId> live_fact_;  // per rule, live value space

  size_t cache_capacity_ = PostingCache::kDefaultCapacity;
};

}  // namespace fixrep

#endif  // FIXREP_RULES_RULE_DICT_H_
