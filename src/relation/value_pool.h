#ifndef FIXREP_RELATION_VALUE_POOL_H_
#define FIXREP_RELATION_VALUE_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace fixrep {

// Interned value identifier. All cell values, pattern constants, and facts
// are represented as ValueIds so that matching, inverted lists, and
// violation detection are integer comparisons. kNullValue represents a
// missing value and never equals any interned constant.
using ValueId = int32_t;
inline constexpr ValueId kNullValue = -1;

// What CSV emit needs of one interned value, recorded once at intern
// time: a view of the stored string and whether the dialect must quote
// it (it holds one of ',' '"' '\r' '\n'). The emitter renders a plain
// value with one load and one memcpy, with no scan and no deque walk.
struct ValueView {
  std::string_view text;
  bool csv_quoted = false;
};

// Interns strings to dense ValueIds. A pool is shared by every table and
// rule set that must be comparable (e.g., the dirty table, the ground
// truth, and the rules repairing it).
//
// Not thread-safe for concurrent interning; concurrent read-only lookups
// (GetString / Find) are safe once interning has stopped. Debug builds
// enforce the single-writer rule: two Intern calls overlapping in time
// trip a CHECK (release builds compile the guard out).
class ValuePool {
 public:
  ValuePool() = default;

  ValuePool(const ValuePool&) = delete;
  ValuePool& operator=(const ValuePool&) = delete;

  // Returns the id for `s`, interning it if new.
  ValueId Intern(std::string_view s);

  // Pre-sizes the intern index for `expected_values` distinct values so
  // bulk ingestion never rehashes. Growing is cheap (the index holds
  // 8-byte slots, not strings), so callers only reserve what they know.
  void Reserve(size_t expected_values);

  // Returns the id for `s` or kNullValue if it has never been interned.
  ValueId Find(std::string_view s) const;

  // Returns the string for a valid id. id must be in [0, size()).
  const std::string& GetString(ValueId id) const;

  // The emit view of a valid id (same range CHECKs as GetString). Views
  // stay valid for the pool's lifetime.
  const ValueView& GetView(ValueId id) const;

  // Number of distinct interned values.
  size_t size() const { return strings_.size(); }

 private:
  // One slot of the intern index: a value's 32-bit hash and its id
  // (kNullValue marks an empty slot). Keys are compared through views_,
  // so the index holds no string of its own.
  struct Slot {
    uint32_t hash = 0;
    ValueId id = kNullValue;
  };

  static uint32_t Hash(std::string_view s);
  // The slot holding `s` (whose hash is `hash`), or the empty slot where
  // it would go. slots_ must not be empty.
  size_t Probe(std::string_view s, uint32_t hash) const;
  // Rebuilds the index with `capacity` slots, a power of two.
  void Rehash(size_t capacity);

  // deque keeps string addresses stable so views_ (and through it the
  // index) can point into the stored strings.
  std::deque<std::string> strings_;
  // Flat per-id views into strings_ (24 bytes per value): the emit path
  // and the index's key comparisons read them.
  std::vector<ValueView> views_;
  // Open addressing with linear probing; a power of two in size and at
  // most half full, so a probe is one hash and usually one slot load.
  std::vector<Slot> slots_;
#ifndef NDEBUG
  // Debug-only concurrent-interning detector (see class comment). Not a
  // lock: it aborts on overlap instead of serializing it.
  mutable std::atomic<bool> interning_{false};
#endif
};

// Resolves values against a pool that other threads read concurrently,
// without interning into it. The caller holds read access to the pool
// while it calls Resolve: a value the pool knows gets its id, a value it
// lacks gets a provisional id (always < kNullValue) from this
// request-local overlay, deduplicated and numbered in first-occurrence
// order. Commit then interns the staged values into the pool in that
// order, under the caller's exclusive access, and Final maps each
// provisional id to its committed one. Without a concurrent Intern in
// between, the committed ids are exactly the ids interning each value on
// first sight would have given (docs/serving.md, "Pool lock discipline").
class ValueOverlay {
 public:
  explicit ValueOverlay(ValuePool* pool) : pool_(pool) {}

  ValueOverlay(const ValueOverlay&) = delete;
  ValueOverlay& operator=(const ValueOverlay&) = delete;

  ValueId Resolve(std::string_view s) {
    const ValueId id = pool_->Find(s);
    return id != kNullValue ? id : kNullValue - 1 - staged_.Intern(s);
  }

  // Distinct values Resolve found missing from the pool.
  size_t size() const { return staged_.size(); }
  bool empty() const { return size() == 0; }

  // Interns every staged value into the pool, in first-occurrence order.
  // Needs exclusive access to the pool. Returns how many values were new
  // to it (fewer than size() when another writer interned some of them
  // after Resolve saw them missing).
  size_t Commit();

  // The committed id of a provisional id; any other id is returned as is.
  ValueId Final(ValueId id) const {
    return IsProvisional(id)
               ? committed_[static_cast<size_t>(kNullValue - 1 - id)]
               : id;
  }

 private:
  static bool IsProvisional(ValueId id) { return id < kNullValue; }

  ValuePool* pool_;
  ValuePool staged_;
  std::vector<ValueId> committed_;
};

}  // namespace fixrep

#endif  // FIXREP_RELATION_VALUE_POOL_H_
