#ifndef FIXREP_RELATION_VALUE_POOL_H_
#define FIXREP_RELATION_VALUE_POOL_H_

#include <atomic>
#include <cstdint>
#include <cstring>
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
//
// The hit path of Intern and Find is inline (CSV ingest calls it once
// per cell); adding a value is out of line.
class ValuePool {
 public:
  ValuePool() : slots_(kMinSlots) {}

  ValuePool(const ValuePool&) = delete;
  ValuePool& operator=(const ValuePool&) = delete;

  // Returns the id for `s`, interning it if new.
  ValueId Intern(std::string_view s) {
#ifndef NDEBUG
    const InternGuard guard(&interning_);
#endif
    const uint32_t hash = Hash(s);
    const size_t slot = Probe(s, hash);
    const ValueId id = slots_[slot].id;
    return id != kNullValue ? id : Insert(s, hash, slot);
  }

  // Pre-sizes the intern index for `expected_values` distinct values so
  // bulk ingestion never rehashes. Growing is cheap (the index holds
  // 8-byte slots, not strings), so callers only reserve what they know.
  void Reserve(size_t expected_values);

  // Returns the id for `s` or kNullValue if it has never been interned.
  ValueId Find(std::string_view s) const {
    return slots_[Probe(s, Hash(s))].id;
  }

  // Returns the string for a valid id. id must be in [0, size()).
  const std::string& GetString(ValueId id) const;

  // The emit view of a valid id (same range CHECKs as GetString). Views
  // stay valid for the pool's lifetime.
  const ValueView& GetView(ValueId id) const;

  // Number of distinct interned values.
  size_t size() const { return strings_.size(); }

 private:
  static constexpr size_t kMinSlots = 16;

  // One slot of the intern index: a value's 32-bit hash and its id
  // (kNullValue marks an empty slot). Keys are compared through views_,
  // so the index holds no string of its own.
  struct Slot {
    uint32_t hash = 0;
    ValueId id = kNullValue;
  };

#ifndef NDEBUG
  // Flags any second Intern that overlaps the first in time. Catches the
  // misuse the class comment warns about (concurrent interning) in debug
  // and sanitizer builds instead of silently corrupting the index.
  class InternGuard {
   public:
    explicit InternGuard(std::atomic<bool>* busy);
    ~InternGuard() { busy_->store(false, std::memory_order_release); }
    InternGuard(const InternGuard&) = delete;
    InternGuard& operator=(const InternGuard&) = delete;

   private:
    std::atomic<bool>* busy_;
  };
#endif

  static uint64_t Load64(const char* p) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  }
  static uint64_t Load32(const char* p) {
    uint32_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  }
  static uint64_t Byte(const char* p) {
    return static_cast<unsigned char>(*p);
  }
  // One 64x64->128 multiply, folded: every input bit reaches the middle
  // of the product, and the xor brings the middle down to the low bits
  // the slot index uses.
  static uint64_t Mix(uint64_t a, uint64_t b) {
    const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
    return static_cast<uint64_t>(product) ^
           static_cast<uint64_t>(product >> 64);
  }

  // A value of up to 16 bytes is hashed as its first and last 8 bytes
  // (4 or single bytes when shorter; the loads overlap), mixed with its
  // length in one multiply-fold. Longer values fold in 16 bytes per
  // step first. Collisions only cost a compare: keys are always
  // compared in full.
  static uint32_t Hash(std::string_view s) {
    constexpr uint64_t kKey0 = 0xa0761d6478bd642fULL;
    constexpr uint64_t kKey1 = 0xe7037ed1a0b428dbULL;
    const char* p = s.data();
    const size_t n = s.size();
    uint64_t seed = kKey1 ^ n;
    uint64_t a = 0;
    uint64_t b = 0;
    if (n > 16) {
      const char* const last = p + n - 16;
      for (; p < last; p += 16) {
        seed = Mix(Load64(p) ^ kKey0, Load64(p + 8) ^ seed);
      }
      a = Load64(last);
      b = Load64(last + 8);
    } else if (n >= 8) {
      a = Load64(p);
      b = Load64(p + n - 8);
    } else if (n >= 4) {
      a = Load32(p);
      b = Load32(p + n - 4);
    } else if (n > 0) {
      a = Byte(p) << 16 | Byte(p + n / 2) << 8 | Byte(p + n - 1);
    }
    return static_cast<uint32_t>(Mix(a ^ kKey0, b ^ seed));
  }

  // Equality of n-byte keys by word loads, with the same overlapping
  // tail loads as Hash.
  static bool SameBytes(const char* x, const char* y, size_t n) {
    if (n >= 8) {
      for (size_t i = 0; i + 8 < n; i += 8) {
        if (Load64(x + i) != Load64(y + i)) return false;
      }
      return Load64(x + n - 8) == Load64(y + n - 8);
    }
    if (n >= 4) {
      return ((Load32(x) ^ Load32(y)) |
              (Load32(x + n - 4) ^ Load32(y + n - 4))) == 0;
    }
    return n == 0 || (x[0] == y[0] && x[n / 2] == y[n / 2] &&
                      x[n - 1] == y[n - 1]);
  }

  // The slot holding `s` (whose hash is `hash`), or the empty slot where
  // it would go.
  size_t Probe(std::string_view s, uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot slot = slots_[i];
      if (slot.id == kNullValue) return i;
      if (slot.hash == hash) {
        const std::string_view key =
            views_[static_cast<size_t>(slot.id)].text;
        if (key.size() == s.size() &&
            SameBytes(key.data(), s.data(), s.size())) {
          return i;
        }
      }
    }
  }
  // Adds `s` (hash `hash`) at the empty slot `slot` Probe returned.
  ValueId Insert(std::string_view s, uint32_t hash, size_t slot);
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
  explicit ValueOverlay(ValuePool* pool) : ValueOverlay(pool, pool) {}
  // Looks values up in `lookup` and commits them to `pool`. A null
  // `lookup` looks nothing up and stages every value: nothing reads
  // `pool` before Commit, so another thread may still intern into it
  // while Resolve runs (a stream's first chunk is read while the rules
  // intern their constants), and Commit gives each value the id
  // interning it after those writes would have.
  ValueOverlay(const ValuePool* lookup, ValuePool* pool)
      : lookup_(lookup), pool_(pool) {}

  ValueOverlay(const ValueOverlay&) = delete;
  ValueOverlay& operator=(const ValueOverlay&) = delete;

  ValueId Resolve(std::string_view s) {
    const ValueId id = lookup_ != nullptr ? lookup_->Find(s) : kNullValue;
    return id != kNullValue ? id : Stage(s);
  }

  // The provisional id of a value the caller found missing from
  // lookup(): Resolve without the lookup.
  ValueId Stage(std::string_view s) {
    return kNullValue - 1 - staged_.Intern(s);
  }

  // The pool Resolve looks values up in (read access only), or null.
  const ValuePool* lookup() const { return lookup_; }

  // Distinct values staged: those Resolve found missing from lookup().
  size_t size() const { return staged_.size(); }
  bool empty() const { return size() == 0; }

  // Interns every staged value into the pool, in first-occurrence order.
  // Needs exclusive access to the pool. Returns how many values were new
  // to it (fewer than size() when the pool held some of them already:
  // another writer interned them after Resolve saw them missing, or
  // Resolve looked nothing up).
  size_t Commit();

  // The committed id of a provisional id; any other id is returned as is.
  ValueId Final(ValueId id) const {
    return IsProvisional(id)
               ? committed_[static_cast<size_t>(kNullValue - 1 - id)]
               : id;
  }

 private:
  static bool IsProvisional(ValueId id) { return id < kNullValue; }

  const ValuePool* lookup_;
  ValuePool* pool_;
  ValuePool staged_;
  std::vector<ValueId> committed_;
};

}  // namespace fixrep

#endif  // FIXREP_RELATION_VALUE_POOL_H_
