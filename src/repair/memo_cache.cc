#include "repair/memo_cache.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"

namespace fixrep {

MemoCache::MemoCache(size_t capacity) {
  FIXREP_CHECK_LE(capacity, kMaxCapacity) << "memo capacity out of range";
  size_t rounded = 1;
  while (rounded < capacity) rounded <<= 1;
  // Zero-filled up front: a lookup reads its slot before the insert
  // writes it, and on a lazily zeroed page that read-then-write costs
  // two page faults instead of one.
  slots_.resize(rounded);
  mask_ = rounded - 1;
}

uint64_t MemoCache::HashTuple(TupleRef t) {
  // FNV-1a over the cells, then a SplitMix64 finalizer so the low bits
  // used for slot selection see every cell.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const ValueId v : t) {
    h ^= static_cast<uint32_t>(v);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

bool MemoCache::KeyEquals(const Slot& slot, TupleRef t) const {
  return t.size() == arity_ &&
         std::equal(t.begin(), t.end(),
                    keys_.begin() + (slot.key - 1) * arity_);
}

std::optional<std::span<const MemoCache::Write>> MemoCache::Find(
    uint64_t hash, TupleRef t) {
  const Slot& slot = slots_[hash & mask_];
  if (slot.key != 0 && slot.tag == static_cast<uint32_t>(hash >> 32) &&
      KeyEquals(slot, t)) {
    ++stats_.hits;
    return std::span<const Write>(writes_.data() + slot.writes, slot.count);
  }
  ++stats_.misses;
  return std::nullopt;
}

void MemoCache::Insert(uint64_t hash, TupleRef key,
                       std::span<const Write> writes) {
  FIXREP_CHECK_LE(writes.size(), std::numeric_limits<uint16_t>::max());
  Slot& slot = slots_[hash & mask_];
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  if (entries_ == 0) arity_ = key.size();
  FIXREP_CHECK_EQ(key.size(), arity_) << "memo keys have a fixed arity";
  if (slot.key == 0) {
    // First use of the slot: room for its key, kept through every
    // eviction.
    slot.key = ++entries_;
    keys_.resize(keys_.size() + arity_);
  } else if (!(slot.tag == tag && KeyEquals(slot, key))) {
    ++stats_.evictions;
  }
  std::copy(key.begin(), key.end(), keys_.begin() + (slot.key - 1) * arity_);
  if (writes.size() > slot.room) {
    // A longer list than the region holds: a fresh region at the arena's
    // end, at least doubling, so a slot moves O(log arity) times.
    const size_t room = std::max<size_t>(writes.size(), size_t{2} * slot.room);
    FIXREP_CHECK_LE(writes_.size() + room,
                    std::numeric_limits<uint32_t>::max());
    slot.writes = static_cast<uint32_t>(writes_.size());
    slot.room = static_cast<uint16_t>(
        std::min<size_t>(room, std::numeric_limits<uint16_t>::max()));
    writes_.resize(writes_.size() + slot.room);
  }
  std::copy(writes.begin(), writes.end(), writes_.begin() + slot.writes);
  slot.count = static_cast<uint16_t>(writes.size());
  slot.tag = tag;
  ++stats_.insertions;
}

void MemoCache::FlushMetrics() {
  if (!kMetricsEnabled) return;
  auto& registry = CurrentMetrics();
  const auto publish = [&](const char* name, uint64_t cur, uint64_t old) {
    FIXREP_DCHECK(cur >= old);
    if (cur > old) {
      registry.GetCounter(std::string("fixrep.memo.") + name)
          ->Add(cur - old);
    }
  };
  publish("hits", stats_.hits, published_.hits);
  publish("misses", stats_.misses, published_.misses);
  publish("insertions", stats_.insertions, published_.insertions);
  publish("evictions", stats_.evictions, published_.evictions);
  registry.GetGauge("fixrep.memo.capacity")
      ->Set(static_cast<int64_t>(capacity()));
  published_ = stats_;
}

}  // namespace fixrep
