#ifndef FIXREP_RELATION_TUPLE_REF_H_
#define FIXREP_RELATION_TUPLE_REF_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "relation/value_pool.h"

namespace fixrep {

// An owning tuple: a dense row of interned values, indexed by AttrId.
// Since the flat-RowStore refactor this is a *scratch* type — standalone
// tuples built by rule analysis and tests — not the table's storage
// unit. Rows inside a Table live in one contiguous
// arity-strided cell array and are handed out as TupleRef / TupleSpan
// views below.
using Tuple = std::vector<ValueId>;

// Read-only, zero-copy view of one tuple: a (pointer, length) pair over
// either a Table row (pointing into the flat row store) or an owning
// Tuple. Cheap to copy and pass by value.
//
// Lifetime rules (docs/storage.md): a view borrows — it is valid only
// while the underlying storage is. For Table rows that means until the
// next AppendRow/AppendRowStrings (the flat cell vector may reallocate);
// reads and in-place writes (WriteCell / WriteRow) never invalidate
// views. Views over an owning Tuple follow the vector's usual rules.
class TupleRef {
 public:
  constexpr TupleRef() = default;
  constexpr TupleRef(const ValueId* data, size_t size)
      : data_(data), size_(size) {}
  // Implicit: any owning tuple is viewable.
  TupleRef(const Tuple& t) : data_(t.data()), size_(t.size()) {}

  ValueId operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const ValueId* data() const { return data_; }
  const ValueId* begin() const { return data_; }
  const ValueId* end() const { return data_ + size_; }

  // Materializes an owning copy (the one place a copy is explicit).
  Tuple ToTuple() const { return Tuple(data_, data_ + size_); }

  friend bool operator==(const TupleRef& a, const TupleRef& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const TupleRef& a, const TupleRef& b) {
    return !(a == b);
  }

 private:
  const ValueId* data_ = nullptr;
  size_t size_ = 0;
};

// Mutable counterpart of TupleRef: the only way engines write cells of a
// table row (Table::WriteRow) or an owning scratch Tuple. Same lifetime
// rules as TupleRef. The span itself is shallow-const: a `const
// TupleSpan` still writes through.
class TupleSpan {
 public:
  constexpr TupleSpan() = default;
  constexpr TupleSpan(ValueId* data, size_t size)
      : data_(data), size_(size) {}
  // Implicit: engines repair standalone tuples and table rows alike.
  TupleSpan(Tuple& t) : data_(t.data()), size_(t.size()) {}

  ValueId& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ValueId* data() const { return data_; }
  ValueId* begin() const { return data_; }
  ValueId* end() const { return data_ + size_; }

  operator TupleRef() const { return TupleRef(data_, size_); }
  Tuple ToTuple() const { return Tuple(data_, data_ + size_); }

  // Overwrites the viewed cells from `src` (sizes must match — checked by
  // the caller; used to restore a tuple after a failed repair).
  void CopyFrom(TupleRef src) const {
    std::copy(src.begin(), src.end(), data_);
  }

  friend bool operator==(const TupleSpan& a, const TupleSpan& b) {
    return TupleRef(a) == TupleRef(b);
  }

 private:
  ValueId* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace fixrep

#endif  // FIXREP_RELATION_TUPLE_REF_H_
