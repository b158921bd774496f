#ifndef FIXREP_RELATION_ROW_STORE_H_
#define FIXREP_RELATION_ROW_STORE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "relation/tuple_ref.h"
#include "relation/value_pool.h"

namespace fixrep {

// Flat columnar-friendly row store: every cell of every row lives in one
// contiguous std::vector<ValueId>, row-major and arity-strided — row i
// occupies cells_[i*arity .. (i+1)*arity). One heap block for the whole
// relation instead of one vector per tuple: appends are a bump of the
// tail, scans are a single linear walk, and copying a table is one
// memcpy-sized vector copy.
//
// Growth is block-aligned: capacity is always a whole number of
// kRowsPerBlock-row blocks, so reallocation happens at most once per
// block, never mid-row. Reserve() lets ingestion pre-size the store from
// a row-count estimate and avoid reallocation entirely.
//
// Views handed out by row()/WriteRow() point into the cell vector; an
// append may reallocate and invalidate them (see tuple_ref.h lifetime
// rules). In-place cell writes never invalidate anything.
class RowStore {
 public:
  // Rows per allocation block. 4096 rows * arity cells keeps growth
  // infrequent without over-reserving small tables.
  static constexpr size_t kRowsPerBlock = 4096;

  explicit RowStore(size_t arity) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t num_rows() const { return num_rows_; }
  // Rows the store can hold before the next (block-aligned) reallocation.
  size_t capacity_rows() const {
    return arity_ == 0 ? 0 : cells_.capacity() / arity_;
  }

  TupleRef row(size_t i) const {
    return TupleRef(cells_.data() + i * arity_, arity_);
  }
  TupleSpan WriteRow(size_t i) {
    return TupleSpan(cells_.data() + i * arity_, arity_);
  }

  ValueId cell(size_t row, size_t attr) const {
    return cells_[row * arity_ + attr];
  }
  void WriteCell(size_t row, size_t attr, ValueId value) {
    cells_[row * arity_ + attr] = value;
  }

  // Copies `row` (size must equal arity — checked by the caller) onto the
  // end of the store.
  void AppendRow(TupleRef row) {
    GrowForAppend();
    cells_.insert(cells_.end(), row.begin(), row.end());
    ++num_rows_;
  }

  // Appends an uninitialized row and returns a span to fill in. The span
  // is valid until the next append.
  TupleSpan AppendRowUninit() {
    GrowForAppend();
    cells_.resize(cells_.size() + arity_, kNullValue);
    ++num_rows_;
    return WriteRow(num_rows_ - 1);
  }

  // Pre-sizes for `rows` rows, rounded up to a whole block.
  void Reserve(size_t rows) {
    cells_.reserve(RoundUpToBlock(rows) * arity_);
  }

  // Drops all rows but keeps the allocation — the streaming pipeline
  // reuses one chunk store across chunks.
  void Clear() {
    num_rows_ = 0;
    cells_.clear();
  }

  // Heap footprint of the cell storage in bytes.
  size_t bytes() const { return cells_.capacity() * sizeof(ValueId); }

 private:
  static size_t RoundUpToBlock(size_t rows) {
    return (rows + kRowsPerBlock - 1) / kRowsPerBlock * kRowsPerBlock;
  }

  // Keeps growth row-aligned: capacity doubles like a vector but lands on
  // a 64-row sub-block boundary while the table is small and on a full
  // kRowsPerBlock boundary once it is large, so reallocation never splits
  // a row and big tables grow in whole blocks.
  void GrowForAppend() {
    if (cells_.size() + arity_ <= cells_.capacity()) return;
    const size_t want = std::max(num_rows_ * 2, num_rows_ + 1);
    const size_t align = num_rows_ >= kRowsPerBlock ? kRowsPerBlock : 64;
    cells_.reserve((want + align - 1) / align * align * arity_);
  }

  size_t arity_;
  size_t num_rows_ = 0;
  std::vector<ValueId> cells_;
};

}  // namespace fixrep

#endif  // FIXREP_RELATION_ROW_STORE_H_
