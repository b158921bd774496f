#ifndef FIXREP_RELATION_TABLE_H_
#define FIXREP_RELATION_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "relation/row_store.h"
#include "relation/schema.h"
#include "relation/tuple_ref.h"
#include "relation/value_pool.h"

namespace fixrep {

// A relation instance: a schema plus a flat row store of interned cells
// (relation/row_store.h — one contiguous arity-strided ValueId array, not
// a vector-of-vectors). Tables share a ValuePool so that values from
// different tables (dirty data, ground truth, master data) and from rules
// compare by id.
//
// Rows are exposed as zero-copy views: row(i) returns a read-only
// TupleRef, WriteRow(i) a mutable TupleSpan. Views borrow the store —
// valid until the next append (see tuple_ref.h); cell writes never
// invalidate them. There is deliberately no accessor that hands out an
// owning Tuple; call row(i).ToTuple() when a copy is wanted.
class Table {
 public:
  Table(std::shared_ptr<const Schema> schema, std::shared_ptr<ValuePool> pool);

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<const Schema>& schema_ptr() const { return schema_; }
  ValuePool& pool() { return *pool_; }
  const ValuePool& pool() const { return *pool_; }
  const std::shared_ptr<ValuePool>& pool_ptr() const { return pool_; }

  size_t num_rows() const { return store_.num_rows(); }
  size_t num_columns() const { return store_.arity(); }

  // Zero-copy row views over the flat store.
  TupleRef row(size_t i) const { return store_.row(i); }
  TupleSpan WriteRow(size_t i) { return store_.WriteRow(i); }

  // Appends a copy of `row`. The row's arity must match the schema.
  void AppendRow(TupleRef row);
  // Overload so brace-initialized tuples keep working:
  // table.AppendRow({a, b, c}).
  void AppendRow(const Tuple& row) { AppendRow(TupleRef(row)); }

  // Interns each field and appends the resulting tuple.
  void AppendRowStrings(const std::vector<std::string>& fields);

  // Rewrites every provisional cell (a ValueOverlay id, from a read that
  // resolved through `overlay`) to its committed id; call once
  // overlay.Commit() has run.
  void ApplyOverlay(const ValueOverlay& overlay);

  // Cell accessors by interned id and by string.
  ValueId cell(size_t row, AttrId attr) const {
    return store_.cell(row, static_cast<size_t>(attr));
  }
  void WriteCell(size_t row, AttrId attr, ValueId value) {
    store_.WriteCell(row, static_cast<size_t>(attr), value);
  }
  // Returns the string form of a cell. A kNullValue cell yields a
  // reference to one static empty string whose lifetime is the process —
  // callers may hold it indefinitely.
  const std::string& CellString(size_t row, AttrId attr) const;

  // Pre-sizes the store for `rows` rows (block-aligned).
  void Reserve(size_t rows) { store_.Reserve(rows); }
  // Drops all rows, keeping the allocation (streaming chunk reuse).
  void Clear() { store_.Clear(); }

  // Direct store access (telemetry reads the cell block's size).
  const RowStore& store() const { return store_; }

  // True when both tables hold identical cells in identical order
  // (schema/pool identity is not compared).
  bool RowsEqual(const Table& other) const;

  // Renders a tuple as "(v1, v2, ...)" for diagnostics.
  std::string FormatRow(size_t row) const;

 private:
  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<ValuePool> pool_;
  RowStore store_;
};

// One recorded cell write: which rule rewrote which cell of a table, from
// what to what. Repair engines append these to a write log
// (repair/driver.h); the log drives the provenance audit (--log, WAL
// deltas) and names the rows a splice must render (SpliceCsv).
struct CellRepair {
  size_t row = 0;
  AttrId attr = kInvalidAttr;
  ValueId old_value = kNullValue;
  ValueId new_value = kNullValue;
  size_t rule_index = 0;

  bool operator==(const CellRepair&) const = default;
};

}  // namespace fixrep

#endif  // FIXREP_RELATION_TABLE_H_
