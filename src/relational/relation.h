// Relation: a schema plus a set of tuples (set semantics, as in the paper),
// kept in an append-only store that snapshots share instead of copying.
#ifndef P2PDB_RELATIONAL_RELATION_H_
#define P2PDB_RELATIONAL_RELATION_H_

#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/relational/schema.h"
#include "src/relational/tuple.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// The shared storage behind a relation. It only grows: rows are numbered in
/// insertion order and keep their number for the store's lifetime, so a row
/// count (a watermark) is a complete snapshot of it. One writer inserts. Any
/// number of readers, concurrently with it, go through the row log and the
/// hash chains, bounded by a row count published to them; the sorted set is
/// the writer's alone, since its rebalancing rewrites tree links.
class RelationStore {
 public:
  /// A store holding `tuples`, rows numbered in sorted order.
  explicit RelationStore(size_t arity, std::set<Tuple> tuples = {});
  RelationStore(const RelationStore&) = delete;
  RelationStore& operator=(const RelationStore&) = delete;

  size_t arity() const { return arity_; }

  /// Writer side: inserts a tuple of the store's arity; true if it was new.
  bool Insert(Tuple tuple);
  const std::set<Tuple>& tuples() const { return tuples_; }

  /// Reader side. `row` must be below a row count published to the reader.
  const Tuple& Row(uint32_t row) const {
    uint64_t v = uint64_t{row} + (1u << kChunkBits);
    unsigned chunk = std::bit_width(v) - 1 - kChunkBits;
    return *log_[chunk][v - (uint64_t{1} << (chunk + kChunkBits))];
  }

  /// Calls fn(tuple) for each of the first `rows` rows whose key under
  /// `index` hashes like `hash`, oldest first, while fn returns true. Index
  /// c < arity keys a row by column c; index arity by the whole tuple.
  template <typename Fn>
  void Walk(size_t index, size_t hash, size_t rows, Fn&& fn) const {
    const Chains& c = *chains_.load(std::memory_order_acquire);
    for (uint32_t r = c.Cell(index, 0, c.Bucket(hash)).load(kRelaxed);
         r < rows; r = c.Cell(index, 1, r).load(kRelaxed)) {
      if (!fn(Row(r))) return;
    }
  }

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
  // Row log chunk c holds 16 << c rows, so 29 chunks cover every row id.
  static constexpr unsigned kChunkBits = 4;

  /// Hash chains of all arity + 1 indexes for up to `buckets` rows: per
  /// index, a head per bucket, a next link per row (UINT32_MAX ends a
  /// chain, as does any row at or past the reader's watermark), and the
  /// writer's tail per bucket. Relaxed atomics suffice: a reader follows a
  /// link only to a row below its watermark, written before that watermark
  /// was published to it.
  struct Chains {
    Chains(size_t indexes, uint32_t buckets);
    std::atomic<uint32_t>& Cell(size_t index, size_t part, size_t i) const {
      return cells[(index * 3 + part) * buckets + i];  // part: head/next/tail
    }
    size_t Bucket(size_t hash) const {
      hash ^= hash >> 29;  // Mix high bits in: buckets are the low bits.
      hash *= 0xbf58476d1ce4e5b9ULL;
      return (hash ^ (hash >> 32)) & (buckets - 1);
    }
    void Link(size_t index, uint32_t row, size_t hash);

    uint32_t buckets;  // A power of two; also how many rows fit.
    std::unique_ptr<std::atomic<uint32_t>[]> cells;
  };
  void Append(const Tuple& tuple);
  void Link(Chains* chains, uint32_t row) const;

  size_t arity_;
  std::set<Tuple> tuples_;
  uint32_t rows_ = 0;
  // Pointers into tuples_'s nodes, which never move. A chunk is allocated
  // when the first row reaches it and never moves either.
  std::array<std::unique_ptr<const Tuple*[]>, 29> log_;
  // Every chains table built, newest (the published one) last. A full table
  // is replaced by one twice as large; retired tables stay allocated until
  // the store dies, so a reader that loaded one can finish its walk.
  std::vector<std::unique_ptr<Chains>> tables_;
  std::atomic<const Chains*> chains_{nullptr};
};

/// A relation as of a row count: what readers evaluate against. Cheap to
/// copy; valid while its store is alive. Every scan and lookup sees exactly
/// the first size() rows, however far the writer has appended since.
class RelationView {
 public:
  RelationView() = default;  // Empty: a missing relation reads as empty.
  RelationView(const RelationStore* store, size_t rows)
      : store_(store), rows_(rows) {}

  size_t size() const { return rows_; }
  size_t arity() const { return store_ == nullptr ? 0 : store_->arity(); }
  /// Rows in insertion order; i < size().
  const Tuple& row(size_t i) const {
    return store_->Row(static_cast<uint32_t>(i));
  }

  bool Contains(const Tuple& tuple) const;

  /// Calls fn(tuple) for each row whose `column` (< arity()) equals `key`,
  /// oldest first, while fn returns true.
  template <typename Fn>
  void ForEachMatch(size_t column, const Value& key, Fn&& fn) const {
    if (rows_ == 0) return;
    store_->Walk(column, key.Hash(), rows_, [&](const Tuple& tuple) {
      return !(tuple.at(column) == key) || fn(tuple);
    });
  }

 private:
  const RelationStore* store_ = nullptr;
  size_t rows_ = 0;
};

/// An extensional relation instance, owned by one writer. Tuples iterate in
/// sorted order so printing and comparison are deterministic.
class Relation {
 public:
  Relation() : Relation(RelationSchema()) {}
  explicit Relation(RelationSchema schema);

  /// A copy gets a store of its own (its rows numbered in sorted order); a
  /// moved relation keeps its store.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const RelationSchema& schema() const { return schema_; }
  size_t size() const { return store_->tuples().size(); }
  bool empty() const { return size() == 0; }

  /// Inserts a tuple; returns true if it was new. Fails on arity mismatch.
  Result<bool> Insert(Tuple tuple);

  bool Contains(const Tuple& tuple) const {
    return store_->tuples().count(tuple) > 0;
  }

  /// Removes a tuple; returns true if present. Erase and Clear never mutate
  /// the store (a snapshot may share it): they move to a fresh one.
  bool Erase(const Tuple& tuple);
  void Clear();

  const std::set<Tuple>& tuples() const { return store_->tuples(); }

  /// Tuples containing no labeled null (the "certain" part of the instance).
  std::set<Tuple> CertainTuples() const;

  /// The current rows, for evaluation on the writer's side.
  RelationView View() const { return RelationView(store_.get(), size()); }
  /// The store, for snapshots: it stays readable after this relation moves
  /// on to another one or dies.
  std::shared_ptr<const RelationStore> store() const { return store_; }

  /// Multi-line listing for debugging / example output.
  std::string ToString() const;

 private:
  RelationSchema schema_;
  std::shared_ptr<RelationStore> store_;
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_RELATION_H_
