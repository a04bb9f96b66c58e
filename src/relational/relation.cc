#include "src/relational/relation.h"

#include <algorithm>

#include "src/util/string_util.h"

namespace p2pdb::rel {

RelationStore::Chains::Chains(size_t indexes, uint32_t buckets)
    : buckets(buckets),
      cells(std::make_unique<std::atomic<uint32_t>[]>(indexes * 3 * buckets)) {
  for (size_t i = 0; i < indexes * 3 * buckets; ++i) {
    cells[i].store(UINT32_MAX, kRelaxed);
  }
}

void RelationStore::Chains::Link(size_t index, uint32_t row, size_t hash) {
  size_t bucket = Bucket(hash);
  std::atomic<uint32_t>& tail = Cell(index, 2, bucket);
  uint32_t last = tail.load(kRelaxed);
  // An empty bucket starts its chain at the head, else it extends the tail.
  std::atomic<uint32_t>& link =
      last == UINT32_MAX ? Cell(index, 0, bucket) : Cell(index, 1, last);
  link.store(row, kRelaxed);
  tail.store(row, kRelaxed);
}

RelationStore::RelationStore(size_t arity, std::set<Tuple> tuples)
    : arity_(arity), tuples_(std::move(tuples)) {  // Moving keeps the nodes.
  // Sized for the given tuples up front: no rebuilds while indexing them.
  uint32_t buckets = std::bit_ceil(std::max<uint32_t>(4, tuples_.size()));
  tables_.push_back(std::make_unique<Chains>(arity_ + 1, buckets));
  chains_.store(tables_.back().get(), std::memory_order_release);
  for (const Tuple& t : tuples_) Append(t);
}

bool RelationStore::Insert(Tuple tuple) {
  auto [it, added] = tuples_.insert(std::move(tuple));
  if (added) Append(*it);
  return added;
}

void RelationStore::Append(const Tuple& tuple) {
  uint32_t row = rows_++;
  uint64_t v = uint64_t{row} + (1u << kChunkBits);
  unsigned chunk = std::bit_width(v) - 1 - kChunkBits;
  size_t offset = v - (uint64_t{1} << (chunk + kChunkBits));
  if (offset == 0) log_[chunk] = std::make_unique<const Tuple*[]>(v);
  log_[chunk][offset] = &tuple;
  if (row == tables_.back()->buckets) {
    tables_.push_back(std::make_unique<Chains>(arity_ + 1, row * 2));
    for (uint32_t r = 0; r < row; ++r) Link(tables_.back().get(), r);
    chains_.store(tables_.back().get(), std::memory_order_release);
  }
  Link(tables_.back().get(), row);
}

void RelationStore::Link(Chains* chains, uint32_t row) const {
  const Tuple& t = Row(row);
  for (size_t index = 0; index < arity_; ++index) {
    chains->Link(index, row, t.at(index).Hash());
  }
  chains->Link(arity_, row, t.Hash());
}

bool RelationView::Contains(const Tuple& tuple) const {
  if (rows_ == 0) return false;
  bool found = false;
  store_->Walk(store_->arity(), tuple.Hash(), rows_, [&](const Tuple& row) {
    found = row == tuple;
    return !found;
  });
  return found;
}

Relation::Relation(RelationSchema schema)
    : schema_(std::move(schema)),
      store_(std::make_shared<RelationStore>(schema_.arity())) {}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      store_(std::make_shared<RelationStore>(schema_.arity(),
                                             other.tuples())) {}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) *this = Relation(other);
  return *this;
}

Result<bool> Relation::Insert(Tuple tuple) {
  if (tuple.arity() != schema_.arity()) {
    return Status::InvalidArgument(
        StrFormat("arity mismatch inserting into %s: got %zu, want %zu",
                  schema_.name().c_str(), tuple.arity(), schema_.arity()));
  }
  return store_->Insert(std::move(tuple));
}

bool Relation::Erase(const Tuple& tuple) {
  if (!Contains(tuple)) return false;
  std::set<Tuple> rest = tuples();
  rest.erase(tuple);
  store_ = std::make_shared<RelationStore>(schema_.arity(), std::move(rest));
  return true;
}

void Relation::Clear() {
  store_ = std::make_shared<RelationStore>(schema_.arity());
}

std::set<Tuple> Relation::CertainTuples() const {
  std::set<Tuple> out;
  for (const Tuple& t : tuples()) {
    if (!t.HasNull()) out.insert(t);
  }
  return out;
}

std::string Relation::ToString() const {
  std::string out =
      schema_.ToString() + " {" + std::to_string(size()) + " tuples}\n";
  for (const Tuple& t : tuples()) out += "  " + t.ToString() + "\n";
  return out;
}

}  // namespace p2pdb::rel
