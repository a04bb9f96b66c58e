#include "src/relational/mvcc.h"

namespace p2pdb::rel {

size_t DbSnapshot::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, watermark] : relations_) total += watermark.rows;
  return total;
}

SnapshotPtr BuildSnapshot(const Database& db, uint64_t version) {
  DbSnapshot::RelationMap relations;
  for (const auto& [name, relation] : db.relations()) {
    relations.emplace(name,
                      DbSnapshot::Watermark{relation.store(), relation.size()});
  }
  return std::make_shared<const DbSnapshot>(version, std::move(relations));
}

}  // namespace p2pdb::rel
