#include "checks.h"

#include "src/relational/null_iso.h"

namespace perfbench {

namespace rel = p2pdb::rel;

namespace {
std::string Node(p2pdb::NodeId n) { return "node " + std::to_string(n); }
}  // namespace

void CheckCertainTuples(const std::vector<rel::Database>& got,
                        const std::vector<rel::Database>& oracle,
                        const std::set<p2pdb::NodeId>& participants,
                        Issues* issues) {
  for (p2pdb::NodeId n : participants) {
    if (n >= got.size() || n >= oracle.size()) {
      issues->push_back(Node(n) + ": missing database");
      continue;
    }
    if (got[n].relations().size() != oracle[n].relations().size()) {
      issues->push_back(Node(n) + ": relation set differs from the oracle");
      continue;
    }
    for (const auto& [name, relation] : oracle[n].relations()) {
      const rel::Relation* mine = got[n].FindRelation(name);
      if (mine == nullptr) {
        issues->push_back(Node(n) + ": relation " + name + " missing");
      } else if (mine->CertainTuples() != relation.CertainTuples()) {
        issues->push_back(Node(n) + ": certain tuples of " + name +
                          " differ from the oracle");
      }
    }
  }
}

void CheckHomomorphicEquivalence(const std::vector<rel::Database>& got,
                                 const std::vector<rel::Database>& oracle,
                                 const std::set<p2pdb::NodeId>& participants,
                                 Issues* issues) {
  for (p2pdb::NodeId n : participants) {
    if (n >= got.size() || n >= oracle.size()) {
      issues->push_back(Node(n) + ": missing database");
    } else if (!rel::DatabaseHomomorphicallyContained(got[n], oracle[n])) {
      issues->push_back(Node(n) + ": does not map into the oracle");
    } else if (!rel::DatabaseHomomorphicallyContained(oracle[n], got[n])) {
      issues->push_back(Node(n) + ": the oracle does not map into it");
    }
  }
}

void CheckConservation(uint64_t reported_inserted, uint64_t initial_tuples,
                       uint64_t final_tuples, Issues* issues) {
  if (final_tuples < initial_tuples ||
      final_tuples - initial_tuples != reported_inserted) {
    issues->push_back("conservation: engines report " +
                      std::to_string(reported_inserted) +
                      " insertions, databases grew from " +
                      std::to_string(initial_tuples) + " to " +
                      std::to_string(final_tuples));
  }
}

void CheckDelivery(uint64_t sent, uint64_t delivered, uint64_t dropped,
                   Issues* issues) {
  if (sent != delivered || dropped != 0) {
    issues->push_back("delivery: sent " + std::to_string(sent) +
                      ", delivered " + std::to_string(delivered) +
                      ", dropped " + std::to_string(dropped));
  }
}

void CheckRecovered(const std::vector<rel::Database>& before,
                    const std::vector<rel::Database>& after, Issues* issues) {
  if (before.size() != after.size()) {
    issues->push_back("recovery: node count changed");
    return;
  }
  for (size_t n = 0; n < before.size(); ++n) {
    if (!(before[n] == after[n])) {
      issues->push_back(Node(n) + ": recovered database differs from its "
                                  "pre-crash copy");
    }
  }
}

void CheckReplay(p2pdb::NodeId node, const rel::Database& replayed,
                 const rel::Database& live, Issues* issues) {
  if (!(replayed == live)) {
    issues->push_back(Node(node) +
                      ": replayed delta batches do not rebuild the database");
  }
}

void CheckSameCount(const std::string& what, uint64_t expected, uint64_t got,
                    Issues* issues) {
  if (expected != got) {
    issues->push_back(what + ": expected " + std::to_string(expected) +
                      ", got " + std::to_string(got));
  }
}

uint64_t CertainDigest(const rel::Database& db) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (const auto& [name, relation] : db.relations()) {
    mix(std::hash<std::string>()(name));
    for (const rel::Tuple& t : relation.tuples()) {
      if (t.HasNull()) continue;
      for (const rel::Value& v : t.values()) mix(v.Hash());
      mix(t.arity());
    }
  }
  return h;
}

void ReadLedger::ObservePoint(size_t op, const p2pdb::workload::QueryOp& spec,
                              bool hit, Issues* issues) const {
  if (hit != spec.expect_hit) {
    issues->push_back("read " + std::to_string(op) + ": point lookup " +
                      (spec.expect_hit ? "missed" : "hit") +
                      " against its generated expectation");
  }
}

void ReadLedger::ObserveQuery(size_t op, size_t rows, Issues* issues) {
  if (seen_[op] && rows < rows_[op]) {
    issues->push_back("read " + std::to_string(op) + ": answer shrank from " +
                      std::to_string(rows_[op]) + " to " +
                      std::to_string(rows) + " rows");
  }
  seen_[op] = true;
  rows_[op] = rows;
}

void ReadLedger::ObserveExact(size_t op, size_t rows, Issues* issues) const {
  if (!seen_[op] || rows != rows_[op]) {
    issues->push_back("read " + std::to_string(op) + ": " +
                      std::to_string(rows) + " rows after recovery, " +
                      std::to_string(rows_[op]) + " before the crash");
  }
}

}  // namespace perfbench
