// The benchmark's correctness checks. Each is computed apart from the
// distributed run (the centralized oracle, pre-crash copies, counters kept
// by the benchmark itself) and appends a human-readable line to `issues`
// for every violation, so a run that breaks one reports correct=false.
// The self-test (selftest.cc) shows each check rejecting a perturbed output.
#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/relational/database.h"
#include "src/util/ids.h"
#include "src/workload/queries.h"

namespace perfbench {

using Issues = std::vector<std::string>;

/// At every participant the certain (null-free) tuples of every relation
/// equal those of the oracle's instance for that node, and both instances
/// have the same relations.
void CheckCertainTuples(const std::vector<p2pdb::rel::Database>& got,
                        const std::vector<p2pdb::rel::Database>& oracle,
                        const std::set<p2pdb::NodeId>& participants,
                        Issues* issues);

/// Homomorphic equivalence at every participant: each instance maps into
/// the other, i.e. the same database up to redundant null-carrying tuples
/// and the renaming of labeled nulls.
void CheckHomomorphicEquivalence(
    const std::vector<p2pdb::rel::Database>& got,
    const std::vector<p2pdb::rel::Database>& oracle,
    const std::set<p2pdb::NodeId>& participants, Issues* issues);

/// Conservation: the tuples the update engines report inserting are exactly
/// the growth of the databases.
void CheckConservation(uint64_t reported_inserted, uint64_t initial_tuples,
                       uint64_t final_tuples, Issues* issues);

/// Every message sent was delivered, and none was dropped.
void CheckDelivery(uint64_t sent, uint64_t delivered, uint64_t dropped,
                   Issues* issues);

/// Every recovered database equals its pre-crash copy.
void CheckRecovered(const std::vector<p2pdb::rel::Database>& before,
                    const std::vector<p2pdb::rel::Database>& after,
                    Issues* issues);

/// The database rebuilt by replaying a node's logged batches equals the
/// node's live database (the log saw every insertion, in order).
void CheckReplay(p2pdb::NodeId node, const p2pdb::rel::Database& replayed,
                 const p2pdb::rel::Database& live, Issues* issues);

/// Two runs of the same deterministic update agree on a named count.
void CheckSameCount(const std::string& what, uint64_t expected, uint64_t got,
                    Issues* issues);

/// Order-sensitive digest of a database's certain tuples (relation names
/// included), to compare rounds without keeping their databases.
uint64_t CertainDigest(const p2pdb::rel::Database& db);

/// Tracks reads over one round: a point lookup must answer as generated
/// (hit or deliberate miss), and a conjunctive query's row count must never
/// shrink while the update runs. Expect() pins the exact counts a later
/// phase (after recovery) must reproduce.
class ReadLedger {
 public:
  explicit ReadLedger(size_t ops) : rows_(ops, 0), seen_(ops, false) {}

  void ObservePoint(size_t op, const p2pdb::workload::QueryOp& spec,
                    bool hit, Issues* issues) const;
  void ObserveQuery(size_t op, size_t rows, Issues* issues);
  /// Requires `rows` to equal the last count observed for `op`.
  void ObserveExact(size_t op, size_t rows, Issues* issues) const;

 private:
  std::vector<size_t> rows_;
  std::vector<bool> seen_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
