#include "selftest.h"

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <unistd.h>

#include "checks.h"
#include "probes.h"
#include "runner.h"
#include "src/core/global_fixpoint.h"

namespace perfbench {

namespace rel = p2pdb::rel;
using p2pdb::NodeId;

namespace {

int failures = 0;

/// `check` must report nothing on the real output and something once
/// perturbed.
void Expect(const std::string& name, const std::string& perturbation,
            const std::function<void(Issues*)>& real,
            const std::function<void(Issues*)>& perturbed) {
  Issues on_real, on_perturbed;
  real(&on_real);
  perturbed(&on_perturbed);
  bool ok = on_real.empty() && !on_perturbed.empty();
  if (!ok) ++failures;
  std::printf("%s %-26s accepts the real output%s, rejects %s%s\n",
              ok ? "ok  " : "FAIL", name.c_str(),
              on_real.empty() ? "" : " (NOT)", perturbation.c_str(),
              on_perturbed.empty() ? " (NOT)" : "");
  for (const std::string& issue : on_real) {
    std::printf("     real-output issue: %s\n", issue.c_str());
  }
}

/// Some tuple of `db`, certain (null-free) or not as asked, with its relation.
bool PickTuple(const rel::Database& db, bool certain, std::string* relation,
               rel::Tuple* tuple) {
  for (const auto& [name, r] : db.relations()) {
    for (const rel::Tuple& t : r.tuples()) {
      if (t.HasNull() != certain) {
        *relation = name;
        *tuple = t;
        return true;
      }
    }
  }
  return false;
}

rel::Database Without(rel::Database db, const std::string& relation,
                      const rel::Tuple& tuple) {
  (*db.GetMutable(relation))->Erase(tuple);
  return db;
}

/// A tiny version of a benchmark workload, run for a few rounds, with the
/// oracle it is checked against.
struct SmallRun {
  std::unique_ptr<Runner> runner;
  std::vector<RoundOut> rounds;
  std::vector<rel::Database> finals;
  std::vector<rel::Database> oracle;
  Issues issues;
};

SmallRun RunSmall(const std::string& workload, size_t nodes, size_t records) {
  SmallRun run;
  WorkloadSpec spec;
  MakeSpec(workload, 3, &spec);
  spec.scenario.topology.nodes = nodes;
  spec.scenario.records_per_node = records;
  spec.reads.ops = 64;
  auto system = p2pdb::workload::BuildScenario(spec.scenario);
  auto ops = p2pdb::workload::BuildQueryWorkload(*system, spec.reads);
  run.runner = std::make_unique<Runner>(
      spec, *system, *ops,
      ".bench_data/selftest-" + std::to_string(::getpid()));
  ReadSamples reads;
  run.rounds.push_back(run.runner->RunRound(false, &reads, &run.issues));
  run.rounds.push_back(run.runner->RunRound(true, &reads, &run.issues));
  run.finals = run.runner->FinalDatabases();
  auto oracle =
      p2pdb::core::ComputeGlobalFixpoint(run.runner->system(), spec.chase);
  if (oracle.ok()) {
    run.oracle = oracle->node_dbs;
    CheckCertainTuples(run.finals, run.oracle, run.runner->Participants(),
                       &run.issues);
    if (spec.homomorphic_check) {
      CheckHomomorphicEquivalence(run.finals, run.oracle,
                                  run.runner->Participants(), &run.issues);
    }
  }
  return run;
}

}  // namespace

int RunSelfTest() {
  SmallRun tree = RunSmall("durable_reads", 5, 40);
  SmallRun cyclic = RunSmall("cyclic_overlap", 6, 30);
  for (SmallRun* run : {&tree, &cyclic}) {
    bool ok = run->issues.empty() && !run->oracle.empty();
    if (!ok) ++failures;
    std::printf("%s %-26s %s: %zu issues\n", ok ? "ok  " : "FAIL",
                "in-round checks", run->runner->spec().name.c_str(),
                run->issues.size());
    for (const std::string& issue : run->issues) {
      std::printf("     issue: %s\n", issue.c_str());
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(
      ".bench_data/selftest-" + std::to_string(::getpid()), ec);
  if (failures > 0) return 1;

  const std::set<NodeId> all = tree.runner->Participants();
  const NodeId root = 0;
  std::string relation;
  rel::Tuple tuple;

  // Certain tuples: one tuple dropped at one peer.
  PickTuple(tree.finals[root], true, &relation, &tuple);
  Expect("certain tuples", "one tuple dropped at one peer",
         [&](Issues* i) {
           CheckCertainTuples(tree.finals, tree.oracle, all, i);
         },
         [&](Issues* i) {
           auto dropped = tree.finals;
           dropped[root] = Without(dropped[root], relation, tuple);
           CheckCertainTuples(dropped, tree.oracle, all, i);
         });

  // Homomorphic equivalence on the cyclic run: every null-carrying tuple of
  // one oracle relation dropped (the certain tuples still agree, so only
  // this check can see it).
  const std::set<NodeId> cyc_all = cyclic.runner->Participants();
  NodeId with_null = 0;
  for (NodeId n = 0; n < cyclic.oracle.size(); ++n) {
    if (PickTuple(cyclic.oracle[n], false, &relation, &tuple)) {
      with_null = n;
      break;
    }
  }
  Expect("homomorphic equivalence", "null-carrying oracle tuples dropped",
         [&](Issues* i) {
           CheckHomomorphicEquivalence(cyclic.finals, cyclic.oracle, cyc_all,
                                       i);
         },
         [&](Issues* i) {
           auto oracle = cyclic.oracle;
           rel::Relation* r = *oracle[with_null].GetMutable(relation);
           std::vector<rel::Tuple> nulls;
           for (const rel::Tuple& t : r->tuples()) {
             if (t.HasNull()) nulls.push_back(t);
           }
           for (const rel::Tuple& t : nulls) r->Erase(t);
           CheckHomomorphicEquivalence(cyclic.finals, oracle, cyc_all, i);
         });

  // Conservation: the engines' insert count off by one.
  uint64_t initial = 0, final_total = 0;
  for (const auto& info : tree.runner->system().nodes()) {
    initial += info.db.TotalTuples();
  }
  for (const rel::Database& db : tree.finals) final_total += db.TotalTuples();
  const RoundOut& round = tree.rounds.back();
  Expect("conservation", "an insert count off by one",
         [&](Issues* i) {
           CheckConservation(round.tuples_inserted, initial, final_total, i);
         },
         [&](Issues* i) {
           CheckConservation(round.tuples_inserted + 1, initial, final_total,
                             i);
         });

  // Delivery: one message lost.
  Expect("sent equals delivered", "one message lost",
         [&](Issues* i) {
           CheckDelivery(round.messages, round.messages, 0, i);
         },
         [&](Issues* i) {
           CheckDelivery(round.messages, round.messages - 1, 0, i);
         });

  // Recovery: one recovered tuple altered.
  PickTuple(tree.finals[root], true, &relation, &tuple);
  Expect("recovered equals pre-crash", "one recovered tuple altered",
         [&](Issues* i) { CheckRecovered(tree.finals, tree.finals, i); },
         [&](Issues* i) {
           auto recovered = tree.finals;
           recovered[root] = Without(recovered[root], relation, tuple);
           rel::Tuple altered = tuple;
           (*altered.mutable_values())[0] = rel::Value::Str("~altered");
           (void)recovered[root].Insert(relation, altered);
           CheckRecovered(tree.finals, recovered, i);
         });

  // Replay: the logged batches with one tuple missing.
  const rel::Database& initial_root = tree.runner->system().node(root).db;
  p2pdb::storage::DeltaMap batch;
  for (const auto& [name, r] : tree.finals[root].relations()) {
    for (const rel::Tuple& t : r.tuples()) {
      const rel::Relation* before = initial_root.FindRelation(name);
      if (before == nullptr || !before->Contains(t)) batch[name].insert(t);
    }
  }
  Expect("replay rebuilds the peer", "a batch with one tuple missing",
         [&](Issues* i) {
           ReplayResult r = ReplaySnapshots(initial_root, {batch});
           CheckReplay(root, r.final_db, tree.finals[root], i);
         },
         [&](Issues* i) {
           auto short_batch = batch;
           auto& tuples = short_batch.begin()->second;
           tuples.erase(tuples.begin());
           ReplayResult r = ReplaySnapshots(initial_root, {short_batch});
           CheckReplay(root, r.final_db, tree.finals[root], i);
         });

  // Reads: a hit turned into a miss, a truncated answer, a truncated answer
  // after recovery.
  p2pdb::workload::QueryOp hit;
  hit.is_point = true;
  hit.expect_hit = true;
  Expect("point reads keep hitting", "a hit answered as a miss",
         [&](Issues* i) { ReadLedger(1).ObservePoint(0, hit, true, i); },
         [&](Issues* i) { ReadLedger(1).ObservePoint(0, hit, false, i); });
  Expect("answers never shrink", "one read answer truncated",
         [&](Issues* i) {
           ReadLedger ledger(1);
           ledger.ObserveQuery(0, 5, i);
           ledger.ObserveQuery(0, 7, i);
         },
         [&](Issues* i) {
           ReadLedger ledger(1);
           ledger.ObserveQuery(0, 5, i);
           ledger.ObserveQuery(0, 4, i);
         });
  Expect("answers survive recovery", "one answer truncated after restart",
         [&](Issues* i) {
           ReadLedger ledger(1);
           ledger.ObserveQuery(0, 5, i);
           ledger.ObserveExact(0, 5, i);
         },
         [&](Issues* i) {
           ReadLedger ledger(1);
           ledger.ObserveQuery(0, 5, i);
           ledger.ObserveExact(0, 4, i);
         });

  // Traced versus untraced exact counts.
  const RoundOut& untraced = tree.rounds.front();
  Expect("traced counts match", "a traced message count off by one",
         [&](Issues* i) {
           CheckSameCount("messages", untraced.messages, round.messages, i);
         },
         [&](Issues* i) {
           CheckSameCount("messages", untraced.messages, round.messages + 1,
                          i);
         });

  // Round-to-round digests: one certain tuple dropped changes the digest.
  PickTuple(tree.finals[root], true, &relation, &tuple);
  Expect("certain digest", "one tuple dropped",
         [&](Issues* i) {
           CheckSameCount("digest", CertainDigest(tree.finals[root]),
                          untraced.digests[root], i);
         },
         [&](Issues* i) {
           CheckSameCount(
               "digest",
               CertainDigest(Without(tree.finals[root], relation, tuple)),
               untraced.digests[root], i);
         });

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
