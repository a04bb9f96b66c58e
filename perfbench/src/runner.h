// One benchmark round: a fresh runtime and Session over the workload's
// system, discovery, one timed global update to fixpoint, a batch of reads,
// then a crash and restart of every peer from disk. The round checks its own
// outputs as it goes; the oracle comparison runs once the rounds are over,
// on the last round's peers (which the runner keeps alive for it).
#ifndef PERFBENCH_SRC_RUNNER_H_
#define PERFBENCH_SRC_RUNNER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "probes.h"
#include "src/core/session.h"
#include "src/workload/queries.h"
#include "src/workload/scenario.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  p2pdb::workload::ScenarioOptions scenario;
  /// Over TcpRuntime (loopback sockets) instead of SimRuntime.
  bool tcp = false;
  /// Storage attached before the update (WAL on), with reads issued at
  /// every delivered message; otherwise storage is attached at fixpoint.
  bool durable = false;
  /// Chase policy of the peers and of the oracle.
  p2pdb::rel::ChaseOptions chase;
  /// Also check homomorphic equivalence with the oracle (costly: seconds
  /// per 10k-tuple peer).
  bool homomorphic_check = false;
  uint64_t sim_seed = 42;
  p2pdb::workload::QueryWorkloadOptions reads;
};

/// The named workload's make-up for `seed`; false when the name is unknown.
bool MakeSpec(const std::string& name, uint64_t seed, WorkloadSpec* spec);

/// Read latencies over a whole run. Every round issues the same reads in
/// the same order, phase by phase, so the read at one position of a phase
/// does the same work in every round; the run keeps each position's fastest
/// time, which filters out the host's slow spells. Positions mix cheap
/// selections with joins of very different cost, so they are summarized by
/// their geometric mean: a median would sit in the gap between the two
/// kinds and jump with the seed's exact mix.
class ReadSamples {
 public:
  enum Phase { kDuringUpdate, kAtFixpoint, kAfterRecovery, kPhases };

  void Record(Phase phase, size_t position, bool point, double us);
  /// Geometric mean over positions of their fastest time (point lookups or
  /// conjunctive queries).
  double GeoMeanOfBest(bool point) const;

 private:
  struct Slot {
    double best_us;
    bool point;
  };
  std::vector<Slot> slots_[kPhases];
};

/// What one round measured.
struct RoundOut {
  Clock::time_point setup_done;  // End of discovery.
  double update_s = 0;  // Wall time of the update minus reads issued in it.
  double recover_s = 0;
  uint64_t messages = 0;
  uint64_t wire_bytes = 0;
  uint64_t disk_bytes = 0;
  uint64_t tuples_inserted = 0;
  uint64_t token_passes = 0;
  uint64_t joins = 0;
  uint64_t operations = 0;  // The update, every read, every restart.
  uint64_t failed = 0;
  std::vector<uint64_t> digests;  // CertainDigest per node at fixpoint.
  /// Per-layer metrics (traced rounds only).
  std::map<std::string, double> layers;
};

class Runner {
 public:
  /// `data_dir` holds the peers' storage directories (wiped per round).
  Runner(WorkloadSpec spec, p2pdb::core::P2PSystem system,
         std::vector<p2pdb::workload::QueryOp> ops, std::string data_dir);
  ~Runner();

  /// Runs one round; `traced` attaches the probes. Violations go to
  /// `issues`. The round's peers stay alive until the next round starts.
  RoundOut RunRound(bool traced, ReadSamples* reads, Issues* issues);

  /// The last round's databases, after the crash and restart.
  std::vector<p2pdb::rel::Database> FinalDatabases() const;
  std::set<p2pdb::NodeId> Participants() const;

  const WorkloadSpec& spec() const { return spec_; }
  const p2pdb::core::P2PSystem& system() const { return system_; }

 private:
  struct State;

  void ReadAll(State* state, ReadSamples::Phase phase, ReadSamples* reads,
               ReadLedger* ledger, RoundOut* out, Issues* issues,
               std::map<std::string, double>* layers);
  void IssueRead(State* state, ReadSamples::Phase phase, size_t position,
                 size_t op, ReadSamples* reads, ReadLedger* ledger,
                 RoundOut* out, Issues* issues,
                 std::map<std::string, double>* layers);

  WorkloadSpec spec_;
  p2pdb::core::P2PSystem system_;
  std::vector<p2pdb::workload::QueryOp> ops_;
  std::string data_dir_;
  uint64_t initial_tuples_ = 0;
  std::unique_ptr<State> last_;
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Bytes in all regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// The process's resident-memory high-water mark, in MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RUNNER_H_
