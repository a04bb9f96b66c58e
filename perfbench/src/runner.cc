#include "runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/net/sim_runtime.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/metrics.h"
#include "src/storage/storage_manager.h"

namespace perfbench {

namespace core = p2pdb::core;
namespace fs = std::filesystem;
namespace net = p2pdb::net;
namespace rel = p2pdb::rel;
namespace storage = p2pdb::storage;
namespace workload = p2pdb::workload;
using p2pdb::NodeId;
using p2pdb::Status;
using Kind = workload::TopologySpec::Kind;

/// Reads issued at each delivered message of a durable update.
constexpr size_t kReadsPerMessage = 8;

bool MakeSpec(const std::string& name, uint64_t seed, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  s.sim_seed = seed;
  s.reads.ops = 4096;
  s.reads.seed = seed * 7919 + 1;
  s.scenario.seed = seed;
  if (name == "tree_bulk") {
    s.scenario.topology.kind = Kind::kTree;
    s.scenario.topology.nodes = 15;
    s.scenario.records_per_node = 1000;
  } else if (name == "cyclic_overlap") {
    // Graph, data and message interleaving are fixed: on a cyclic graph
    // each of them changes how much chase work the update does, so only
    // the reads follow the seed.
    s.scenario.topology.kind = Kind::kRandom;
    s.scenario.topology.nodes = 12;
    s.scenario.topology.edge_prob = 0.15;
    s.scenario.topology.seed = 17;
    s.scenario.records_per_node = 100;
    s.scenario.link_overlap_prob = 0.5;
    s.scenario.seed = 7;
    s.sim_seed = 42;
    // The default per-atom projection check is evaluation-order dependent
    // when rule heads share existential variables, which these translation
    // rules do; the order-independent policy gives a fixpoint the oracle
    // can be compared with exactly.
    s.chase.policy = p2pdb::rel::ChasePolicy::kHomomorphismCheck;
    s.homomorphic_check = true;
  } else if (name == "durable_reads") {
    s.scenario.topology.kind = Kind::kTree;
    s.scenario.topology.nodes = 15;
    s.scenario.records_per_node = 500;
    s.durable = true;
  } else if (name == "tcp_tree") {
    s.scenario.topology.kind = Kind::kTree;
    s.scenario.topology.nodes = 7;
    s.scenario.records_per_node = 1000;
    s.tcp = true;
  } else {
    return false;
  }
  *spec = std::move(s);
  return true;
}

struct Runner::State {
  std::unique_ptr<net::Runtime> runtime;
  std::function<DispatchTimes()> dispatch_totals;
  std::unique_ptr<StorageRecorder> recorder;
  /// Which backend the storage provider hands out: a StorageManager over
  /// the round's directory, or (traced rounds before fixpoint) a no-op one
  /// whose decorator only records the delta batches.
  bool real_storage = false;
  std::string dir;
  std::atomic<uint64_t> delivered{0};
  std::function<void()> on_delivery;  // Reads issued inside the update.
  std::unique_ptr<core::Session> session;  // Destroyed before the runtime.
};

Runner::Runner(WorkloadSpec spec, core::P2PSystem system,
               std::vector<workload::QueryOp> ops, std::string data_dir)
    : spec_(std::move(spec)),
      system_(std::move(system)),
      ops_(std::move(ops)),
      data_dir_(std::move(data_dir)) {
  for (const core::NodeInfo& info : system_.nodes()) {
    initial_tuples_ += info.db.TotalTuples();
  }
}

Runner::~Runner() = default;

namespace {

std::unique_ptr<storage::Storage> OpenStorage(const std::string& dir,
                                              StorageRecorder* recorder,
                                              NodeId id, bool real) {
  std::unique_ptr<storage::Storage> inner;
  std::function<uint64_t()> checkpoints_taken;
  if (real) {
    storage::StorageOptions options;
    options.dir = dir + "/peer" + std::to_string(id);
    options.sync = storage::SyncMode::kNoSync;
    auto opened = storage::StorageManager::Open(options);
    if (opened.ok()) {
      storage::StorageManager* manager = opened->get();
      checkpoints_taken = [manager] { return manager->checkpoints_taken(); };
      inner = std::move(*opened);
    } else {
      // Recovery of this node then fails and the round reports it.
      std::fprintf(stderr, "storage open failed: %s\n",
                   opened.status().ToString().c_str());
    }
  }
  if (inner == nullptr) inner = std::make_unique<storage::NullStorage>();
  if (recorder == nullptr) return inner;
  return std::make_unique<TimedStorage>(std::move(inner), id, recorder,
                                        std::move(checkpoints_taken));
}

void Fail(const std::string& what, const Status& status, RoundOut* out,
          Issues* issues) {
  ++out->failed;
  issues->push_back(what + ": " + status.ToString());
}

}  // namespace

void ReadSamples::Record(Phase phase, size_t position, bool point,
                         double us) {
  std::vector<Slot>& slots = slots_[phase];
  if (position >= slots.size()) slots.resize(position + 1, Slot{-1, point});
  Slot& slot = slots[position];
  if (slot.best_us < 0 || us < slot.best_us) slot.best_us = us;
}

double ReadSamples::GeoMeanOfBest(bool point) const {
  double log_sum = 0;
  size_t n = 0;
  for (const std::vector<Slot>& slots : slots_) {
    for (const Slot& slot : slots) {
      if (slot.point == point && slot.best_us > 0) {
        log_sum += std::log(slot.best_us);
        ++n;
      }
    }
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

void Runner::IssueRead(State* state, ReadSamples::Phase phase,
                       size_t position, size_t op, ReadSamples* reads,
                       ReadLedger* ledger, RoundOut* out, Issues* issues,
                       std::map<std::string, double>* layers) {
  const workload::QueryOp& q = ops_[op];
  ++out->operations;
  Clock::time_point start = Clock::now();
  if (q.is_point) {
    auto hit = state->session->QueryPoint(q.node, q.relation, q.key);
    double s = SecondsSince(start);
    reads->Record(phase, position, true, s * 1e6);
    if (!hit.ok()) {
      Fail("point read", hit.status(), out, issues);
      return;
    }
    ledger->ObservePoint(op, q, *hit, issues);
    if (layers != nullptr) {
      (*layers)["query.point_s"] += s;
      (*layers)["query.rows_returned"] += *hit ? 1 : 0;
      (*layers)["query.reads"] += 1;
    }
    return;
  }
  auto rows = state->session->Query(q.node, q.cq);
  double s = SecondsSince(start);
  reads->Record(phase, position, false, s * 1e6);
  if (!rows.ok()) {
    Fail("conjunctive read", rows.status(), out, issues);
    return;
  }
  if (phase == ReadSamples::kAfterRecovery) {
    ledger->ObserveExact(op, rows->size(), issues);
  } else {
    ledger->ObserveQuery(op, rows->size(), issues);
  }
  if (layers != nullptr) {
    (*layers)["query.cq_s"] += s;
    (*layers)["query.rows_returned"] += static_cast<double>(rows->size());
    (*layers)["query.reads"] += 1;
  }
}

void Runner::ReadAll(State* state, ReadSamples::Phase phase,
                     ReadSamples* reads, ReadLedger* ledger, RoundOut* out,
                     Issues* issues, std::map<std::string, double>* layers) {
  for (size_t op = 0; op < ops_.size(); ++op) {
    IssueRead(state, phase, op, op, reads, ledger, out, issues, layers);
  }
}

RoundOut Runner::RunRound(bool traced, ReadSamples* reads, Issues* issues) {
  last_.reset();  // Free the previous round before building this one.
  RoundOut out;
  auto owned = std::make_unique<State>();
  State* st = owned.get();
  st->dir = data_dir_ + "/round";
  std::error_code ec;
  fs::remove_all(st->dir, ec);
  fs::create_directories(st->dir, ec);
  std::map<std::string, double>* layers = traced ? &out.layers : nullptr;

  // --- Set-up: runtime, Session, storage, discovery. ---
  if (spec_.tcp) {
    net::TcpRuntime::Options options;
    // Seven peer threads plus two I/O threads stay near the host's cores.
    options.io_workers = 2;
    if (traced) {
      auto rt = std::make_unique<TimedRuntime<net::TcpRuntime>>(options);
      auto* raw = rt.get();
      st->dispatch_totals = [raw] { return raw->Totals(); };
      st->runtime = std::move(rt);
    } else {
      st->runtime = std::make_unique<net::TcpRuntime>(options);
    }
  } else {
    net::SimRuntime::Options options;
    options.seed = spec_.sim_seed;
    options.max_events = 500'000'000;
    if (traced) {
      auto rt = std::make_unique<TimedRuntime<net::SimRuntime>>(options);
      auto* raw = rt.get();
      st->dispatch_totals = [raw] { return raw->Totals(); };
      st->runtime = std::move(rt);
    } else {
      st->runtime = std::make_unique<net::SimRuntime>(options);
    }
  }
  st->runtime->set_tracer([st](uint64_t, const net::Message&) {
    st->delivered.fetch_add(1, std::memory_order_relaxed);
    if (st->on_delivery) st->on_delivery();
  });
  if (traced) {
    st->recorder = std::make_unique<StorageRecorder>(system_.node_count());
  }
  st->real_storage = spec_.durable;
  core::Session::Options options;
  options.peer.update.chase = spec_.chase;
  options.storage = [st](NodeId id) {
    return OpenStorage(st->dir, st->recorder.get(), id, st->real_storage);
  };
  st->session =
      std::make_unique<core::Session>(system_, st->runtime.get(), options);
  core::Session& session = *st->session;
  const size_t nodes = session.peer_count();
  // A traced round attaches the recording decorator up front even without
  // durability (over a no-op backend) so every delta batch can be replayed.
  if (spec_.durable || traced) {
    for (NodeId n = 0; n < nodes; ++n) {
      Status attached = session.AttachStorage(n);
      if (!attached.ok()) Fail("attach storage", attached, &out, issues);
    }
  }
  Status discovered = session.RunDiscovery();
  out.setup_done = Clock::now();
  if (!discovered.ok()) {
    Fail("discovery", discovered, &out, issues);
    last_ = std::move(owned);
    return out;
  }

  // --- The update, to fixpoint. ---
  ReadLedger ledger(ops_.size());
  DispatchTimes dispatch_before;
  StorageTally storage_before;
  if (traced) {
    dispatch_before = st->dispatch_totals();
    storage_before = st->recorder->tally();
    p2pdb::obs::Registry::Global().Reset();
    p2pdb::obs::SetDetailedTiming(true);
  }
  st->runtime->stats().Reset();
  st->delivered = 0;
  double read_s = 0;
  size_t issued = 0;
  if (spec_.durable) {
    st->on_delivery = [&] {
      Clock::time_point start = Clock::now();
      for (size_t k = 0; k < kReadsPerMessage; ++k, ++issued) {
        IssueRead(st, ReadSamples::kDuringUpdate, issued,
                  issued % ops_.size(), reads, &ledger, &out, issues, layers);
      }
      read_s += SecondsSince(start);
    };
  }
  Clock::time_point update_start = Clock::now();
  Status updated = session.RunUpdate();
  double update_wall = SecondsSince(update_start);
  if (spec_.durable) st->on_delivery = nullptr;
  if (traced) p2pdb::obs::SetDetailedTiming(false);
  out.update_s = update_wall - read_s;
  ++out.operations;
  if (!updated.ok()) {
    Fail("update", updated, &out, issues);
    last_ = std::move(owned);
    return out;
  }

  // --- Checks at fixpoint. ---
  std::set<NodeId> open;
  if (!session.AllClosed(&open)) {
    issues->push_back(std::to_string(open.size()) +
                      " participants still open at quiescence");
  }
  const net::NetStats& stats = st->runtime->stats();
  out.messages = stats.total_messages();
  out.wire_bytes = stats.total_bytes();
  CheckDelivery(out.messages, st->delivered.load(),
                st->runtime->dropped_count(), issues);
  uint64_t final_tuples = 0;
  for (NodeId n = 0; n < nodes; ++n) {
    const core::Peer& peer = session.peer(n);
    final_tuples += peer.db().TotalTuples();
    out.tuples_inserted += peer.update().stats().tuples_inserted;
    out.token_passes += peer.update().stats().token_passes;
    out.joins += peer.update().stats().joins_evaluated;
    out.digests.push_back(CertainDigest(peer.db()));
  }
  CheckConservation(out.tuples_inserted, initial_tuples_, final_tuples,
                    issues);

  if (traced) {
    DispatchTimes after = st->dispatch_totals();
    DispatchTimes d;
    for (size_t t = 0; t < DispatchTimes::kTypes; ++t) {
      d.seconds[t] = after.seconds[t] - dispatch_before.seconds[t];
    }
    // Handler time of reads issued at delivery is outside OnMessage, so the
    // dispatch total needs no correction; the wall time does.
    out.layers["net.messages"] = static_cast<double>(out.messages);
    out.layers["net.wire_bytes"] = static_cast<double>(out.wire_bytes);
    out.layers["net.dispatch_s"] = d.Total();
    out.layers["net.runtime_overhead_s"] = out.update_s - d.Total();
    const net::IoCounters& io = stats.io();
    out.layers["net.frames"] = static_cast<double>(io.frames_enqueued.load());
    out.layers["net.batch_frames"] =
        static_cast<double>(io.batch_frames.load());
    out.layers["net.credit_frames"] =
        static_cast<double>(io.credit_frames.load());
    out.layers["net.writev_calls"] =
        static_cast<double>(io.writev_calls.load());
    double inline_d = static_cast<double>(io.inline_dispatches.load());
    double queued_d = static_cast<double>(io.queued_dispatches.load());
    out.layers["net.inline_dispatch_ratio"] =
        inline_d + queued_d > 0 ? inline_d / (inline_d + queued_d) : 0.0;
    out.layers["net.mailbox_wait_s"] =
        static_cast<double>(p2pdb::obs::Registry::Global()
                                .GetHistogram("net.mailbox_wait_micros")
                                ->Snapshot()
                                .sum) /
        1e6;
    const double answer_s = d.Of(net::MessageType::kQueryAnswer);
    out.layers["core.request_s"] = d.Of(net::MessageType::kQueryRequest);
    out.layers["core.answer_s"] = answer_s;
    out.layers["core.token_s"] = d.Of(net::MessageType::kToken) +
                                 d.Of(net::MessageType::kSccClosed) +
                                 d.Of(net::MessageType::kReopen);
    out.layers["core.token_passes"] = static_cast<double>(out.token_passes);

    // Relational layer: replay each node's logged batches.
    ReplayResult total;
    for (NodeId n = 0; n < nodes; ++n) {
      ReplayResult r = ReplaySnapshots(system_.node(n).db,
                                       st->recorder->batches(n));
      CheckReplay(n, r.final_db, session.peer(n).db(), issues);
      total.publish_s += r.publish_s;
      total.batches += r.batches;
      total.tuples_copied += r.tuples_copied;
      st->recorder->batches(n).clear();
    }
    StorageTally storage_update = st->recorder->tally();
    out.layers["core.useful_application_ratio"] =
        out.joins > 0 ? static_cast<double>(total.batches) /
                            static_cast<double>(out.joins)
                      : 0.0;
    out.layers["relational.tuples_inserted"] =
        static_cast<double>(out.tuples_inserted);
    out.layers["relational.snapshot_batches"] =
        static_cast<double>(total.batches);
    out.layers["relational.snapshot_tuples_copied"] =
        static_cast<double>(total.tuples_copied);
    out.layers["relational.snapshot_publish_s"] = total.publish_s;
    out.layers["relational.chase_s"] =
        answer_s - total.publish_s -
        (storage_update.log_delta_s - storage_before.log_delta_s) -
        (storage_update.checkpoint_s - storage_before.checkpoint_s) -
        (storage_update.probe_s - storage_before.probe_s);
  }

  // --- Reads at fixpoint. ---
  ReadAll(st, ReadSamples::kAtFixpoint, reads, &ledger, &out, issues, layers);

  // --- Crash every peer and restart it from disk. ---
  if (!spec_.durable) {
    st->real_storage = true;
    for (NodeId n = 0; n < nodes; ++n) {
      Status attached = session.AttachStorage(n);
      if (!attached.ok()) Fail("attach storage", attached, &out, issues);
    }
  }
  out.disk_bytes = DirectoryBytes(st->dir);
  std::vector<rel::Database> before = session.SnapshotDatabases();
  for (NodeId n = 0; n < nodes; ++n) {
    Status crashed = session.CrashPeer(n);
    if (!crashed.ok()) Fail("crash", crashed, &out, issues);
  }
  Clock::time_point recover_start = Clock::now();
  for (NodeId n = 0; n < nodes; ++n) {
    ++out.operations;
    Status restarted = session.RestartPeer(n);
    if (!restarted.ok()) Fail("restart", restarted, &out, issues);
  }
  out.recover_s = SecondsSince(recover_start);
  for (NodeId n = 0; n < nodes; ++n) {
    auto snap = session.PeerSnapshot(n);
    if (!snap.ok() || (*snap)->TotalTuples() != before[n].TotalTuples()) {
      issues->push_back("node " + std::to_string(n) +
                        " does not serve its recovered snapshot");
    }
  }
  CheckRecovered(before, session.SnapshotDatabases(), issues);
  ReadAll(st, ReadSamples::kAfterRecovery, reads, &ledger, &out, issues,
          layers);

  if (traced) {
    StorageTally t = st->recorder->tally();
    out.layers["storage.log_delta_s"] = t.log_delta_s;
    out.layers["storage.log_delta_calls"] =
        static_cast<double>(t.log_delta_calls);
    out.layers["storage.checkpoint_s"] = t.checkpoint_s;
    out.layers["storage.checkpoints"] = static_cast<double>(t.checkpoints);
    out.layers["storage.recover_s"] = t.recover_s;
    out.layers["storage.wal_records_replayed"] =
        static_cast<double>(t.wal_records_replayed);
    out.layers["storage.wal_bytes_scanned"] =
        static_cast<double>(t.wal_bytes_scanned);
  }
  last_ = std::move(owned);
  return out;
}

std::vector<rel::Database> Runner::FinalDatabases() const {
  if (last_ == nullptr || last_->session == nullptr) return {};
  return last_->session->SnapshotDatabases();
}

std::set<NodeId> Runner::Participants() const {
  if (last_ == nullptr || last_->session == nullptr) return {};
  return last_->session->Participants();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

}  // namespace perfbench
