// Probes the traced mode attaches from outside the library: every number
// they produce comes from timing calls into a layer's public interface, so
// the library itself carries no benchmark instrumentation.
//
//   TimedRuntime<Base>  wraps each registered PeerHandler and times every
//                       OnMessage, bucketed by message type (net + core).
//   TimedStorage        a storage::Storage decorator handed out through
//                       Session::Options::storage; times the log, checkpoint
//                       and recovery calls and records every delta batch so
//                       the snapshot publishes can be replayed afterwards.
//   ReplaySnapshots     re-runs one peer's recorded batches through
//                       rel::AdvanceSnapshot, timing only that call.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/runtime.h"
#include "src/relational/database.h"
#include "src/storage/storage.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Handler time per message type (indexed by the MessageType value).
struct DispatchTimes {
  static constexpr size_t kTypes = 64;
  std::array<double, kTypes> seconds{};

  double Of(p2pdb::net::MessageType type) const {
    size_t t = static_cast<size_t>(type);
    return t < kTypes ? seconds[t] : 0.0;
  }
  double Total() const {
    double total = 0;
    for (double s : seconds) total += s;
    return total;
  }
};

/// Times one peer's OnMessage calls. The runtime never overlaps dispatches to
/// one peer, so the tallies need no lock; they are read after Run() returns.
class TimedHandler : public p2pdb::net::PeerHandler {
 public:
  explicit TimedHandler(p2pdb::net::PeerHandler* inner) : inner_(inner) {}

  void OnMessage(const p2pdb::net::Message& msg) override {
    Clock::time_point start = Clock::now();
    inner_->OnMessage(msg);
    size_t type = static_cast<size_t>(msg.type);
    if (type >= DispatchTimes::kTypes) type = DispatchTimes::kTypes - 1;
    times_.seconds[type] += SecondsSince(start);
  }

  const DispatchTimes& times() const { return times_; }

 private:
  p2pdb::net::PeerHandler* inner_;
  DispatchTimes times_;
};

/// A runtime whose registered handlers are wrapped in TimedHandlers. A
/// re-registered node (a restarted peer) gets a fresh wrapper; old ones are
/// kept so their tallies still count and no dispatch can reach freed memory.
template <typename Base>
class TimedRuntime : public Base {
 public:
  using Base::Base;

  void RegisterPeer(p2pdb::NodeId id,
                    p2pdb::net::PeerHandler* handler) override {
    TimedHandler* wrapper;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      wrappers_.push_back(std::make_unique<TimedHandler>(handler));
      wrapper = wrappers_.back().get();
    }
    Base::RegisterPeer(id, wrapper);
  }

  /// Sum over every wrapper. Call only while the runtime is quiescent.
  DispatchTimes Totals() const {
    std::lock_guard<std::mutex> lock(mutex_);
    DispatchTimes total;
    for (const auto& w : wrappers_) {
      for (size_t t = 0; t < DispatchTimes::kTypes; ++t) {
        total.seconds[t] += w->times().seconds[t];
      }
    }
    return total;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TimedHandler>> wrappers_;
};

/// What the storage decorators of one round observed, summed over peers.
struct StorageTally {
  double log_delta_s = 0;
  uint64_t log_delta_calls = 0;
  double checkpoint_s = 0;  // EnsureBase, MaybeCheckpoint and Checkpoint.
  uint64_t checkpoints = 0;
  double recover_s = 0;
  uint64_t wal_records_replayed = 0;
  uint64_t wal_bytes_scanned = 0;
  /// Time spent copying batches into the recorder: probe cost inside the
  /// answer handler, subtracted when chase time is derived from it.
  double probe_s = 0;
};

/// Shared sink of the decorators: tallies plus every delta batch each node
/// logged, in order. Peers on the TCP runtime log from their own threads,
/// so the tally is locked; each node's batch list is only appended to by
/// that node's (serialized) dispatch.
class StorageRecorder {
 public:
  explicit StorageRecorder(size_t nodes) : batches_(nodes) {}

  void Add(const StorageTally& delta);
  StorageTally tally() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return tally_;
  }
  std::vector<p2pdb::storage::DeltaMap>& batches(p2pdb::NodeId node) {
    return batches_[node];
  }
  const std::vector<std::vector<p2pdb::storage::DeltaMap>>& all_batches()
      const {
    return batches_;
  }

 private:
  mutable std::mutex mutex_;
  StorageTally tally_;
  std::vector<std::vector<p2pdb::storage::DeltaMap>> batches_;
};

/// Storage decorator: forwards every call to `inner` and reports its time
/// and outcome to the recorder. `checkpoints_taken` reads the inner
/// backend's checkpoint counter (null for backends that never write one).
class TimedStorage : public p2pdb::storage::Storage {
 public:
  TimedStorage(std::unique_ptr<p2pdb::storage::Storage> inner,
               p2pdb::NodeId node, StorageRecorder* recorder,
               std::function<uint64_t()> checkpoints_taken)
      : inner_(std::move(inner)), node_(node), recorder_(recorder),
        checkpoints_taken_(std::move(checkpoints_taken)) {}

  p2pdb::Status LogDelta(const p2pdb::storage::DeltaMap& delta) override;
  p2pdb::Status LogRuleChange(const std::vector<uint8_t>& record) override {
    return inner_->LogRuleChange(record);
  }
  p2pdb::Status ResetRuleChanges(
      std::vector<std::vector<uint8_t>> records) override {
    return inner_->ResetRuleChanges(std::move(records));
  }
  p2pdb::Status EnsureBase(const p2pdb::rel::Database& db) override;
  bool HasBase() const override { return inner_->HasBase(); }
  p2pdb::Status MaybeCheckpoint(const p2pdb::rel::Database& db) override;
  p2pdb::Status Checkpoint(const p2pdb::rel::Database& db) override;
  p2pdb::Result<p2pdb::rel::Database> Recover(
      p2pdb::storage::RecoveryInfo* info) override;

 private:
  template <typename Fn>
  p2pdb::Status TimeCheckpoint(Fn&& fn);

  std::unique_ptr<p2pdb::storage::Storage> inner_;
  p2pdb::NodeId node_;
  StorageRecorder* recorder_;
  std::function<uint64_t()> checkpoints_taken_;
};

/// Result of replaying one node's batches through rel::AdvanceSnapshot.
struct ReplayResult {
  double publish_s = 0;
  uint64_t batches = 0;
  /// Sum over batches of the touched relations' sizes: the tuples a
  /// copy-on-write publish has to copy.
  uint64_t tuples_copied = 0;
  p2pdb::rel::Database final_db;
};

/// Applies `batches` in order to a copy of `initial`, publishing a successor
/// snapshot after each exactly as the peer does; only AdvanceSnapshot is
/// timed. The returned database must equal the peer's live one.
ReplayResult ReplaySnapshots(
    const p2pdb::rel::Database& initial,
    const std::vector<p2pdb::storage::DeltaMap>& batches);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
