#include "probes.h"

#include <string>

#include "src/relational/mvcc.h"

namespace perfbench {

namespace storage = p2pdb::storage;
using p2pdb::Status;

void StorageRecorder::Add(const StorageTally& d) {
  std::lock_guard<std::mutex> lock(mutex_);
  tally_.log_delta_s += d.log_delta_s;
  tally_.log_delta_calls += d.log_delta_calls;
  tally_.checkpoint_s += d.checkpoint_s;
  tally_.checkpoints += d.checkpoints;
  tally_.recover_s += d.recover_s;
  tally_.wal_records_replayed += d.wal_records_replayed;
  tally_.wal_bytes_scanned += d.wal_bytes_scanned;
  tally_.probe_s += d.probe_s;
}

Status TimedStorage::LogDelta(const storage::DeltaMap& delta) {
  Clock::time_point start = Clock::now();
  Status st = inner_->LogDelta(delta);
  StorageTally d;
  d.log_delta_s = SecondsSince(start);
  d.log_delta_calls = 1;
  start = Clock::now();
  recorder_->batches(node_).push_back(delta);
  d.probe_s = SecondsSince(start);
  recorder_->Add(d);
  return st;
}

template <typename Fn>
Status TimedStorage::TimeCheckpoint(Fn&& fn) {
  uint64_t before = checkpoints_taken_ ? checkpoints_taken_() : 0;
  Clock::time_point start = Clock::now();
  Status st = fn();
  StorageTally d;
  d.checkpoint_s = SecondsSince(start);
  d.checkpoints = (checkpoints_taken_ ? checkpoints_taken_() : 0) - before;
  recorder_->Add(d);
  return st;
}

Status TimedStorage::EnsureBase(const p2pdb::rel::Database& db) {
  return TimeCheckpoint([&] { return inner_->EnsureBase(db); });
}

Status TimedStorage::MaybeCheckpoint(const p2pdb::rel::Database& db) {
  return TimeCheckpoint([&] { return inner_->MaybeCheckpoint(db); });
}

Status TimedStorage::Checkpoint(const p2pdb::rel::Database& db) {
  return TimeCheckpoint([&] { return inner_->Checkpoint(db); });
}

p2pdb::Result<p2pdb::rel::Database> TimedStorage::Recover(
    storage::RecoveryInfo* info) {
  storage::RecoveryInfo local;
  if (info == nullptr) info = &local;
  Clock::time_point start = Clock::now();
  auto db = inner_->Recover(info);
  StorageTally d;
  d.recover_s = SecondsSince(start);
  d.wal_records_replayed = info->wal_records_replayed;
  d.wal_bytes_scanned = info->wal_bytes_scanned;
  recorder_->Add(d);
  return db;
}

ReplayResult ReplaySnapshots(const p2pdb::rel::Database& initial,
                             const std::vector<storage::DeltaMap>& batches) {
  ReplayResult out;
  out.final_db = initial;
  p2pdb::rel::SnapshotPtr prev = p2pdb::rel::BuildSnapshot(out.final_db, 0);
  for (const storage::DeltaMap& batch : batches) {
    std::vector<std::string> touched;
    touched.reserve(batch.size());
    for (const auto& [relation, tuples] : batch) {
      for (const p2pdb::rel::Tuple& t : tuples) {
        (void)out.final_db.Insert(relation, t);
      }
      touched.push_back(relation);
      const p2pdb::rel::Relation* live = out.final_db.FindRelation(relation);
      if (live != nullptr) out.tuples_copied += live->size();
    }
    ++out.batches;
    Clock::time_point start = Clock::now();
    prev = p2pdb::rel::AdvanceSnapshot(prev, out.final_db, touched,
                                       out.batches);
    out.publish_s += SecondsSince(start);
  }
  return out;
}

}  // namespace perfbench
