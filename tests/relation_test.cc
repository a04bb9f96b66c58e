#include "src/relational/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/relational/database.h"
#include "src/relational/mvcc.h"

namespace p2pdb::rel {
namespace {

RelationSchema PairSchema() { return RelationSchema("r", {"x", "y"}); }

TEST(SchemaTest, AttributeLookup) {
  RelationSchema s("r", {"a", "b", "c"});
  EXPECT_EQ(s.arity(), 3u);
  EXPECT_EQ(*s.AttributeIndex("b"), 1u);
  EXPECT_FALSE(s.AttributeIndex("z").ok());
  EXPECT_EQ(s.ToString(), "r(a, b, c)");
}

TEST(TupleTest, OrderingAndHash) {
  Tuple a({Value::Int(1), Value::Int(2)});
  Tuple b({Value::Int(1), Value::Int(3)});
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(a.Hash(), Tuple({Value::Int(1), Value::Int(2)}).Hash());
  Tuple shorter({Value::Int(1)});
  EXPECT_LT(shorter, a);
}

TEST(TupleTest, HasNull) {
  EXPECT_FALSE(Tuple({Value::Int(1)}).HasNull());
  EXPECT_TRUE(Tuple({Value::Int(1), Value::Null(9)}).HasNull());
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(PairSchema());
  EXPECT_TRUE(*r.Insert(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_FALSE(*r.Insert(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, InsertChecksArity) {
  Relation r(PairSchema());
  EXPECT_FALSE(r.Insert(Tuple({Value::Int(1)})).ok());
}

TEST(RelationTest, EraseAndContains) {
  Relation r(PairSchema());
  Tuple t({Value::Int(1), Value::Int(2)});
  (void)r.Insert(t);
  EXPECT_TRUE(r.Contains(t));
  EXPECT_TRUE(r.Erase(t));
  EXPECT_FALSE(r.Contains(t));
  EXPECT_FALSE(r.Erase(t));
}

TEST(RelationTest, CertainTuplesExcludeNulls) {
  Relation r(PairSchema());
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  (void)r.Insert(Tuple({Value::Int(1), Value::Null(5)}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.CertainTuples().size(), 1u);
}

/// The tuples of `view` whose `column` equals `key`, via its postings.
std::set<Tuple> Matches(const RelationView& view, size_t column,
                        const Value& key) {
  std::set<Tuple> out;
  view.ForEachMatch(column, key, [&](const Tuple& t) {
    out.insert(t);
    return true;
  });
  return out;
}

/// The same answer from a relation's sorted tuples.
std::set<Tuple> Filter(const Relation& relation, size_t column,
                       const Value& key) {
  std::set<Tuple> out;
  for (const Tuple& t : relation.tuples()) {
    if (t.at(column) == key) out.insert(t);
  }
  return out;
}

TEST(RelationTest, PostingsFindMatches) {
  Relation r(PairSchema());
  for (int i = 0; i < 10; ++i) {
    (void)r.Insert(Tuple({Value::Int(i % 3), Value::Int(i)}));
  }
  std::set<Tuple> ones = Matches(r.View(), 0, Value::Int(1));
  EXPECT_EQ(ones.size(), 3u);  // i = 1, 4, 7.
  for (const Tuple& t : ones) EXPECT_EQ(t.at(0), Value::Int(1));
  EXPECT_TRUE(Matches(r.View(), 1, Value::Int(42)).empty());
}

TEST(RelationTest, LookupsSeeInsertsWhileOldViewsKeepTheirRows) {
  Relation r(PairSchema());
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(1)}));
  RelationView one_row = r.View();
  EXPECT_EQ(Matches(r.View(), 0, Value::Int(1)).size(), 1u);
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(Matches(r.View(), 0, Value::Int(1)).size(), 2u);
  EXPECT_TRUE(r.View().Contains(Tuple({Value::Int(1), Value::Int(2)})));
  // The older view is bounded by its row count.
  EXPECT_EQ(Matches(one_row, 0, Value::Int(1)).size(), 1u);
  EXPECT_FALSE(one_row.Contains(Tuple({Value::Int(1), Value::Int(2)})));
  r.Clear();
  EXPECT_EQ(Matches(r.View(), 0, Value::Int(1)).size(), 0u);
}

TEST(RelationTest, CopyGetsItsOwnStore) {
  Relation a(PairSchema());
  (void)a.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  Relation b = a;
  EXPECT_NE(a.store(), b.store());
  (void)a.Insert(Tuple({Value::Int(3), Value::Int(4)}));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_FALSE(b.View().Contains(Tuple({Value::Int(3), Value::Int(4)})));
  auto store = a.store();
  Relation c = std::move(a);
  EXPECT_EQ(c.store(), store);  // A move keeps the store.
}

TEST(RelationStoreTest, EraseLeavesASharedStoreToItsSnapshot) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(PairSchema()).ok());
  Tuple gone({Value::Int(1), Value::Int(2)});
  Tuple kept({Value::Int(1), Value::Int(3)});
  Tuple later({Value::Int(1), Value::Int(4)});
  (void)db.Insert("r", gone);
  (void)db.Insert("r", kept);
  SnapshotPtr before = BuildSnapshot(db, 0);

  Relation* live = *db.GetMutable("r");
  EXPECT_TRUE(live->Erase(gone));
  (void)live->Insert(later);
  EXPECT_FALSE(live->Contains(gone));
  EXPECT_EQ(Matches(live->View(), 0, Value::Int(1)),
            (std::set<Tuple>{kept, later}));

  RelationView old = before->View("r");
  EXPECT_EQ(old.size(), 2u);
  EXPECT_TRUE(old.Contains(gone));
  EXPECT_FALSE(old.Contains(later));
  EXPECT_EQ(Matches(old, 0, Value::Int(1)), (std::set<Tuple>{gone, kept}));
  live->Clear();
  EXPECT_EQ(before->View("r").size(), 2u);
  EXPECT_TRUE(before->View("r").Contains(kept));
}

// Reader threads answer point and postings lookups from snapshots they hold
// while the writer appends across row-log chunk ends (16, 48, 112, ...) and
// hash-table growth (4, 8, 16, ... rows). Every answer must equal the one a
// deep copy taken at the snapshot's row count gives.
TEST(RelationStoreTest, HeldSnapshotsAnswerLikeDeepCopiesUnderAppends) {
  constexpr int kRows = 2000;
  auto tuple_of = [](int i) {
    return Tuple({Value::Int(i % 37), Value::Int(i % 101)});  // Distinct.
  };
  std::vector<std::vector<Tuple>> batches;
  for (int i = 0, step = 1; i < kRows; step = step % 67 + 5) {
    std::vector<Tuple> batch;
    for (int end = std::min(kRows, i + step); i < end; ++i) {
      batch.push_back(tuple_of(i));
      if (i % 5 == 0) batch.push_back(tuple_of(i / 2));  // A duplicate.
    }
    batches.push_back(std::move(batch));
  }

  Database db;
  ASSERT_TRUE(db.CreateRelation(PairSchema()).ok());
  SnapshotStore store;
  // copies[v]: a deep copy of "r" as snapshot v publishes it, written by the
  // writer before that publication.
  std::vector<Relation> copies(batches.size() + 1, Relation(PairSchema()));
  std::atomic<bool> done{false};
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> mismatches{0};

  auto check = [&](const DbSnapshot& snap, int salt) {
    const Relation& copy = copies[snap.version()];
    RelationView view = snap.View("r");
    bool ok = view.size() == copy.size();
    for (int k = 0; k < 8; ++k) {
      int i = (salt * 131 + k * 977) % (kRows + 200);  // Some never inserted.
      ok &= view.Contains(tuple_of(i)) == copy.Contains(tuple_of(i));
      ok &= !view.Contains(Tuple({Value::Int(i)}));
    }
    for (size_t column = 0; column < 2; ++column) {
      Value key = Value::Int((salt + static_cast<int>(column) * 7) % 103);
      ok &= Matches(view, column, key) == Filter(copy, column, key);
    }
    if (salt % 16 == 0) {
      std::set<Tuple> rows;
      for (size_t i = 0; i < view.size(); ++i) rows.insert(view.row(i));
      ok &= rows == copy.tuples();
    }
    checks.fetch_add(1);
    if (!ok) mismatches.fetch_add(1);
  };

  constexpr int kReaders = 3;
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      SnapshotPtr first = store.Acquire();
      started.fetch_add(1);
      int salt = t;
      while (!done.load(std::memory_order_relaxed)) {
        SnapshotPtr held = store.Acquire();
        for (int k = 0; k < 4; ++k) check(*held, salt++);
      }
      check(*first, 0);
      check(*store.Acquire(), 1);
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  for (size_t v = 1; v <= batches.size(); ++v) {
    for (const Tuple& t : batches[v - 1]) (void)db.Insert("r", t);
    copies[v] = *db.FindRelation("r");
    store.Publish(BuildSnapshot(db, v));
    std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(db.FindRelation("r")->size(), static_cast<size_t>(kRows));
  EXPECT_GT(checks.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(DatabaseTest, CreateAndLookup) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(PairSchema()).ok());
  EXPECT_TRUE(db.HasRelation("r"));
  EXPECT_FALSE(db.HasRelation("q"));
  EXPECT_TRUE(db.Get("r").ok());
  EXPECT_FALSE(db.Get("q").ok());
  EXPECT_FALSE(db.CreateRelation(PairSchema()).ok());  // Duplicate.
}

TEST(DatabaseTest, InsertThroughCatalog) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(PairSchema()).ok());
  EXPECT_TRUE(*db.Insert("r", Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_FALSE(db.Insert("missing", Tuple({Value::Int(1)})).ok());
  EXPECT_EQ(db.TotalTuples(), 1u);
}

TEST(DatabaseTest, DeepEquality) {
  Database a, b;
  (void)a.CreateRelation(PairSchema());
  (void)b.CreateRelation(PairSchema());
  EXPECT_TRUE(a == b);
  (void)a.Insert("r", Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(a == b);
  (void)b.Insert("r", Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace p2pdb::rel
