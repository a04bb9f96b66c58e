#include "src/relational/null_iso.h"

#include <gtest/gtest.h>

namespace p2pdb::rel {
namespace {

Value S(const char* s) { return Value::Str(s); }
Value N(uint64_t id) { return Value::Null(id); }

Database MakeDb(const std::vector<Tuple>& tuples) {
  Database db;
  (void)db.CreateRelation(RelationSchema("r", {"x", "y"}));
  for (const Tuple& t : tuples) (void)db.Insert("r", t);
  return db;
}

TEST(NullIsoTest, IdenticalDatabasesIsomorphic) {
  Database a = MakeDb({Tuple({S("c"), N(1)})});
  Database b = MakeDb({Tuple({S("c"), N(1)})});
  EXPECT_TRUE(DatabasesIsomorphic(a, b));
}

TEST(NullIsoTest, RenamedNullsIsomorphic) {
  Database a = MakeDb({Tuple({S("c"), N(1)}), Tuple({S("d"), N(2)})});
  Database b = MakeDb({Tuple({S("c"), N(77)}), Tuple({S("d"), N(99)})});
  EXPECT_TRUE(DatabasesIsomorphic(a, b));
}

TEST(NullIsoTest, SharedNullStructureMatters) {
  // a: both rows share one null; b: two distinct nulls. Not isomorphic.
  Database a = MakeDb({Tuple({S("c"), N(1)}), Tuple({S("d"), N(1)})});
  Database b = MakeDb({Tuple({S("c"), N(5)}), Tuple({S("d"), N(6)})});
  EXPECT_FALSE(DatabasesIsomorphic(a, b));
  EXPECT_FALSE(DatabasesIsomorphic(b, a));
}

TEST(NullIsoTest, DifferentCertainTuplesNotIsomorphic) {
  Database a = MakeDb({Tuple({S("c"), S("x")})});
  Database b = MakeDb({Tuple({S("c"), S("y")})});
  EXPECT_FALSE(DatabasesIsomorphic(a, b));
}

TEST(NullIsoTest, DifferentSizesNotIsomorphic) {
  Database a = MakeDb({Tuple({S("c"), N(1)})});
  Database b = MakeDb({Tuple({S("c"), N(1)}), Tuple({S("d"), N(2)})});
  EXPECT_FALSE(DatabasesIsomorphic(a, b));
}

TEST(NullIsoTest, CertainEqualIgnoresNullRows) {
  Database a = MakeDb({Tuple({S("c"), S("x")}), Tuple({S("c"), N(1)})});
  Database b = MakeDb({Tuple({S("c"), S("x")}), Tuple({S("d"), N(9)})});
  EXPECT_TRUE(DatabasesCertainEqual(a, b));
  Database c = MakeDb({Tuple({S("c"), S("z")})});
  EXPECT_FALSE(DatabasesCertainEqual(a, c));
}

TEST(NullIsoTest, CertainEqualIgnoresNullRowCounts) {
  // Same certain tuples; one null-carrying tuple against three.
  Database a = MakeDb({Tuple({S("c"), S("d")}), Tuple({S("c"), N(1)})});
  Database b = MakeDb({Tuple({S("c"), S("d")}), Tuple({S("c"), N(1)}),
                       Tuple({S("c"), N(2)}), Tuple({N(3), S("e")})});
  ASSERT_NE(a.TotalTuples(), b.TotalTuples());
  EXPECT_TRUE(DatabasesCertainEqual(a, b));
  EXPECT_TRUE(DatabasesCertainEqual(b, a));
  EXPECT_FALSE(DatabasesIsomorphic(a, b));
}

TEST(NullIsoTest, HomomorphicContainmentMapsNullsToConstants) {
  // sub has r(c, _1); sup has r(c, x): _1 -> x is a valid homomorphism.
  Database sub = MakeDb({Tuple({S("c"), N(1)})});
  Database sup = MakeDb({Tuple({S("c"), S("x")})});
  EXPECT_TRUE(DatabaseHomomorphicallyContained(sub, sup));
  // The reverse is false: certain tuple r(c, x) is missing from sub.
  EXPECT_FALSE(DatabaseHomomorphicallyContained(sup, sub));
}

TEST(NullIsoTest, HomomorphismMustBeConsistent) {
  // sub: r(c,_1), r(d,_1) — same null twice. sup: r(c,x), r(d,y) — no single
  // image works.
  Database sub = MakeDb({Tuple({S("c"), N(1)}), Tuple({S("d"), N(1)})});
  Database sup = MakeDb({Tuple({S("c"), S("x")}), Tuple({S("d"), S("y")})});
  EXPECT_FALSE(DatabaseHomomorphicallyContained(sub, sup));
  // With a shared image it works.
  Database sup2 = MakeDb({Tuple({S("c"), S("x")}), Tuple({S("d"), S("x")})});
  EXPECT_TRUE(DatabaseHomomorphicallyContained(sub, sup2));
}

TEST(NullIsoTest, HomomorphismNeedNotBeInjective) {
  // Two distinct nulls may map onto one value.
  Database sub = MakeDb({Tuple({S("c"), N(1)}), Tuple({S("c"), N(2)})});
  Database sup = MakeDb({Tuple({S("c"), S("x")})});
  EXPECT_TRUE(DatabaseHomomorphicallyContained(sub, sup));
}

}  // namespace
}  // namespace p2pdb::rel
