// Conjunctive query evaluation over any ReadView (a live database or an
// MVCC snapshot).
#ifndef P2PDB_RELATIONAL_EVAL_H_
#define P2PDB_RELATIONAL_EVAL_H_

#include <set>
#include <vector>

#include "src/relational/cq.h"
#include "src/relational/database.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// Evaluates the query body and returns the projection onto head_vars as a
/// sorted, duplicate-free set of tuples (set semantics).
///
/// Strategy: greedy atom reordering (most-bound atom first) with backtracking
/// unification; built-ins are applied as soon as both sides are bound. This is
/// adequate for the paper's workloads (~10^3 tuples per node).
Result<std::set<Tuple>> EvaluateQuery(const ReadView& db,
                                      const ConjunctiveQuery& query);

/// Like EvaluateQuery but returns the full bindings (one per result), used by
/// the chase when applying rule heads that need body variable values.
Result<std::vector<Binding>> EvaluateBindings(const ReadView& db,
                                              const ConjunctiveQuery& query);

/// Semi-naive (incremental) evaluation: answers of `query` that use at least
/// one tuple of `delta` in the occurrence `delta_atom` (index into
/// query.atoms). The delta atom is matched against `delta` only; the other
/// atoms read the (already updated) database. Union over all atom occurrences
/// of a changed relation yields the exact new answers of a monotone update.
Result<std::set<Tuple>> EvaluateQueryDelta(const ReadView& db,
                                           const ConjunctiveQuery& query,
                                           size_t delta_atom,
                                           const std::set<Tuple>& delta);

/// True if the atom matches the tuple under `binding`, extending it in place.
/// On mismatch the binding is left unchanged.
bool UnifyAtomWithTuple(const Atom& atom, const Tuple& tuple, Binding* binding);

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_EVAL_H_
