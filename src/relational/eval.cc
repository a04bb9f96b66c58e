#include "src/relational/eval.h"

#include <algorithm>

namespace p2pdb::rel {

namespace {

// Counts how many variables of `atom` are bound under `binding`; constants
// count as bound positions too. Used for greedy join ordering.
size_t BoundScore(const Atom& atom, const std::set<std::string>& bound) {
  size_t score = 0;
  for (const Term& t : atom.terms) {
    if (!t.is_var() || bound.count(t.var)) ++score;
  }
  return score;
}

// Removes from `pending` and returns, in order, the builtins whose
// variables are all bound.
std::vector<const Builtin*> TakeReady(std::vector<const Builtin*>* pending,
                                      const std::set<std::string>& bound) {
  auto known = [&](const Term& t) { return !t.is_var() || bound.count(t.var); };
  auto ready = std::stable_partition(
      pending->begin(), pending->end(),
      [&](const Builtin* b) { return !known(b->lhs) || !known(b->rhs); });
  std::vector<const Builtin*> out(ready, pending->end());
  pending->erase(ready, pending->end());
  return out;
}

Value ResolveTerm(const Term& t, const Binding& binding) {
  return t.is_var() ? binding.find(t.var)->second : t.constant;
}

bool BuiltinsHold(const std::vector<const Builtin*>& builtins,
                  const Binding& binding) {
  for (const Builtin* b : builtins) {
    if (!EvalBuiltin(b->op, ResolveTerm(b->lhs, binding),
                     ResolveTerm(b->rhs, binding))) {
      return false;
    }
  }
  return true;
}

// Adds the projection of `binding` onto `head_vars` to `out`, unless some
// head variable is unbound.
void Project(const Binding& binding, const std::vector<std::string>& head_vars,
             std::set<Tuple>* out) {
  std::vector<Value> row;
  row.reserve(head_vars.size());
  for (const std::string& v : head_vars) {
    auto it = binding.find(v);
    if (it == binding.end()) return;
    row.push_back(it->second);
  }
  out->insert(Tuple(std::move(row)));
}

struct EvalContext {
  std::vector<const Atom*> order;
  std::vector<RelationView> views;  // views[i] = the relation of order[i].
  // builtins_at[i] = builtins that become checkable right after atom order[i].
  std::vector<std::vector<const Builtin*>> builtins_at;
  std::vector<Binding> results;
};

void Backtrack(EvalContext* ctx, size_t depth, Binding* binding) {
  if (depth == ctx->order.size()) {
    ctx->results.push_back(*binding);
    return;
  }
  const Atom& atom = *ctx->order[depth];
  const RelationView& rel = ctx->views[depth];
  // Missing or empty relation, or an atom of the wrong arity: no tuple
  // can unify.
  if (rel.size() == 0 || atom.terms.size() != rel.arity()) return;

  auto try_tuple = [&](const Tuple& tuple) {
    Binding extended = *binding;
    if (!UnifyAtomWithTuple(atom, tuple, &extended)) return;
    if (!BuiltinsHold(ctx->builtins_at[depth], extended)) return;
    Backtrack(ctx, depth + 1, &extended);
  };

  // Index lookup on the first position whose term is already a known value;
  // fall back to a full scan when every position is free.
  int indexed_pos = -1;
  Value key;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (!t.is_var()) {
      indexed_pos = static_cast<int>(i);
      key = t.constant;
      break;
    }
    auto it = binding->find(t.var);
    if (it != binding->end()) {
      indexed_pos = static_cast<int>(i);
      key = it->second;
      break;
    }
  }
  if (indexed_pos >= 0) {
    rel.ForEachMatch(static_cast<size_t>(indexed_pos), key,
                     [&](const Tuple& tuple) {
                       try_tuple(tuple);
                       return true;
                     });
  } else {
    for (size_t i = 0; i < rel.size(); ++i) try_tuple(rel.row(i));
  }
}

// Evaluates `query` with `skip_atom` removed (SIZE_MAX = none) and an
// optional seed binding whose variables count as already bound.
Result<std::vector<Binding>> EvaluateSeeded(const ReadView& db,
                                            const ConjunctiveQuery& query,
                                            size_t skip_atom,
                                            const Binding* seed) {
  EvalContext ctx;

  // Greedy ordering: repeatedly pick the atom with the most bound positions.
  std::vector<const Atom*> pending;
  pending.reserve(query.atoms.size());
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    if (i != skip_atom) pending.push_back(&query.atoms[i]);
  }
  std::set<std::string> bound;
  if (seed != nullptr) {
    for (const auto& [name, value] : *seed) bound.insert(name);
  }
  std::vector<const Builtin*> pending_builtins;
  for (const Builtin& b : query.builtins) pending_builtins.push_back(&b);
  // Builtins already decidable from the seed alone are checked up front.
  std::vector<const Builtin*> immediate = TakeReady(&pending_builtins, bound);

  while (!pending.empty()) {
    auto best = std::max_element(
        pending.begin(), pending.end(), [&](const Atom* a, const Atom* b) {
          return BoundScore(*a, bound) < BoundScore(*b, bound);
        });
    const Atom* chosen = *best;
    pending.erase(best);
    ctx.order.push_back(chosen);
    ctx.views.push_back(db.View(chosen->relation));
    for (const std::string& v : chosen->Variables()) bound.insert(v);
    // Attach builtins that just became fully bound.
    ctx.builtins_at.push_back(TakeReady(&pending_builtins, bound));
  }
  if (!pending_builtins.empty()) {
    return Status::Unsupported("built-in over unbound variables: " +
                               pending_builtins.front()->ToString());
  }

  // Check seed-decidable builtins before any scanning; a seed that
  // contradicts one answers empty.
  Binding binding = seed != nullptr ? *seed : Binding{};
  if (BuiltinsHold(immediate, binding)) Backtrack(&ctx, 0, &binding);
  return ctx.results;
}

Result<std::vector<Binding>> EvaluateImpl(const ReadView& db,
                                          const ConjunctiveQuery& query) {
  P2PDB_RETURN_IF_ERROR(query.CheckSafe());
  return EvaluateSeeded(db, query, /*skip_atom=*/SIZE_MAX, /*seed=*/nullptr);
}

}  // namespace

bool UnifyAtomWithTuple(const Atom& atom, const Tuple& tuple,
                        Binding* binding) {
  if (atom.terms.size() != tuple.arity()) return false;
  // Record variables newly bound here so we can roll back on failure.
  std::vector<std::string> added;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    const Value& v = tuple.at(i);
    bool agrees = true;
    if (!t.is_var()) {
      agrees = t.constant == v;
    } else if (auto [it, fresh] = binding->try_emplace(t.var, v); fresh) {
      added.push_back(t.var);
    } else {
      agrees = it->second == v;
    }
    if (!agrees) {
      for (const auto& name : added) binding->erase(name);
      return false;
    }
  }
  return true;
}

Result<std::set<Tuple>> EvaluateQuery(const ReadView& db,
                                      const ConjunctiveQuery& query) {
  auto bindings = EvaluateImpl(db, query);
  if (!bindings.ok()) return bindings.status();
  std::set<Tuple> out;
  for (const Binding& b : *bindings) Project(b, query.head_vars, &out);
  return out;
}

Result<std::vector<Binding>> EvaluateBindings(const ReadView& db,
                                              const ConjunctiveQuery& query) {
  return EvaluateImpl(db, query);
}

Result<std::set<Tuple>> EvaluateQueryDelta(const ReadView& db,
                                           const ConjunctiveQuery& query,
                                           size_t delta_atom,
                                           const std::set<Tuple>& delta) {
  if (delta_atom >= query.atoms.size()) {
    return Status::InvalidArgument("delta_atom out of range");
  }
  P2PDB_RETURN_IF_ERROR(query.CheckSafe());
  std::set<Tuple> out;
  const Atom& atom = query.atoms[delta_atom];
  for (const Tuple& t : delta) {
    Binding seed;
    if (!UnifyAtomWithTuple(atom, t, &seed)) continue;
    auto bindings = EvaluateSeeded(db, query, delta_atom, &seed);
    if (!bindings.ok()) return bindings.status();
    for (const Binding& b : *bindings) Project(b, query.head_vars, &out);
  }
  return out;
}

}  // namespace p2pdb::rel
