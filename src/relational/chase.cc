#include "src/relational/chase.h"

#include <algorithm>
#include <set>

#include "src/relational/eval.h"

namespace p2pdb::rel {

namespace {

// Collects head variables that are not bound by the body binding: these are
// the existential variables of the rule.
std::vector<std::string> ExistentialVars(const std::vector<Atom>& head_atoms,
                                         const Binding& binding) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const Atom& a : head_atoms) {
    for (const Term& t : a.terms) {
      if (t.is_var() && !binding.count(t.var) && seen.insert(t.var).second) {
        out.push_back(t.var);
      }
    }
  }
  return out;
}

uint32_t MaxNullDepth(const Binding& binding) {
  uint32_t depth = 0;
  for (const auto& [name, value] : binding) {
    if (value.is_null()) {
      uint32_t d = NullFactory::DepthBitsOf(value.null_id());
      if (d > depth) depth = d;
    }
  }
  return depth;
}

// True if some tuple of `relation` agrees with the atom on every position
// whose term is bound under `binding` (constants are always bound). Walks the
// postings of the first bound position to avoid full scans.
bool ProjectionPresent(const Relation& relation, const Atom& atom,
                       const Binding& binding) {
  // The value each position must hold; nullptr where any value matches
  // (an unbound, existential variable).
  std::vector<const Value*> want(atom.terms.size(), nullptr);
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (!t.is_var()) {
      want[i] = &t.constant;
    } else if (auto it = binding.find(t.var); it != binding.end()) {
      want[i] = &it->second;
    }
  }
  auto key = std::find_if(want.begin(), want.end(),
                          [](const Value* v) { return v != nullptr; });
  // Fully existential atom: any tuple witnesses it.
  if (key == want.end()) return !relation.empty();
  size_t column = static_cast<size_t>(key - want.begin());
  if (column >= relation.schema().arity()) return false;  // Insert refuses.
  bool found = false;
  relation.View().ForEachMatch(column, **key, [&](const Tuple& tuple) {
    found = true;
    for (size_t i = 0; found && i < want.size(); ++i) {
      found = want[i] == nullptr || *want[i] == tuple.at(i);
    }
    return !found;
  });
  return found;
}

// True if `binding` extends to a homomorphism making every head atom present.
// Runs the head itself as a query, with the bound variables frozen to
// constants.
bool HomomorphismPresent(const Database& db,
                         const std::vector<Atom>& head_atoms,
                         const Binding& binding) {
  ConjunctiveQuery probe;
  for (const Atom& a : head_atoms) {
    Atom frozen;
    frozen.relation = a.relation;
    for (const Term& t : a.terms) {
      auto it = t.is_var() ? binding.find(t.var) : binding.end();
      frozen.terms.push_back(it == binding.end() ? t : Term::Const(it->second));
    }
    probe.atoms.push_back(std::move(frozen));
  }
  auto result = EvaluateBindings(db, probe);
  return result.ok() && !result->empty();
}

Tuple InstantiateAtom(const Atom& atom, const Binding& binding) {
  std::vector<Value> row;
  row.reserve(atom.terms.size());
  for (const Term& t : atom.terms) {
    row.push_back(t.is_var() ? binding.at(t.var) : t.constant);
  }
  return Tuple(std::move(row));
}

// Inserts every atom instantiated under `binding`; true if any was new.
Result<bool> InsertAtoms(Database* db, const std::vector<const Atom*>& atoms,
                         const Binding& binding, ChaseStats* stats) {
  bool any_inserted = false;
  for (const Atom* a : atoms) {
    Tuple tuple = InstantiateAtom(*a, binding);
    auto added = db->Insert(a->relation, tuple);
    if (!added.ok()) return added.status();
    if (!*added) continue;
    any_inserted = true;
    ++stats->inserted;
    if (stats->collect_inserted != nullptr) {
      (*stats->collect_inserted)[a->relation].insert(std::move(tuple));
    }
  }
  return any_inserted;
}

}  // namespace

Status ApplyRuleHead(Database* db, const std::vector<Atom>& head_atoms,
                     const Binding& binding, NullFactory* nulls,
                     const ChaseOptions& options, ChaseStats* stats) {
  std::vector<std::string> existentials = ExistentialVars(head_atoms, binding);
  std::vector<const Atom*> to_insert;
  for (const Atom& a : head_atoms) to_insert.push_back(&a);

  if (!existentials.empty()) {
    uint32_t base_depth = MaxNullDepth(binding);
    if (base_depth + 1 >= options.max_null_depth) {
      ++stats->truncated;
      return Status::OK();
    }
    if (options.policy == ChasePolicy::kHomomorphismCheck &&
        HomomorphismPresent(*db, head_atoms, binding)) {
      ++stats->skipped;
      return Status::OK();
    }
    // Decide which atoms to insert *before* minting nulls so both policies
    // share the instantiation path.
    if (options.policy == ChasePolicy::kProjectionCheck) {
      std::vector<const Atom*> absent;
      for (const Atom* a : to_insert) {
        auto rel = db->Get(a->relation);
        if (!rel.ok()) return rel.status();
        if (!ProjectionPresent(**rel, *a, binding)) absent.push_back(a);
      }
      if (absent.empty()) {
        ++stats->skipped;
        return Status::OK();
      }
      to_insert = std::move(absent);
    }
    Binding extended = binding;
    for (const std::string& v : existentials) {
      extended.emplace(v, nulls->Fresh(base_depth));
    }
    return InsertAtoms(db, to_insert, extended, stats).status();
  }

  // Fully bound head: plain set insertion.
  auto any_inserted = InsertAtoms(db, to_insert, binding, stats);
  if (!any_inserted.ok()) return any_inserted.status();
  if (!*any_inserted) ++stats->skipped;
  return Status::OK();
}

Status ApplyRuleHeadAll(Database* db, const std::vector<Atom>& head_atoms,
                        const std::vector<Binding>& bindings,
                        NullFactory* nulls, const ChaseOptions& options,
                        ChaseStats* stats) {
  for (const Binding& b : bindings) {
    P2PDB_RETURN_IF_ERROR(
        ApplyRuleHead(db, head_atoms, b, nulls, options, stats));
  }
  return Status::OK();
}

}  // namespace p2pdb::rel
