"""Exact homomorphism counting.

The count of a boolean conjunctive query on a database is the number of
assignments of its variables to elements under which every atom lands on a
fact (constants go through the database's interpretation) and every
inequality pair lands on two distinct elements.

Every query is counted in two steps.  First its tree-shaped part is summed
out leaf first (Yannakakis, VLDB 1981): a variable that shares atoms with
at most one other variable and is in no inequality becomes a weight on
that neighbour's elements, or a scalar factor if it has no neighbour, at
the cost of one pass over the matching facts, whatever the variable names.
Then the core that is left is searched by backtracking with forward
pruning and most-constrained-first order, re-splitting the constraint
graph (atoms and inequalities induce edges, constants do not) into
connected components after every assignment.  A weighted variable takes
only the elements its weight covers, each multiplying the count by its
weight.  Ties in the search order break by variable name, which never
changes the result but can change the speed of the search.  Nothing is
cached across calls.
"""

from __future__ import annotations

from typing import Optional

from .counts import Count, compare_counts
from .relcore import (
    Const,
    Database,
    Query,
    SchemaMismatchError,
    UninterpretedConstantError,
    ValidationError,
    canonical_structure,
)

__all__ = [
    "Count",
    "compare_counts",
    "count_homomorphisms",
    "exists_onto_homomorphism",
    "InequalityUnsupportedError",
]


class InequalityUnsupportedError(ValidationError):
    """Operation defined for inequality-free queries only."""


# A compiled pattern argument: ("v", variable) or ("e", element).
_Arg = tuple[str, str]
_Pattern = tuple[str, tuple[_Arg, ...]]


class _FactIndex:
    """Sorted elements, per-relation facts, and a (relation, position, element) index."""

    def __init__(self, d: Database) -> None:
        self.elements = tuple(sorted(d.elements))
        self.by_rel: dict[str, tuple[tuple[str, ...], ...]] = dict(d.facts_by_relation)
        self.fact_sets = {r: frozenset(ts) for r, ts in self.by_rel.items()}
        self.by_pos: dict[tuple[str, int, str], list[tuple[str, ...]]] = {}
        for r, ts in self.by_rel.items():
            for t in ts:
                for i, e in enumerate(t):
                    self.by_pos.setdefault((r, i, e), []).append(t)

    def has(self, relation: str, t: tuple[str, ...]) -> bool:
        return t in self.fact_sets.get(relation, frozenset())


def _compile(q: Query, d: Database) -> tuple[list[_Pattern], list[tuple[_Arg, _Arg]]]:
    """Resolve constants and validate the query against the database schema."""

    def resolve(term) -> _Arg:
        if isinstance(term, Const):
            try:
                return ("e", d.const_interp[term.name])
            except KeyError:
                raise UninterpretedConstantError(
                    f"database does not interpret constant {term.name}"
                ) from None
        return ("v", term)

    patterns: list[_Pattern] = []
    for a in q.atoms:
        if not d.schema.has_relation(a.relation) or d.schema.arity(a.relation) != len(a.args):
            raise SchemaMismatchError(
                f"relation {a.relation}/{len(a.args)} not declared by the database schema"
            )
        patterns.append((a.relation, tuple(resolve(t) for t in a.args)))
    neqs = [(resolve(t1), resolve(t2)) for t1, t2 in q.inequalities]
    return patterns, neqs


def _resolve_args(args: tuple[_Arg, ...], assign: dict[str, str]) -> Optional[tuple[str, ...]]:
    """Ground the argument list under the partial assignment, or None."""
    out = []
    for kind, x in args:
        if kind == "e":
            out.append(x)
        else:
            v = assign.get(x)
            if v is None:
                return None
            out.append(v)
    return tuple(out)


def _resolve_term(t: _Arg, assign: dict[str, str]) -> Optional[str]:
    return t[1] if t[0] == "e" else assign.get(t[1])


def _pattern_vars(args: tuple[_Arg, ...]) -> set[str]:
    return {x for kind, x in args if kind == "v"}


def _sum_out(
    v: str, u: Optional[str], patterns: list[_Pattern], idx: _FactIndex, wv: dict[str, int]
) -> dict[Optional[str], int]:
    """Σ of v's weight wv over the values of v that satisfy v's atoms, grouped
    by u's value (the key None when v has no neighbour u).  Every atom is
    over {v} or {v, u}; each is matched against the facts once."""
    pairs: Optional[set[tuple[Optional[str], str]]] = None
    for rel, args in patterns:
        found = set()
        for t in idx.by_rel.get(rel, ()):
            seen: dict[str, str] = {}
            if all(
                t[i] == x if kind == "e" else seen.setdefault(x, t[i]) == t[i]
                for i, (kind, x) in enumerate(args)
            ):
                found.add((seen.get(u), seen[v]))
        if ("v", u) in args:
            pairs = found if pairs is None else pairs & found
        else:
            wv = {b: wv[b] for _, b in found if b in wv}
    table: dict[Optional[str], int] = {}
    for a, b in pairs if pairs is not None else ((None, b) for b in wv):
        if b in wv:
            table[a] = table.get(a, 0) + wv[b]
    return table


def _peel(
    patterns: list[_Pattern], neqs: list[tuple[_Arg, _Arg]], idx: _FactIndex
) -> Optional[tuple[int, dict[str, dict[str, int]], frozenset[str], list[_Pattern]]]:
    """Sum out, leaf first, every variable that shares atoms with at most
    one other variable and appears in no inequality.  Returns (scalar,
    weights, variables left, patterns left), or None when the count is 0.
    """
    if any(t1 == t2 for t1, t2 in neqs):
        return None
    in_neq = {x for pair in neqs for kind, x in pair if kind == "v"}
    nbrs: dict[str, set[str]] = {}  # each variable's set holds itself too
    atoms_of: dict[str, list[int]] = {}
    for i, (rel, args) in enumerate(patterns):
        vs = _pattern_vars(args)
        if not vs and not idx.has(rel, tuple(x for _, x in args)):
            return None
        for x in vs:
            nbrs.setdefault(x, set()).update(vs)
            atoms_of.setdefault(x, []).append(i)
    todo = [x for x, ns in nbrs.items() if len(ns) <= 2 and x not in in_neq]
    if not todo:
        return 1, {}, frozenset(nbrs) | in_neq, patterns
    scalar, weights, dead = 1, {}, set()
    while todo:
        v = todo.pop()
        if v not in nbrs:
            continue  # queued twice
        u = next((x for x in nbrs.pop(v) if x != v), None)
        mine = [patterns[i] for i in atoms_of[v] if i not in dead]
        dead.update(atoms_of[v])
        wv = weights.pop(v, None) or dict.fromkeys(idx.elements, 1)
        table = _sum_out(v, u, mine, idx, wv)
        if u in weights:
            table = {a: w * weights[u][a] for a, w in table.items() if a in weights[u]}
        if not table:
            return None
        if u is None:
            scalar *= table[None]
            continue
        weights[u] = table
        nbrs[u].discard(v)
        if len(nbrs[u]) <= 2 and u not in in_neq:
            todo.append(u)
    left = [p for i, p in enumerate(patterns) if i not in dead]
    return scalar, weights, frozenset(nbrs) | in_neq, left


def _candidates(
    v: str,
    patterns: list[_Pattern],
    neqs: list[tuple[_Arg, _Arg]],
    idx: _FactIndex,
    elements: tuple[str, ...],
    assign: dict[str, str],
) -> set[str]:
    """Elements v could map to, given the partial assignment.

    Over-approximate only with respect to constraints among still-unassigned
    variables; those are enforced by later recursion.
    """
    cands: Optional[set[str]] = None
    for rel, args in patterns:
        positions = [i for i, (kind, x) in enumerate(args) if kind == "v" and x == v]
        if not positions:
            continue
        pool = idx.by_rel.get(rel, ())
        for i, (kind, x) in enumerate(args):
            val = x if kind == "e" else assign.get(x)
            if val is not None:
                narrower = idx.by_pos.get((rel, i, val), ())
                if len(narrower) < len(pool):
                    pool = narrower
        found: set[str] = set()
        for t in pool:
            ok = True
            seen: dict[str, str] = {}
            for i, (kind, x) in enumerate(args):
                if kind == "e":
                    if t[i] != x:
                        ok = False
                        break
                else:
                    bound = assign.get(x, seen.get(x))
                    if bound is None:
                        seen[x] = t[i]
                    elif t[i] != bound:
                        ok = False
                        break
            if ok:
                found.add(t[positions[0]])
        cands = found if cands is None else cands & found
        if not cands:
            return set()
    if cands is None:
        cands = set(elements)
    for t1, t2 in neqs:
        for this, other in ((t1, t2), (t2, t1)):
            if this == ("v", v):
                o = _resolve_term(other, assign)
                if o is not None:
                    cands.discard(o)
    return cands


def _components(
    vars_left: frozenset[str],
    patterns: list[_Pattern],
    neqs: list[tuple[_Arg, _Arg]],
) -> list[frozenset[str]]:
    adj: dict[str, set[str]] = {v: set() for v in vars_left}
    groups = [list(_pattern_vars(args) & vars_left) for _, args in patterns]
    groups += [[x for kind, x in pair if kind == "v" and x in vars_left] for pair in neqs]
    for g in groups:
        for a in g:
            adj[a].update(g)
    comps: list[frozenset[str]] = []
    remaining = set(vars_left)
    while remaining:
        start = remaining.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        remaining -= comp
        comps.append(frozenset(comp))
    return comps


def _count(
    vars_left: frozenset[str],
    patterns: list[_Pattern],
    neqs: list[tuple[_Arg, _Arg]],
    idx: _FactIndex,
    assign: dict[str, str],
    weights: dict[str, dict[str, int]],
) -> int:
    live_p: list[_Pattern] = []
    for rel, args in patterns:
        g = _resolve_args(args, assign)
        if g is None:
            live_p.append((rel, args))
        elif not idx.has(rel, g):
            return 0
    live_n: list[tuple[_Arg, _Arg]] = []
    for t1, t2 in neqs:
        v1, v2 = _resolve_term(t1, assign), _resolve_term(t2, assign)
        if v1 is None or v2 is None:
            live_n.append((t1, t2))
        elif v1 == v2:
            return 0
    if not vars_left:
        return 1
    total = 1
    for comp in _components(vars_left, live_p, live_n):
        cp = [p for p in live_p if _pattern_vars(p[1]) & comp]
        cn = [n for n in live_n if {x for k, x in n if k == "v"} & comp]
        total *= _branch(comp, cp, cn, idx, assign, weights)
        if total == 0:
            return 0
    return total


def _branch(
    comp: frozenset[str],
    patterns: list[_Pattern],
    neqs: list[tuple[_Arg, _Arg]],
    idx: _FactIndex,
    assign: dict[str, str],
    weights: dict[str, dict[str, int]],
) -> int:
    best_v: Optional[str] = None
    best_c: set[str] = set()
    for v in sorted(comp):
        c = _candidates(v, patterns, neqs, idx, idx.elements, assign)
        if v in weights:
            c.intersection_update(weights[v])
        if not c:
            return 0
        if best_v is None or len(c) < len(best_c):
            best_v, best_c = v, c
    assert best_v is not None
    rest = comp - {best_v}
    weight = weights.get(best_v)
    total = 0
    for e in sorted(best_c):
        assign[best_v] = e
        n = _count(rest, patterns, neqs, idx, assign, weights)
        total += n if weight is None else weight[e] * n
        del assign[best_v]
    return total


def count_homomorphisms(q: Query, d: Database) -> int:
    """ψ(D): the exact number of homomorphisms of q into d.

    A query with no variables counts 1 if all its ground atoms are facts and
    all ground inequalities hold, else 0.
    """
    patterns, neqs = _compile(q, d)
    idx = _FactIndex(d)
    peeled = _peel(patterns, neqs, idx)
    if peeled is None:
        return 0
    scalar, weights, core, patterns = peeled
    return scalar * _count(core, patterns, neqs, idx, {}, weights)


def exists_onto_homomorphism(q_from: Query, q_to: Query) -> Optional[dict[str, str]]:
    """A variable map q_from -> q_to that is a homomorphism into q_to's
    canonical structure, fixes constants, and covers every q_to variable.

    Returns one such map (deterministically) or None.  When a map exists,
    count(q_to, D) <= count(q_from, D) for every database D, because
    composing with it embeds Hom(q_to, D) into Hom(q_from, D).
    """
    if q_from.inequalities or q_to.inequalities:
        raise InequalityUnsupportedError("onto-homomorphism search needs inequality-free queries")
    if not set(q_from.constants_used) <= set(q_to.constants_used):
        return None  # a fixed constant has no image element in the target
    target = canonical_structure(q_to)
    patterns, _ = _compile(q_from, target)
    idx = _FactIndex(target)
    var_elements = tuple(sorted(q_to.variables))
    var_set = set(var_elements)
    assign: dict[str, str] = {}

    def rec(unassigned: frozenset[str]) -> Optional[dict[str, str]]:
        covered = set(assign.values()) & var_set
        if len(var_set - covered) > len(unassigned):
            return None
        if not unassigned:
            ok = all(idx.has(rel, _resolve_args(args, assign)) for rel, args in patterns)
            return dict(assign) if ok else None
        best_v: Optional[str] = None
        best_c: set[str] = set()
        for v in sorted(unassigned):
            c = _candidates(v, patterns, [], idx, var_elements, assign) & var_set
            if not c:
                return None
            if best_v is None or len(c) < len(best_c):
                best_v, best_c = v, c
        assert best_v is not None
        for e in sorted(best_c):
            assign[best_v] = e
            found = rec(unassigned - {best_v})
            del assign[best_v]
            if found is not None:
                return found
        return None

    return rec(frozenset(q_from.variables))
