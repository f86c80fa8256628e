"""Exact homomorphism counting.

The count of a boolean conjunctive query on a database is the number of
assignments of its variables to elements under which every atom lands on a
fact (constants go through the database's interpretation) and every
inequality pair lands on two distinct elements.

Counting uses backtracking with forward pruning and most-constrained-first
variable order, plus connected-component factorization of the constraint
graph: atoms and inequalities induce edges, constants do not, and the
count of a disconnected query is the product of its component counts.
Components are re-split after every assignment, which is what makes
star- and cycle-shaped queries cheap.  Order never affects the result,
only speed; there is no caching across calls.
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
    """Per-relation fact lists plus a (relation, position, element) index."""

    def __init__(self, d: Database) -> None:
        self.by_rel: dict[str, tuple[tuple[str, ...], ...]] = dict(d.facts_by_relation)
        self.fact_sets: dict[str, frozenset[tuple[str, ...]]] = {
            r: frozenset(ts) for r, ts in self.by_rel.items()
        }
        by_pos: dict[tuple[str, int, str], list[tuple[str, ...]]] = {}
        for r, ts in self.by_rel.items():
            for t in ts:
                for i, e in enumerate(t):
                    by_pos.setdefault((r, i, e), []).append(t)
        self.by_pos = {k: tuple(v) for k, v in by_pos.items()}

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
    elements: tuple[str, ...],
    assign: dict[str, str],
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
        if not cp and not cn:
            total *= len(elements) ** len(comp)
        else:
            total *= _branch(comp, cp, cn, idx, elements, assign)
        if total == 0:
            return 0
    return total


def _branch(
    comp: frozenset[str],
    patterns: list[_Pattern],
    neqs: list[tuple[_Arg, _Arg]],
    idx: _FactIndex,
    elements: tuple[str, ...],
    assign: dict[str, str],
) -> int:
    best_v: Optional[str] = None
    best_c: set[str] = set()
    for v in sorted(comp):
        c = _candidates(v, patterns, neqs, idx, elements, assign)
        if not c:
            return 0
        if best_v is None or len(c) < len(best_c):
            best_v, best_c = v, c
    assert best_v is not None
    rest = comp - {best_v}
    total = 0
    for e in sorted(best_c):
        assign[best_v] = e
        total += _count(rest, patterns, neqs, idx, elements, assign)
        del assign[best_v]
    return total


def count_homomorphisms(q: Query, d: Database) -> int:
    """ψ(D): the exact number of homomorphisms of q into d.

    A query with no variables counts 1 if all its ground atoms are facts and
    all ground inequalities hold, else 0.
    """
    patterns, neqs = _compile(q, d)
    idx = _FactIndex(d)
    return _count(frozenset(q.variables), patterns, neqs, idx, tuple(sorted(d.elements)), {})


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
            for rel, args in patterns:
                if not idx.has(rel, _resolve_args(args, assign)):
                    return None
            return dict(assign)
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
            if found is not None:
                del assign[best_v]
                return found
            del assign[best_v]
        return None

    return rec(frozenset(q_from.variables))
