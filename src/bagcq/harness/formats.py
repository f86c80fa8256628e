"""Flat-file formats for queries, databases, polynomials, expressions,
and factored counts.

Query text (.cq), one clause per line:
    atom REL(t1,...,tk)
    neq t1 t2
    # comment
Terms starting with @ are constants, anything else is a variable.
Relation arity is inferred at first use and enforced afterward.

Database text (.db):
    elem e1 e2 ...          (repeatable)
    const @name = e
    fact REL(e1,...,ek)

Polynomial text (.poly):
    vars N
    term C i1 i2 ... id     (empty index list = constant term)

Expression text (.qx), an s-expression:
    (leaf "...")  (dand e1 e2 ...)  (pow e K)
A leaf string holding newlines or starting with a clause keyword is an
inline .cq body; anything else is a path relative to the file.  K is a
decimal or a factored literal like 2^10 or 3^22*5^21.

Count text (.count): 0, 1, or B^E joined by * (the str() form of Count).

Instance text (instance.poly.json-lines, written by save_encoder_output
beside phi_s.cq, phi_b.qx, c.count and arena.db): one JSON object per
line, a "meta" record with c_frak, degree, m_count and n_count, and one
record per polynomial p_s, p_b, p1, p2, p1_prime, p2_prime holding its
vars and its [coefficient, index list] terms.

Parsing is strict; anything unrecognized raises FormatError.  Schemas are
inferred from what the text uses, so round-trips are exact for objects
whose schema has no unused relations or constants.
"""

from __future__ import annotations

import json
import operator
import os
import re
from typing import Optional

from ..counts import Count
from ..encoder import EncoderOutput, assemble
from ..polyreduce import HilbertInstance, Polynomial
from ..qalgebra import DisjointAnd, Leaf, Power, QueryExpr, flatten
from ..relcore import MARS, VENUS, Atom, Const, Database, Fact, Query, Schema, Term

__all__ = [
    "FormatError",
    "parse_query",
    "serialize_query",
    "parse_database",
    "serialize_database",
    "parse_polynomial",
    "serialize_polynomial",
    "parse_expr",
    "serialize_expr",
    "parse_count",
    "serialize_count",
    "save_encoder_output",
    "load_encoder_output",
    "load_query_file",
    "load_expr_file",
]


class FormatError(ValueError):
    """The text does not conform to the format grammar."""


_TOKEN = re.compile(r"[^\s(),\"=]+\Z")


def _check_token(t: str) -> str:
    if not _TOKEN.match(t):
        raise FormatError(f"illegal token {t!r}")
    return t


_ATOM_LINE = re.compile(r"(\w[\w.\-]*)\((.*)\)\Z")


def _parse_atom_body(body: str) -> tuple[str, tuple[str, ...]]:
    m = _ATOM_LINE.match(body.strip())
    if not m:
        raise FormatError(f"malformed atom {body!r}")
    rel, arg_text = m.group(1), m.group(2)
    args = tuple(a.strip() for a in arg_text.split(","))
    if not args or any(not a for a in args):
        raise FormatError(f"malformed argument list in {body!r}")
    return rel, args


def _parse_term(tok: str) -> Term:
    _check_token(tok)
    if tok.startswith("@"):
        return Const(tok[1:])
    return tok


def parse_query(text: str, schema: Optional[Schema] = None) -> Query:
    """Parse .cq text; the schema is inferred unless one is supplied."""
    atoms: list[Atom] = []
    neqs: list[tuple[Term, Term]] = []
    arities: dict[str, int] = {}
    consts: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        if kind == "atom":
            rel, arg_toks = _parse_atom_body(rest)
            if arities.setdefault(rel, len(arg_toks)) != len(arg_toks):
                raise FormatError(
                    f"line {lineno}: relation {rel} used with arity {len(arg_toks)}, "
                    f"earlier {arities[rel]}"
                )
            terms = tuple(_parse_term(t) for t in arg_toks)
            consts.update(t.name for t in terms if isinstance(t, Const))
            atoms.append(Atom(rel, terms))
        elif kind == "neq":
            toks = rest.split()
            if len(toks) != 2:
                raise FormatError(f"line {lineno}: neq takes two terms")
            pair = tuple(_parse_term(t) for t in toks)
            consts.update(t.name for t in pair if isinstance(t, Const))
            neqs.append(pair)
        else:
            raise FormatError(f"line {lineno}: unknown clause {kind!r}")
    if schema is None:
        schema = Schema(arities, tuple(sorted(consts)))
    return Query(schema, tuple(atoms), tuple(neqs))


def _term_text(t: Term) -> str:
    if isinstance(t, Const):
        return "@" + _check_token(t.name)
    return _check_token(t)


def serialize_query(q: Query) -> str:
    lines = [
        f"atom {a.relation}({','.join(_term_text(t) for t in a.args)})" for a in q.atoms
    ]
    lines += [f"neq {_term_text(t1)} {_term_text(t2)}" for t1, t2 in q.inequalities]
    return "\n".join(lines) + "\n"


def parse_database(text: str, schema: Optional[Schema] = None) -> Database:
    elements: set[str] = set()
    facts: list[Fact] = []
    interp: dict[str, str] = {}
    arities: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        if kind == "elem":
            for tok in rest.split():
                elements.add(_check_token(tok))
        elif kind == "const":
            m = re.match(r"@(\S+)\s*=\s*(\S+)\Z", rest.strip())
            if not m:
                raise FormatError(f"line {lineno}: malformed const clause")
            name, target = _check_token(m.group(1)), _check_token(m.group(2))
            if interp.setdefault(name, target) != target:
                raise FormatError(f"line {lineno}: constant @{name} bound twice")
        elif kind == "fact":
            rel, arg_toks = _parse_atom_body(rest)
            if arities.setdefault(rel, len(arg_toks)) != len(arg_toks):
                raise FormatError(
                    f"line {lineno}: relation {rel} used with arity {len(arg_toks)}, "
                    f"earlier {arities[rel]}"
                )
            facts.append(Fact(rel, tuple(_check_token(t) for t in arg_toks)))
        else:
            raise FormatError(f"line {lineno}: unknown clause {kind!r}")
    if schema is None:
        schema = Schema(arities, tuple(sorted(interp)))
    return Database(schema, frozenset(elements), frozenset(facts), interp)


def serialize_database(d: Database) -> str:
    lines = []
    elems = sorted(d.elements)
    for i in range(0, len(elems), 8):
        lines.append("elem " + " ".join(_check_token(e) for e in elems[i : i + 8]))
    for name in sorted(d.const_interp):
        lines.append(f"const @{_check_token(name)} = {_check_token(d.const_interp[name])}")
    for rel in sorted(d.facts_by_relation):
        for t in d.facts_by_relation[rel]:
            lines.append(f"fact {rel}({','.join(_check_token(e) for e in t)})")
    return "\n".join(lines) + "\n"


def parse_polynomial(text: str) -> Polynomial:
    num_vars: Optional[int] = None
    terms: list[tuple[int, tuple[int, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] not in ("vars", "term"):
            raise FormatError(f"line {lineno}: unknown clause {toks[0]!r}")
        try:
            numbers = [int(t) for t in toks[1:]]
        except ValueError:
            raise FormatError(f"line {lineno}: {toks[0]} takes integers") from None
        if toks[0] == "vars":
            if num_vars is not None or len(numbers) != 1:
                raise FormatError(f"line {lineno}: malformed vars header")
            num_vars = numbers[0]
        else:
            if num_vars is None:
                raise FormatError(f"line {lineno}: term before vars header")
            if not numbers:
                raise FormatError(f"line {lineno}: term needs a coefficient")
            terms.append((numbers[0], tuple(numbers[1:])))
    if num_vars is None:
        raise FormatError("missing vars header")
    return Polynomial(num_vars, tuple(terms))


def serialize_polynomial(p: Polynomial) -> str:
    lines = [f"vars {p.num_vars}"]
    for c, m in p.terms:
        lines.append(("term " + str(c) + " " + " ".join(map(str, m))).rstrip())
    return "\n".join(lines) + "\n"


def parse_count(text: str) -> Count:
    body = text.strip()
    if body == "0":
        return Count.of(0)
    if body == "1":
        return Count.of(1)
    factors = []
    for part in body.split("*"):
        base, sep, exp = part.partition("^")
        if not sep:
            raise FormatError(f"malformed count factor {part!r}")
        factors.append((int(base), int(exp)))
    return Count(tuple(factors))


def serialize_count(c: Count) -> str:
    return str(c) + "\n"


def _parse_exponent(tok: str) -> int:
    if re.fullmatch(r"\d+", tok):
        return int(tok)
    total = 1
    for part in tok.split("*"):
        m = re.fullmatch(r"(\d+)\^(\d+)", part)
        if not m:
            raise FormatError(f"malformed exponent literal {tok!r}")
        total *= int(m.group(1)) ** int(m.group(2))
    return total


_INLINE_PREFIXES = ("atom ", "neq ", "#")


def _leaf_from_string(
    s: str, base_dir: Optional[str], schema: Optional[Schema]
) -> Query:
    if "\n" in s or s.startswith(_INLINE_PREFIXES) or not s.strip():
        return parse_query(s, schema=schema)
    path = s if base_dir is None else os.path.join(base_dir, s)
    with open(path, encoding="utf-8") as fh:
        return parse_query(fh.read(), schema=schema)


class _SexprReader:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _error(self, msg: str) -> FormatError:
        return FormatError(f"at offset {self.pos}: {msg}")

    def read_string(self) -> str:
        if self.text[self.pos] != '"':
            raise self._error("expected string")
        self.pos += 1
        out = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "\\":
                esc = self.text[self.pos + 1 : self.pos + 2]
                if esc == "n":
                    out.append("\n")
                elif esc in ('"', "\\"):
                    out.append(esc)
                else:
                    raise self._error(f"bad escape \\{esc}")
                self.pos += 2
            elif ch == '"':
                self.pos += 1
                return "".join(out)
            else:
                out.append(ch)
                self.pos += 1
        raise self._error("unterminated string")

    def read_token(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and not self.text[self.pos].isspace() and self.text[
            self.pos
        ] not in "()\"":
            self.pos += 1
        if start == self.pos:
            raise self._error("expected token")
        return self.text[start : self.pos]

    def read_expr(
        self, base_dir: Optional[str], schema: Optional[Schema]
    ) -> QueryExpr:
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != "(":
            raise self._error("expected (")
        self.pos += 1
        self._skip_ws()
        head = self.read_token()
        if head == "leaf":
            self._skip_ws()
            q = _leaf_from_string(self.read_string(), base_dir, schema)
            node: QueryExpr = Leaf(q)
        elif head == "dand":
            children = []
            while True:
                self._skip_ws()
                if self.pos < len(self.text) and self.text[self.pos] == ")":
                    break
                children.append(self.read_expr(base_dir, schema))
            node = DisjointAnd(tuple(children))
        elif head == "pow":
            base = self.read_expr(base_dir, schema)
            self._skip_ws()
            node = Power(base, _parse_exponent(self.read_token()))
        else:
            raise self._error(f"unknown node {head!r}")
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ")":
            raise self._error("expected )")
        self.pos += 1
        return node


def parse_expr(
    text: str, base_dir: Optional[str] = None, schema: Optional[Schema] = None
) -> QueryExpr:
    reader = _SexprReader(text)
    expr = reader.read_expr(base_dir, schema)
    reader._skip_ws()
    if reader.pos != len(reader.text):
        raise FormatError("trailing content after expression")
    return expr


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def serialize_expr(e: QueryExpr) -> str:
    def render(node: QueryExpr) -> str:
        if isinstance(node, Leaf):
            return f"(leaf {_quote(serialize_query(node.query).rstrip())})"
        if isinstance(node, DisjointAnd):
            return "(dand " + " ".join(render(c) for c in node.children) + ")"
        if isinstance(node, Power):
            return f"(pow {render(node.base)} {node.exponent})"
        raise FormatError(f"unknown node {node!r}")

    return render(e) + "\n"


def load_query_file(path: str) -> Query:
    with open(path, encoding="utf-8") as fh:
        return parse_query(fh.read())


def load_expr_file(path: str) -> QueryExpr:
    with open(path, encoding="utf-8") as fh:
        return parse_expr(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def _poly_record(section: str, p: Polynomial) -> str:
    return json.dumps(
        {
            "section": section,
            "vars": p.num_vars,
            "terms": [[c, list(m)] for c, m in p.terms],
        },
        sort_keys=True,
    )


def _instance_lines(inst: HilbertInstance) -> str:
    lines = [
        json.dumps(
            {
                "section": "meta",
                "c_frak": inst.c_frak,
                "degree": inst.degree,
                "m_count": inst.m_count,
                "n_count": inst.n_count,
            },
            sort_keys=True,
        )
    ]
    for name in ("p_s", "p_b", "p1", "p2", "p1_prime", "p2_prime"):
        lines.append(_poly_record(name, getattr(inst, name)))
    return "\n".join(lines) + "\n"


def _instance_from_lines(text: str) -> HilbertInstance:
    meta: Optional[dict] = None
    polys: dict[str, Polynomial] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
            if rec["section"] == "meta":
                keys = ("c_frak", "degree", "m_count", "n_count")
                meta = {k: operator.index(rec[k]) for k in keys}  # TypeError unless an int
            else:
                polys[rec["section"]] = Polynomial(
                    rec["vars"], tuple((c, tuple(m)) for c, m in rec["terms"])
                )
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"line {lineno}: malformed instance record ({exc!r})") from None
    if meta is None:
        raise FormatError("instance file lacks the meta record")
    missing = {"p_s", "p_b", "p1", "p2", "p1_prime", "p2_prime"} - set(polys)
    if missing:
        raise FormatError(f"instance file lacks sections {sorted(missing)}")
    monomials = polys["p_s"].monomials()
    position_rel = frozenset(
        (mono[pos - 1], pos, m_idx)
        for m_idx, mono in enumerate(monomials, 1)
        for pos in range(1, meta["degree"] + 1)
        if len(mono) >= pos
    )
    return HilbertInstance(
        p_s=polys["p_s"],
        p_b=polys["p_b"],
        c_frak=meta["c_frak"],
        degree=meta["degree"],
        m_count=meta["m_count"],
        n_count=meta["n_count"],
        monomials=monomials,
        position_rel=position_rel,
        p1=polys["p1"],
        p2=polys["p2"],
        p1_prime=polys["p1_prime"],
        p2_prime=polys["p2_prime"],
    )


def save_encoder_output(out: EncoderOutput, directory: str) -> None:
    """Write the compiled triple as flat files.

    phi_s is stored flattened (it is small by construction); phi_b keeps
    its expression shape with inline leaves; the instance goes to one
    JSON record per line so the whole output can be rebuilt.
    """
    os.makedirs(directory, exist_ok=True)

    def write(name: str, content: str) -> None:
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(content)

    write("phi_s.cq", serialize_query(flatten(out.phi_s)))
    write("phi_b.qx", serialize_expr(out.phi_b))
    write("c.count", serialize_count(out.c))
    write("arena.db", serialize_database(out.arena_db))
    write("instance.poly.json-lines", _instance_lines(out.instance))


def load_encoder_output(directory: str) -> EncoderOutput:
    """Rebuild the full output from a saved directory.

    The instance file is authoritative; the stored constant is checked
    against the rebuilt one to catch tampered or mismatched directories.
    """
    with open(os.path.join(directory, "instance.poly.json-lines"), encoding="utf-8") as fh:
        inst = _instance_from_lines(fh.read())
    out = assemble(inst)
    with open(os.path.join(directory, "c.count"), encoding="utf-8") as fh:
        stored = parse_count(fh.read())
    if stored != out.c:
        raise FormatError(
            f"stored constant {stored} disagrees with the instance's {out.c}"
        )
    return out
