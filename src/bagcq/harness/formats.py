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
decimal or a factored literal like 2^10 or 3^22*5^21, whose size bound
may not exceed MAX_EXPONENT_BITS.

Count text (.count): 0, 1, or B^E joined by * (the str() form of Count).

A reduce output directory (save_encoder_output) holds phi_s.cq, phi_b.qx,
c.count, arena.db and instance.poly, the input polynomial Q in .poly text.
The instance is normalize_hilbert(Q); load_encoder_output rebuilds the
whole output from Q and checks c.count against it; its errors name the
file they come from.

Parsing is strict; anything unrecognized raises FormatError, which names
the line in the line-based formats and the offset in .qx text.  Schemas
are inferred from what the text uses, so round-trips are exact for
objects whose schema has no unused relations or constants.
"""

from __future__ import annotations

import os
import re
from typing import Iterator, Optional

from ..counts import Count
from ..encoder import MAX_EXPONENT_BITS, EncoderOutput, assemble
from ..polyreduce import Polynomial, normalize_hilbert
from ..qalgebra import DisjointAnd, Leaf, Power, QueryExpr, flatten
from ..relcore import Atom, Const, Database, Fact, Query, Schema, Term

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


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # also digit strings past the interpreter's conversion limit
        raise FormatError(f"not an integer: {tok[:40]!r}") from None


def _clauses(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, keyword, rest) of each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            kind, *rest = line.split(None, 1)
            yield lineno, kind, "".join(rest)


_ATOM_LINE = re.compile(r"(\w[\w.\-]*)\((.*)\)\Z")


def _parse_atom_body(body: str, arities: dict[str, int]) -> tuple[str, tuple[str, ...]]:
    """Relation and argument tokens of REL(t1,...,tk); the arity must agree
    with the relation's earlier uses, recorded in arities."""
    m = _ATOM_LINE.match(body.strip())
    if not m:
        raise FormatError(f"malformed atom {body!r}")
    rel, arg_text = m.group(1), m.group(2)
    args = tuple(a.strip() for a in arg_text.split(","))
    if not args or any(not a for a in args):
        raise FormatError(f"malformed argument list in {body!r}")
    if arities.setdefault(rel, len(args)) != len(args):
        raise FormatError(f"relation {rel} used with arity {len(args)}, earlier {arities[rel]}")
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
    for lineno, kind, rest in _clauses(text):
        try:
            if kind == "atom":
                rel, arg_toks = _parse_atom_body(rest, arities)
                terms = tuple(_parse_term(t) for t in arg_toks)
                consts.update(t.name for t in terms if isinstance(t, Const))
                atoms.append(Atom(rel, terms))
            elif kind == "neq":
                toks = rest.split()
                if len(toks) != 2:
                    raise FormatError("neq takes two terms")
                pair = tuple(_parse_term(t) for t in toks)
                consts.update(t.name for t in pair if isinstance(t, Const))
                neqs.append(pair)
            else:
                raise FormatError(f"unknown clause {kind!r}")
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
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
    for lineno, kind, rest in _clauses(text):
        try:
            if kind == "elem":
                for tok in rest.split():
                    elements.add(_check_token(tok))
            elif kind == "const":
                m = re.match(r"@(\S+)\s*=\s*(\S+)\Z", rest.strip())
                if not m:
                    raise FormatError("malformed const clause")
                name, target = _check_token(m.group(1)), _check_token(m.group(2))
                if interp.setdefault(name, target) != target:
                    raise FormatError(f"constant @{name} bound twice")
            elif kind == "fact":
                rel, arg_toks = _parse_atom_body(rest, arities)
                facts.append(Fact(rel, tuple(_check_token(t) for t in arg_toks)))
            else:
                raise FormatError(f"unknown clause {kind!r}")
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
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
    for lineno, kind, rest in _clauses(text):
        try:
            if kind not in ("vars", "term"):
                raise FormatError(f"unknown clause {kind!r}")
            numbers = [_int(t) for t in rest.split()]
            if kind == "vars":
                if num_vars is not None or len(numbers) != 1:
                    raise FormatError("malformed vars header")
                num_vars = numbers[0]
            elif num_vars is None:
                raise FormatError("term before vars header")
            elif not numbers:
                raise FormatError("term needs a coefficient")
            else:
                terms.append((numbers[0], tuple(numbers[1:])))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    if num_vars is None:
        raise FormatError(f"line {len(text.splitlines()) + 1}: missing vars header")
    return Polynomial(num_vars, tuple(terms))


def serialize_polynomial(p: Polynomial) -> str:
    lines = [f"vars {p.num_vars}"]
    for c, m in p.terms:
        lines.append(("term " + str(c) + " " + " ".join(map(str, m))).rstrip())
    return "\n".join(lines) + "\n"


_FACTOR = re.compile(r"(\d+)\^(\d+)\Z")


def _factors(text: str) -> list[tuple[int, int]]:
    """The (B, E) pairs of a factored literal B^E*B^E*... with natural B, E."""
    out = []
    for part in text.split("*"):
        m = _FACTOR.match(part)
        if not m:
            raise FormatError(f"malformed factor {part!r}")
        out.append((_int(m.group(1)), _int(m.group(2))))
    return out


def parse_count(text: str) -> Count:
    body = text.strip()
    if body in ("0", "1"):
        return Count.of(int(body))
    try:
        return Count(tuple(_factors(body)))
    except FormatError as exc:
        lineno = text[: text.find(body)].count("\n") + 1
        raise FormatError(f"line {lineno}: {exc}") from None


def serialize_count(c: Count) -> str:
    return str(c) + "\n"


def _parse_exponent(tok: str) -> int:
    if re.fullmatch(r"\d+", tok):
        return _int(tok)
    try:
        return Count(tuple(_factors(tok))).value(max_bits=MAX_EXPONENT_BITS)
    except OverflowError:
        raise FormatError(
            f"exponent {tok[:40]!r} needs more than {MAX_EXPONENT_BITS} bits"
        ) from None


_INLINE_PREFIXES = ("atom ", "neq ", "#")


def _leaf_from_string(
    s: str, base_dir: Optional[str], schema: Optional[Schema]
) -> Query:
    if "\n" in s or s.startswith(_INLINE_PREFIXES) or not s.strip():
        return parse_query(s, schema=schema)
    if "\0" in s:
        raise FormatError("leaf path holds a NUL character")
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
        if self.text[self.pos : self.pos + 1] != '"':
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
    try:
        expr = reader.read_expr(base_dir, schema)
    except RecursionError:
        raise FormatError("expression nested too deeply") from None
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


def save_encoder_output(out: EncoderOutput, directory: str) -> None:
    """Write the compiled triple as flat files.

    phi_s is stored flattened (it is small by construction); phi_b keeps
    its expression shape with inline leaves; the instance is stored as
    its polynomial Q, from which the whole output can be rebuilt.
    """
    os.makedirs(directory, exist_ok=True)

    def write(name: str, content: str) -> None:
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(content)

    write("phi_s.cq", serialize_query(flatten(out.phi_s)))
    write("phi_b.qx", serialize_expr(out.phi_b))
    write("c.count", serialize_count(out.c))
    write("arena.db", serialize_database(out.arena_db))
    write("instance.poly", serialize_polynomial(out.instance.q))


def load_encoder_output(directory: str) -> EncoderOutput:
    """Rebuild the full output from a saved directory.

    instance.poly is authoritative; the stored constant is checked
    against the rebuilt one to catch tampered or mismatched directories.
    """

    def read(name: str, parse):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            text = fh.read()
        try:
            return parse(text)
        except FormatError as exc:
            raise FormatError(f"{name}: {exc}") from None

    out = assemble(normalize_hilbert(read("instance.poly", parse_polynomial)))
    stored = read("c.count", parse_count)
    if stored != out.c:
        raise FormatError(
            f"c.count: stored constant {stored} disagrees with the instance's {out.c}"
        )
    return out
