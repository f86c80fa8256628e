import os
import re
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagcq import (
    Atom,
    Const,
    Count,
    Database,
    DisjointAnd,
    Fact,
    Leaf,
    Polynomial,
    Power,
    Query,
    Schema,
    ValidationError,
    assemble,
    normalize_hilbert,
    validate_instance,
)
from bagcq.harness.formats import (
    FormatError,
    load_encoder_output,
    load_expr_file,
    parse_count,
    parse_database,
    parse_expr,
    parse_polynomial,
    parse_query,
    save_encoder_output,
    serialize_count,
    serialize_database,
    serialize_expr,
    serialize_polynomial,
    serialize_query,
)
from bagcq.harness.suites import builtin_polynomials, normalization_identity_holds

S = Schema({"R": 2, "U": 1})


def test_query_roundtrip_with_constants_and_inequalities():
    q = Query(
        S,
        (Atom("R", ("x", Const("mars"))), Atom("U", ("y",))),
        (("x", "y"), ("x", Const("mars"))),
    )
    text = serialize_query(q)
    assert parse_query(text, schema=S) == q
    assert serialize_query(parse_query(text)) == text


def test_query_parse_infers_arities():
    q = parse_query("atom R(x,y)\natom R(y,z)\n")
    assert dict(q.schema.relations) == {"R": 2}
    with pytest.raises(FormatError):
        parse_query("atom R(x,y)\natom R(x)\n")


def test_query_parse_rejects_unknown_clause_and_bad_tokens():
    with pytest.raises(FormatError):
        parse_query("frob R(x)\n")
    with pytest.raises(FormatError):
        parse_query('atom R(x,"y")\n')


def test_query_comments_and_blank_lines_are_skipped():
    q = parse_query("# header\n\natom R(x,y)\n# trailing\n")
    assert len(q.atoms) == 1


def test_database_roundtrip():
    d = Database(
        S,
        frozenset({"e1", "e2", "weird%2Ename"}),
        frozenset({Fact("R", ("e1", "e2")), Fact("U", ("e2",))}),
        {"mars": "e1", "venus": "e2"},
    )
    text = serialize_database(d)
    assert parse_database(text, schema=S) == d


def test_database_parse_errors():
    with pytest.raises(FormatError):
        parse_database("const @mars = e1\nconst @mars = e2\nelem e1 e2\n")
    with pytest.raises(FormatError):
        parse_database("fact R(e1,e2)\nfact R(e1)\n")
    with pytest.raises(FormatError):
        parse_database("blob x\n")


def test_polynomial_roundtrip_preserves_term_order():
    p = Polynomial(3, ((2, (2, 3)), (-1, ()), (7, (1, 1))))
    assert parse_polynomial(serialize_polynomial(p)) == p
    text = serialize_polynomial(p)
    assert text.splitlines()[0] == "vars 3"


def test_polynomial_parse_errors():
    with pytest.raises(FormatError):
        parse_polynomial("term 1 2\n")
    with pytest.raises(FormatError):
        parse_polynomial("vars 2\nvars 2\n")


def test_count_roundtrip():
    for c in (Count.of(0), Count.of(1), Count.of(360), Count.of(2).pow(10**12)):
        assert parse_count(serialize_count(c)) == c
    with pytest.raises(FormatError):
        parse_count("2^3*7\n")


def test_expr_roundtrip_inline():
    q = Query(S, (Atom("R", ("x", "y")),))
    e = DisjointAnd((Leaf(q), Power(Leaf(q), 3)))
    text = serialize_expr(e)
    assert parse_expr(text, schema=S) == e


def test_expr_exponent_may_be_a_factored_literal():
    q = Query(S, (Atom("R", ("x", "y")),))
    text = serialize_expr(Leaf(q))
    e = parse_expr(f"(pow {text.strip()} 2^3*3^1)", schema=S)
    assert isinstance(e, Power) and e.exponent == 24


def test_expr_leaf_can_reference_a_file(tmp_path):
    (tmp_path / "q.cq").write_text("atom R(x,y)\n", encoding="utf-8")
    (tmp_path / "e.qx").write_text('(pow (leaf "q.cq") 2)\n', encoding="utf-8")
    e = load_expr_file(str(tmp_path / "e.qx"))
    assert isinstance(e, Power) and e.exponent == 2
    assert e.base.query.atoms[0].relation == "R"


def test_expr_parse_errors():
    with pytest.raises(FormatError):
        parse_expr('(leaf "atom R(x,y)") garbage')
    with pytest.raises(FormatError):
        parse_expr('(frob "x")')
    with pytest.raises(FormatError):
        parse_expr('(leaf "atom R(x,y)\\q")')


def test_encoder_output_roundtrip(tmp_path):
    for name, q in builtin_polynomials().items():
        out = assemble(normalize_hilbert(q))
        d = str(tmp_path / name)
        save_encoder_output(out, d)
        names = sorted(os.listdir(d))
        assert names == [
            "arena.db",
            "c.count",
            "instance.poly",
            "phi_b.qx",
            "phi_s.cq",
        ]
        with open(os.path.join(d, "instance.poly"), encoding="utf-8") as fh:
            assert parse_polynomial(fh.read()) == q
        again = load_encoder_output(d)
        assert again.instance == out.instance
        assert again.c == out.c
        assert again.phi_b == out.phi_b
        assert again.arena_db == out.arena_db


def test_encoder_output_detects_constant_tampering(tmp_path):
    inst = normalize_hilbert(Polynomial(2, ((1, (2,)), (-1, ()))))
    d = str(tmp_path / "inst")
    save_encoder_output(assemble(inst), d)
    with open(os.path.join(d, "c.count"), "w", encoding="utf-8") as fh:
        fh.write("3^22*5^20\n")
    with pytest.raises(FormatError, match=r"^c\.count: "):
        load_encoder_output(d)


def test_readme_format_examples_parse_verbatim():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## File formats")[1].split("\n## ")[0]
    blocks = dict(re.findall(r"```(\S+)\n(.*?)```", section, re.S))
    assert sorted(blocks) == ["count", "cq", "db", "poly", "qx"]
    q = parse_query(blocks["cq"])
    assert len(q.atoms) == 2 and len(q.inequalities) == 1
    d = parse_database(blocks["db"])
    assert d.const_interp == {"mars": "e1", "venus": "e2"} and len(d.facts) == 2
    assert parse_polynomial(blocks["poly"]) == Polynomial(3, ((1, (2, 2)), (-3, (2, 3)), (1, ())))
    assert parse_expr(blocks["qx"]).children[1].exponent == 1024
    assert parse_count(blocks["count"]) == Count(((3, 22), (5, 21)))


@st.composite
def small_polynomials(draw):
    """Nonzero Q over 2-3 variables x2.., degree <= 2, coefficients in [-3, 3]."""
    num_vars = draw(st.integers(3, 4))
    index = st.integers(2, num_vars)
    monomial = st.lists(index, max_size=2).map(tuple)
    terms = draw(st.lists(st.tuples(st.integers(-3, 3), monomial), min_size=1, max_size=5))
    q = Polynomial(num_vars, tuple(terms))
    if q.is_zero():
        q = Polynomial(num_vars, ((1, ()),))
    return q


@settings(max_examples=100, deadline=None)
@given(small_polynomials())
def test_random_instances_are_valid_and_survive_save_and_load(q):
    inst = normalize_hilbert(q)
    assert validate_instance(inst) == []
    assert normalization_identity_holds(inst)
    out = assemble(inst)
    with tempfile.TemporaryDirectory() as d:
        save_encoder_output(out, d)
        again = load_encoder_output(d)
    assert again.instance == inst
    assert again.c == out.c


_OVERSIZED_POWER = '(pow (leaf "atom E(x,y)") 3^10000000)'


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("x^2")
@example("2^x")
@example("-2^3")
@example("2^-1")
@example("(leaf")
@example("(dand " * 3000)
@example('(leaf "a\x00b")')
@example("atom E(x")
@example("fact E(a")
@example(_OVERSIZED_POWER)
def test_parsers_raise_only_format_errors(text):
    with tempfile.TemporaryDirectory() as empty:
        for parse in (parse_query, parse_database, parse_polynomial, parse_count):
            try:
                parse(text)
            except (FormatError, ValidationError):
                pass
        try:
            parse_expr(text, base_dir=empty)
        except (FormatError, ValidationError, OSError):
            pass


def test_oversized_exponent_literal_is_rejected_quickly():
    start = time.perf_counter()
    with pytest.raises(FormatError, match="3\\^10000000"):
        parse_expr(_OVERSIZED_POWER)
    assert time.perf_counter() - start < 0.1
    assert parse_expr('(pow (leaf "atom E(x,y)") 3^1000)').exponent == 3**1000
