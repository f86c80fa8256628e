import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagcq.harness import cli
from bagcq.harness.suites import SuiteReport


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def inst_dir(tmp_path):
    poly = tmp_path / "q.poly"
    poly.write_text("vars 2\nterm 1 2\nterm -1\n", encoding="utf-8")
    d = str(tmp_path / "inst")
    code, out, err = run("reduce", "-p", str(poly), "-o", d)
    assert code == 0, err
    return d


def test_reduce_prints_the_constants(inst_dir):
    # rerun to inspect the summary text
    code, out, _ = run("reduce", "-p", os.path.join(inst_dir, "..", "q.poly"),
                       "-o", inst_dir)
    assert code == 0
    assert "k=7" in out
    assert "c = 3^22*5^21" in out


def test_eval_cq_and_qx(inst_dir):
    code, out, _ = run("eval", "-q", os.path.join(inst_dir, "phi_s.cq"),
                       "-d", os.path.join(inst_dir, "arena.db"))
    assert code == 0 and out.strip() == "0"
    code, out, _ = run("eval", "-q", os.path.join(inst_dir, "phi_b.qx"),
                       "-d", os.path.join(inst_dir, "arena.db"))
    assert code == 0 and out.strip() == "0 = 0"


def test_eval_plain_queries_print_the_integer(tmp_path):
    q = tmp_path / "big.cq"
    q.write_text(
        "".join(f"atom E(v{i:03d},v{i:03d})\n" for i in range(150)), encoding="utf-8"
    )
    d = tmp_path / "d.db"
    d.write_text(
        "elem e1 e2 e3 e4\n" + "".join(f"fact E(e{i},e{i})\n" for i in range(1, 5)),
        encoding="utf-8",
    )
    code, out, _ = run("eval", "-q", str(q), "-d", str(d))
    assert code == 0 and out.strip() == str(4**150)


def test_eval_expressions_skip_oversized_decimals(tmp_path):
    e = tmp_path / "big.qx"
    e.write_text('(pow (leaf "atom E(x,x)") 1000)\n', encoding="utf-8")
    d = tmp_path / "d.db"
    d.write_text("elem e1 e2\nfact E(e1,e1)\nfact E(e2,e2)\n", encoding="utf-8")
    code, out, _ = run("eval", "-q", str(e), "-d", str(d))
    assert code == 0 and out.strip() == "2^1000"


def test_gadget_writes_the_pair(tmp_path):
    d = str(tmp_path / "beta")
    code, out, _ = run("gadget", "beta", "--param", "3", "-o", d)
    assert code == 0
    assert sorted(os.listdir(d)) == ["multiplier.txt", "q_b.cq", "q_s.cq", "witness.db"]
    with open(os.path.join(d, "multiplier.txt"), encoding="utf-8") as fh:
        assert fh.read().strip() == "8/3"
    code, out, _ = run("eval", "-q", os.path.join(d, "q_s.cq"),
                       "-d", os.path.join(d, "witness.db"))
    assert out.strip() == "16"


def test_classify_correct_and_not_model(tmp_path, inst_dir):
    code, out, _ = run("classify", "-d", os.path.join(inst_dir, "arena.db"),
                       "-i", inst_dir)
    assert code == 0
    assert out.splitlines()[0] == "correct"
    assert "x1=0 x2=0" in out
    stray = tmp_path / "stray.db"
    stray.write_text("elem e1 e2\nfact E(e1,e2)\n", encoding="utf-8")
    code, out, _ = run("classify", "-d", str(stray), "-i", inst_dir)
    assert code == 0 and out.strip() == "not_model"


def test_search_clean_instance_exits_zero(inst_dir):
    code, out, _ = run("search", "-i", inst_dir, "--trials", "20", "--seed", "5")
    assert code == 0
    assert "no violation" in out


def test_search_exit_code_on_violation(monkeypatch, inst_dir):
    from bagcq import Database, Schema
    from bagcq.harness.search import ClaimCheck

    fake = Database(
        Schema({"E": 2}), frozenset({"e1", "e2"}), frozenset(),
        {"mars": "e1", "venus": "e2"},
    )
    monkeypatch.setattr(cli, "search_claim", lambda *a, **k: ClaimCheck(violator=fake))
    code, out, _ = run("search", "-i", inst_dir)
    assert code == 1
    assert "violation found" in out
    assert "elem e1 e2" in out


def test_verify_single_suite(capsys):
    code, out, _ = run("verify", "--suite", "power", "--trials", "10")
    assert code == 0
    assert out.startswith("power")
    assert " ok " in out


def test_verify_unknown_suite():
    code, _, err = run("verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_verify_reports_failures(monkeypatch):
    from bagcq.harness.suites import SuiteFailure

    def failing(name, trials=None, seed=0, params=None):
        r = SuiteReport(suite=name, trials=1)
        r.failures.append(SuiteFailure(seed=7, message="synthetic failure"))
        return r

    monkeypatch.setattr(cli, "run_suite", failing)
    code, out, _ = run("verify", "--suite", "power")
    assert code == 1
    assert "FAIL" in out and "synthetic failure" in out


def test_transform_blowup_and_product(tmp_path):
    d = tmp_path / "d.db"
    d.write_text(
        "elem e1 e2\nconst @mars = e1\nconst @venus = e2\nfact E(e1,e2)\n",
        encoding="utf-8",
    )
    out_b = tmp_path / "b.db"
    code, _, _ = run("transform", "blowup", "-d", str(d), "-k", "2", "-o", str(out_b))
    assert code == 0
    text = out_b.read_text(encoding="utf-8")
    assert text.count("fact E(") == 4
    out_p = tmp_path / "p.db"
    code, _, _ = run("transform", "product", "-d", str(d), "-e", str(d), "-o", str(out_p))
    assert code == 0
    assert out_p.read_text(encoding="utf-8").count("fact E(") == 1


def test_transform_strip(tmp_path):
    q = tmp_path / "q.cq"
    q.write_text("atom E(x,y)\nneq x y\n", encoding="utf-8")
    out_q = tmp_path / "plain.cq"
    code, _, _ = run("transform", "strip-neq", "-q", str(q), "-o", str(out_q))
    assert code == 0
    assert out_q.read_text(encoding="utf-8") == "atom E(x,y)\n"


def test_transform_missing_argument_is_a_usage_error(tmp_path):
    code, _, err = run("transform", "blowup", "-o", str(tmp_path / "x.db"))
    assert code == 2
    assert "blowup needs -d" in err


def test_malformed_input_exits_two(tmp_path):
    bad = tmp_path / "bad.cq"
    bad.write_text("atom E(x\n", encoding="utf-8")
    d = tmp_path / "d.db"
    d.write_text("elem e1\n", encoding="utf-8")
    code, _, err = run("eval", "-q", str(bad), "-d", str(d))
    assert code == 2
    assert "error:" in err
    bad.write_bytes(b"\xff\xfeatom E(x,y)\n")
    code, _, err = run("eval", "-q", str(bad), "-d", str(d))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "name, text",
    [
        pytest.param("bad.poly", "vars 2\nterm x 1\n", id="poly-term-not-an-integer"),
        pytest.param("instance.poly", "vars 2\nterm x 1\n", id="instance-term-not-an-integer"),
        pytest.param(
            "instance.poly", "term 1 2\nvars 2\n", id="instance-term-before-vars-header"
        ),
        pytest.param("instance.poly", "# Q = 1\n", id="instance-missing-vars-header"),
        pytest.param("c.count", "x^2\n", id="count-base-not-an-integer"),
        pytest.param("bad.cq", "atom E(x\n", id="cq-malformed-atom"),
        pytest.param("bad.db", "elem a\nfact E(a\n", id="db-malformed-fact"),
        pytest.param("bad.qx", "(leaf", id="qx-leaf-without-string"),
    ],
)
def test_malformed_file_exits_two_with_a_line_number(tmp_path, inst_dir, name, text):
    path = os.path.join(inst_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    arena = os.path.join(inst_dir, "arena.db")
    argv = {
        "bad.poly": ("reduce", "-p", path, "-o", str(tmp_path / "out")),
        "instance.poly": ("search", "-i", inst_dir, "--trials", "1"),
        "c.count": ("classify", "-d", arena, "-i", inst_dir),
        "bad.cq": ("eval", "-q", path, "-d", arena),
        "bad.db": ("eval", "-q", os.path.join(inst_dir, "phi_s.cq"), "-d", path),
        "bad.qx": ("eval", "-q", path, "-d", arena),
    }[name]
    code, _, err = run(*argv)
    assert code == 2
    if name in ("instance.poly", "c.count"):  # files of a reduce directory are named
        assert err.startswith(f"error: {name}: line "), err
    elif name != "bad.qx":  # .qx errors carry a text offset instead
        assert err.startswith("error: line "), err


def test_missing_file_exits_two(tmp_path):
    code, _, err = run("eval", "-q", str(tmp_path / "nope.cq"), "-d", str(tmp_path / "nope.db"))
    assert code == 2


@pytest.mark.parametrize("flags", [("--trials", "-3"), ("--mode", "exhaustive", "--max-states", "-1")])
def test_search_rejects_negative_counts(inst_dir, flags):
    code, out, err = run("search", "-i", inst_dir, *flags)
    assert code == 2
    assert err.startswith("error: ") and "must be >= 0" in err
    assert out == ""


def test_verify_rejects_negative_trials():
    code, out, err = run("verify", "--suite", "power", "--trials", "-1")
    assert code == 2
    assert "must be >= 0" in err
    assert out == ""


@pytest.fixture(scope="module")
def x1_dir(tmp_path_factory):
    """One reduced x-1 instance directory, shared by every fuzz example."""
    poly = tmp_path_factory.mktemp("x1") / "q.poly"
    poly.write_text("vars 2\nterm 1 2\nterm -1\n", encoding="utf-8")
    d = str(poly.parent / "inst")
    assert run("reduce", "-p", str(poly), "-o", d)[0] == 0
    return d


_GARBAGE = st.text(alphabet="atomelfcnsq E(x,y)@#\n-0123456789", max_size=24)
_INT = st.integers(-3, 5).map(str)
_TERM = st.sampled_from(["x", "y", "z", "@mars", "@venus"])


def _lines(line):
    return st.lists(line, max_size=4).map(lambda ls: "".join(ls))


_CQ = st.one_of(_GARBAGE, _lines(st.one_of(
    st.builds("atom E({},{})\n".format, _TERM, _TERM),
    st.builds("atom U({})\n".format, _TERM),
    st.builds("neq {} {}\n".format, _TERM, _TERM),
)))
_ELEM = st.sampled_from(["e1", "e2", "e3"])
_DB = st.one_of(_GARBAGE, _lines(st.one_of(
    st.builds("fact E({},{})\n".format, _ELEM, _ELEM),
    st.builds("fact U({})\n".format, _ELEM),
    st.builds("const @{} = {}\n".format, st.sampled_from(["mars", "venus", "a"]), _ELEM),
)).map(lambda body: "elem e1 e2 e3\n" + body))
_POLY = st.one_of(_GARBAGE, st.builds(
    "vars {}\n{}".format, st.integers(2, 3),
    _lines(st.builds("term {} {}\n".format, st.integers(-2, 2),
                     st.lists(st.sampled_from(["2", "3"]), max_size=2).map(" ".join))),
))
_QX = st.one_of(_GARBAGE, st.builds('(pow (leaf "atom E(x,y)") {})'.format, _INT))


@st.composite
def _command_lines(draw):
    """A command line and the files it reads; @T/ names a fresh directory
    and @X/ the reduced x-1 instance."""
    files = {"q.cq": draw(_CQ), "d.db": draw(_DB), "e.db": draw(_DB),
             "p.poly": draw(_POLY), "e.qx": draw(_QX)}
    db = draw(st.sampled_from(["@T/d.db", "@X/arena.db", "@T/missing.db"]))
    argv = draw(st.sampled_from([
        ["eval", "-q", draw(st.sampled_from(["@T/q.cq", "@T/e.qx", "@X/phi_s.cq", "@X/phi_b.qx"])),
         "-d", db],
        ["reduce", "-p", "@T/p.poly", "-o", "@T/out"],
        ["gadget", draw(st.sampled_from(["beta", "gamma", "alpha"])), "--param", draw(_INT),
         "-o", "@T/g"],
        ["classify", "-d", db, "-i", draw(st.sampled_from(["@X", "@T"]))],
        ["verify", "--suite", draw(st.sampled_from(["power", "strip", "cycliques", "nope"])),
         "--trials", draw(_INT), "--seed", draw(_INT)],
        ["search", "-i", "@X", "--trials", draw(_INT), "--max-domain", draw(st.integers(-1, 3).map(str)),
         "--mode", draw(st.sampled_from(["random", "exhaustive"])),
         "--max-states", draw(st.integers(-3, 20).map(str)), "--seed", draw(_INT)],
        ["transform", draw(st.sampled_from(["strip-neq", "blowup", "product"])), "-q", "@T/q.cq",
         "-d", db, "-e", "@T/e.db", "-k", draw(_INT), "-o", "@T/t.out"],
        draw(st.lists(st.sampled_from(["eval", "search", "-q", "--trials", "-3", "@T/q.cq"]),
                      max_size=4)),
    ]))
    return argv, files


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_command_lines())
@example((["search", "-i", "@X", "--mode", "exhaustive", "--max-states", "-1"], {}))
@example((["search", "-i", "@X", "--trials", "-3"], {}))
@example((["verify", "--suite", "power", "--trials", "-1"], {}))
def test_cli_exit_codes_hold_on_generated_command_lines(x1_dir, case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [a.replace("@T", tmp).replace("@X", x1_dir) for a in argv]
        try:
            code, _, err = run(*argv)
        except SystemExit as exc:  # argparse usage errors
            code, err = exc.code, ""
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
