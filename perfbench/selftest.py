#!/usr/bin/env python3
"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs from the root of a checkout, in about half a minute, and checks:
- every workload, run briefly in both modes, prints each metric that
  BENCHMARK.json lists for the mode, with its unit, on its own line and in
  the final JSON line;
- a deliberately wrong expected answer makes the run fail: `correct` is
  false, `failed` counts it, and the exit code is not 0;
- in a directory that holds only BENCHMARK.json and the benchmark's own
  files, the command exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "0.5"
OP_LIMIT_S = "0.3"  # short, so the slow ladder rungs end quickly
SEED = "7"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _args(workload: str, trace: int) -> list[str]:
    # A later --op-limit-s overrides the one in BENCHMARK.json's command.
    return ["--op-limit-s", OP_LIMIT_S, "--workload", workload, "--seed", SEED,
            "--seconds", SECONDS, "--trace", str(trace)]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics_printed(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(spec["command"] + _args(workload, trace), cwd=ROOT,
                                  capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            _expect(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr}")
            result = _result(proc.stdout)
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{where}: result keys {sorted(result)}")
            _expect(result["correct"] is True and result["failed"] == 0
                    and result["attempted"] >= 1, f"{where}: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _expect(got == want, f"{where}: metrics {got}, expected {want}")
            lines = proc.stdout.splitlines()
            for name, unit in want.items():
                _expect(isinstance(result["metrics"][name]["value"], (int, float)),
                        f"{where}: {name} is not a number")
                _expect(any(line.startswith(f"perfbench metric {name} ")
                            and line.endswith(f" {unit}") for line in lines),
                        f"{where}: no line prints {name} with unit {unit}")


def _run_in_process(workload: str) -> tuple[int, dict]:
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(_args(workload, 1))
    return code, _result(out.getvalue())


def check_wrong_answer_caught() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cases = [
        ("reduce-ladder", "_greater_expected", lambda real: lambda terms, v: not real(terms, v)),
        ("verify-gadgets", "count_by_enumeration", lambda real: lambda q, d: real(q, d) + 1),
    ]
    for workload, name, corrupt in cases:
        real = getattr(workloads, name)
        setattr(workloads, name, corrupt(real))
        try:
            code, result = _run_in_process(workload)
        finally:
            setattr(workloads, name, real)
        _expect(code != 0 and result["correct"] is False and result["failed"] > 0,
                f"{workload} with a wrong {name}: exit {code}, {result}")


def check_refuses_without_source(spec: dict) -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(spec["command"] + _args(spec["workloads"][0]["name"], 0),
                              cwd=bare, capture_output=True, text=True, timeout=180)
    _expect(proc.returncode != 0, "ran without the package source")
    _expect('"metrics"' not in proc.stdout, "printed a result without the package source")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [
        ("metrics printed with units", lambda: check_metrics_printed(spec)),
        ("wrong expected answer caught", check_wrong_answer_caught),
        ("refuses to run without src/", lambda: check_refuses_without_source(spec)),
    ]
    failed = 0
    for name, check in checks:
        try:
            check()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
