#!/usr/bin/env python3
"""bagcq benchmark: closed-loop workloads with known answers.

    python3 perfbench/run.py --op-limit-s 5 --workload search-mix \
        --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One process, one client, a closed loop:
the next op starts when the previous one has finished.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run with `--trace 1`.  The lines before it record the
environment, the workload's shape counts and any wrong answers.  The exit
code is 0 only when every answer was right.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# ops_per_s is the median rate over blocks of whole rounds that each hold at
# least this much op time, so one op that runs into the limit moves one
# block rather than the whole figure.
BLOCK_S = 1.0

# setup_s is the median of the set-up in this process and in this many
# child processes, each of which imports, probes and generates afresh.
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 60


class OpTimeout(BaseException):
    """The per-op limit expired.  Not an Exception, so no handler inside
    the program can swallow it."""


_armed = False


def _on_alarm(signum, frame) -> None:
    if _armed:
        raise OpTimeout


def _limited(fn, limit: float) -> tuple[str, object]:
    """("ok", result), ("timeout", None) or ("error", message)."""
    global _armed
    try:
        _armed = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return "ok", fn()
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", None
    except Exception as exc:  # a crash inside the program is a failed op
        return "error", f"{type(exc).__name__}: {exc}"


@dataclass
class Pass:
    """What one timed loop did.  Ops are checked and dropped after each
    round, so memory does not grow with the op count."""

    kinds: list[str] = field(default_factory=list)
    statuses: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    round_ends: list[int] = field(default_factory=list)  # op count after each round
    failures: list[str] = field(default_factory=list)


def timed_loop(wl, limit: float, seconds: float = 0.0, rounds: int = 0,
               tracer=None, first_round=None) -> Pass:
    """Whole rounds until `seconds` of op time have passed, or exactly
    `rounds` rounds.  Generating and checking a round is not timed;
    `first_round` is round 0 when set-up has already generated it."""
    done = Pass()
    op_seconds = 0.0
    while (len(done.round_ends) < rounds) if rounds else (op_seconds < seconds):
        i = len(done.round_ends)
        batch = first_round if i == 0 and first_round else wl.round(i)
        outcomes = []
        for op in batch:
            if tracer is not None:
                tracer.op = len(done.latencies)
            t0 = perf_counter()
            status, result = _limited(op.run, limit)
            done.latencies.append(perf_counter() - t0)
            op_seconds += done.latencies[-1]
            outcomes.append((op, status, result))
        if tracer is not None:
            tracer.op = -1
        for op, status, result in outcomes:
            done.kinds.append(op.kind)
            done.statuses.append(status)
            if status == "error":
                done.failures.append(f"{op.kind}: {result}")
            wl.tally(op, result if status == "ok" else None)
            message = wl.check(op, result) if status == "ok" else None
            if message is not None:
                done.failures.append(message)
        done.round_ends.append(len(done.latencies))
    return done


def block_rate(done: Pass) -> float:
    """Median ops per second over blocks of whole rounds of at least
    BLOCK_S op time; a trailing short block is dropped unless it is the
    only one."""
    rates, start, ops, seconds = [], 0, 0, 0.0
    for end in done.round_ends:
        ops += end - start
        seconds += sum(done.latencies[start:end])
        start = end
        if seconds >= BLOCK_S:
            rates.append(ops / seconds)
            ops, seconds = 0, 0.0
    return statistics.median(rates) if rates else ops / seconds


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "sympy": metadata.version("sympy"),
        "mpmath": metadata.version("mpmath"),
        "load": "1 process, 1 client, closed loop",
        "op_limit_s": args.op_limit_s,
        "workload": args.workload,
        "seed": args.seed,
    }


def _child_setups(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--op-limit-s", str(args.op_limit_s),
           "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S, check=True)
        times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _end_to_end(wl, done: Pass, failures: list[str], setups: list[float]) -> dict:
    lat = done.latencies
    n = len(lat)
    tail = percentile(lat, wl.tail_pct)
    above = sum(x > tail for x in lat)
    print(f"perfbench op_tail_ms is p{wl.tail_pct:g} of {n} ops, {above} samples above it")
    print(f"perfbench failed_share {len(failures) / n:.6f}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (block_rate(done), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "decided_share": (done.statuses.count("ok") / n, "share"),
        "ok_share": (1 - len(failures) / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(layer: dict, plain: Pass, traced: Pass, setup) -> dict:
    units = {"_ms": "ms", "_s": "s", "_share": "share", "_per_op": "count"}
    metrics = dict(layer)
    metrics["counts.first_use_s"] = setup["first_count_s"]
    metrics["generators.setup_share"] = setup["generate_s"] / setup["setup_s"]
    metrics["trace.overhead_share"] = sum(traced.latencies) / sum(plain.latencies) - 1
    out = {}
    for name, value in metrics.items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        out[name] = (value, unit)
    return out


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--op-limit-s", type=float, required=True,
                   help="per-op time limit; an op past it is recorded as undecided")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = perf_counter()
    args = _parse_args(argv)
    if not (ROOT / "src" / "bagcq" / "__init__.py").is_file():
        print(f"perfbench: no bagcq package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        return _run(args, started, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup(args, started: float, workdir: str):
    import workloads
    from bagcq.counts import Count

    t0 = perf_counter()
    Count.of(6)  # the first Count pays for the lazy sympy import
    first_count_s = perf_counter() - t0
    workloads.probe(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    t0 = perf_counter()
    first_round = wl.round(0)
    generate_s = perf_counter() - t0
    setup = {"first_count_s": first_count_s, "generate_s": generate_s,
             "setup_s": perf_counter() - started}
    return wl, first_round, setup


def _run(args, started: float, workdir: str) -> int:
    import workloads
    from spans import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl, first_round, setup = _setup(args, started, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup["setup_s"]}))
        return 0
    print("perfbench env " + json.dumps(_environment(args)))

    if args.trace == 0:
        plain = timed_loop(wl, args.op_limit_s, seconds=args.seconds, first_round=first_round)
        passes = [plain]
    else:
        # The same rounds twice, untraced and traced, so the difference is
        # the tracing overhead.
        plain = timed_loop(wl, args.op_limit_s, seconds=args.seconds / 2,
                           first_round=first_round)
        tracer = Tracer()
        tracer.install()
        try:
            workloads.probe(workdir)
            traced = timed_loop(wl, args.op_limit_s, rounds=len(plain.round_ends), tracer=tracer)
        finally:
            tracer.uninstall()
        passes = [plain, traced]

    failures = [f for done in passes for f in done.failures]
    attempted = sum(len(done.latencies) for done in passes)
    shape = wl.shape()
    shape_ok = wl.shape_ok(shape)
    print("perfbench shape " + json.dumps(shape))
    if not shape_ok:
        print("perfbench: the inputs do not have the shape this workload requires")
    for message in failures[:10]:
        print(f"perfbench wrong answer: {message}")

    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(plain.kinds, plain.latencies):
        by_kind.setdefault(kind, []).append(latency)
    print("perfbench op_p50_ms by kind " + json.dumps(
        {kind: round(1e3 * statistics.median(lat), 3) for kind, lat in by_kind.items()}))

    if args.trace == 0:
        setups = [setup["setup_s"]] + _child_setups(args)
        print(f"perfbench setup_s samples {[round(s, 4) for s in setups]}")
        metrics = _end_to_end(wl, plain, failures, setups)
    else:
        op_seconds = sum(traced.latencies)
        metrics = _per_layer(layer_metrics(tracer.spans, len(traced.latencies), op_seconds),
                             plain, traced, setup)
    for name, (value, unit) in metrics.items():
        print(f"perfbench metric {name} {value:.6g} {unit}")
    correct = not failures and shape_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
