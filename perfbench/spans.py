"""Spans around the calls into each layer of bagcq, recorded from outside.

Nothing under src/ knows about tracing.  `Tracer.install` replaces a
layer's public functions at the names their callers look them up
(`bagcq.qalgebra.count_homomorphisms`, `bagcq.encoder.eval_expr`,
`Count.compare`, ...) with wrappers that record one span per call, and
`Tracer.uninstall` puts the originals back.  Spans stay in memory; the
per-layer metrics are computed from them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

# (module or class path, attribute, span name).  A function imported into
# several modules is wrapped at every import site, because a caller looks
# the name up in its own module's globals.
TRACE_POINTS: tuple[tuple[str, str, str], ...] = (
    ("bagcq.homcount", "count_homomorphisms", "homcount.count"),
    ("bagcq.qalgebra", "count_homomorphisms", "homcount.count"),
    ("bagcq.encoder", "count_homomorphisms", "homcount.count"),
    ("bagcq.qalgebra", "eval_expr", "qalgebra.eval_expr"),
    ("bagcq.encoder", "eval_expr", "qalgebra.eval_expr"),
    ("bagcq.counts:Count", "of", "counts.arith"),
    ("bagcq.counts:Count", "mul", "counts.arith"),
    ("bagcq.counts:Count", "pow", "counts.arith"),
    ("bagcq.counts:Count", "compare", "counts.compare"),
    ("bagcq.polyreduce", "normalize_hilbert", "polyreduce.normalize"),
    ("bagcq.encoder", "assemble", "encoder.assemble"),
    ("bagcq.harness.formats", "assemble", "encoder.assemble"),
    ("bagcq.encoder", "build_correct_database", "encoder.build_db"),
    ("bagcq.encoder", "classify_database", "encoder.classify"),
    ("bagcq.encoder", "extract_valuation", "encoder.classify"),
    ("bagcq.harness.formats", "save_encoder_output", "formats.save"),
    ("bagcq.harness.formats", "load_encoder_output", "formats.load"),
)


@dataclass(frozen=True)
class Span:
    name: str
    op: int  # index of the op that caused it; -1 for the set-up probe
    parent: Optional[str]
    seconds: float
    self_seconds: float  # seconds minus the time covered by child spans
    zero: bool  # the call returned the integer 0


def _resolve_owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans while installed; `op` tags the spans of the current op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            zero = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                zero = type(result) is int and result == 0
                return result
            finally:
                seconds = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                spans.append(Span(name, self.op, parent, seconds, seconds - frame[1], zero))

        return traced

    def install(self) -> None:
        for path, attr, name in TRACE_POINTS:
            owner = _resolve_owner(path)
            static = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, static))
            if isinstance(static, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, static.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, static))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, static = self._saved.pop()
            setattr(owner, attr, static)
        self._stack.clear()


def _median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], ops: int, op_seconds: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    Shares are of `op_seconds`, the summed latency of the `ops` traced ops.
    Per-call medians (`*_ms`) use every span, the set-up probe's included,
    so a layer the workload's ops never call still reports its probe cost.
    """
    in_ops = [s for s in spans if s.op >= 0]

    def named(name: str, source: list[Span]) -> list[Span]:
        return [s for s in source if s.name == name]

    def share(name: str, attr: str = "self_seconds") -> float:
        return sum(getattr(s, attr) for s in named(name, in_ops)) / op_seconds

    counts = named("homcount.count", in_ops)
    return {
        "homcount.calls_per_op": len(counts) / ops,
        "homcount.busy_share": share("homcount.count", "seconds"),
        "homcount.call_p50_ms": _median_ms([s.seconds for s in counts]),
        "homcount.call_max_ms": 1e3 * max((s.seconds for s in counts), default=0.0),
        "homcount.zero_share": sum(s.zero for s in counts) / len(counts) if counts else 0.0,
        "qalgebra.eval_self_share": share("qalgebra.eval_expr"),
        "qalgebra.leaves_per_op": sum(s.parent == "qalgebra.eval_expr" for s in counts) / ops,
        "counts.arith_share": share("counts.arith"),
        "counts.compare_share": share("counts.compare"),
        "counts.compare_calls_per_op": len(named("counts.compare", in_ops)) / ops,
        "encoder.assemble_ms": _median_ms([s.seconds for s in named("encoder.assemble", spans)]),
        "encoder.build_db_ms": _median_ms([s.seconds for s in named("encoder.build_db", spans)]),
        "encoder.classify_share": share("encoder.classify", "seconds"),
        "polyreduce.normalize_ms": _median_ms(
            [s.seconds for s in named("polyreduce.normalize", spans)]
        ),
        "formats.save_ms": _median_ms([s.seconds for s in named("formats.save", spans)]),
        "formats.load_self_ms": _median_ms(
            [s.self_seconds for s in named("formats.load", spans)]
        ),
    }
