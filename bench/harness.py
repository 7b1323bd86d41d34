"""Round loop, wall-clock caps and in-memory spans shared by every workload.

A workload is a fixed list of operations.  Each operation makes exactly one
call into a public function of delaysym and then checks the result against
a computation made apart from the program.  The loop runs whole rounds of
the list until the requested time is used, so every run attempts the same
operations in the same proportions, whatever the seed and the run length.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import math
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# every library call that is not a known fault runs under this cap
DEFAULT_CAP_S = 30.0


class Capped(BaseException):
    """An operation ran past its wall-clock cap.

    Derived from BaseException so that no `except Exception` inside the
    program can swallow it."""


class CheckFailed(Exception):
    """An operation's output disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _on_alarm(signum, frame):
    raise Capped()


# ---------------------------------------------------------------------------
# host speed
#
# The host's speed drifts by tens of per cent over seconds to minutes, more
# than a median over one run can average out.  Every measured interval is
# therefore followed by slices of fixed pure-Python arithmetic that touch no
# part of delaysym, and reported in seconds at the speed where one slice
# takes GAUGE_NOMINAL_S.  Raw seconds stay in the result files.

GAUGE_ITERATIONS = 1000
GAUGE_NOMINAL_S = 2.5e-4
GAUGE_SHARE = 0.05  # slices fill about this share of the measured time
SETUP_GAUGE_SLICES = 32
GAUGE_WINDOW_S = 0.5  # an operation is scaled by the slices this close to it


def gauge_slice() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(GAUGE_ITERATIONS):
        x = (i % 97) * 0.5
        acc += math.sin(x) * x - acc / (1.0 + i)
    return time.perf_counter() - t0


class Gauge:
    """Host speed sampled alongside the measured work."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each slice ended
        self.sums: list[float] = [0.0]  # running total of slice durations

    def follow(self, seconds: float, at_least: int = 1) -> None:
        """Slices for GAUGE_SHARE of `seconds`, and at least `at_least`."""
        spent = 0.0
        n = 0
        while n < at_least or spent < GAUGE_SHARE * seconds:
            took = gauge_slice()
            spent += took
            n += 1
            self.times.append(time.perf_counter())
            self.sums.append(self.sums[-1] + took)

    def scale(self, at: Optional[float] = None) -> float:
        """Factor from measured seconds to seconds at the nominal speed, from
        the slices within GAUGE_WINDOW_S of `at` (from all of them if None)."""
        lo, hi = 0, len(self.times)
        if at is not None:
            lo = bisect.bisect_left(self.times, at - GAUGE_WINDOW_S)
            hi = max(bisect.bisect_right(self.times, at + GAUGE_WINDOW_S), lo + 1)
        return GAUGE_NOMINAL_S * (hi - lo) / (self.sums[hi] - self.sums[lo])


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root
    failed: bool = False
    counts: Optional[dict] = None  # work done by the call, e.g. integration steps


class Tracer:
    """Spans kept in memory and written out when the run ends.

    `call` wraps one call into the program.  With tracing off it is a plain
    call, so untraced runs pay nothing for it."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0, 0, parent))
        self._stack.append(idx)
        self.spans[idx].start_ns = time.perf_counter_ns()
        return idx

    def end(self, idx: int, failed: bool = False,
            counts: Optional[dict] = None) -> None:
        end = time.perf_counter_ns()
        span = self.spans[idx]
        span.end_ns = end
        span.failed = failed
        span.counts = counts
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, counts=None, **kwargs):
        """fn(*args, **kwargs) inside a span; `counts` is a dict, or a
        function of the result giving one, recorded on the span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.end(idx, failed=True)
            raise
        self.end(idx, counts=counts(out) if callable(counts) else counts)
        return out

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end_ns - s.start_ns
        return out

    def root_of(self, idx: int) -> int:
        while self.spans[idx].parent >= 0:
            idx = self.spans[idx].parent
        return idx

    def to_json_obj(self) -> list[dict]:
        return [{"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "parent": s.parent, "failed": s.failed, "counts": s.counts}
                for s in self.spans]


# ---------------------------------------------------------------------------
# operations and the round loop


@dataclass
class Op:
    """One call into the program plus its check.

    `call(state)` makes the call and returns its result; `check(result,
    state)` raises CheckFailed when the result is wrong and may store the
    result in `state` for later operations of the same round; it may return
    counts to attach to the op's span.  `span` names the public function
    called, `counts` records the work the call does (integration steps,
    intervals, nodes) for the traced run.  `known_fault` marks the
    operations kept in the workload because the program fails them every
    time."""

    name: str
    span: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], Optional[dict]]
    cap_s: float = DEFAULT_CAP_S
    counts: Optional[dict] = None
    known_fault: str = ""


@dataclass
class RoundResult:
    """Latencies and their sum in seconds at the nominal host speed; `scale`
    converted them from the measured ones."""

    seconds: float
    latencies: list[float]
    failures: list[tuple[str, str]]  # (op name, reason)
    scale: float


def run_op(op: Op, state: dict, tracer: Tracer) -> tuple[float, Optional[str], bool]:
    """Latency in seconds, a failure reason (None when the op passed) and
    whether the op ran into its cap.

    A capped op counts at its cap."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    span = tracer.begin(op.span) if tracer.enabled else -1
    signal.setitimer(signal.ITIMER_REAL, op.cap_s)
    reason: Optional[str] = None
    result = None
    capped = False
    t0 = time.perf_counter()
    try:
        result = op.call(state)
        latency = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    except Capped:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        latency = op.cap_s
        capped = True
        reason = f"stopped at its {op.cap_s:g} s cap"
    except Exception as exc:  # the program raised: a failed operation
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        latency = time.perf_counter() - t0
        reason = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, old)
    if tracer.enabled:
        tracer.end(span, failed=reason is not None, counts=op.counts)
    if reason is None:
        try:
            extra = op.check(result, state)
        except CheckFailed as exc:
            reason = f"check failed: {exc}"
            extra = None
        except Exception as exc:  # output the check could not even read
            reason = f"check raised {type(exc).__name__}: {exc}"
            extra = None
        if tracer.enabled:
            tracer.spans[span].failed = reason is not None
            if extra:
                tracer.spans[span].counts = {**(op.counts or {}), **extra}
    return latency, reason, capped


def run_round(ops: list[Op], tracer: Tracer) -> RoundResult:
    state: dict = {}
    latencies: list[float] = []
    failures: list[tuple[str, str]] = []
    gauge = Gauge()
    middles: list[float] = []
    capped: list[bool] = []
    root = tracer.begin("round") if tracer.enabled else -1
    for op in ops:
        latency, reason, was_capped = run_op(op, state, tracer)
        middles.append(time.perf_counter() - latency / 2.0)
        gauge.follow(latency)
        latencies.append(latency)
        capped.append(was_capped)
        if reason is not None:
            failures.append((op.name, reason))
    if tracer.enabled:
        tracer.end(root)
    # a cap is a fixed real-time interval, not program work: it is not scaled
    latencies = [lat if cap else lat * gauge.scale(at)
                 for lat, at, cap in zip(latencies, middles, capped)]
    return RoundResult(sum(latencies), latencies, failures, gauge.scale())


def run_rounds(ops: list[Op], seconds: float, tracer: Tracer,
               min_ops: int = 100) -> list[RoundResult]:
    """Whole rounds until the next one would overrun `seconds`.

    At least two rounds run, and enough of them that `min_ops` latencies
    exist for the tail percentile."""
    min_rounds = max(2, math.ceil(min_ops / len(ops)))
    rounds: list[RoundResult] = []
    durations: list[float] = []  # as the clock runs: checks and gauge included
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        rounds.append(run_round(ops, tracer))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(durations) > seconds:
            return rounds


# ---------------------------------------------------------------------------
# set-up


MODULES = ("expr", "delay", "dods", "steps", "symmetry", "reduction", "numerics", "cli")


class Lib:
    """The delaysym modules of one fresh import."""

    def __init__(self, with_cli: bool) -> None:
        for name in MODULES:
            if name == "cli" and not with_cli:
                continue
            setattr(self, name, importlib.import_module(f"delaysym.{name}"))


def fresh_import(with_cli: bool) -> Lib:
    """Forget every delaysym module, then import the package again."""
    for key in [k for k in sys.modules if k == "delaysym" or k.startswith("delaysym.")]:
        del sys.modules[key]
    importlib.import_module("delaysym")
    return Lib(with_cli)


def timed_setup(build: Callable[[Lib], Any], with_cli: bool,
                repeats: int) -> tuple[list[float], list[float], Lib, Any]:
    """Import and build the inputs `repeats` times; keep the last build.

    Returns the set-up times at the nominal host speed, their scales, the
    library and the inputs."""
    times, scales = [], []
    lib = inputs = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        lib = fresh_import(with_cli)
        inputs = build(lib)
        seconds = time.perf_counter() - t0
        gauge = Gauge()
        gauge.follow(seconds, at_least=SETUP_GAUGE_SLICES)
        scales.append(gauge.scale())
        times.append(seconds * scales[-1])
    return times, scales, lib, inputs


@dataclass
class Context:
    """What a workload's build function needs besides the library."""

    seed: int
    tracer: Tracer
    root: str  # the checkout
    src: str  # the checkout's sources, first on every child's path
    out_dir: str  # result, trace and work files of the benchmark
    launcher: Any  # starts the cli workload's children (cli.Launcher); None elsewhere


@dataclass
class Setup:
    """One marching set-up the probes reuse: system, history, start, horizon."""

    dods: Any
    phi: str
    x0: float
    intervals: int


@dataclass
class Workload:
    """Operations of one round, the values drawn from the seed, and what the
    traced run's layer probes evaluate."""

    ops: list[Op]
    drawn: dict
    cases: list = field(default_factory=list)  # catalog cases, resolved or not
    setups: list[Setup] = field(default_factory=list)
    texts: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
