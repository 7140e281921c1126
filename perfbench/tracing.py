"""In-memory span recording around the public calls of ``nwe``, from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
each traced function by a wrapper in every ``nwe`` module namespace that
holds it, so calls made between library modules (``quantum.curve`` calling
``optimal_local``, ``cli`` calling ``catalog.load``) are seen too.  Calls
inside a function, such as the likelihood tables and LP solves inside
``optimal_local`` and ``in_classical_polytope``, are not visible from here.

A span is ``[name, start, end, parent, op, note]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span or -1,
``op`` the id of the enclosing op, and ``note`` a small value kept for the
counters (the result of ``note_fn``).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced public function; a dotted attribute
# names a classmethod.  The metric prefix drops the leading "nwe.".
TRACED = (
    ("nwe.systems", "make_polygon"),
    ("nwe.catalog", "load"),
    ("nwe.catalog", "search_perfect_separable"),
    ("nwe.discrimination", "SearchConfig.for_ensemble"),
    ("nwe.discrimination", "optimal_local"),
    ("nwe.discrimination", "eval_tree"),
    ("nwe.discrimination", "confusion_matrix"),
    ("nwe.discrimination", "tree_to_text"),
    ("nwe.composition", "check_complete"),
    ("nwe.quantum", "curve"),
    ("nwe.quantum", "qt_optimize"),
    ("nwe.quantum", "curve_csv"),
    ("nwe.signaling", "gpt_channel"),
    ("nwe.signaling", "classical_vertices"),
    ("nwe.signaling", "in_classical_polytope"),
)

FUNCTION_NAMES = tuple(f"{mod[len('nwe.'):]}.{attr}" for mod, attr in TRACED)


def _note_optimal_local(args, kwargs, result):
    ens, cfg = args[0], args[1]
    leader = args[2] if len(args) > 2 else kwargs.get("leader")
    outcomes = tuple(tuple(len(m) for m in per) for per in cfg.measurements)
    return (outcomes, cfg.adaptive, leader, ens.composite.arity)


NOTES = {
    "discrimination.optimal_local": _note_optimal_local,
    "signaling.classical_vertices": lambda a, k, r: len(r),
    "signaling.in_classical_polytope": lambda a, k, r: bool(r.inside),
    "quantum.curve": lambda a, k, r: len(r),
}


def search_leaves(outcomes, adaptive: bool, leader, arity: int) -> int:
    """Leaves of the full search tree of optimal_local, ignoring zero-weight pruning.

    Computed from the configuration alone: each step picks a remaining
    party (the forced leader at the root, the lowest index when not
    adaptive) and one of its measurements, and branches on every outcome.
    """
    memo = {}

    def leaves(remaining: tuple, root: bool) -> int:
        if not remaining:
            return 1
        key = (remaining, root)
        if key not in memo:
            if root and leader is not None:
                parties = (leader,)
            elif adaptive:
                parties = remaining
            else:
                parties = remaining[:1]
            total = 0
            for a in parties:
                rest = tuple(x for x in remaining if x != a)
                total += sum(outcomes[a]) * leaves(rest, False)
            memo[key] = total
        return memo[key]

    return leaves(tuple(range(arity)), True)


class Tracer:
    """Span recorder; while ``enabled`` is false the wrappers only forward the call."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self._stack = []
        self._op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id, label: str):
        """One op (or set-up step): the root span of the calls made inside it."""
        if not self.enabled:
            yield
            return
        self._op = op_id
        index = self._open(f"op.{label}")
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def wrap(self, name: str, func):
        note_fn = NOTES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            # A recursive call (tree_to_text) belongs to the outermost span.
            stack = tracer._stack
            if not tracer.enabled or (stack and tracer.spans[stack[-1]][0] == name):
                return func(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[index][5] = ("raised", type(exc).__name__)
                raise
            finally:
                tracer._close(index)
            if note_fn is not None:
                tracer.spans[index][5] = note_fn(args, kwargs, result)
            return result

        return functools.wraps(func)(traced)

    def install(self) -> None:
        """Rebind every traced function, wherever an ``nwe`` module holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "nwe" or n.startswith("nwe.")]
        for (mod_name, attr), name in zip(TRACED, FUNCTION_NAMES):
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.wrap(name, original)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "note"],
                    "spans": self.spans,
                },
                fh,
                default=repr,
            )


def self_times(spans) -> list:
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _note in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def function_metrics(spans) -> dict:
    """calls / busy_ms (self time) / failed for every traced function, plus counters."""
    selft = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    failed = defaultdict(int)
    for i, (name, *_rest) in enumerate(spans):
        calls[name] += 1
        busy[name] += selft[i]
        note = spans[i][5]
        if isinstance(note, tuple) and note[:1] == ("raised",):
            failed[name] += 1
    out = {}
    for name in FUNCTION_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.busy_ms"] = (busy[name] * 1e3, "ms")
        out[f"{name}.failed"] = (failed[name], "count")

    leaves = 0
    for s in spans:
        if s[0] == "discrimination.optimal_local" and isinstance(s[5], tuple) and s[5][:1] != ("raised",):
            leaves += search_leaves(*s[5])
    out["discrimination.optimal_local.search_leaves"] = (leaves, "count")
    us = busy["discrimination.optimal_local"] * 1e6
    out["discrimination.optimal_local.us_per_leaf"] = (us / leaves if leaves else 0.0, "us")

    out["signaling.classical_vertices.vertices"] = (
        sum(s[5] for s in spans if s[0] == "signaling.classical_vertices" and isinstance(s[5], int)),
        "count",
    )
    memb = [s[5] for s in spans if s[0] == "signaling.in_classical_polytope"]
    inside = sum(1 for n in memb if n is True)
    outside = sum(1 for n in memb if n is False)
    inconclusive = sum(1 for n in memb if n == ("raised", "InconclusiveMembership"))
    out["signaling.in_classical_polytope.inside"] = (inside, "count")
    out["signaling.in_classical_polytope.outside"] = (outside, "count")
    out["signaling.in_classical_polytope.inconclusive"] = (inconclusive, "count")
    out["signaling.lp_solves"] = (inside + 2 * outside, "count")

    # Split every curve point into its forced-leader solves and qt_optimize calls.
    points = sum(s[5] for s in spans if s[0] == "quantum.curve" and isinstance(s[5], int))
    under = defaultdict(float)  # seconds spent in direct children of curve spans, by name
    for s in spans:
        if s[3] >= 0 and spans[s[3]][0] == "quantum.curve":
            under[s[0]] += s[2] - s[1]
    curve_s = sum(s[2] - s[1] for s in spans if s[0] == "quantum.curve")
    for metric, seconds in (
        ("point_ms", curve_s),
        ("point_optimal_local_ms", under["discrimination.optimal_local"]),
        ("point_qt_optimize_ms", under["quantum.qt_optimize"]),
    ):
        out[f"quantum.curve.{metric}"] = (seconds * 1e3 / points if points else 0.0, "ms")
    out["quantum.curve.points"] = (points, "count")
    return out
