"""Layer spans recorded from outside the linkgae package.

``Tracer.install`` replaces linkgae's public callables with wrappers at the
names callers actually look up: class attributes for methods and
classmethods, and the importing module's global for functions brought in
with ``from``-imports (``linkgae.train.sample_negatives`` as well as
``linkgae.graph.sample_negatives``). Each wrapper records one span
``(name, start, end, parent, unit, self_s)``; ``unit`` is the step or round
id the workload sets on the tracer. A span's self time is its duration
minus the time covered by its child spans. Spans stay in memory until
``write`` dumps them when the run ends. ``uninstall`` puts every original
back, so untraced runs execute the library untouched.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Spans that enclose a whole epoch or fit; coverage counts what runs inside them.
CONTAINERS = frozenset({"train.fit", "train.train_epoch"})

TAPE_OPS = ("matmul", "spmm", "gather_rows", "hadamard", "add", "relu", "dropout",
            "l2_normalize", "concat_rows", "bce_with_logits")
HEURISTICS = ("cn", "aa", "ra", "cos")


def _metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []

    def add(base, *counters):
        out.append((f"{base}.calls", "count"))
        out.append((f"{base}.self_s", "s"))
        out.extend((f"{base}.{c}", unit) for c, unit in counters)

    add("graph.without_edges", ("edges", "count"))
    add("graph.sample_negatives", ("pairs", "count"))
    add("graph.matvec", ("flops", "flop"))
    add("graph.rmatvec", ("flops", "flop"))
    for base in ("graph.random_split", "graph.from_edges",
                 "synth.structure_dominant_graph", "model.build_ops"):
        out.append((f"{base}.self_s", "s"))
    for op in TAPE_OPS:
        add(f"engine.{op}", *((("flops", "flop"),) if op == "matmul" else ()))
    add("engine.backward")
    add("engine.adam", ("param_elems", "count"))
    add("model.encode")
    add("model.decode", ("pairs", "count"))
    add("model.score_edges", ("pairs", "count"))
    add("model.masked")
    out.append(("train.fit.self_s", "s"))
    add("train.train_epoch")
    out.append(("train.bce_loss.self_s", "s"))
    add("evaluation.evaluate")
    for h in HEURISTICS:
        add(f"heuristics.score_edges.{h}", ("pairs", "count"))
    out.append(("heuristics.structure_feature_report.self_s", "s"))
    out += [("proc.cpu_s", "s"), ("proc.peak_rss_mb", "MB"),
            ("trace.overhead_pct", "%"), ("trace.coverage_pct", "%")]
    return out


PER_LAYER = _metric_names()


def _arg(args, kwargs, i, key):
    return kwargs[key] if key in kwargs else args[i]


def _npairs(edges) -> int:
    return int(np.asarray(edges).size // 2)


def _spmm_flops(args, kwargs):
    op, x = args[0], _arg(args, kwargs, 1, "x")
    return {"flops": 2 * op.mat.nnz * x.shape[1]}


def _targets(lg) -> list[tuple]:
    """(owner, attribute, span name, counter) for every traced callable."""
    graph, engine, model, train = lg.graph, lg.engine, lg.model, lg.train
    evaluation, heuristics, synth = lg.evaluation, lg.heuristics, lg.synth

    def negatives(a, k):
        return {"pairs": int(_arg(a, k, 1, "count"))}

    def heuristic_name(a, k):
        return f"heuristics.score_edges.{str(_arg(a, k, 2, 'which')).lower()}"

    def matmul_flops(a, k):
        x, w = _arg(a, k, 1, "a"), _arg(a, k, 2, "b")
        return {"flops": 2 * x.shape[0] * x.shape[1] * w.shape[1]}

    def adam_elems(a, k):
        return {"param_elems": sum(p.value.size for p in a[0].params if p.grad is not None)}

    targets = [
        (synth, "structure_dominant_graph", "synth.structure_dominant_graph", None),
        (graph.Graph, "from_edges", "graph.from_edges", None),
        (graph, "random_split", "graph.random_split", None),
        (graph, "sample_negatives", "graph.sample_negatives", negatives),
        (train, "sample_negatives", "graph.sample_negatives", negatives),
        (graph.SparseOperator, "without_edges", "graph.without_edges",
         lambda a, k: {"edges": _npairs(_arg(a, k, 1, "edges"))}),
        (graph.SparseOperator, "matvec", "graph.matvec", _spmm_flops),
        (graph.SparseOperator, "rmatvec", "graph.rmatvec", _spmm_flops),
        (model.MessageOperators, "build", "model.build_ops", None),
        (model.MessageOperators, "masked", "model.masked", None),
        (model.GAEModel, "encode", "model.encode", None),
        (model.GAEModel, "decode", "model.decode",
         lambda a, k: {"pairs": _npairs(_arg(a, k, 3, "edges"))}),
        (model.GAEModel, "score_edges", "model.score_edges",
         lambda a, k: {"pairs": _npairs(_arg(a, k, 2, "edges"))}),
        (engine.Tape, "backward", "engine.backward", None),
        (engine.Adam, "step", "engine.adam", adam_elems),
        (train, "fit", "train.fit", None),
        (train, "train_epoch", "train.train_epoch", None),
        (train, "bce_loss", "train.bce_loss", None),
        (evaluation.MetricSpec, "evaluate", "evaluation.evaluate", None),
        (heuristics, "score_edges", heuristic_name,
         lambda a, k: {"pairs": _npairs(_arg(a, k, 1, "edges"))}),
        (heuristics, "structure_feature_report", "heuristics.structure_feature_report", None),
    ]
    for op in TAPE_OPS:
        targets.append((engine.Tape, op, f"engine.{op}",
                        matmul_flops if op == "matmul" else None))
    return targets


class Tracer:
    """Records nested spans around linkgae's public callables."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, unit, self_s)
        self.counts: dict[str, float] = defaultdict(float)
        self.unit = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._originals: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self, lg) -> None:
        for owner, attr, name, counter in _targets(lg):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, counter))
            else:
                wrapped = self._wrap(raw, name, counter)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(fn, name, counter, args, kwargs)
        return wrapper

    def _call(self, fn, name, counter, args, kwargs):
        if callable(name):
            name = name(args, kwargs)
        if counter is not None:
            for key, value in counter(args, kwargs).items():
                self.counts[f"{name}.{key}"] += value
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([index, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, child = self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans[index] = (name, start, end, parent, self.unit, end - start - child)

    # -- results -----------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """calls, self_s and counters for every traced name (proc.* and trace.* excluded)."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        out = {}
        for metric, _ in PER_LAYER:
            if metric.startswith(("proc.", "trace.")):
                continue
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[base]
            elif kind == "self_s":
                out[metric] = self_s[base]
            else:
                out[metric] = self.counts[metric]
        return out

    def coverage(self, units: list[tuple[float, float]]) -> float:
        """Share of the unit intervals covered by outermost layer spans.

        Outermost means not nested in another layer span other than the
        fit/epoch containers, so nothing is counted twice.
        """
        top = [(s, e) for name, s, e, parent, _, _ in self.spans
               if name not in CONTAINERS
               and (parent < 0 or self.spans[parent][0] in CONTAINERS)]
        if not units or not top:
            return 0.0
        starts = np.array([s for s, _ in top])
        ends = np.array([e for _, e in top])
        covered = total = 0.0
        for lo, hi in units:
            i, j = np.searchsorted(starts, lo), np.searchsorted(starts, hi)
            inside = ends[i:j] <= hi
            covered += float(np.sum(ends[i:j][inside] - starts[i:j][inside]))
            total += hi - lo
        return covered / total

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[n], round(s, 7), round(e, 7), p, u] for n, s, e, p, u, _ in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names,
                                    "columns": ["name", "start", "end", "parent", "unit"],
                                    "spans": rows}))
