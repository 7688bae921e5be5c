"""Spans and counters recorded around the package's layer boundaries.

The traced run replaces each function below with a wrapper under the name
its caller looks it up by (``circlepack.optimizer.index_energy`` is what
``bfgs_minimize`` calls for a line-search trial). Each call becomes a span
with a name, a start, an end and a parent. Spans stay in memory, in flat
arrays, and are written out once the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from circlepack import layout_io, neighbors, optimizer, search

import check


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.span_name[top]]

    def call(self, name: str, fn, args, kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(result, kwargs)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = end - start
        covered = np.zeros(len(duration))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        own = duration - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = (int(mask.sum()), float(duration[mask].sum()), float(own[mask].sum()))
        return out

    def write(self, path: Path) -> None:
        """Save the spans as numpy arrays: span i is named ``names[name[i]]``,
        ran from ``start[i]`` to ``end[i]`` (perf_counter seconds) and was
        caused by span ``parent[i]`` (-1 for none)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


EXITS = {
    optimizer.OptimizeStatus.FEASIBLE: "optimizer.exit.feasible",
    optimizer.OptimizeStatus.GRADIENT_CONVERGED: "optimizer.exit.converged",
    optimizer.OptimizeStatus.ITERATION_LIMIT: "optimizer.exit.limit",
}


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layer boundaries for the duration of the block."""

    def descended(outcome, kwargs):
        tracer.count("optimizer.steps", outcome.iterations)
        tracer.count("optimizer.evals", outcome.evaluations)
        if tracer.current() == "search.hop_batch":
            # hop settles stop at their step budget inside a shrunken
            # container by design; their endings say nothing about faults
            return
        margin = kwargs.get("container_margin", neighbors.DEFAULT_CONTAINER_MARGIN)
        tracer.count(EXITS[outcome.status])
        tracer.count("optimizer.escaped",
                     check.wall_depth(outcome.layout.centers, outcome.layout.radius) > margin)

    descent = tracer.wrap("optimizer.descent", optimizer.bfgs_minimize, descended)

    def rebuilt(index, kwargs):
        tracer.count("neighbors.pairs_listed", int(index.pair_i.size))
        tracer.count("neighbors.wall_listed", int(index.container_ids.size))

    def search_descent(*args, **kwargs):
        # global_search passes radius=None for a restart descent and the
        # search radius for a hop member; container_adjust always passes one
        if tracer.current() == "search.adjust":
            name = "search.probe"
        elif kwargs.get("radius") is None:
            name = "search.restart"
        else:
            name = "search.hop_reopt"
        outcome = tracer.call(name, descent, args, kwargs)
        feasible = outcome.status is optimizer.OptimizeStatus.FEASIBLE
        if name == "search.probe":
            tracer.count("search.probe.feasible", feasible)
        elif name == "search.hop_reopt":
            tracer.count("search.hop_reopt.hits", feasible)
        return outcome

    patches = [
        (optimizer, "index_energy", tracer.wrap("neighbors.trial", optimizer.index_energy)),
        (optimizer, "gradient_eval", tracer.wrap("neighbors.gradient", optimizer.gradient_eval)),
        (optimizer, "_build_index_raw",
         tracer.wrap("neighbors.rebuild", optimizer._build_index_raw, rebuilt)),
        (optimizer, "update_inverse_hessian",
         tracer.wrap("optimizer.hessian", optimizer.update_inverse_hessian)),
        (optimizer, "total_energy", tracer.wrap("geometry.exact", optimizer.total_energy)),
        (optimizer, "bfgs_minimize", descent),
        (search, "bfgs_minimize", search_descent),
        (search, "basin_hop", tracer.wrap("search.hop_batch", search.basin_hop)),
        (search, "global_search", tracer.wrap("search.global", search.global_search)),
        (search, "container_adjust", tracer.wrap("search.adjust", search.container_adjust)),
        (layout_io, "write_layout", tracer.wrap("layout_io.write", layout_io.write_layout)),
        (layout_io, "read_layout", tracer.wrap("layout_io.read", layout_io.read_layout)),
        (layout_io, "verify_layout", tracer.wrap("layout_io.verify", layout_io.verify_layout)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, wrapper in patches:
        setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


LAYER_METRICS = (
    "neighbors.trial.calls", "neighbors.trial.us",
    "neighbors.gradient.calls", "neighbors.gradient.us",
    "neighbors.rebuild.calls", "neighbors.rebuild.us",
    "neighbors.pairs_listed", "neighbors.wall_listed",
    "optimizer.hessian.calls", "optimizer.hessian.us",
    "optimizer.descent.calls", "optimizer.descent.self_s",
    "optimizer.steps", "optimizer.evals", "optimizer.trials_per_step",
    "optimizer.exit.feasible", "optimizer.exit.converged", "optimizer.exit.limit",
    "optimizer.escaped",
    "geometry.exact.calls", "geometry.exact.us",
    "search.restart.calls", "search.restart.share",
    "search.hop_batch.calls", "search.hop_batch.share",
    "search.hop_reopt.calls", "search.hop_reopt.share", "search.hop_reopt.hits",
    "search.probe.calls", "search.probe.share", "search.probe.feasible",
    "search.adjust.shrink",
    "layout_io.write.us", "layout_io.read.us", "layout_io.verify.us", "layout_io.bytes",
    "traced.wall_s",
)


def _unit(name: str) -> str:
    if name.endswith(".us"):
        return "us"
    if name.endswith(".share"):
        return "share"
    if name.endswith((".s", "_s")):
        return "s"
    return {
        "optimizer.trials_per_step": "ratio",
        "search.adjust.shrink": "radius",
        "layout_io.bytes": "B",
    }.get(name, "count")


UNITS = {name: _unit(name) for name in LAYER_METRICS}


def layer_metrics(
    tracer: Tracer, rounds: int, slowdown: float, extra: dict[str, float]
) -> dict[str, float]:
    """Per-layer figures, per round where they are totals.

    Span times are divided by the machine's mean slowdown over the run, as
    the untraced round times are. ``extra`` carries what the benchmark
    measured itself: bytes written and shrink per round, and the traced
    (normalised) round time.
    """
    totals = {
        name: (calls, total / slowdown, own / slowdown)
        for name, (calls, total, own) in tracer.totals().items()
    }
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def per_call_us(name):
        n, seconds, _ = totals.get(name, (0, 0.0, 0.0))
        return 1e6 * seconds / n if n else 0.0

    def share(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / totals["bench.round"][1]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer, span in (
        ("neighbors.trial", "neighbors.trial"),
        ("neighbors.gradient", "neighbors.gradient"),
        ("neighbors.rebuild", "neighbors.rebuild"),
        ("optimizer.hessian", "optimizer.hessian"),
        ("geometry.exact", "geometry.exact"),
    ):
        out[layer + ".calls"] = calls(span) / rounds
        out[layer + ".us"] = per_call_us(span)
    out["neighbors.pairs_listed"] = ratio(counts.get("neighbors.pairs_listed", 0), calls("neighbors.rebuild"))
    out["neighbors.wall_listed"] = ratio(counts.get("neighbors.wall_listed", 0), calls("neighbors.rebuild"))
    out["optimizer.descent.calls"] = calls("optimizer.descent") / rounds
    out["optimizer.descent.self_s"] = totals.get("optimizer.descent", (0, 0.0, 0.0))[2] / rounds
    out["optimizer.steps"] = counts.get("optimizer.steps", 0) / rounds
    out["optimizer.evals"] = counts.get("optimizer.evals", 0) / rounds
    out["optimizer.trials_per_step"] = ratio(calls("neighbors.trial"), counts.get("optimizer.steps", 0))
    for key in ("optimizer.exit.feasible", "optimizer.exit.converged", "optimizer.exit.limit",
                "optimizer.escaped"):
        out[key] = counts.get(key, 0) / rounds
    for span in ("search.restart", "search.hop_batch", "search.hop_reopt", "search.probe"):
        out[span + ".calls"] = calls(span) / rounds
        out[span + ".share"] = share(span)
    out["search.hop_reopt.hits"] = counts.get("search.hop_reopt.hits", 0) / rounds
    out["search.probe.feasible"] = counts.get("search.probe.feasible", 0) / rounds
    out["search.adjust.shrink"] = extra["shrink"]
    for op in ("write", "read", "verify"):
        out[f"layout_io.{op}.us"] = per_call_us("layout_io." + op)
    out["layout_io.bytes"] = extra["bytes"]
    out["traced.wall_s"] = extra["wall_s"]
    return {name: out[name] for name in LAYER_METRICS}
