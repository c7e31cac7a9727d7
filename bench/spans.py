"""Spans recorded around the benchmark's calls into each rrsched layer.

The benchmark wraps every call it makes into the package in ``span(layer,
**attrs)``.  Untraced runs pass :func:`no_span`, which records nothing; a
traced run passes :meth:`Tracer.span`, which keeps one record per call in
memory: the layer, the op it belongs to, wall and CPU time (own plus reaped
children, so process-pool workers count), and whatever counts the caller
attaches (games, nodes, solutions).  The records are turned into per-layer
metrics and rows after the run.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_IDLE = nullcontext({})


def no_span(layer: str, **attrs):
    """Stand-in for :meth:`Tracer.span` in untraced runs."""
    return _IDLE


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Tracer:
    """Collects span records; ``op`` names the op that later spans belong to."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None

    @contextmanager
    def span(self, layer: str, **attrs):
        record = {"layer": layer, "op": self.op, **attrs}
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            yield record
        finally:
            record["wall_s"] = time.perf_counter() - t0
            record["cpu_s"] = _cpu_s() - cpu0
            self.spans.append(record)


def _median_ms(spans: list[dict]) -> float:
    return 1000 * statistics.median(s["wall_s"] for s in spans) if spans else 0.0


def _per_s(spans: list[dict], key: str) -> float:
    wall = sum(s["wall_s"] for s in spans)
    return sum(s[key] for s in spans) / wall if wall else 0.0


def layer_metrics(spans: list[dict], passes: int, probes: dict[str, float]) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Times are per-call medians; rates divide summed work by summed span time;
    node and solution counts are totals for one pass over the op list.  A
    layer the workload never calls reports 0.  ``probes`` holds the
    fresh-interpreter timings (``interpreter_ms``, ``import_ms``).
    """
    by_layer: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_layer[s["layer"]].append(s)
    generated = (by_layer["generators.circle"] + by_layer["generators.odd_optimal"]
                 + by_layer["generators.duplicate"])
    searched = by_layer["search"]
    nodes = sum(s["nodes"] for s in searched)
    solutions = sum(s["solutions"] for s in searched)
    jobs_wall = sum(s["wall_s"] * s["jobs"] for s in searched)
    return {
        "generators.circle_ms": (_median_ms(by_layer["generators.circle"]), "ms"),
        "generators.odd_optimal_ms": (_median_ms(by_layer["generators.odd_optimal"]), "ms"),
        "generators.duplicate_ms": (_median_ms(by_layer["generators.duplicate"]), "ms"),
        "generators.games_per_s": (_per_s(generated, "games"), "1/s"),
        "model.serialize_ms": (_median_ms(by_layer["model.serialize"]), "ms"),
        "model.load_ms": (_median_ms(by_layer["model.load"]), "ms"),
        "model.load_games_per_s": (_per_s(by_layer["model.load"], "games"), "1/s"),
        "metrics.evaluate_ms": (_median_ms(by_layer["metrics.evaluate"]), "ms"),
        "metrics.evaluate_games_per_s": (_per_s(by_layer["metrics.evaluate"], "games"), "1/s"),
        "metrics.report_json_ms": (_median_ms(by_layer["metrics.report_json"]), "ms"),
        "search.call_ms": (_median_ms(searched), "ms"),
        "search.nodes": (nodes // passes, "count"),
        "search.solutions": (solutions // passes, "count"),
        "search.nodes_per_s": (_per_s(searched, "nodes"), "1/s"),
        "search.solutions_per_node": (solutions / nodes if nodes else 0.0, "ratio"),
        "search.cpu_util": (sum(s["cpu_s"] for s in searched) / jobs_wall if jobs_wall else 0.0,
                            "ratio"),
        "claims.verify_ms": (_median_ms(by_layer["claims"]), "ms"),
        "claims.nodes": (sum(s["nodes"] for s in by_layer["claims"]) // passes, "count"),
        "cli.interpreter_ms": (probes["interpreter_ms"], "ms"),
        "cli.import_ms": (probes["import_ms"], "ms"),
        "cli.generate_ms": (_median_ms(by_layer["cli.generate"]), "ms"),
        "cli.evaluate_ms": (_median_ms(by_layer["cli.evaluate"]), "ms"),
        "cli.search_ms": (_median_ms(by_layer["cli.search"]), "ms"),
        "cli.verify_ms": (_median_ms(by_layer["cli.verify"]), "ms"),
    }


def layer_rows(spans: list[dict], workload: str, machine: dict) -> list[dict]:
    """Rows in the ``{workload, layer, n, wall_ms, nodes, nodes_per_s, count,
    machine}`` schema, one per layer and input: per catalogue case for search
    and claims, per team count elsewhere.  ``wall_ms`` is the median call."""
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for s in spans:
        groups[(s["layer"], s.get("case"), s.get("n"))].append(s)
    rows = []
    for (layer, case, n), group in sorted(groups.items(), key=lambda kv: str(kv[0])):
        nodes = group[0].get("nodes")
        rows.append({
            "workload": f"{workload}/{case}" if case else workload,
            "layer": layer,
            "n": n,
            "wall_ms": _median_ms(group),
            "nodes": nodes,
            "nodes_per_s": _per_s(group, "nodes") if nodes is not None else None,
            "count": group[0].get("solutions"),
            "machine": machine,
        })
    return rows
