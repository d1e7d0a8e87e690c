"""Span recorder for the traced benchmark run, attached at wknn's public entry points.

The recorder wraps module attributes and methods that the experiment
runner, the CLI and the benchmark's own LP chain call, records one span
per call (name, start, end, parent span, replication id) and a few
counts taken from the arguments and results. Nothing is wrapped outside
the ``traced`` context, so untraced runs execute the program untouched.

The recorder keeps one span stack, so it is only used with threads=1.
"""
from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Recorder:
    """Spans and counts kept in memory until ``write_jsonl``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, rep]
        self.counts: Counter = Counter()
        self.rep = None
        self._stack: list[int] = []
        self._eval_rows: list[np.ndarray] = []

    def wrap(self, name, fn, before=None, after=None):
        rec = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(rec, args, kwargs)
            idx = len(rec.spans)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, rec.rep]
            rec.spans.append(span)
            rec._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec._stack.pop()
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rep in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": None if parent < 0 else parent,
                                     "rep": rep}) + "\n")

    def totals(self) -> tuple[dict, dict, Counter]:
        """Per span name: total duration, total self time and call count."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[idx]
            calls[name] += 1
        return total, own, calls

    def unique_row_frac(self) -> float:
        rows = sum(len(p) for p in self._eval_rows)
        if rows == 0:
            return 0.0
        return sum(len(np.unique(p, axis=0)) for p in self._eval_rows) / rows


# --- hooks: counts taken from arguments and results --------------------------


def _set_rep(rec, args, kwargs):
    rec.rep = int(args[1] if len(args) > 1 else kwargs["stream_id"])


def _table_rows(rec, args, kwargs, result):
    pts = args[0] if args else kwargs["eval_sample"]
    pts = np.asarray(getattr(pts, "points", pts))
    rec.counts["knn.rows"] += len(pts)
    rec._eval_rows.append(pts)


def _weight_entries(rec, args, kwargs, result):
    table = args[0] if args else kwargs["table"]
    rec.counts["weights.entries"] += int(table.indices.size)


def _exact_cells(rec, args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    target = args[1] if len(args) > 1 else kwargs["target"]
    rec.counts["ot.exact_cells"] += (
        int(np.count_nonzero(source.masses > 0.0)) * int(np.count_nonzero(target.masses > 0.0))
    )
    rec.counts["ot.plan_nnz"] += len(result[1].entries)


def _csv_bytes(rec, args, kwargs, result):
    rec.counts["cli.csv_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _entry_points():
    """(owner, attribute, span name, before hook, after hook) for every wrapped call."""
    from wknn import cli, estimators, experiments, knn, ot, weights

    return [
        (experiments, "stream", "rng.stream", _set_rep, None),
        (experiments, "uniform_open", "rng.uniform_open", None, None),
        (experiments, "standard_normal", "rng.standard_normal", None, None),
        (experiments, "neighbor_table", "knn.neighbor_table", None, _table_rows),
        (knn, "neighbor_table", "knn.neighbor_table", None, _table_rows),
        (knn.KnnIndex, "__init__", "knn.index_build", None, None),
        (knn.KnnIndex, "query_batch", "knn.index_query", None, None),
        (experiments, "knn_weights", "weights.knn_weights", None, _weight_entries),
        (weights, "knn_weights", "weights.knn_weights", None, _weight_entries),
        (experiments, "weighted_measure", "weights.weighted_measure", None, None),
        (weights, "weighted_measure", "weights.weighted_measure", None, None),
        (experiments, "qi_hat", "estimators.qi_hat", None, None),
        (estimators.Model, "sample_outputs", "estimators.sample_outputs", None, None),
        (experiments, "knn_transport_cost", "ot.closed_form", None, None),
        (ot, "knn_transport_cost", "ot.closed_form", None, None),
        (experiments, "exact_wq", "ot.exact_wq", None, _exact_cells),
        (ot, "exact_wq", "ot.exact_wq", None, _exact_cells),
        (ot, "pairwise_distances", "core.cost_matrix", None, None),
        (cli, "wasserstein_rate_experiment", "experiments.run", None, None),
        (experiments, "noisy_rate_experiment", "experiments.run", None, None),
        (cli, "main", "cli.main", None, None),
        (cli, "write_runs_csv", "cli.csv_write", None, _csv_bytes),
        (cli, "write_summary_csv", "cli.csv_write", None, _csv_bytes),
        (cli, "write_ratefit_csv", "cli.csv_write", None, _csv_bytes),
    ]


@contextmanager
def traced(rec: Recorder):
    """Wrap every entry point for the duration of the block, then restore them."""
    saved = []
    try:
        for owner, attr, name, before, after in _entry_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, before, after))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics --------------------------------------------------------

# Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "rng.sample_s": "s",
    "rng.streams": "count",
    "knn.table_s": "s",
    "knn.tables": "count",
    "knn.rows": "count",
    "knn.index_build_s": "s",
    "knn.index_builds": "count",
    "knn.index_query_s": "s",
    "knn.brute_s": "s",
    "knn.brute_tables": "count",
    "knn.unique_row_frac": "ratio",
    "weights.knn_weights_s": "s",
    "weights.weighted_measure_s": "s",
    "weights.entries": "count",
    "estimators.qi_hat_s": "s",
    "estimators.outputs_s": "s",
    "ot.closed_form_s": "s",
    "ot.exact_s": "s",
    "ot.exact_solves": "count",
    "ot.exact_cells": "count",
    "ot.plan_nnz": "count",
    "core.cost_matrix_s": "s",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "experiments.scaling_eff": "ratio",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.csv_write_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(rec: Recorder, wall_s: float, scaling_eff: float, overhead_frac: float) -> dict:
    """Per-layer values over the traced work; the last three come from the caller."""
    total, own, calls = rec.totals()
    tables = calls["knn.neighbor_table"]
    values = {
        "rng.sample_s": total["rng.stream"] + total["rng.uniform_open"]
        + total["rng.standard_normal"],
        "rng.streams": calls["rng.stream"],
        "knn.table_s": total["knn.neighbor_table"],
        "knn.tables": tables,
        "knn.rows": rec.counts["knn.rows"],
        "knn.index_build_s": total["knn.index_build"],
        "knn.index_builds": calls["knn.index_build"],
        "knn.index_query_s": total["knn.index_query"],
        "knn.brute_s": own["knn.neighbor_table"],
        "knn.brute_tables": tables - calls["knn.index_build"],
        "knn.unique_row_frac": rec.unique_row_frac(),
        "weights.knn_weights_s": total["weights.knn_weights"],
        "weights.weighted_measure_s": total["weights.weighted_measure"],
        "weights.entries": rec.counts["weights.entries"],
        "estimators.qi_hat_s": total["estimators.qi_hat"],
        "estimators.outputs_s": total["estimators.sample_outputs"],
        "ot.closed_form_s": total["ot.closed_form"],
        "ot.exact_s": total["ot.exact_wq"],
        "ot.exact_solves": calls["ot.exact_wq"],
        "ot.exact_cells": rec.counts["ot.exact_cells"],
        "ot.plan_nnz": rec.counts["ot.plan_nnz"],
        "core.cost_matrix_s": total["core.cost_matrix"],
        "experiments.run_s": total["experiments.run"],
        "experiments.self_s": own["experiments.run"],
        "experiments.scaling_eff": scaling_eff,
        "cli.main_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "cli.csv_write_s": total["cli.csv_write"],
        "cli.csv_bytes": rec.counts["cli.csv_bytes"],
        "trace.wall_s": wall_s,
        "trace.overhead_frac": overhead_frac,
    }
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
