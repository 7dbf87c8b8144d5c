"""Span recorder that wraps the package's public functions from outside.

``Tracer.install`` replaces module attributes (``qsim.param_shift_grad_batch``,
``qgnn.adam_step``, ``cli.save_arrays``, ...) with timing wrappers and
``Tracer.uninstall`` puts the originals back. Each call becomes a span with a
name, start, end, parent span and run id; spans stay in memory until
``write`` saves them as JSON lines. Nothing under ``src/`` is edited: the
wrappers only see what crosses a module boundary.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from qgfraud import cli, dataset, metrics, persist, qgnn, qsim, sage, tda

AMPLITUDE_BYTES = 16  # complex128


def _rows(xs) -> int:
    return len(xs) if getattr(xs, "ndim", 1) > 1 else 1


def _qsim_counts(args, kwargs, result) -> dict:
    xs, spec = args[0], args[1]
    rows = _rows(xs)
    return {"rows": rows, "state_bytes": rows * (1 << spec.q) * AMPLITUDE_BYTES}


def _graph_counts(args, kwargs, result) -> dict:
    return {"graphs": 1, "nodes": result.n_nodes, "edges": len(result.edges)}


def _corpus_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _loaded_rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


# (module, attribute, span name, counter); a name can cover several attributes
# when a module imported the function by name (``cli.save_arrays``). The
# train and predict spans are not reported; they keep model loops out of the
# self time of ``cli.main``.
WRAPPED = (
    (cli, "main", "cli.main", None),
    (dataset, "load_transactions", "dataset.load_transactions", _loaded_rows),
    (dataset, "undersample", "dataset.undersample", None),
    (dataset, "split_indices", "dataset.split_indices", None),
    (tda, "transaction_graph", "tda.transaction_graph", _graph_counts),
    (tda, "write_graph_corpus", "tda.write_graph_corpus", _corpus_bytes),
    (tda, "read_graph_corpus", "tda.read_graph_corpus", None),
    (cli, "save_arrays", "persist.save_arrays", None),
    (cli, "load_arrays", "persist.load_arrays", None),
    (persist, "load_arrays", "persist.load_arrays", None),
    (qsim, "run_vqc_batch", "qsim.run_vqc_batch", _qsim_counts),
    (qsim, "param_shift_grad_batch", "qsim.param_shift_grad_batch", _qsim_counts),
    (qgnn, "train", "qgnn.train", None),
    (qgnn, "predict", "qgnn.predict", None),
    (qgnn, "forward", "qgnn.forward", None),
    (qgnn, "backward_batch", "qgnn.backward_batch", None),
    (qgnn, "adam_step", "optim.adam_step", None),
    (sage, "sage_train", "sage.sage_train", None),
    (sage, "sage_predict", "sage.sage_predict", None),
    (sage, "sage_forward", "sage.sage_forward", None),
    (sage, "sage_backward", "sage.sage_backward", None),
    (sage, "adam_step", "optim.adam_step", None),
    (metrics, "optimal_threshold", "metrics.optimal_threshold", None),
    (metrics, "evaluate", "metrics.evaluate", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; spans nest by call order on the current stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        """Time the block as one span; ``counts`` may be filled in after it ends."""
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            counts = {} if counts is None else counts
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id, counts))

    def _wrap(self, fn, name: str, counter):
        def wrapper(*args, **kwargs):
            counts: dict = {}
            with self.span(name, counts):
                result = fn(*args, **kwargs)
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, counter in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self, run_id: str):
        self.run_id = run_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                rec = {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run_id": s.run_id,
                }
                if s.counts:
                    rec["counts"] = s.counts
                fh.write(json.dumps(rec) + "\n")


@dataclass
class LayerTotals:
    """Per-name totals over a set of spans."""

    seconds: dict
    self_seconds: dict
    calls: dict
    counts: dict  # name -> counter -> summed value
    peaks: dict  # name -> counter -> largest single value


def totals(spans, run_ids) -> LayerTotals:
    """Totals over the spans whose run id is in ``run_ids``.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    mine = [s for s in spans if s.run_id in run_ids]
    child_seconds: dict[int, float] = defaultdict(float)
    for s in mine:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds
    seconds: dict[str, float] = defaultdict(float)
    self_seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    peaks: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for s in mine:
        seconds[s.name] += s.seconds
        self_seconds[s.name] += s.seconds - child_seconds[s.id]
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[s.name][key] += value
            peaks[s.name][key] = max(peaks[s.name][key], value)
    return LayerTotals(seconds, self_seconds, calls, counts, peaks)
