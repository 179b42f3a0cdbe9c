"""Spans recorded from outside the library.

``Tracer.install`` replaces attributes of the ``lincone`` solver modules --
the names the solvers call their collaborators by -- with wrappers that
record one span per call, and ``uninstall`` puts the originals back. Nothing
under ``src/`` changes, and an untraced run installs nothing. Spans stay in
memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute, layer). A solver entry point carries the layer of its
# own module; a collaborator carries the layer of the module defining it.
# ``as_matrix`` (input validation) is left out: it does no solver work.
WRAP_POINTS = (
    ("lincone.image", "full_support_image", "image"),
    ("lincone.image", "max_support_image", "image"),
    ("lincone.image", "image_rescale", "image"),
    ("lincone.image", "short_column_scan", "image"),
    ("lincone.image", "von_neumann", "firstorder"),
    ("lincone.image", "SymPosDef", "linalg"),
    ("lincone.image", "pivoted_rank", "linalg"),
    ("lincone.image", "normalize_columns", "linalg"),
    ("lincone.image", "column_norms", "linalg"),
    ("lincone.image", "orthocomplement_basis", "linalg"),
    ("lincone.image", "theta", "conditioning"),
    ("lincone.image", "encoding_length", "conditioning"),
    ("lincone.kernel", "full_support_kernel", "kernel"),
    ("lincone.kernel", "max_support_kernel", "kernel"),
    ("lincone.kernel", "kernel_projector", "linalg"),
    ("lincone.kernel", "pivoted_rank", "linalg"),
    ("lincone.kernel", "normalize_columns", "linalg"),
    ("lincone.kernel", "column_norms", "linalg"),
    ("lincone.kernel", "theta", "conditioning"),
    ("lincone.kernel", "encoding_length", "conditioning"),
    ("lincone.oracle", "strict_conic_feasibility", "oracle"),
    ("lincone.oracle", "oracle_von_neumann", "oracle"),
    ("lincone.oracle", "SymPosDef", "linalg"),
    ("lincone.oracle", "MatrixSeparationOracle.query", "oracle"),
)

# Span fields, in the order each span list holds them.
REQ, LAYER, NAME, START, END, PARENT = range(6)


def _count_gram(tracer, args, kwargs, result):
    gram = kwargs.get("gram")
    n = args[0].shape[1] if gram is None else gram.shape[0]
    tracer.gram_bytes += 8 * n * n


def _track_active_set(tracer, args, kwargs, result):
    tracer.active_set_max = max(tracer.active_set_max, len(result[0]))


# Counters read from the arguments or result of a wrapped call.
_PROBES = {"von_neumann": _count_gram, "oracle_von_neumann": _track_active_set}


def _resolve(module_name: str, attr: str):
    """(owner object, final attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.req = -1
        self.gram_bytes = 0
        self.active_set_max = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        probe = _PROBES.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [self.req, layer, name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, layer in WRAP_POINTS:
            owner, last = _resolve(module_name, attr)
            original = owner.__dict__[last]
            self._saved.append((owner, last, original))
            setattr(owner, last, self._wrap(layer, attr, original))

    def uninstall(self):
        while self._saved:
            owner, last, original = self._saved.pop()
            setattr(owner, last, original)

    def record(self, layer: str, name: str, start: float, end: float):
        """Add a span timed by the caller (used for work outside the library)."""
        self.spans.append([self.req, layer, name, start, end, -1])

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(spans):
    """Per (layer, name): call count, summed duration and summed self time."""
    agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = agg[(span[LAYER], span[NAME])]
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
    return agg
