"""Spans around calls into nbzeta, recorded from outside the package.

Every entry of NAMES is a name as the calling module looks it up at call
time: a module global (``nbzeta.census.top_adjacency_eigenvalues``) or a
class attribute (``nbzeta.rng.SeedStream.permutation``).  ``installed``
swaps each name that exists for a wrapper that records a span and puts
the original back afterwards.  A name that no longer exists is listed in
``Tracer.absent``; it is never an error, so a refactor that deletes one
only makes its metric absent.

Spans stay in memory as tuples and are written out once, at the end.
"""

import importlib
import itertools
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager

import scipy.sparse.linalg as spla

# (owner, attribute, layer key).  The owner is a module, or a module plus
# a class name.  Keys are the metric prefixes; polys is added per function
# in _targets because callers reach every public function through the
# module object.
NAMES = (
    ("nbzeta.rng:SeedStream", "permutation", "rng.draw"),
    ("nbzeta.rng:SeedStream", "single_cycle", "rng.draw"),
    ("nbzeta.rng:SeedStream", "perfect_matching", "rng.draw"),
    ("nbzeta.rng:SeedStream", "near_perfect_matching", "rng.draw"),
    ("nbzeta.census", "sample_permutation_model", "models.sample"),
    ("nbzeta.census", "sample_single_cycle_model", "models.sample"),
    ("nbzeta.census", "sample_matching_model", "models.sample"),
    ("nbzeta.census", "sample_cover", "models.sample"),
    ("nbzeta.traces", "sample_permutation_model", "models.sample"),
    ("nbzeta.traces", "sample_single_cycle_model", "models.sample"),
    ("nbzeta.traces", "sample_matching_model", "models.sample"),
    ("nbzeta.traces", "sample_cover", "models.sample"),
    ("nbzeta.models", "build_graph", "graphs.build_graph"),
    ("nbzeta.graphs", "build_graph", "graphs.build_graph"),
    ("nbzeta.census", "adjacency_matrix", "graphs.adjacency"),
    ("nbzeta.spectra", "adjacency_matrix", "graphs.adjacency"),
    ("nbzeta.spectra", "adjacency_sparse", "graphs.adjacency"),
    ("nbzeta.zeta", "adjacency_matrix", "graphs.adjacency"),
    ("nbzeta.graphs", "directed_line_graph", "graphs.line_graph"),
    ("nbzeta.traces", "directed_line_graph", "graphs.line_graph"),
    ("nbzeta.spectra", "hashimoto_matrix", "graphs.hashimoto"),
    ("nbzeta.zeta", "hashimoto_matrix", "graphs.hashimoto"),
    ("nbzeta.traces", "hashimoto_matrix", "graphs.hashimoto"),
    ("nbzeta.traces", "hashimoto_sparse", "graphs.hashimoto"),
    ("nbzeta.census", "parse_graph", "graphs.parse"),
    ("nbzeta.census", "top_adjacency_eigenvalues", "spectra.top_eig"),
    ("nbzeta.census", "new_spectra", "spectra.new_spectra"),
    ("nbzeta.spectra", "adjacency_spectrum", "spectra.adjacency_spectrum"),
    ("nbzeta.spectra", "hashimoto_spectrum", "spectra.hashimoto_spectrum"),
    ("nbzeta.zeta", "hashimoto_spectrum", "spectra.hashimoto_spectrum"),
    ("nbzeta.traces", "tr_hashimoto_power", "traces.tr"),
    ("nbzeta.zeta", "tr_hashimoto_power", "traces.tr"),
    ("nbzeta.zeta", "charpoly", "charpoly"),
    ("nbzeta.zeta", "hashimoto_char_poly", "zeta.char_poly"),
    ("nbzeta.zeta", "verify_ihara", "zeta.verify_ihara"),
    ("nbzeta.zeta", "essential_log_derivative_coeffs", "zeta.series"),
    ("nbzeta.zeta", "contour_pole_count", "zeta.contour"),
    ("nbzeta.census", "run_census", "census"),
    # the per-sample span of a census; census.sample_ms reads its durations
    ("nbzeta.census", "_one_sample", "census"),
)
SAMPLE_NAME = "nbzeta.census._one_sample"
TOP_EIG_NAME = "nbzeta.census.top_adjacency_eigenvalues"
SPARSE_NAME = "nbzeta.spectra.adjacency_sparse"

# Self-time metrics, one per key; calls metrics for the keys the layer
# table asks to count.  A metric is absent when none of its names exist.
SELF_KEYS = (
    "rng.draw", "models.sample", "graphs.build_graph", "graphs.adjacency",
    "graphs.line_graph", "graphs.hashimoto", "graphs.parse",
    "spectra.top_eig", "spectra.new_spectra", "spectra.hashimoto_spectrum",
    "spectra.adjacency_spectrum", "traces.tr", "charpoly", "polys",
    "zeta.char_poly", "zeta.verify_ihara", "zeta.series", "zeta.contour",
    "census",
)
CALL_KEYS = ("rng.draw", "spectra.hashimoto_spectrum", "traces.tr", "charpoly", "polys")


def _owner(spec):
    module_name, _, class_name = spec.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def _targets():
    """(owner object, attribute, qualified name, key) for every name that
    exists, and the qualified names that do not."""
    found, absent = [], []
    for spec, attr, key in NAMES:
        qual = f"{spec.replace(':', '.')}.{attr}"
        owner = _owner(spec)
        if owner is None or not callable(getattr(owner, attr, None)):
            absent.append(qual)
        else:
            found.append((owner, attr, qual, key))
    polys = _owner("nbzeta.polys")
    if polys is None:
        absent.append("nbzeta.polys")
    else:
        for attr, fn in sorted(vars(polys).items()):
            if (not attr.startswith("_") and callable(fn)
                    and getattr(fn, "__module__", None) == polys.__name__):
                found.append((polys, attr, f"nbzeta.polys.{attr}", "polys"))
    return found, absent


class CountingOperator(spla.LinearOperator):
    """Delegates to aslinearoperator(A), the operator eigsh builds itself,
    and counts matrix-vector products."""

    def __init__(self, A, tracer):
        self._inner = spla.aslinearoperator(A)
        self._tracer = tracer
        super().__init__(dtype=self._inner.dtype, shape=self._inner.shape)

    def _matvec(self, x):
        self._tracer.count("spectra.matvecs")
        return self._inner.matvec(x)


class Tracer:
    """In-memory span store.  A span is (id, parent id, name index, start,
    end); a count is (id of the innermost open span, name, amount)."""

    def __init__(self, count_matvecs=False):
        self.count_matvecs = count_matvecs
        self.names = []          # index -> (qualified name, key)
        self._index = {}
        self.spans = []
        self.counts = []
        self.absent = []
        self.wrapped = set()     # qualified names installed() wrapped
        self.keys = set()        # their layer keys
        self._ids = itertools.count()   # next() is atomic under the GIL
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_index(self, qual, key):
        if (qual, key) not in self._index:
            self._index[(qual, key)] = len(self.names)
            self.names.append((qual, key))
        return self._index[(qual, key)]

    @contextmanager
    def span(self, qual, key):
        """Open a span by hand; the benchmark marks each op with one."""
        idx = self._name_index(qual, key)
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans.append((sid, parent, idx, t0, time.perf_counter()))
            stack.pop()

    def count(self, name, amount=1):
        stack = self._stack()
        if stack:
            self.counts.append((stack[-1], name, amount))

    def wrap(self, fn, qual, key):
        """fn inside a span.  Inlined rather than built on span(): the
        polys layer alone opens hundreds of spans per sample."""
        idx = self._name_index(qual, key)
        stack_of, ids, spans = self._stack, self._ids, self.spans
        clock = time.perf_counter
        after = None
        if qual == TOP_EIG_NAME:
            def after(result):
                self.count("spectra.top_eig.k", len(result))
                return result
        elif qual == SPARSE_NAME and self.count_matvecs:
            def after(result):
                return CountingOperator(result, self)

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((sid, parent, idx, t0, clock()))
                stack.pop()
            return after(result) if after is not None else result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        """Write every span as one JSON line, times in ms from the first."""
        t_first = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, idx, t0, t1 in sorted(self.spans):
                qual, key = self.names[idx]
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": qual, "key": key,
                    "start_ms": round((t0 - t_first) * 1e3, 4),
                    "end_ms": round((t1 - t_first) * 1e3, 4),
                }) + "\n")


@contextmanager
def installed(tracer):
    """Wrap every existing name; restore all of them on the way out."""
    found, tracer.absent = _targets()
    tracer.wrapped = {qual for _, _, qual, _ in found}
    tracer.keys = {key for *_, key in found}
    restore = []
    try:
        for owner, attr, qual, key in found:
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            restore.append((owner, attr, own, original))
            setattr(owner, attr, tracer.wrap(original, qual, key))
        yield tracer
    finally:
        for owner, attr, own, original in reversed(restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _percentile(values, pct):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it, and
    never below the median."""
    if n < 20:
        return 50
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n)))


def layer_metrics(tracer, op_samples):
    """Per-sample layer figures from the spans of the traced ops.

    op_samples maps the span id of each benchmark op to the number of
    samples it ran.  Work an op does is shared evenly among its samples;
    each figure is the median over ops.  Returns {metric: value}.
    """
    names = tracer.names
    children = {}
    for sid, parent, idx, t0, t1 in tracer.spans:
        children[parent] = children.get(parent, 0.0) + (t1 - t0)
    parent_of = {s[0]: s[1] for s in tracer.spans}
    key_of = {s[0]: names[s[2]][1] for s in tracer.spans}

    root_of = {}

    def root(sid):
        path = []
        while sid not in root_of:
            parent = parent_of.get(sid)
            if parent is None:
                root_of[sid] = sid
                break
            path.append(sid)
            sid = parent
        for p in path:
            root_of[p] = root_of[sid]
        return root_of[sid]

    per_op = {op: {} for op in op_samples}
    sample_ms = []
    for sid, parent, idx, t0, t1 in tracer.spans:
        op = root(sid)
        if op not in per_op:
            continue  # input preparation outside any op
        acc = per_op[op]
        self_ms = (t1 - t0 - children.get(sid, 0.0)) * 1e3
        if sid == op:
            acc["trace.sample_ms"] = (t1 - t0) * 1e3
            acc["trace.unattributed_ms"] = self_ms
            continue
        qual, key = names[idx]
        acc[key + ".self_ms"] = acc.get(key + ".self_ms", 0.0) + self_ms
        if key_of.get(parent) != key:
            acc[key + ".calls"] = acc.get(key + ".calls", 0) + 1
        if qual == SAMPLE_NAME:
            sample_ms.append((t1 - t0) * 1e3)
    ks = []
    for sid, name, amount in tracer.counts:
        op = root(sid)
        if name == "spectra.top_eig.k":
            ks.append(amount)
        elif op in per_op:
            per_op[op][name] = per_op[op].get(name, 0) + amount

    present = tracer.keys
    wanted = [k + ".self_ms" for k in SELF_KEYS if k in present]
    wanted += [k + ".calls" for k in CALL_KEYS if k in present]
    if "graphs.parse" in present:
        wanted.append("graphs.parse.calls")
    if tracer.count_matvecs and SPARSE_NAME in tracer.wrapped:
        wanted.append("spectra.matvecs")
    wanted += ["trace.sample_ms", "trace.unattributed_ms"]

    out = {}
    for metric in wanted:
        if metric == "graphs.parse.calls":
            # per op: on census workloads an op is one census
            vals = [acc.get(metric, 0) for acc in per_op.values()]
        else:
            vals = [acc.get(metric, 0) / op_samples[op] for op, acc in per_op.items()]
        out[metric] = statistics.median(vals) if vals else 0.0
    if "spectra.top_eig" in present:
        out["spectra.top_eig.k"] = statistics.median(ks) if ks else 0
    if "census" in present:
        pct = tail_percentile(len(sample_ms)) if sample_ms else 0
        out["census.sample_ms.p50"] = _percentile(sample_ms, 50)
        out["census.sample_ms.tail"] = _percentile(sample_ms, pct)
        out["census.sample_ms.tail_pct"] = pct
    return out
