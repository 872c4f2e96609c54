"""Seeded Monte Carlo censuses of threshold eigenvalue counts.

Each sample draws a graph from the configured model with a seed derived
from (master_seed, sample_index), counts its adjacency eigenvalues in the
mode's half-open window [lo, hi), and records (index, seed, count,
lambda1, lambda2).  The window is fixed once per census (_window): at or
above the Ramanujan threshold 2*sqrt(d-1), or, in strict mode, from the
threshold up to d, both edges moved down by a tolerance of
default_tolerances(d).  A cover counts its new spectrum, the total
spectrum less the base's (a sub-multiset, since functions constant on
fibres are invariant under A): its count is the total graph's count minus
the base's.  Every model and mode takes one route: a dense eigensolve up
to spectra.DENSE_EIG_LIMIT vertices, read when called, and above it
seeded Lanczos down past lo, which walks a cover's total with its
(component, fibre) cells deflated and a disconnected graph with its
components deflated.  A Lanczos count is certified at lo by residual
bands (see spectra.top_adjacency_eigenvalues); lambda1 and lambda2 are
then Ritz values of the plain Lanczos rung (lambda2 to about 1e-7) or of
eigsh, its last resort, or values of the cells' quotient matrix.  A
sample whose count cannot be certified raises UncertainCount and is
recorded as a failure with its reason, never counted.  Reruns with the
same config are byte-identical and longer runs extend shorter ones
record for record.

With workers > 1 the samples run on a persistent process pool: forkserver
workers with one BLAS thread each, built on the first such census and kept
for the next ones.  Records, the CSV and progress stay in sample order in
the calling process.  A forkserver worker re-imports the main script, so a
script that runs a parallel census needs the `if __name__ == "__main__":`
guard; and a worker sees the modules as imported, so monkeypatches of
module globals reach only workers=1 censuses, which run in-process.
"""

import csv
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InvalidParams, ParseError
from .graphs import adjacency_matrix, parse_graph
from .models import (
    check_model,
    sample_cover,
    sample_matching_model,
    sample_permutation_model,
    sample_single_cycle_model,
)
from . import spectra
from .rng import derive_seed
from .spectra import (
    default_tolerances,
    new_spectra,  # noqa: F401  perfbench/tracing.py wraps this name
    top_adjacency_eigenvalues,
)

PAPER_SECTION8 = {
    # preset: (model, n, paper mean, paper sample count)
    "G4_100": ("perm", 100, 1.2681, 10_000),
    "G4_1000": ("perm", 1000, 1.2258, 10_000),
    "G4_10000": ("perm", 10_000, 1.1942, 10_000),
    "H4_100": ("cycle", 100, 1.1268, 10_000),
    "H4_1000": ("cycle", 1000, 1.161, 10_000),
    "H4_10000": ("cycle", 10_000, 1.1693, 10_000),
}


@dataclass(frozen=True)
class CensusConfig:
    model: str                      # perm | cycle | match | cover
    d: int
    n: int
    samples: int
    master_seed: int
    mode: str = "at_least_2sqrt"    # or "strict_nonramanujan"
    base_graph_text: str = None     # required for cover
    workers: int = 1

    def validate(self):
        """Raise InvalidParams for a config that cannot run; return the
        parsed cover base (None for the other models)."""
        base = None
        if self.model == "cover" and self.base_graph_text:
            try:
                base = parse_graph(self.base_graph_text)
            except ParseError as exc:
                raise InvalidParams(f"cover base graph: {exc}") from exc
        check_model(self.model, self.n, self.d, base)
        if self.mode not in ("at_least_2sqrt", "strict_nonramanujan"):
            raise InvalidParams(f"unknown mode {self.mode!r}")
        if self.samples < 1:
            raise InvalidParams("samples must be >= 1")
        if self.workers < 1:
            raise InvalidParams("workers must be >= 1")
        return base


@dataclass(frozen=True)
class SampleRecord:
    sample: int
    seed: int
    count: int
    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class CensusResult:
    config: CensusConfig
    records: list
    mean: float
    stderr: float
    samples: int
    failures: int
    failure_reasons: dict  # repr(exception) -> number of samples


def _one_sample(args):
    (model, n, d, lo, hi, base, offset, master_seed, index) = args
    seed = derive_seed(master_seed, index)
    cover = None
    if model == "perm":
        g = sample_permutation_model(n, d, seed)
    elif model == "cycle":
        g = sample_single_cycle_model(n, d, seed)
    elif model == "match":
        g = sample_matching_model(n, d, seed)
    else:
        cover = sample_cover(base, n, seed)
        g = cover.total
    top = _top_eigenvalues(g, lo, seed, cover)
    return SampleRecord(
        sample=index,
        seed=seed,
        count=_count(top, lo, hi) - offset,
        lambda1=float(top[0]),
        lambda2=float(top[1]) if len(top) > 1 else float("nan"),
    )


def _top_eigenvalues(g, lo, seed, cover=None):
    """Descending adjacency eigenvalues of g: all of them up to the dense
    limit, else the top ones down past lo by seeded Lanczos, over the
    covering map when g is a cover's total."""
    if g.vertex_count <= spectra.DENSE_EIG_LIMIT:
        return np.linalg.eigvalsh(adjacency_matrix(g).astype(float))[::-1]
    return top_adjacency_eigenvalues(g if cover is None else cover, lo, seed=seed)


def _window(d, mode):
    """The half-open window [lo, hi) whose eigenvalues a census counts,
    with the tolerances of default_tolerances(d): at or above the
    threshold 2*sqrt(d-1) less threshold_tol, or, in strict mode, from
    the threshold less special_tol up to d less special_tol."""
    threshold = 2 * math.sqrt(d - 1)
    _, special_tol, threshold_tol = default_tolerances(d)
    if mode == "at_least_2sqrt":
        return threshold - threshold_tol, math.inf
    return threshold - special_tol, d - special_tol


def _count(vals, lo, hi):
    """Number of eigenvalues vals in [lo, hi)."""
    return int(np.sum(vals >= lo)) - int(np.sum(vals >= hi))


def run_census(config, out_path=None, progress=None):
    """Run the census; optionally stream records to a CSV file as they
    complete (in sample order) and write an aggregate JSON next to it.

    workers=1 runs every sample in this process.  More workers run them in
    contiguous chunks, one per worker, on the module's persistent process
    pool (see _process_pool); records, the CSV and progress calls are
    still in sample order and identical to workers=1.  A script calling
    this with workers > 1 needs the `if __name__ == "__main__":` guard.  If
    the pool breaks (a worker died), BrokenProcessPool propagates and the
    next call builds a fresh pool.
    """
    base = config.validate()
    lo, hi = _window(config.d, config.mode)
    # a cover counts its new spectrum: the total's count less the base's
    offset = 0 if base is None else _count(
        _top_eigenvalues(base, lo, config.master_seed), lo, hi)
    tasks = [
        (config.model, config.n, config.d, lo, hi, base, offset, config.master_seed, i)
        for i in range(config.samples)
    ]
    records, reasons = [], Counter()
    sink = open(out_path, "w", newline="") if out_path else None
    writer = None
    if sink is not None:
        writer = csv.writer(sink)
        writer.writerow(_CSV_HEADER)
    if config.workers > 1:
        outcomes = _pool_map(tasks, config.workers)
    else:
        outcomes = map(_one_sample_safe, tasks)
    try:
        for rec in outcomes:
            _consume(rec, records, reasons, writer, progress)
    finally:
        if sink is not None:
            sink.close()
    counts = np.asarray([r.count for r in records], dtype=float)
    mean = float(counts.mean()) if len(counts) else float("nan")
    stderr = (
        float(counts.std(ddof=1) / math.sqrt(len(counts)))
        if len(counts) > 1
        else 0.0
    )
    result = CensusResult(
        config=config,
        records=records,
        mean=mean,
        stderr=stderr,
        samples=len(records),
        failures=sum(reasons.values()),
        failure_reasons=dict(reasons),
    )
    if out_path:
        with open(str(out_path) + ".json", "w") as fh:
            fh.write(aggregate_json(result))
    return result


# The census process pool, built on the first census with workers > 1 and
# kept across calls: starting one costs about 0.7 s, and a census can be a
# few samples.  It is rebuilt for another worker count or after it broke.
_POOL = None
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _process_pool(workers):
    """The cached pool of `workers` forkserver processes, each with one BLAS
    thread: ARPACK's reverse-communication loop holds the GIL between
    matvecs, so samples need processes, and one BLAS thread per process
    keeps dense eigensolves from oversubscribing the cores.

    numpy and scipy each bundle an OpenBLAS, which reads its thread count
    from the environment when loaded; the forkserver, and the workers
    forked from it, start while that environment says 1.  The caller's
    environment is restored afterwards.
    """
    global _POOL
    if _POOL is not None and _POOL._max_workers == workers:
        return _POOL
    _discard_pool()
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("forkserver"),
            initializer=_exit_with_parent,
        )
        try:
            # one task per worker starts them all inside this environment
            for future in [pool.submit(os.getpid) for _ in range(workers)]:
                future.result()
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    _POOL = pool
    return pool


def _exit_with_parent():
    """Worker initializer: end this worker when the census process dies,
    even by SIGKILL; a worker would otherwise wait on its task queue for
    ever, and keep the forkserver alive with it."""
    import multiprocessing
    import threading

    parent = multiprocessing.parent_process()

    def watch():
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _discard_pool():
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None


def _pool_map(tasks, workers):
    """_one_sample_safe over tasks on the cached pool, in sample order, one
    contiguous chunk per worker.  A broken pool is discarded and its
    BrokenProcessPool raised, never recorded as per-sample failures."""
    from concurrent.futures.process import BrokenProcessPool

    pool = _process_pool(workers)
    try:
        yield from pool.map(
            _one_sample_safe, tasks, chunksize=-(-len(tasks) // workers)
        )
    except BrokenProcessPool:
        _discard_pool()
        raise


def _one_sample_safe(task):
    try:
        return _one_sample(task)
    except Exception as exc:  # per-sample failure: record and drop
        return (task[-1], repr(exc))


def _consume(rec, records, reasons, writer, progress):
    if not isinstance(rec, SampleRecord):
        reasons[rec[1]] += 1
        return
    records.append(rec)
    if writer is not None:
        writer.writerow(_csv_row(rec))
    if progress is not None:
        progress(rec)


_CSV_HEADER = ["sample", "seed", "count", "lambda1", "lambda2"]


def _csv_row(rec):
    return [
        rec.sample, rec.seed, rec.count, f"{rec.lambda1:.12g}", f"{rec.lambda2:.12g}"
    ]


def records_csv(result):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(_CSV_HEADER)
    w.writerows(_csv_row(rec) for rec in result.records)
    return buf.getvalue()


def aggregate_json(result):
    cfg = asdict(result.config)
    cfg.pop("base_graph_text", None)
    return json.dumps(
        {"config": cfg, **summary_fields(result)},
        indent=2,
        sort_keys=True,
        allow_nan=False,
    ) + "\n"


def summary_fields(result):
    """mean, stderr, samples, failures and the failure reasons, JSON-safe:
    a mean or stderr without a successful sample is None (null), never NaN."""
    def finite(x):
        return x if math.isfinite(x) else None

    return {
        "mean": finite(result.mean),
        "stderr": finite(result.stderr),
        "samples": result.samples,
        "failures": result.failures,
        "failure_reasons": result.failure_reasons,
    }


@dataclass(frozen=True)
class Section8Row:
    preset: str
    n: int
    model: str
    paper_mean: float
    paper_samples: int
    computed_mean: float
    stderr: float
    samples: int
    z_score: float


def reproduce_section8(preset, samples_override=None, seed=0, workers=1):
    """Compare a computed census against one of the published table rows.

    The z-score combines this run's standard error with the paper's
    binomial-scale uncertainty at its own sample count.
    """
    if preset not in PAPER_SECTION8:
        raise InvalidParams(f"unknown preset {preset!r}; have {sorted(PAPER_SECTION8)}")
    model, n, paper_mean, paper_samples = PAPER_SECTION8[preset]
    samples = paper_samples if samples_override is None else samples_override
    config = CensusConfig(
        model=model, d=4, n=n, samples=samples, master_seed=seed, workers=workers
    )
    result = run_census(config)
    counts = np.asarray([r.count for r in result.records], dtype=float)
    paper_var = float(counts.var(ddof=1)) if len(counts) > 1 else 0.25
    paper_stderr = math.sqrt(paper_var / paper_samples)
    denom = math.sqrt(result.stderr ** 2 + paper_stderr ** 2)
    z = (result.mean - paper_mean) / denom if denom > 0 else float("inf")
    return Section8Row(
        preset=preset,
        n=n,
        model=model,
        paper_mean=paper_mean,
        paper_samples=paper_samples,
        computed_mean=result.mean,
        stderr=result.stderr,
        samples=result.samples,
        z_score=z,
    )


def section8_table(rows):
    header = (
        f"{'preset':10s} {'model':6s} {'n':>7s} {'paper':>8s} "
        f"{'computed':>10s} {'stderr':>8s} {'z':>7s}"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.preset:10s} {r.model:6s} {r.n:7d} {r.paper_mean:8.4f} "
            f"{r.computed_mean:10.4f} {r.stderr:8.4f} {r.z_score:7.2f}"
        )
    return "\n".join(lines)
