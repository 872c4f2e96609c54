"""One measured process of the benchmark; started by run.py.

It imports nbzeta from the checkout's src/, prepares the workload's inputs
and notes the moment it is ready.  CLOCK_MONOTONIC is shared with the
parent, which passes the reading it took just before the spawn, so the
difference is setup_s (scaled like rates, see Reference).  With --probe
it stops there.  Otherwise it runs the timed phases, checks every
output, and prints one JSON object as its last line.

Every op runs right after a Reference run; rates are scaled by its median
time (see rate()).

Untraced (--trace 0): one phase at the workload's worker count.
Traced (--trace 1):
  A  untraced, nproc workers     (census workloads only)
  B  untraced, 1 worker
  C  traced, 1 worker, replaying B's inputs
census.worker_speedup = rate(A) / rate(B).  tracing.overhead is the median,
over the ops both ran, of C's time over B's, each divided by the
reference time taken just before it.  Outputs of A and C must equal B's
exactly.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
DEFAULT_SEED = 1
MASK64 = (1 << 64) - 1
REFERENCE_S = 0.008   # Reference.seconds() on a quiet core of the reference machine

sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse  # noqa: E402
import nbzeta  # noqa: E402

if not Path(nbzeta.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"nbzeta imported from {nbzeta.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402


def nproc():
    return len(os.sched_getaffinity(0))


class Reference:
    """Fixed work that touches no nbzeta code, in the proportions the
    workloads spend it: SplitMix-style integer mixing (rng), list and dict
    building (models, graphs) and a sparse matrix-vector chain (spectra,
    traces).  About REFERENCE_S on a quiet core."""

    def __init__(self):
        n = 20_000
        self.op = scipy.sparse.diags(
            [numpy.ones(n - 1), numpy.ones(n - 1), numpy.ones(n - 1000), numpy.ones(n - 1000)],
            [1, -1, 1000, -1000], format="csr",
        )
        self.vec = numpy.ones(n)

    def seconds(self):
        t0 = time.perf_counter()
        x = 0
        for _ in range(10_000):
            x = (x + 0x9E3779B97F4A7C15) & MASK64
            x ^= ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        table = {}
        for i in range(25_000):
            table[i] = i ^ x
        w = self.vec
        for _ in range(50):
            w = self.op @ w
        return time.perf_counter() - t0


def run_phase(wl, workers, budget_s, min_ops, reference, tracer=None, op_ids=None):
    """Run ops 0, 1, ... until their summed time is within half an op of
    the budget (at least min_ops), each right after one reference run.
    Returns [(input, output, op seconds, reference seconds)]; an op that
    raised has the exception text as its output."""
    ops, total = [], 0.0
    while len(ops) < min_ops or total + 0.5 * total / len(ops) < budget_s:
        inp = wl.op_input(len(ops))
        ref = reference.seconds()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inp, workers)
            else:
                with tracer.span("bench.op", "op") as sid:
                    op_ids[sid] = wl.samples_per_op
                    out = wl.run(inp, workers)
        except Exception:
            out = traceback.format_exc()
        dt = time.perf_counter() - t0
        ops.append((inp, out, dt, ref))
        total += dt
    return ops


def check_ops(wl, ops, label, notes):
    """Failed sample count over ops; notes collect what failed."""
    failed = 0
    for i, (inp, out, *_) in enumerate(ops):
        if isinstance(out, str):
            failed += wl.samples_per_op
            notes.append(f"{label} op {i} raised: {out.strip().splitlines()[-1]}")
            continue
        try:
            bad, why = wl.check(i, inp, out)
        except Exception:
            bad, why = wl.samples_per_op, [traceback.format_exc().strip().splitlines()[-1]]
        failed += bad
        notes += [f"{label} op {i}: {w}" for w in why]
    return failed


def compare_ops(wl, ops, ref, label, notes):
    """Samples whose output differs from the same op in ref."""
    failed = 0
    for i, ((_, a, *_), (_, b, *_)) in enumerate(zip(ops, ref)):
        if isinstance(a, str) or isinstance(b, str):
            continue  # counted by check_ops
        if wl.fingerprint(a) != wl.fingerprint(b):
            failed += wl.samples_per_op
            notes.append(f"{label} op {i} differs from the 1-worker untraced run")
    return failed


def check_goldens(wl, ops, write, notes):
    """At the default seed and full size, the leading ops' outputs must
    match goldens.json (or, with write, replace its entry)."""
    got = [wl.golden(out) for _, out, *_ in ops[:wl.golden_ops]
           if not isinstance(out, str)]
    stored = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    if write:
        stored[wl.name] = got
        GOLDENS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        return 0
    want = stored.get(wl.name)
    if want == got:
        return 0
    notes.append(f"goldens differ: got {got}, stored {want}")
    return wl.samples_per_op * wl.golden_ops


def counting_is_exact():
    """True when eigsh through tracing.CountingOperator returns the same
    eigenvalues, bit for bit, as on the plain sparse adjacency."""
    spectra = nbzeta.spectra
    if not all(hasattr(spectra, a) for a in ("adjacency_sparse", "top_adjacency_eigenvalues")):
        return False
    r = random.Random(7)
    g = workloads.perm_graph(500, [r.sample(range(500), 500) for _ in range(2)])
    plain = spectra.top_adjacency_eigenvalues(g, 2 * 3 ** 0.5, seed=7)
    original = spectra.adjacency_sparse
    spectra.adjacency_sparse = lambda h: tracing.CountingOperator(
        original(h), tracing.Tracer())
    try:
        counted = spectra.top_adjacency_eigenvalues(g, 2 * 3 ** 0.5, seed=7)
    finally:
        spectra.adjacency_sparse = original
    return numpy.array_equal(plain, counted)


def blas_info():
    out = {}
    for lib in (numpy, scipy):
        try:
            blas = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[lib.__name__] = f"{blas.get('name')} {blas.get('version')}"
        except Exception as exc:  # the config layout varies by version
            out[lib.__name__] = f"unknown ({type(exc).__name__})"
    return out


def raw_rate(ops, samples_per_op):
    """Samples completed per second of the ops' summed time.  A sample
    whose output fails a check still completed; only an op that raised
    adds time without samples."""
    seconds = sum(op[2] for op in ops)
    done = sum(1 for op in ops if not isinstance(op[1], str))
    return done * samples_per_op / seconds


def rate(ops, samples_per_op):
    """Median over ops of samples per second, scaled to a quiet machine by
    the run's median reference time over REFERENCE_S.

    On a shared host the same op can take twice as long from one minute
    to the next; the reference slows with it (README, "Steadiness")."""
    per_op = [(0 if isinstance(out, str) else samples_per_op) / dt
              for _, out, dt, _ in ops]
    slowdown = statistics.median(op[3] for op in ops) / REFERENCE_S
    return statistics.median(per_op) * slowdown


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--spawned", type=float, required=True,
                   help="CLOCK_MONOTONIC reading just before this process was started")
    p.add_argument("--write-goldens", action="store_true")
    args = p.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, tiny=args.tiny)
    ready = time.monotonic()
    reference = Reference()
    reference.seconds()   # the first run pays for page faults and cold caches
    slowdown = statistics.median(reference.seconds() for _ in range(3)) / REFERENCE_S
    setup_s = (ready - args.spawned) / slowdown
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cores = nproc()
    workers = cores if wl.uses_workers else 1
    goldens = args.seed == DEFAULT_SEED and not args.tiny
    min_ops = wl.golden_ops if goldens else 1
    notes, result = [], {"setup_s": setup_s}

    if not args.trace:
        ops = run_phase(wl, workers, args.seconds, min_ops, reference)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed = check_ops(wl, ops, "timed", notes)
        attempted = len(ops) * wl.samples_per_op
        result["raw_samples_per_s"] = raw_rate(ops, wl.samples_per_op)
        result["reference_ms"] = statistics.median(op[3] for op in ops) * 1e3
        result["metrics"] = {
            "samples_per_s": rate(ops, wl.samples_per_op),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        all_ops = ops
    else:
        # the three phases together take about as long as an untraced run
        quarter = args.seconds / 4
        phase_a = run_phase(wl, cores, quarter, min_ops, reference) if wl.uses_workers else None
        phase_b = run_phase(wl, 1, quarter, min_ops, reference)
        count_matvecs = counting_is_exact()
        tracer = tracing.Tracer(count_matvecs=count_matvecs)
        op_ids = {}
        with tracing.installed(tracer):
            phase_c = run_phase(wl, 1, 2 * quarter, min_ops, reference, tracer, op_ids)
        failed = check_ops(wl, phase_b, "B", notes)
        failed += check_ops(wl, phase_c, "C", notes)
        failed += compare_ops(wl, phase_c, phase_b, "C", notes)
        attempted = (len(phase_b) + len(phase_c)) * wl.samples_per_op
        if phase_a is not None:
            failed += check_ops(wl, phase_a, "A", notes)
            failed += compare_ops(wl, phase_a, phase_b, "A", notes)
            attempted += len(phase_a) * wl.samples_per_op
        metrics = tracing.layer_metrics(tracer, op_ids)
        metrics["census.worker_speedup"] = (
            rate(phase_a, wl.samples_per_op) / rate(phase_b, wl.samples_per_op)
            if phase_a is not None else 1.0
        )
        metrics["tracing.overhead"] = statistics.median(
            (c[2] / c[3]) / (b[2] / b[3]) for b, c in zip(phase_b, phase_c)
        )
        result["metrics"] = metrics
        result["absent"] = tracer.absent
        result["matvecs_counted"] = count_matvecs
        OUT_DIR.mkdir(exist_ok=True)
        size = "tiny" if args.tiny else "full"
        spans_path = OUT_DIR / f"spans-{wl.name}-{size}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        all_ops = phase_b

    if goldens:
        failed += check_goldens(wl, all_ops, args.write_goldens, notes)
    result.update(
        attempted=attempted,
        failed=failed,
        notes=notes,
        summary=wl.summary() if hasattr(wl, "summary") else [],
        env={
            "nproc": cores,
            "workers": workers,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
