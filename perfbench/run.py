"""nbzeta benchmark: one command per workload, every metric with its unit.

    python3 perfbench/run.py --workload census-perm --seed 1 --seconds 10 --trace 0

Run from the repository root (any checkout holding src/nbzeta).  The
program is imported from that checkout's src/, never from an installed
copy.  With --trace 0 the last line carries the end-to-end metrics, each
measured with tracing off; with --trace 1 it carries the per-layer
metrics of a traced run.  Lines before it record the environment, every
metric by name and unit, and every failed check.  Workloads, metrics and
the layer table are described in perfbench/README.md.

This process imports no numpy: it starts fresh interpreters (see
measure.py) so that set-up time and peak memory belong to the workload.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census-perm", "census-cover", "traces-mc", "zeta-exact")
SETUP_PROBES = 4          # plus the measured process: setup_s is a median of 5
CHILD_TIMEOUT_S = 170
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def unit(metric):
    if metric == "samples_per_s":
        return "1/s"
    if metric == "setup_s":
        return "s"
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_ms") or metric.startswith("census.sample_ms."):
        return "%" if metric.endswith("_pct") else "ms"
    if metric in ("census.worker_speedup", "tracing.overhead"):
        return "ratio"
    return "count"


def source_state():
    """Git commit when the checkout is a repository, and a digest of the
    program's sources, which identifies the code in any checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def child(args, extra, deadline):
    """Run measure.py and return its parsed last line.  subprocess.run
    kills and reaps it on timeout."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    if args.tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    done = subprocess.run(
        cmd + ["--spawned", repr(spawned)], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - spawned),
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"measure.py exited with {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs through the same code (smoke test)")
    p.add_argument("--write-goldens", action="store_true",
                   help="store the default seed's outputs as goldens")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "nbzeta" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'nbzeta'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(child(args, ["--probe"], deadline)["setup_s"])
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.write_goldens:
        extra.append("--write-goldens")
    out = child(args, extra, deadline)
    setups.append(out["setup_s"])

    metrics = dict(out["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    env = dict(out["env"])
    env.update(
        seed=args.seed, workload=args.workload, seconds=args.seconds,
        trace=args.trace, tiny=args.tiny,
        blas_env={k: os.environ.get(k) for k in BLAS_ENV},
        **source_state(),
    )
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"spans written to {out['spans_file']}; "
              f"matvecs counted: {out['matvecs_counted']}")
        for name in out["absent"]:
            print(f"absent: {name} (its metric is not reported)")
    for line in out["summary"]:
        print(line)
    for note in out["notes"]:
        print("FAILED CHECK " + note)
    attempted, failed = out["attempted"], out["failed"]
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {unit(name)}")
    print(f"failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} samples)")
    if not args.trace:
        print("setup_s runs: " + " ".join(f"{s:.4f}" for s in setups))
        print(f"samples_per_s unscaled = {out['raw_samples_per_s']:.6g} 1/s; "
              f"reference kernel median = {out['reference_ms']:.3f} ms")
    print(json.dumps({
        "correct": failed == 0 and not out["notes"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
