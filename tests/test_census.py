import dataclasses
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from nbzeta import (
    CensusConfig,
    InvalidParams,
    adjacency_spectrum,
    build_bouquet,
    classify_non_ramanujan,
    complete_graph,
    new_spectra,
    parse_graph,
    petersen_graph,
    run_census,
    sample_cover,
    sample_permutation_model,
    serialize_graph,
)
from nbzeta import census as census_module
from nbzeta.graphs import graph_from_pairs, regularity
from nbzeta.census import aggregate_json, records_csv, reproduce_section8, section8_table
from nbzeta.spectra import default_tolerances


def _cfg(**kw):
    base = dict(model="perm", d=4, n=20, samples=30, master_seed=7)
    base.update(kw)
    return CensusConfig(**base)


def test_config_validation():
    with pytest.raises(InvalidParams):
        _cfg(model="perm", d=3).validate()
    with pytest.raises(InvalidParams):
        _cfg(model="match", n=5).validate()
    with pytest.raises(InvalidParams):
        _cfg(model="cover").validate()
    with pytest.raises(InvalidParams):
        _cfg(samples=0).validate()
    _cfg().validate()


def _strict_json(text):
    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_config_rejects_nonpositive_n(monkeypatch):
    def never(*args):
        raise AssertionError("sampled before validation")

    monkeypatch.setattr(census_module, "_one_sample", never)
    base = serialize_graph(build_bouquet(2, 0))
    for model in ("perm", "match", "cover"):
        cfg = _cfg(model=model, n=0, base_graph_text=base)
        with pytest.raises(InvalidParams):
            run_census(cfg)


PATH3_TEXT = "nbgraph v1\n3 4\n0 1 1\n1 0 0\n1 2 3\n2 1 2\n"  # irregular


def test_config_rejects_bad_cover_base():
    for text in ("not a graph\n", "nbgraph v1\n3 0\n", PATH3_TEXT):
        with pytest.raises(InvalidParams):
            _cfg(model="cover", base_graph_text=text).validate()
    _cfg(model="cover", base_graph_text=serialize_graph(build_bouquet(2, 0))).validate()


def test_config_rejects_cover_degree_mismatch():
    k4 = serialize_graph(complete_graph(4))
    with pytest.raises(InvalidParams, match="3-regular.*d=4"):
        _cfg(model="cover", d=4, base_graph_text=k4).validate()
    _cfg(model="cover", d=3, base_graph_text=k4).validate()


def test_config_rejects_nonpositive_workers():
    with pytest.raises(InvalidParams):
        _cfg(workers=0).validate()


def test_config_rejects_strict_mode_above_dense_limit():
    limit = census_module.DENSE_EIG_LIMIT
    with pytest.raises(InvalidParams):
        _cfg(mode="strict_nonramanujan", n=limit + 2).validate()
    _cfg(mode="strict_nonramanujan", n=limit).validate()
    # covers count the total graph: n sheets times the base vertices
    k4 = serialize_graph(complete_graph(4))
    with pytest.raises(InvalidParams):
        _cfg(model="cover", d=3, mode="strict_nonramanujan", n=limit // 4 + 1,
             base_graph_text=k4).validate()
    _cfg(model="cover", d=3, mode="strict_nonramanujan", n=limit // 4,
         base_graph_text=k4).validate()


def test_config_rejects_negative_threshold_tol():
    with pytest.raises(InvalidParams):
        _cfg(threshold_tol=-1.0).validate()


def test_config_rejects_non_finite_threshold_tol(monkeypatch):
    def never(*args):
        raise AssertionError("sampled before validation")

    monkeypatch.setattr(census_module, "_one_sample", never)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(InvalidParams, match="finite"):
            run_census(_cfg(threshold_tol=tol))
    _cfg(threshold_tol=0.0).validate()
    _cfg(threshold_tol=0.0).validate()


def test_aggregate_json_null_without_samples(monkeypatch, tmp_path):
    def fail(args):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(census_module, "_one_sample", fail)
    out = tmp_path / "c.csv"
    res = run_census(_cfg(samples=3), out_path=out)
    assert res.samples == 0 and res.failures == 3
    for text in (aggregate_json(res), (tmp_path / "c.csv.json").read_text()):
        agg = _strict_json(text)
        assert agg["mean"] is None and agg["failures"] == 3


def test_census_records_and_aggregates():
    res = run_census(_cfg())
    assert res.samples == 30 and res.failures == 0
    assert [r.sample for r in res.records] == list(range(30))
    counts = [r.count for r in res.records]
    assert res.mean == pytest.approx(np.mean(counts))
    assert all(r.count >= 1 for r in res.records)  # lambda1 = d always counted
    assert all(r.lambda1 == pytest.approx(4.0, abs=1e-9) for r in res.records)


def test_census_determinism_and_prefix(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    r1 = run_census(_cfg(samples=25), out_path=p1)
    r2 = run_census(_cfg(samples=25), out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert aggregate_json(r1) == aggregate_json(r2)

    p3 = tmp_path / "c.csv"
    run_census(_cfg(samples=50), out_path=p3)
    short = p1.read_text().splitlines()
    long = p3.read_text().splitlines()
    assert long[: len(short)] == short


def test_census_workers_match_serial():
    serial = run_census(_cfg(samples=16, workers=1))
    parallel = run_census(_cfg(samples=16, workers=2))
    assert records_csv(serial) == records_csv(parallel)


# the pool tests start at most two worker processes at a time
POOL_WORKERS = 2


def _pool_pids():
    return sorted(census_module._POOL._processes)


def _alive(pid):
    """pid is running: it exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _wait_dead(pids, timeout=30.0):
    """The pids still alive after up to `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if _alive(pid)]


@pytest.mark.parametrize("kw", [
    dict(model="cover", d=3, n=7, base_graph_text=serialize_graph(complete_graph(4))),
    dict(model="match", d=3, n=20),
    dict(model="perm", d=4, n=5000),    # above DENSE_EIG_LIMIT: Lanczos
], ids=["cover", "match", "perm-lanczos"])
def test_census_pool_csv_matches_serial(kw, tmp_path):
    runs = []
    for workers in (1, POOL_WORKERS):
        path = tmp_path / f"w{workers}.csv"
        seen = []
        res = run_census(
            CensusConfig(samples=5, master_seed=11, workers=workers, **kw),
            out_path=path, progress=seen.append,
        )
        assert res.failures == 0
        assert [r.sample for r in seen] == list(range(5))
        assert seen == res.records
        runs.append((path.read_bytes(), records_csv(res)))
    assert runs[0] == runs[1]
    assert runs[0][0].decode() == runs[0][1]


def test_census_records_do_not_depend_on_worker_count():
    # n = 30000 takes seeded Lanczos.  A workers=1 census runs in-process
    # with the caller's BLAS threads, the pool's workers with one each; the
    # records must agree to the last bit, not only in the CSV's 12 digits
    kw = dict(model="perm", d=4, n=30_000, samples=4, master_seed=1)
    serial = run_census(CensusConfig(workers=1, **kw))
    pooled = run_census(CensusConfig(workers=POOL_WORKERS, **kw))
    assert serial.failures == 0
    assert serial.records == pooled.records


def test_census_pool_is_reused():
    run_census(_cfg(samples=4, workers=POOL_WORKERS))
    first = _pool_pids()
    run_census(_cfg(samples=6, workers=POOL_WORKERS))
    assert _pool_pids() == first
    assert len(first) == POOL_WORKERS


def test_census_pool_workers_have_one_blas_thread():
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
    census_module._discard_pool()
    before = [os.getenv(name) for name in names]
    run_census(_cfg(samples=4, workers=POOL_WORKERS))
    # a fresh pool was built, and the caller's environment is as it was
    assert [os.getenv(name) for name in names] == before
    assert set(census_module._POOL.map(os.getenv, names * 4)) == {"1"}


def test_census_broken_pool_raises_then_recovers():
    run_census(_cfg(samples=4, workers=POOL_WORKERS))
    victim = _pool_pids()[0]
    os.kill(victim, signal.SIGKILL)
    assert _wait_dead([victim]) == []
    with pytest.raises(BrokenProcessPool):
        run_census(_cfg(samples=8, workers=POOL_WORKERS))
    assert census_module._POOL is None
    parallel = run_census(_cfg(samples=8, workers=POOL_WORKERS))
    assert victim not in _pool_pids()
    assert parallel.failures == 0
    assert records_csv(parallel) == records_csv(run_census(_cfg(samples=8)))


POOL_SCRIPT = """\
import os, signal, sys
import multiprocessing.forkserver
from nbzeta import CensusConfig, census, run_census

if __name__ == "__main__":
    run_census(CensusConfig(model="perm", d=4, n=20, samples=4,
                            master_seed=1, workers=2))
    pids = sorted(census._POOL._processes)
    pids.append(multiprocessing.forkserver._forkserver._forkserver_pid)
    print(*pids, flush=True)
    if sys.argv[1] == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.parametrize("ending", ["exit", "kill"])
def test_census_pool_ends_with_its_script(ending, tmp_path):
    # the workers and the forkserver end with the script, even on SIGKILL
    script = tmp_path / "census_script.py"
    script.write_text(POOL_SCRIPT)
    src = str(Path(census_module.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the output ends when every process holding the pipe has ended
    done = subprocess.run(
        [sys.executable, str(script), ending], env=env,
        stdout=subprocess.PIPE, text=True, timeout=60,
    )
    pids = [int(p) for p in done.stdout.split()]
    assert len(pids) == POOL_WORKERS + 1
    assert _wait_dead(pids) == []


def test_census_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    run_census(_cfg(samples=3), out_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample,seed,count,lambda1,lambda2"
    assert len(lines) == 4
    agg = json.loads((tmp_path / "out.csv.json").read_text())
    assert set(agg) == {
        "config", "mean", "stderr", "samples", "failures", "failure_reasons"
    }
    assert agg["failure_reasons"] == {}
    assert agg["samples"] == 3


def test_census_strict_mode_consistent_with_classifier():
    cfg = _cfg(mode="strict_nonramanujan", n=24, samples=12)
    res = run_census(cfg)
    for rec in res.records:
        g = sample_permutation_model(24, 4, rec.seed)
        nr = classify_non_ramanujan(g)
        _, st, _ = default_tolerances(4)
        thr = 2 * math.sqrt(3)
        at_thr = int(np.sum(np.abs(adjacency_spectrum(g) - thr) <= st))
        assert rec.count == nr.a_positive + at_thr


def test_census_modes_relate():
    # at2sqrt counts strict window plus threshold hits plus eigenvalues near d
    at = run_census(_cfg(samples=20, mode="at_least_2sqrt"))
    st = run_census(_cfg(samples=20, mode="strict_nonramanujan"))
    for a, s in zip(at.records, st.records):
        assert a.count >= s.count + 1  # lambda1 = 4 itself


def test_census_cover_runs():
    base_text = serialize_graph(build_bouquet(2, 0))
    cfg = CensusConfig(
        model="cover", d=4, n=16, samples=10, master_seed=3,
        base_graph_text=base_text,
    )
    res = run_census(cfg)
    assert res.samples == 10
    # new spectrum has (n-1)|V_B| = 15 values; count can be 0 here
    assert all(0 <= r.count <= 15 for r in res.records)


def test_census_cover_matches_perm_distribution():
    # same model by construction: compare means at matched sample counts
    base_text = serialize_graph(build_bouquet(2, 0))
    S = 250
    cover = run_census(
        CensusConfig(model="cover", d=4, n=40, samples=S, master_seed=11,
                     base_graph_text=base_text)
    )
    perm = run_census(CensusConfig(model="perm", d=4, n=40, samples=S,
                                   master_seed=12))
    # cover counts exclude the base spectrum (the trivial eigenvalue 4),
    # perm counts include it
    diff = (cover.mean + 1.0) - perm.mean
    sigma = math.hypot(cover.stderr, perm.stderr)
    assert abs(diff) <= 3.5 * sigma


K4_TEXT = serialize_graph(complete_graph(4))

# SHA-256 of records_csv for 12 samples at master seed 5, one per config;
# records are byte-identical whichever route counts them
PINNED_CSV = [
    (dict(model="perm", d=4, n=20),
     "4f778085a59d5d659c8b6c71b0dea99e8cb4b33fbe9b970ff7e16c340969354a"),
    (dict(model="perm", d=4, n=20, mode="strict_nonramanujan"),
     "71f8290d29e5eb7ec7a212dc52d8a19a423f76ab9ef1eec2a2d299268697f0bc"),
    (dict(model="cycle", d=4, n=20),
     "0bb5e245fc944d4b877b268f97d3ecc7395e0770b723c1ba3353f59c1f2acc31"),
    (dict(model="match", d=3, n=20),
     "3210a662c79f2f7af0e44a3dfb040ed9124c4bdaefb4c69bcf29a8cc02465159"),
    (dict(model="cover", d=3, n=7, base_graph_text=K4_TEXT),
     "0f15825ed8ef2b36e725142002144e5e3847a42e73f6cf66a1dd45a14e4ebe0c"),
    (dict(model="cover", d=3, n=7, base_graph_text=K4_TEXT,
          mode="strict_nonramanujan"),
     "0f15825ed8ef2b36e725142002144e5e3847a42e73f6cf66a1dd45a14e4ebe0c"),
    (dict(model="cover", d=4, n=9,
          base_graph_text=serialize_graph(build_bouquet(2, 0))),
     "b48283ce4464cec9a4d79850677c0821e1a812813ed52a3b5dd2b4b1775c6bd1"),
    (dict(model="cover", d=4, n=9, mode="strict_nonramanujan",
          base_graph_text=serialize_graph(build_bouquet(2, 0))),
     "a73d8c06e1a2d1334a4e30bde3b0904046c044ef09ada4291d91a2f68513cffa"),
    # odd n: one half-loop upstairs per base half-loop
    (dict(model="cover", d=3, n=11,
          base_graph_text=serialize_graph(build_bouquet(0, 3))),
     "a7da6212a98a741a2f8edebbc64273bb8353559bdf2b52e2833f3984f7068499"),
    (dict(model="cover", d=3, n=11, mode="strict_nonramanujan",
          base_graph_text=serialize_graph(build_bouquet(0, 3))),
     "6b92634033616643d07e7f3b0ccc582eb9fb0f3c08c0f84bc79bb4ea18487c63"),
]


@pytest.mark.parametrize("kw, digest", PINNED_CSV)
def test_census_csv_pinned(kw, digest):
    res = run_census(CensusConfig(samples=12, master_seed=5, **kw))
    assert res.failures == 0
    assert hashlib.sha256(records_csv(res).encode()).hexdigest() == digest


def _oracle_count(vals, mode, d):
    """The census count over an explicit list of eigenvalues."""
    threshold = 2 * math.sqrt(d - 1)
    _, special_tol, tol = default_tolerances(d)
    vals = np.asarray(vals)
    if mode == "at_least_2sqrt":
        return int(np.sum(vals >= threshold - tol))
    in_window = (vals > threshold + special_tol) & (vals < d - special_tol)
    at_threshold = np.abs(vals - threshold) <= special_tol
    return int(np.sum(in_window) + np.sum(at_threshold))


@pytest.mark.parametrize("mode", ["at_least_2sqrt", "strict_nonramanujan"])
@pytest.mark.parametrize("base, n", [
    (complete_graph(4), 6),
    (petersen_graph(), 4),
    (build_bouquet(2, 0), 9),
    (build_bouquet(0, 3), 7),
    (build_bouquet(1, 1), 9),
])
def test_census_cover_counts_new_spectrum(base, n, mode):
    # the count of a cover is that of its new adjacency spectrum, the
    # total spectrum less the base's, matched here by new_spectra
    d = regularity(base)
    res = run_census(CensusConfig(
        model="cover", d=d, n=n, samples=8, master_seed=23, mode=mode,
        base_graph_text=serialize_graph(base),
    ))
    assert res.samples == 8
    for rec in res.records:
        new_adj, _ = new_spectra(sample_cover(base, n, rec.seed))
        assert rec.count == _oracle_count(new_adj, mode, d)


def test_census_cover_does_not_call_new_spectra(monkeypatch):
    def refuse(*args):
        raise AssertionError("new_spectra called")

    monkeypatch.setattr(census_module, "new_spectra", refuse)
    res = run_census(_cfg(model="cover", d=3, n=6, samples=5, base_graph_text=K4_TEXT))
    assert res.samples == 5 and res.failures == 0


def test_census_parses_cover_base_once(monkeypatch):
    calls = []
    real = census_module.parse_graph

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(census_module, "parse_graph", counting)
    run_census(_cfg(model="cover", d=3, n=6, samples=5, base_graph_text=K4_TEXT))
    assert calls == [K4_TEXT]


def test_census_cover_above_dense_limit():
    # 1025 sheets over K4: 4100 total vertices, past DENSE_EIG_LIMIT
    res = run_census(_cfg(model="cover", d=3, n=1025, samples=2, master_seed=4,
                          base_graph_text=K4_TEXT))
    assert res.failures == 0 and res.samples == 2
    assert all(abs(r.lambda1 - 3.0) < 1e-6 for r in res.records)


def _prism(k):
    """C_k x K_2: two k-cycles joined by a perfect matching, 3-regular."""
    i = np.arange(k)
    return graph_from_pairs(
        2 * k,
        np.concatenate([i, k + i, i]),
        np.concatenate([(i + 1) % k, k + (i + 1) % k, k + i]),
    )


def _cover_lanczos_against_dense(cfg, monkeypatch, dense_workers=1):
    """(Lanczos, dense) censuses of a workers=1 cover config: Lanczos
    forced by a dense limit of 64 vertices, and each total must reach the
    new-spectrum walk once per sample."""
    dense = run_census(dataclasses.replace(cfg, workers=dense_workers))
    calls = []
    real = census_module.top_new_adjacency_eigenvalues

    def counting(c, *args, **kw):
        calls.append(c.total.vertex_count)
        return real(c, *args, **kw)

    monkeypatch.setattr(census_module, "top_new_adjacency_eigenvalues", counting)
    monkeypatch.setattr(census_module, "DENSE_EIG_LIMIT", 64)
    sparse = run_census(cfg)
    base = parse_graph(cfg.base_graph_text)
    assert calls == [cfg.n * base.vertex_count] * cfg.samples
    assert sparse.failures == 0
    assert [r.count for r in sparse.records] == [r.count for r in dense.records]
    for s, d in zip(sparse.records, dense.records):
        assert abs(s.lambda1 - d.lambda1) <= 1e-8
    return sparse, dense


def test_census_cover_lanczos_matches_dense(monkeypatch):
    cfg = _cfg(model="cover", d=3, n=30, samples=6, master_seed=9,
               base_graph_text=K4_TEXT)
    _cover_lanczos_against_dense(cfg, monkeypatch)


def _prism(k):
    """C_k x K_2: two k-cycles joined by a perfect matching, 3-regular."""
    i = np.arange(k)
    return graph_from_pairs(
        2 * k,
        np.concatenate([i, k + i, i]),
        np.concatenate([(i + 1) % k, k + (i + 1) % k, k + i]),
    )


def test_census_cover_lanczos_base_eigenvalue_twice(monkeypatch):
    # the prism's lambda = 1 + 2 cos(pi/10) = 2.902 >= 2 sqrt 2 is double;
    # a single Lanczos start on the total resolves one copy of it, so the
    # counts went below zero before the walk ran on the new spectrum alone
    cfg = _cfg(model="cover", d=3, n=30, samples=8, master_seed=1,
               base_graph_text=serialize_graph(_prism(20)))
    # the dense census of 1200-vertex totals runs faster on the pool, one
    # BLAS thread per eigvalsh
    sparse, dense = _cover_lanczos_against_dense(cfg, monkeypatch, POOL_WORKERS)
    assert all(r.count >= 0 for r in sparse.records)
    for s, d in zip(sparse.records, dense.records):
        assert abs(s.lambda2 - d.lambda2) <= 1e-6


def test_section8_table_shape():
    row = reproduce_section8("G4_100", samples_override=60, seed=5)
    assert row.paper_mean == 1.2681
    assert row.samples == 60
    text = section8_table([row])
    assert "G4_100" in text and "perm" in text
    with pytest.raises(InvalidParams):
        reproduce_section8("G9_17")


def test_section8_rejects_zero_samples(monkeypatch):
    # an override of 0 must reach validation, not fall back to the
    # paper's 10,000 samples
    real = census_module.run_census

    def spy(config, *args, **kwargs):
        assert config.samples == 0, f"ran {config.samples} samples"
        return real(config, *args, **kwargs)

    monkeypatch.setattr(census_module, "run_census", spy)
    with pytest.raises(InvalidParams):
        reproduce_section8("G4_100", samples_override=0)


def test_census_sparse_path_deterministic():
    # vertex counts beyond the dense limit go through seeded Lanczos; the
    # records must still be byte-identical across reruns
    cfg = _cfg(n=4200, samples=3, master_seed=17)
    r1 = run_census(cfg)
    r2 = run_census(cfg)
    assert records_csv(r1) == records_csv(r2)
    assert all(r.count >= 1 for r in r1.records)
    assert all(abs(r.lambda1 - 4.0) < 1e-6 for r in r1.records)


def test_disconnection_visible_in_records_at_order_1_over_n():
    # a permutation-model sample on n vertices is disconnected with
    # probability about 1/n, and a disconnected sample shows lambda2
    # at the top eigenvalue d; the records must expose this
    res = run_census(_cfg(n=100, samples=1500, master_seed=31))
    near_d = sum(1 for r in res.records if r.lambda2 > 4 - 1e-8)
    # expectation ~15; allow a generous band around the 1/n order
    assert 2 <= near_d <= 50
    # disconnected samples carry the extra top eigenvalue in their count
    for r in res.records:
        if r.lambda2 > 4 - 1e-8:
            assert r.count >= 2


def test_census_failures_are_counted_not_silent(monkeypatch):
    import nbzeta.census as census_mod

    real = census_mod._one_sample

    def flaky(task):
        if task[-1] == 2:
            raise RuntimeError("synthetic per-sample failure")
        return real(task)

    monkeypatch.setattr(census_mod, "_one_sample", flaky)
    res = run_census(_cfg(samples=6))
    assert res.failures == 1
    assert res.samples == 5
    assert [r.sample for r in res.records] == [0, 1, 3, 4, 5]
    reasons = {"RuntimeError('synthetic per-sample failure')": 1}
    assert res.failure_reasons == reasons
    assert json.loads(aggregate_json(res))["failure_reasons"] == reasons


def test_census_records_uncertain_count(monkeypatch):
    # a threshold exactly at lambda1 = d cannot be certified at any solver
    # tolerance; each sample's UncertainCount is a recorded failure reason
    real = census_module.top_adjacency_eigenvalues

    def at_top(g, threshold, seed):
        return real(g, 4.0, seed=seed)

    monkeypatch.setattr(census_module, "top_adjacency_eigenvalues", at_top)
    monkeypatch.setattr(census_module, "DENSE_EIG_LIMIT", 64)
    res = run_census(_cfg(n=100, samples=4))
    assert res.samples == 0 and res.failures == 4
    assert sum(res.failure_reasons.values()) == 4
    for reason in res.failure_reasons:
        # repr(UncertainCount(theta, residual, threshold))
        theta, residual, threshold = map(
            float, re.fullmatch(r"UncertainCount\((.+), (.+), (.+)\)", reason).groups()
        )
        assert threshold == 4.0 and abs(theta - 4.0) <= residual
