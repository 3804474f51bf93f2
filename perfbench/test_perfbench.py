"""Smoke-scale tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They check the floor and the checks against the program on small
operators, the seeded request mix, and that a short run of each entry
point prints exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import floor  # noqa: E402
import ladder  # noqa: E402
import measure  # noqa: E402
import repro  # noqa: E402
from spec import RTOL, WORKLOADS, Stream, percentile, tail_rank  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _scipy(a):
    import scipy.sparse as sp

    return sp.csr_array((a.data, a.indices, a.indptr), shape=(a.nrows, a.ncols))


@pytest.mark.parametrize(
    "dims, built",
    [((6, 5), repro.poisson2d(6, 5)), ((4, 3, 5), repro.poisson3d(4, 3, 5))],
)
def test_laplacian_matches_the_program_operator(dims, built):
    assert abs(floor.laplacian(*dims) - _scipy(built)).max() == 0.0


def test_floor_cg_takes_the_program_cg_steps():
    a = repro.poisson2d(12)
    b = np.random.default_rng(0).standard_normal(a.nrows)
    x, iterations = floor.cg(floor.laplacian(12, 12), b, RTOL)
    result = repro.solve(a, b, "cg", stop=repro.StoppingCriterion(rtol=RTOL))
    assert iterations == result.iterations
    assert floor.residual_ok(floor.laplacian(12, 12), b, x, RTOL)


def test_block_floor_solves_every_column():
    s = floor.laplacian(10, 10)
    b = np.random.default_rng(1).standard_normal((100, 4))
    b[:, 2] = 0.0  # a zero column is converged from the start
    x, sweeps = floor.block_cg(s, b, RTOL)
    assert sweeps > 0 and floor.residual_ok(s, b, x, RTOL)
    assert not np.any(x[:, 2])


def test_residual_check_rejects_a_wrong_answer():
    s = floor.laplacian(10, 10)
    b = np.random.default_rng(2).standard_normal(100)
    x, _ = floor.cg(s, b, RTOL)
    assert floor.residual_ok(s, b, x, RTOL)
    assert not floor.residual_ok(s, b, x * (1 + 1e-6), RTOL)
    assert not floor.residual_ok(s, b, np.full_like(x, np.nan), RTOL)


def test_streams_repeat_per_seed_and_keep_the_mix():
    workload = WORKLOADS["http_solve"]
    first = Stream(workload, 0, 7).next().b
    assert np.array_equal(first, Stream(workload, 0, 7).next().b)
    assert not np.array_equal(first, Stream(workload, 1, 7).next().b)
    stream = Stream(workload, 0, 7)
    sent = [stream.next() for _ in range(2 * workload.round_ops)]
    kinds = [r.kind for r in sent]
    assert kinds.count("repeat") == 24 and kinds.count("bad") == 2
    for i, request in enumerate(sent):
        if request.kind == "repeat":
            assert sent[i - 3].kind == "fresh" and request.b is sent[i - 3].b


def test_tail_percentile_has_ten_samples_beyond_it():
    for workload in WORKLOADS.values():
        n = workload.min_samples
        assert n - 1 - tail_rank(n, workload.tail_pct) >= 10
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0


def _names(section: str) -> set[str]:
    return {m["name"] for m in BENCHMARK[section]}


def _short(name: str):
    return dataclasses.replace(WORKLOADS[name], min_samples=1)


def test_gated_library_run_checks_every_solve():
    result = measure.run_library(_short("lib_vr_3d"), seed=2, seconds=0.0, setup_starts=1)
    assert set(result["metrics"]) == _names("end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert 100 < result["metrics"]["iterations_per_solve"]["value"] < 140


def test_gated_http_solve_run_counts_the_bad_option_slice():
    workload = _short("http_solve")
    result = measure.run_http(workload, seed=3, seconds=0.0, setup_starts=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == _names("end_to_end")
    assert result["correct"], result
    # One round: 50 requests per connection, one of them the bad option.
    assert result["attempted"] == 2 * workload.round_ops
    assert Fraction(result["failed"], result["attempted"]) in (0, Fraction(1, 50))
    assert 0 < result["metrics"]["iterations_per_solve"]["value"] < 100


def test_gated_batched_run_is_correct():
    result = measure.run_http(_short("http_batched"), seed=4, seconds=0.0, setup_starts=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert result["metrics"]["latency_x_floor.p50"]["value"] > 0


def test_traced_run_prints_every_layer_metric():
    result = ladder.run("http_batched", seed=5, seconds=0.0)
    assert set(result["metrics"]) == _names("per_layer")
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.matvecs_per_iter"] >= 1.0
    assert metrics["core.reductions_per_iter"] == pytest.approx(2 / 16, rel=0.05)
    assert metrics["service.coalesce_width.mean"] == 16


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "http_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
