"""Self-tests of the benchmark: each checker rejects a corrupted output, and
every workload runs end to end at tiny size.

    python3 -m pytest bench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from checks import (
    DAMP_GAP,
    CheckFailed,
    check_choi,
    check_curve,
    check_damp_sweep_csv,
    check_damp_verdict,
    check_density,
    damp_curves,
    kraus_apply,
)
from workloads import WORKLOADS, _check_invocation, projector, random_channel, random_pure

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_choi_with_a_negative_eigenvalue_is_rejected(rng):
    kraus = random_channel(rng, 2, 3, 2)
    sources = [projector(random_pure(rng, 2)) for _ in range(2)]
    targets = [kraus_apply(kraus, s) for s in sources]
    w = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in kraus)
    check_choi(w, 2, 3, sources, targets)

    lam, v = np.linalg.eigh(w)
    lam[0] = -1e-3  # rank 2 of 6: lam[0] was zero
    bad = (v * lam) @ v.conj().T
    with pytest.raises(CheckFailed, match="PSD"):
        check_choi(bad, 2, 3, sources, targets)


def test_choi_missing_a_target_is_rejected(rng):
    kraus = random_channel(rng, 2, 2, 2)
    sources = [projector(random_pure(rng, 2)) for _ in range(2)]
    targets = [kraus_apply(kraus, s) for s in sources]
    w = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in kraus)
    targets[1] = projector(random_pure(rng, 2))
    with pytest.raises(CheckFailed, match="target 1"):
        check_choi(w, 2, 2, sources, targets)


def test_shifted_curve_is_rejected(rng):
    p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    s = np.geomspace(1e-3, 1e3, 50)
    norms = np.abs(p[None, :] - s[:, None] * q[None, :]).sum(axis=1)
    check_curve(s, norms, p, q)
    with pytest.raises(CheckFailed):
        check_curve(s, norms + 1e-6, p, q)


def test_damp_csv_with_a_shifted_row_is_rejected():
    s = np.linspace(0.0, 3.0, 20)
    exc, ent = damp_curves(0.5, s)
    rows = ["input,member_plus,member_minus,s,norm,is_breakpoint"]
    rows += [f"excited,a,b,{x},{y},0" for x, y in zip(s.tolist(), exc.tolist())]
    rows += [f"entangled,a,b,{x},{y},0" for x, y in zip(s.tolist(), ent.tolist())]
    assert check_damp_sweep_csv("\n".join(rows) + "\n") == 40
    rows[3] = rows[3].replace(f",{exc[2]},", f",{exc[2] + 1e-6},")
    with pytest.raises(CheckFailed):
        check_damp_sweep_csv("\n".join(rows) + "\n")


def test_report_with_a_changed_gap_is_rejected(tmp_path):
    report = {"command": "compare", "relation": "incomparable", "witness_s": 0.5,
              "gap": float(f"{DAMP_GAP:.12g}"), "method": "sweep-necessary"}
    (tmp_path / "compare-report.json").write_text(json.dumps(report))
    _check_invocation("compare", "preset:damp-counterexample", tmp_path)
    report["gap"] += 1e-6
    (tmp_path / "compare-report.json").write_text(json.dumps(report))
    with pytest.raises(CheckFailed, match="gap"):
        _check_invocation("compare", "preset:damp-counterexample", tmp_path)
    with pytest.raises(CheckFailed):
        check_damp_verdict("dominated", 0.5, DAMP_GAP)


def test_density_with_trace_101_is_rejected(rng):
    rho = projector(random_pure(rng, 8))
    check_density(rho)
    with pytest.raises(CheckFailed, match="trace"):
        check_density(1.01 * rho)
    lam, v = np.linalg.eigh(rho)
    lam[0], lam[-1] = -1e-3, lam[-1] + 1e-3
    with pytest.raises(CheckFailed, match="semidefinite"):
        check_density((v * lam) @ v.conj().T)


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_at_tiny_size(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep-verdicts", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
