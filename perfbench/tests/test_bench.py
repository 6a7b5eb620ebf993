"""Tests of the benchmark itself, at tiny scales.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from descmatch import evaluation, geometry, trainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "train-val": dict(n_train=6, epochs=2),
    "train-steps": dict(n_train=8, n_val=3, epochs=3),
    "eval": dict(n_train=10, n_val=2, epochs=2),
    "score-load": dict(n_train=30),
}


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_MIN_S", 0.0)


def tiny_run(name, tmp_path, trace=True, seed=3):
    wl = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    return workloads.run(wl, seed, 0.01, trace, tmp_path)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_each_workload_runs_and_passes_its_checks(name, tmp_path):
    result = tiny_run(name, tmp_path)
    assert result["failed"] == 0, result["checks"]
    assert all(c["ok"] for c in result["checks"])
    assert result["attempted"] >= 2  # untraced operations and one traced
    assert set(result["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(np.isfinite(v) and v > 0 for v in result["end_to_end"].values())


def test_flipped_sim_entry_is_caught(tmp_path, monkeypatch):
    original = geometry.sim_matrix

    def flipped(images, texts):
        out = original(images, texts)
        out[0, 0] = np.nextafter(out[0, 0], 2.0)
        return out

    monkeypatch.setattr(geometry, "sim_matrix", flipped)
    result = tiny_run("eval", tmp_path, trace=False)
    failed = {c["name"] for c in result["checks"] if not c["ok"]}
    assert "sim_matrix_equals_cosine_sim" in failed
    assert result["failed"] == result["attempted"]


def test_unreadable_output_fails_without_aborting(tmp_path, monkeypatch):
    original = evaluation.evaluate

    def without_dcorr(*args, **kwargs):
        report = original(*args, **kwargs)
        del report["d_corr"]
        return report

    monkeypatch.setattr(evaluation, "evaluate", without_dcorr)
    result = tiny_run("eval", tmp_path, trace=False)
    assert [c["name"] for c in result["checks"]] == ["outputs_readable"]
    assert result["failed"] == result["attempted"]


def test_sim_block_oracle_counts_one_flipped_bit():
    rng = np.random.default_rng(0)
    imgs = geometry.l2_normalize(rng.normal(size=(4, 8)))
    txts = geometry.l2_normalize(rng.normal(size=(6, 8)))
    sims = geometry.sim_matrix(imgs, txts)
    assert oracles.sim_block_mismatches(sims, imgs, txts, geometry.cosine_sim) == 0
    sims[2, 3] = np.nextafter(sims[2, 3], -2.0)
    assert oracles.sim_block_mismatches(sims, imgs, txts, geometry.cosine_sim) == 1


def test_recall_oracle_breaks_exact_ties_like_the_library():
    rng = np.random.default_rng(1)
    imgs = geometry.l2_normalize(rng.normal(size=(5, 8)))
    txts = geometry.l2_normalize(rng.normal(size=(15, 8)))
    txts[7] = txts[2]  # an exact tie in every row
    owners = np.repeat(np.arange(5), 3)
    levels = np.tile(np.arange(1, 4), 5)
    sims = geometry.sim_matrix(imgs, txts)
    want = oracles.recall_oracle(imgs, txts, owners, levels, geometry.cosine_sim)
    suite = evaluation.recall_suite(sims, owners)
    assert want["i2t"] == suite["i2t"] and want["t2i"] == suite["t2i"]
    assert want["rsum"] == evaluation.rsum(sims, owners)
    assert want["per_level_recall"] == evaluation.per_level_recall(sims, owners, levels)


def test_nondeterministic_artifacts_fail_the_operations(tmp_path, monkeypatch):
    original = trainer.train
    calls = []

    def drifting(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(1)
        result.params["b_img"][0] += 1e-12 * len(calls)
        return result

    monkeypatch.setattr(trainer, "train", drifting)
    result = tiny_run("train-val", tmp_path)
    assert result["failed"] >= 1
    assert result["per_layer"]["trainer.failed"] >= 1


def test_stored_digests_catch_drift_between_runs(tmp_path):
    first = tiny_run("score-load", tmp_path, trace=False)
    again = tiny_run("score-load", tmp_path, trace=False)
    assert first["failed"] == again["failed"] == 0
    assert first["op_digests"] == again["op_digests"]
    (store,) = (tmp_path / "digests").iterdir()
    record = json.loads(store.read_text())
    record["op"]["table"] = "0" * 64
    store.write_text(json.dumps(record))
    drifted = tiny_run("score-load", tmp_path, trace=False)
    assert drifted["cross_run_drift"] == ["table"]
    assert drifted["failed"] == drifted["attempted"]


def _patched_attributes():
    found = [getattr(m, a) for m, a, _, _ in tracing.TIMED + tracing.COUNTED]
    return found + list(trainer.LOSS_VARIANTS.values())


def test_wrappers_only_during_the_traced_operation(tmp_path, monkeypatch):
    originals = _patched_attributes()
    real_op, real_sim = workloads.op, geometry.sim_matrix
    wrapped = []

    def spy(wl, inputs):
        wrapped.append(geometry.sim_matrix is not real_sim)
        return real_op(wl, inputs)

    monkeypatch.setattr(workloads, "op", spy)
    result = tiny_run("train-steps", tmp_path)
    assert wrapped == [False] * (result["attempted"] - 1) + [True]
    assert all(a is b for a, b in zip(_patched_attributes(), originals))
    assert {s["run_id"] for s in result["spans"]} == {"setup", "op"}


@pytest.mark.parametrize("name", list(TINY))
def test_layer_counts_repeat_exactly(name, tmp_path):
    def counts(result):
        return {k: v for k, v in result["per_layer"].items()
                if not k.endswith("_s") and "share" not in k and "per_s" not in k}

    first = counts(tiny_run(name, tmp_path / "a"))
    assert first == counts(tiny_run(name, tmp_path / "b"))
    assert any(first.values())


def test_bare_checkout_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train-val",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
