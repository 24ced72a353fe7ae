"""Fast checks of the benchmark itself, on tiny corpora.

    python3 -m pytest perfbench -q
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
from tracing import BoundaryNeverFired, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def _untraced(workload: str) -> dict:
    return run.run(workload, 1, 0.01, False, corpus.TINY)


def _metrics_match(result: dict, declared: list[dict]) -> None:
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert got[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(got[metric["name"]]["value"], (int, float))


def test_workloads_match_the_generator():
    assert set(WORKLOADS) == set(corpus.WORKLOADS)


def test_every_kernel_is_labelled():
    labels = corpus.load_labels()
    for spec in corpus.WORKLOADS.values():
        assert set(spec.kernels) <= set(labels)


def test_same_seed_same_image():
    a = corpus.generate("crypto-unrolled", 7, corpus.TINY)
    b = corpus.generate("crypto-unrolled", 7, corpus.TINY)
    c = corpus.generate("crypto-unrolled", 8, corpus.TINY)
    assert a.image == b.image and a.entries == b.entries
    assert a.image != c.image


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    outcome = _untraced(workload)
    result, detail = outcome["result"], outcome["detail"]
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    _metrics_match(result, SPEC["end_to_end"])

    labels = corpus.load_labels()
    spec = corpus.WORKLOADS[workload]
    labelled = spec.copies * sum(
        len(labels[k]) * len(corpus.SINGLE_STYLE.get(k, corpus.STYLES))
        for k in spec.kernels)
    assert detail["missed_base"] == labelled
    assert 0 < result["metrics"]["label_agreement"]["value"] <= 1


def test_labels_decide_detections():
    mismatches = _untraced("crypto-unrolled")["detail"]["mismatches"]
    # detected in both styles: no mismatch entry
    for name in ("feistel4_a", "feistel4_b", "lfsr_a", "lfsr_b",
                 "md_toy_a", "md_toy_b", "rc2_add_a", "rc2_add_b"):
        assert name not in mismatches
    # the base-register AES table style is a known miss
    assert mismatches["aes_b"]["missed"] == ["aes"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    outcome = run.run(workload, 1, 0.01, True, corpus.TINY)
    result = outcome["result"]
    assert result["correct"], outcome["detail"]["problems"]
    _metrics_match(result, SPEC["per_layer"])


def test_unfired_boundary_fails_loudly():
    tracer = Tracer()
    with pytest.raises(BoundaryNeverFired):
        tracer.check_all_fired()


def test_tracer_restores_the_program():
    from wherescrypto import arm, report
    from wherescrypto.dfg import Dfg
    before = (report.match_signature, arm.decode, Dfg.request_load)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert (report.match_signature, arm.decode, Dfg.request_load) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
