"""Per-function outcomes on the benchmark corpora, pinned against a
fixture.

The benchmark's three workloads (seed 1) give graphs of up to hundreds
of nodes, which the exhaustive oracle cannot reach, forking functions
with many graphs, and loops that fold to constants.  For every function
the path statuses, the block-permutation records and the outcome per
signature document (graph hits, exemplar variant, mapping count and
exemplar assignment) are compared with ``fixtures/match_pin.json``.
The corpora come from the benchmark's own generator,
`perfbench/corpus.py`, so the two cannot drift apart.  The same scans
are scored against the hand-written labels with the benchmark's own
`perfbench/run.py`, so the pinned label table and the benchmark's
``label_agreement`` cannot drift apart either.

After an intended change to lifting or matching, regenerate the fixture
with ``PYTHONPATH=src python tests/test_match_pin.py``.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from wherescrypto.report import analyze_binary, report_to_dict
from wherescrypto.sigdsl import _build, build_variant
from wherescrypto.siglib import load_catalog
from wherescrypto.symexec import Config

ROOT = Path(__file__).resolve().parent.parent
PIN = Path(__file__).parent / "fixtures" / "match_pin.json"
WORKLOADS = ("crypto-unrolled", "branch-fanout", "selftest-loops")
SEED = 1


def _perfbench(module: str):
    """``perfbench/<module>.py``, loaded once per process."""
    name = f"perfbench_{module}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / f"{module}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up while the class is built
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _bench_corpus():
    return _perfbench("corpus")


def _scan(workload: str = "crypto-unrolled", seed: int = SEED):
    """The function names in entry order, and the report of one scan
    over them with the built-in catalog."""
    bench = _bench_corpus()
    corpus = bench.generate(workload, seed)
    config = Config(n=corpus.n, depth=bench.DEPTH, timeout=bench.TIMEOUT)
    names = sorted(corpus.entries, key=corpus.entries.get)
    return names, analyze_binary(corpus.image, corpus.base,
                                 [corpus.entries[n] for n in names], config)


@functools.cache
def _report(workload: str, seed: int = SEED) -> tuple[list[str], dict]:
    """`_scan`, with the report as a dict, once per process; callers
    only read it."""
    names, report = _scan(workload, seed)
    return names, report_to_dict(report)


def pinned_outcomes(workload: str) -> dict:
    names, report = _report(workload)
    functions = report["functions"]
    out = {}
    for name, function in zip(names, functions):
        assert function["error"] is None, f"{name}: {function['error']}"
        out[name] = {
            "statuses": function["statuses"],
            "block_permutation": function["block_permutation"],
            "signatures": {
                sig["name"]: {key: sig[key] for key in
                              ("graph_hits", "variant", "mappings",
                               "assignment")}
                for sig in function["signatures"]}}
    return out


def _check_pinned(workload: str) -> None:
    want = json.loads(PIN.read_text())[workload]
    got = pinned_outcomes(workload)
    assert sorted(got) == sorted(want)
    for name in want:
        assert sorted(got[name]) == sorted(want[name]), name
        for part in ("statuses", "block_permutation"):
            assert got[name][part] == want[name][part], f"{name}: {part}"
        signatures = want[name]["signatures"]
        assert sorted(got[name]["signatures"]) == sorted(signatures), name
        for doc in signatures:
            assert got[name]["signatures"][doc] == signatures[doc], \
                f"{name}: {doc}"


def test_large_graph_matches_are_pinned():
    _check_pinned("crypto-unrolled")


def test_forking_function_outcomes_are_pinned():
    _check_pinned("branch-fanout")


def test_folded_loop_outcomes_are_pinned():
    _check_pinned("selftest-loops")


#: Functions whose findings differ from their labels in
#: ``perfbench/labels.json``; a fix fails here as a regression does.
LABEL_MISMATCHES = {
    "crypto-unrolled": {
        "aes_b": {"missed": ["aes"], "false": []},
        "md5_a": {"missed": [], "false": ["feistel"]},
        "md5_b": {"missed": [], "false": ["feistel"]},
        "xtea_a": {"missed": ["feistel"], "false": []},
        "xtea_b": {"missed": ["feistel"], "false": []},
    },
    "branch-fanout": {},
    "selftest-loops": {
        "crc32_check_a": {"missed": ["nlfsr"], "false": []},
        "crc32_check_b": {"missed": ["nlfsr"], "false": []},
    },
}
LABEL_AGREEMENT = {"crypto-unrolled": 20 / 21, "branch-fanout": 1.0,
                   "selftest-loops": 27 / 28}


@pytest.mark.parametrize("seed", (SEED, 97))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_label_agreement_is_pinned(workload, seed):
    bench = _bench_corpus()
    _, report = _report(workload, seed)
    found = _perfbench("run")._detections(
        report, bench.generate(workload, seed), bench.load_labels())
    assert found["mismatches"] == LABEL_MISMATCHES[workload]
    assert found["label_agreement"] == pytest.approx(
        LABEL_AGREEMENT[workload], abs=1e-12)


def test_shared_signature_graphs_are_never_changed():
    # every scan in a process matches with the same built-in graphs, so
    # a scan that changed one would change the scans after it
    _, first = _scan()
    matched = {s.name for f in first.functions for s in f.signatures
               if s.matched}
    assert {"aes", "feistel", "md5", "nlfsr", "xtea"} <= matched
    for doc in load_catalog().values():
        for variant in doc.variants:
            shared, fresh = build_variant(variant), _build(variant)
            assert shared is build_variant(variant)
            assert shared.graph.serialize() == fresh.graph.serialize()
            assert shared.clamp_labels == fresh.clamp_labels
            assert shared.transient_set == fresh.transient_set
    _, second = _scan()
    bodies = [report_to_dict(r) for r in (first, second)]
    for body in bodies:
        body.pop("timestamp")
    assert bodies[0] == bodies[1]


if __name__ == "__main__":
    PIN.write_text(json.dumps(
        {w: pinned_outcomes(w) for w in WORKLOADS}, indent=1) + "\n")
