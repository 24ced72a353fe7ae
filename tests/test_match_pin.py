"""Signature matching on large graphs, pinned against a fixture.

The benchmark's `crypto-unrolled` corpus (seed 1) gives graphs of
hundreds of nodes, which the exhaustive oracle cannot reach.  Every
function's outcome per signature document (graph hits, exemplar
variant, mapping count and exemplar assignment) is compared with
``fixtures/match_pin.json``.  The corpus comes from the benchmark's own
generator, `perfbench/corpus.py`, so the two cannot drift apart.

After an intended change to lifting or matching, regenerate the fixture
with ``PYTHONPATH=src python tests/test_match_pin.py``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from wherescrypto.report import (AnalysisConfig, analyze_binary,
                                 report_to_dict)
from wherescrypto.sigdsl import _build, build_variant
from wherescrypto.siglib import load_catalog

ROOT = Path(__file__).resolve().parent.parent
PIN = Path(__file__).parent / "fixtures" / "match_pin.json"
WORKLOAD = "crypto-unrolled"
SEED = 1


def _bench_corpus():
    name = "perfbench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "corpus.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up while the class is built
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _scan():
    """The function names in entry order, and the report of one scan
    over them with the built-in catalog."""
    bench = _bench_corpus()
    corpus = bench.generate(WORKLOAD, SEED)
    config = AnalysisConfig(n=corpus.n, depth=bench.DEPTH,
                            timeout=bench.TIMEOUT)
    names = sorted(corpus.entries, key=corpus.entries.get)
    return names, analyze_binary(corpus.image, corpus.base,
                                 [corpus.entries[n] for n in names], config)


def pinned_outcomes() -> dict:
    names, report = _scan()
    out = {}
    for name, function in zip(names, report.functions):
        assert function.error is None, f"{name}: {function.error}"
        out[name] = {
            sig.name: {"graph_hits": list(sig.graph_hits),
                       "variant": sig.variant,
                       "mappings": sig.mappings,
                       "assignment": [list(p) for p in sig.assignment]}
            for sig in function.signatures}
    return out


def test_large_graph_matches_are_pinned():
    want = json.loads(PIN.read_text())
    got = pinned_outcomes()
    assert sorted(got) == sorted(want)
    for name in want:
        assert sorted(got[name]) == sorted(want[name]), name
        for doc in want[name]:
            assert got[name][doc] == want[name][doc], f"{name}: {doc}"


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
    PIN.write_text(json.dumps(pinned_outcomes(), indent=1) + "\n")
