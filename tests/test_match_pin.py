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

from wherescrypto.report import AnalysisConfig, analyze_binary

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


def pinned_outcomes() -> dict:
    bench = _bench_corpus()
    corpus = bench.generate(WORKLOAD, SEED)
    config = AnalysisConfig(n=corpus.n, depth=bench.DEPTH,
                            timeout=bench.TIMEOUT)
    names = sorted(corpus.entries, key=corpus.entries.get)
    report = analyze_binary(corpus.image, corpus.base,
                            [corpus.entries[n] for n in names], config)
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


if __name__ == "__main__":
    PIN.write_text(json.dumps(pinned_outcomes(), indent=1) + "\n")
