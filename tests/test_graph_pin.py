"""Every explored graph of the benchmark corpora, pinned against a
fixture.

`test_match_pin.py` pins what the report prints; this file pins what
exploration hands to the matcher.  For every function of the three
workloads (seed 1) and every path it explores, the fixture
``fixtures/graph_pin.json`` holds the SHA-256 of
``graph.serialize()``, the ``result_ref`` and the rendered
``conditions``.  Node refs are part of the serialized form, so a change
to how many nodes the broker requests, or in what order, fails here
even when the report stays the same.  The corpora come from the
benchmark's own generator, `perfbench/corpus.py`, as in
`test_match_pin.py`.

After an intended change to node numbering, regenerate the fixture
with ``PYTHONPATH=src python tests/test_graph_pin.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from test_match_pin import SEED, WORKLOADS, _bench_corpus

from wherescrypto.symexec import Config, explore

PIN = Path(__file__).parent / "fixtures" / "graph_pin.json"


def pinned_graphs(workload: str) -> dict:
    bench = _bench_corpus()
    corpus = bench.generate(workload, SEED)
    config = Config(n=corpus.n, depth=bench.DEPTH, timeout=bench.TIMEOUT)
    out = {}
    for name in sorted(corpus.entries, key=corpus.entries.get):
        paths = explore(corpus.entries[name], corpus.image, config,
                        base=corpus.base)
        out[name] = [{
            "graph_sha256": hashlib.sha256(
                path.graph.serialize().encode()).hexdigest(),
            "result_ref": path.result_ref,
            "conditions": [[text, polarity]
                           for text, polarity in path.conditions],
        } for path in paths]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_explored_graphs_are_pinned(workload):
    want = json.loads(PIN.read_text())[workload]
    got = pinned_graphs(workload)
    assert sorted(got) == sorted(want)
    for name in want:
        assert len(got[name]) == len(want[name]), name
        for index, (g, w) in enumerate(zip(got[name], want[name])):
            assert g == w, f"{name}: path {index}"


if __name__ == "__main__":
    PIN.write_text(json.dumps(
        {w: pinned_graphs(w) for w in WORKLOADS}, indent=1) + "\n")
