"""Every explored graph of the benchmark corpora, pinned against a
fixture.

`test_match_pin.py` pins what the report prints; this file pins what
exploration hands to the matcher.  For every function of the three
workloads (seed 1) and every path it explores, the fixture
``fixtures/graph_pin.json`` holds the SHA-256 of
``graph.serialize()``, the ``result_ref``, the rendered ``conditions``
and ``shape_sha256``, the SHA-256 of the graph's
`helpers.canonical_form` with the canonical id of its result.  It also
holds what the path did: its ``status``, ``steps``, sorted ``flags``
and ``approx``, and its ``backlog`` of branch decisions by address, so
a step or a decision counted differently fails here too.  Node
refs are part of the serialized form, so a change to how many nodes
the broker requests, or in what order, fails here even when the report
stays the same.  The shape hash ignores numbering: a change that only
renumbers nodes regenerates the other fields and keeps every shape.
The corpora come from the benchmark's own generator,
`perfbench/corpus.py`, as in `test_match_pin.py`.

After an intended change to node numbering, regenerate the fixture
with ``PYTHONPATH=src python tests/test_graph_pin.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from helpers import canonical_form
from test_match_pin import SEED, WORKLOADS, _bench_corpus

from wherescrypto.dfg import Dfg, NodeKind
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
            "graph_sha256": _sha256(path.graph.serialize()),
            "result_ref": path.result_ref,
            "conditions": [[text, polarity]
                           for text, polarity in path.conditions],
            "shape_sha256": shape_sha256(path.graph, path.result_ref),
            "status": path.status.value,
            "steps": path.steps,
            "flags": sorted(path.flags),
            "approx": sorted(path.approx),
            "backlog": [[address, decisions] for address, decisions
                        in sorted(path.backlog.items())],
        } for path in paths]
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def shape_sha256(graph, result_ref) -> str:
    """SHA-256 of the graph's canonical form and the canonical id of
    its result (None for a path that did not complete)."""
    text, canon = canonical_form(graph)
    result = None if result_ref is None else canon[result_ref]
    return _sha256(f"{text}\nresult: {result}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_explored_graphs_are_pinned(workload):
    want = json.loads(PIN.read_text())[workload]
    got = pinned_graphs(workload)
    assert sorted(got) == sorted(want)
    for name in want:
        assert len(got[name]) == len(want[name]), name
        for index, (g, w) in enumerate(zip(got[name], want[name])):
            assert g == w, f"{name}: path {index}"


def _xor_of_sums(constant_first: bool) -> tuple[Dfg, int]:
    g = Dfg()
    if constant_first:
        g.request_constant(7)
        g.request_constant(99)             # a constant nothing uses
    a, b = g.request_input("a"), g.request_input("b")
    left = g.request_operation(NodeKind.ADD, (b, g.request_constant(7)))
    right = g.request_operation(NodeKind.SHL, (a, g.request_constant(3)))
    root = g.request_operation(NodeKind.XOR, (right, left))
    return g.purge([root]), root


def test_canonical_form_ignores_numbering():
    (g1, r1), (g2, r2) = _xor_of_sums(False), _xor_of_sums(True)
    assert g1.serialize() != g2.serialize()
    assert shape_sha256(g1, r1) == shape_sha256(g2, r2)
    text, canon = canonical_form(g1)
    assert text.splitlines() == [
        "0: CONST() [const=3]", "1: CONST() [const=7]",
        "2: INPUT() [symbol='a']", "3: INPUT() [symbol='b']",
        "4: ADD(1, 3) []", "5: SHL(2, 0) []", "6: XOR(4, 5) []"]
    assert canon[r1] == 6
    # the shape hash tells results apart, and the form keeps the
    # operand order of a kind that is not commutative
    assert shape_sha256(g1, r1) != shape_sha256(g1, g1.request_input("a"))
    assert _shift(False) != _shift(True)


def _shift(swap: bool) -> str:
    g = Dfg()
    a, three = g.request_input("a"), g.request_constant(3)
    g.request_operation(NodeKind.SHL, (three, a) if swap else (a, three))
    return canonical_form(g)[0]

if __name__ == "__main__":
    PIN.write_text(json.dumps(
        {w: pinned_graphs(w) for w in WORKLOADS}, indent=1) + "\n")
