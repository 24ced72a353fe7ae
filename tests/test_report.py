"""Batch orchestration and report emission."""

import hashlib
import json
import re
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wherescrypto.report as report_mod
from wherescrypto.report import (
    MalformedLineError,
    UnknownFormatError,
    analyze_binary,
    compute_totals,
    emit_report,
    load_entries,
    report_to_dict,
)
from wherescrypto.asm import assemble, label_addresses
from wherescrypto.matcher import match_signature
from wherescrypto.sigdsl import build_variant, parse
from wherescrypto.siglib import load_builtin, load_catalog, signature_source
from wherescrypto.symexec import FORK_CAP, Config

# A 4-round Galois-style LFSR with the feedback computed inline:
# bit = (state ^ (state >> 3)) & 1; state = bit | (state << 1).
LFSR_INLINE = """\
lfsr:
    mov r4, r0
    eor r0, r4, r4, lsr #3
    and r0, r0, #1
    orr r4, r0, r4, lsl #1
    eor r0, r4, r4, lsr #3
    and r0, r0, #1
    orr r4, r0, r4, lsl #1
    eor r0, r4, r4, lsr #3
    and r0, r0, #1
    orr r4, r0, r4, lsl #1
    eor r0, r4, r4, lsr #3
    and r0, r0, #1
    orr r4, r0, r4, lsl #1
    mov r0, r4
    bx lr
"""

# Same round, but the whole body lives in a subroutine, so nothing of
# the shift register survives unless the call gets inlined.
LFSR_CALLEE = """\
main:
    mov r5, lr
    mov r4, r0
    bl round
    bl round
    bl round
    bl round
    mov r0, r4
    bx r5
round:
    eor r0, r4, r4, lsr #3
    and r0, r0, #1
    orr r4, r0, r4, lsl #1
    bx lr
"""

LEAF = """\
leaf:
    add r0, r0, r1
    bx lr
"""

# Three chained compression rounds over blocks 64 bytes apart.
MDTOY = """\
mdtoy:
    ldr r2, [r0, #16]
    eor r1, r1, r2
    add r1, r1, r1, lsl #4
    ldr r2, [r0, #80]
    eor r1, r1, r2
    add r1, r1, r1, lsl #4
    ldr r2, [r0, #144]
    eor r1, r1, r2
    add r1, r1, r1, lsl #4
    mov r0, r1
    bx lr
"""


@pytest.fixture(scope="module")
def nlfsr_corpus():
    return {"nlfsr": load_builtin("nlfsr")}


@pytest.fixture(scope="module")
def lfsr_image():
    return assemble(LFSR_INLINE)


def strip(fn):
    """Fields of a FunctionResult that must be machine-independent."""
    return (fn.entry, fn.error, fn.graphs, fn.statuses, fn.signatures,
            fn.block_permutation)


# --- configuration -----------------------------------------------------

def test_config_defaults():
    # the exploration settings are the whole config: the fork cap is a
    # constant, and the output format never reaches the analysis
    config = Config()
    assert [f.name for f in fields(Config)] == ["n", "depth", "timeout"]
    assert (config.n, config.depth, config.timeout, FORK_CAP) == \
        (4, 2, 10.0, 64)
    rep = analyze_binary(b"", 0, [])
    assert rep.config == config
    body = json.loads(emit_report(rep, "json"))
    assert (body["schema"], body["config"]) == \
        (2, {"n": 4, "depth": 2, "timeout": 10.0})


# --- entry point files -------------------------------------------------

def entries_file(tmp_path, text):
    path = tmp_path / "entries.txt"
    path.write_text(text)
    return path


def test_load_entries_basic(tmp_path):
    path = entries_file(tmp_path, "0x1000\n0X1040\nAbC\n")
    assert load_entries(path) == [0xabc, 0x1000, 0x1040]


def test_load_entries_sorts_and_dedups(tmp_path):
    path = entries_file(tmp_path, "0x20\n0x10\n0x20\n10\n")
    assert load_entries(path) == [0x10, 0x20]


def test_load_entries_comments_and_blanks(tmp_path):
    path = entries_file(tmp_path, "# header\n\n0x30  # main\n")
    assert load_entries(path) == [0x30]


def test_load_entries_malformed(tmp_path):
    path = entries_file(tmp_path, "0x10\nxyz\n")
    with pytest.raises(MalformedLineError) as info:
        load_entries(path)
    assert info.value.line == 2
    assert "MALFORMED_LINE(2)" in str(info.value)
    # only ASCII hex digits after an optional 0x: int(text, 16) reads
    # each of these as a number
    for bad in ("+10", "-0", "1_0", "0x_10", "\uff11\uff10", "\u0661"):
        path.write_text(f"0x10\n{bad}\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as info:
            load_entries(path)
        assert info.value.line == 2, bad


def test_load_entries_rejects_negative(tmp_path):
    path = entries_file(tmp_path, "-4\n")
    with pytest.raises(MalformedLineError):
        load_entries(path)


_ENTRY_PIECES = ["0x", "0X", "-", "+", "_", "#", " ", "\t", "\n", "\r",
                 "\r\n", "\x00", "\x0c", "\u00a0", "\u0663", "1000",
                 "ffffffff", "g", "0x" + "f" * 600]


@pytest.fixture(scope="module")
def entries_path(tmp_path_factory):
    return tmp_path_factory.mktemp("entries") / "entries.txt"


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(st.sampled_from(_ENTRY_PIECES),
                       st.text(alphabet="0123456789abcdefABCDEF",
                               max_size=12),
                       st.text(max_size=3)),
             max_size=40).map(lambda parts: "".join(parts).encode())))
def test_load_entries_raises_only_documented_errors(entries_path, data):
    entries_path.write_bytes(data)
    try:
        got = load_entries(entries_path)
    except (MalformedLineError, UnicodeDecodeError):
        return
    assert got == sorted(set(got))
    assert all(isinstance(a, int) and a >= 0 for a in got)


# --- analysis ----------------------------------------------------------

def test_lfsr_is_matched(lfsr_image, nlfsr_corpus):
    rep = analyze_binary(lfsr_image, 0, [0], corpus=nlfsr_corpus)
    assert len(rep.functions) == 1
    fn = rep.functions[0]
    assert fn.error is None
    assert fn.statuses == ("COMPLETE",)
    (sig,) = fn.signatures
    assert sig.name == "nlfsr"
    assert sig.matched
    assert sig.graph_hits == (True,)
    assert sig.graph_index == 0
    assert sig.variant == "C"
    assert sig.mappings >= 1
    assert sig.assignment
    assert rep.totals["matched_functions"] == 1


def test_full_catalog_only_nlfsr_matches(lfsr_image):
    rep = analyze_binary(lfsr_image, 0, [0], corpus=load_catalog())
    fn = rep.functions[0]
    assert [s.name for s in fn.signatures] == \
        ["aes", "feistel", "md5", "nlfsr", "sha1", "xtea"]
    assert fn.matched_signatures == ("nlfsr",)


def test_matched_is_disjunction_of_graph_hits(lfsr_image):
    rep = analyze_binary(lfsr_image, 0, [0], corpus=load_catalog())
    for fn in rep.functions:
        for sig in fn.signatures:
            assert len(sig.graph_hits) == fn.graphs
            assert sig.matched == any(sig.graph_hits)


# both sides of the branch run the LFSR, on r0 or on r1
LFSR_BRANCHES = ("entry:\n    cmp r1, #0\n    beq plain\n"
                 "    mov r0, r1\nplain:\n") + LFSR_INLINE.split("\n", 1)[1]


def test_exemplar_comes_from_the_first_hitting_graph(nlfsr_corpus):
    # an analysis that keeps its graphs has the one the exemplar was
    # found in
    rep = analyze_binary(assemble(LFSR_BRANCHES), 0, [0],
                         corpus=nlfsr_corpus, keep_graphs=True)
    (fn,) = rep.functions
    (sig,) = fn.signatures
    assert fn.statuses == ("COMPLETE", "COMPLETE")
    assert sig.graph_hits == (True, True)
    assert sig.graph_index == 0
    variant = next(v for v in nlfsr_corpus["nlfsr"].variants
                   if v.name == sig.variant)
    found = match_signature(build_variant(variant), fn.dfgs[0])
    assert sig.mappings == len(found)
    assert sig.assignment == tuple(sorted(found[0].assignment.items()))
    assert sig.assignment != tuple(sorted(match_signature(
        build_variant(variant), fn.dfgs[1])[0].assignment.items()))


def test_totals_equal_function_aggregation(nlfsr_corpus):
    text = LFSR_INLINE + LEAF
    leaf_entry = label_addresses(text)["leaf"]
    rep = analyze_binary(assemble(text), 0, [0, leaf_entry],
                         corpus=nlfsr_corpus)
    assert rep.totals == compute_totals(rep.functions)
    assert rep.totals["functions"] == 2
    assert rep.totals["matched_functions"] == 1
    assert rep.totals["errors"] == 0


def test_callee_round_needs_inlining(nlfsr_corpus):
    image = assemble(LFSR_CALLEE)

    def matched(depth):
        config = Config(depth=depth)
        rep = analyze_binary(image, 0, [0], config, nlfsr_corpus)
        return rep.functions[0].signatures[0].matched

    assert not matched(0)
    assert matched(1)
    assert matched(2)


def test_block_permutation_confirmed():
    image = assemble(MDTOY)
    rep = analyze_binary(image, 0, [0], corpus={})
    fn = rep.functions[0]
    assert fn.signatures == ()
    confirmed = [r for r in fn.block_permutation if r.confirmed]
    assert len(confirmed) == 1
    record = confirmed[0]
    assert record.offsets == (16, 80, 144)
    assert record.anchor_symbol == "R0"
    assert record.path[-1] == ("rev", "LOAD")
    assert rep.totals["block_permutations_confirmed"] == 1


# Two rounds of a Feistel ladder behind a branch; the flattened XOR
# gives the depth-1 variant two embeddings, so which one the search
# reaches first is visible in the report.
LADDER = """\
ladder:
    cmp r2, #0
    beq plain
    add r1, r1, r2
plain:
    add r3, r1, #5
    eor r0, r0, r3
    eor r0, r0, r4
    add r3, r0, r0, lsl #4
    eor r1, r1, r3
    add r3, r1, r1, lsr #5
    eor r0, r0, r3
    bx lr
"""


def test_exemplar_golden_without_toolchain():
    report = analyze_binary(assemble(LADDER), 0, [0], Config())
    (fn,) = report.functions
    assert fn.statuses == ("COMPLETE", "COMPLETE")
    by_name = {s.name: s for s in fn.signatures}
    feistel = by_name.pop("feistel")
    assert feistel.graph_hits == (True, False)
    assert (feistel.graph_index, feistel.variant) == (0, "depth-1")
    assert feistel.mappings == 2
    assert feistel.assignment == ((0, 1), (1, 0), (2, 18), (3, 20),
                                  (4, 23), (5, 24))
    assert feistel.clamps == ()
    for s in by_name.values():
        assert (s.matched, s.graph_hits, s.mappings) == \
            (False, (False, False), 0)


def test_poisoned_function_is_isolated(nlfsr_corpus):
    text = LFSR_INLINE + LEAF + "poison:\n    .word 0xffffffff\n"
    image = assemble(text)
    labels = label_addresses(text)
    leaf_entry = labels["leaf"]
    poison_entry = labels["poison"]
    clean = analyze_binary(image, 0, [0, leaf_entry],
                           corpus=nlfsr_corpus)
    mixed = analyze_binary(image, 0, [0, poison_entry, leaf_entry],
                           corpus=nlfsr_corpus)
    assert strip(mixed.functions[0]) == strip(clean.functions[0])
    assert strip(mixed.functions[2]) == strip(clean.functions[1])
    bad = mixed.functions[1]
    assert bad.statuses == ("ABORTED",)
    assert not bad.matched_signatures


def test_exploration_error_is_recorded(monkeypatch, nlfsr_corpus):
    def boom(entry, image, config=None, base=0):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(report_mod, "explore", boom)
    rep = analyze_binary(b"\x00" * 8, 0, [0, 4], corpus=nlfsr_corpus)
    assert all(fn.error == "RuntimeError: injected failure"
               for fn in rep.functions)
    assert rep.totals["errors"] == 2
    assert rep.totals["matched_functions"] == 0


GOLDEN_BODY = Path(__file__).parent / "fixtures" / "report_body.json"


def golden_body() -> str:
    """The JSON body of a report with a matched exemplar, a block
    permutation record and a failed function, without `timestamp` and
    without `version`, which is the package's own and so would change
    the fixture on every release.

    After an intended change to the report body, regenerate the fixture
    with ``PYTHONPATH=src python tests/test_report.py``."""
    text = LADDER + MDTOY + LEAF
    labels = label_addresses(text)
    entries = [labels["ladder"], labels["mdtoy"], labels["leaf"]]
    real = report_mod.explore

    def explore(entry, image, config=None, base=0):
        if entry == labels["leaf"]:
            raise RuntimeError("injected failure")
        return real(entry, image, config, base=base)

    with mock.patch.object(report_mod, "explore", explore):
        rep = analyze_binary(assemble(text), 0, entries, Config(),
                             load_catalog())
    data = json.loads(emit_report(rep, "json"))
    assert data["version"] == report_mod.VERSION
    del data["timestamp"], data["version"]
    return json.dumps(data, indent=2) + "\n"


def test_json_body_golden():
    assert golden_body() == GOLDEN_BODY.read_text()


def test_empty_entries(nlfsr_corpus):
    rep = analyze_binary(b"", 0, [], corpus=nlfsr_corpus)
    assert rep.functions == ()
    assert rep.totals["functions"] == 0
    data = json.loads(emit_report(rep, "json"))
    assert data["functions"] == []
    assert data["schema"] == 2


# --- emission ----------------------------------------------------------

def test_json_deterministic_modulo_timestamp(lfsr_image, nlfsr_corpus):
    first = json.loads(emit_report(
        analyze_binary(lfsr_image, 0, [0], corpus=nlfsr_corpus), "json"))
    second = json.loads(emit_report(
        analyze_binary(lfsr_image, 0, [0], corpus=nlfsr_corpus), "json"))
    first.pop("timestamp")
    second.pop("timestamp")
    assert json.dumps(first, indent=2) == json.dumps(second, indent=2)


def test_text_summary(lfsr_image, nlfsr_corpus):
    rep = analyze_binary(lfsr_image, 0, [0], corpus=nlfsr_corpus)
    text = emit_report(rep, "text").decode()
    assert text.startswith("wherescrypto ")
    assert "function 0x0: 1 graph(s) [COMPLETE]" in text
    assert "nlfsr: MATCH variant=C graph=0" in text
    assert "totals:" in text


# Three loads 16 bytes apart from a computed base, each stored on its
# own: a path joins the first two loads only through their stores, and
# no path of the same shape joins the second and third, so the record
# stays unconfirmed and its anchor is a node, not a named input.
SPREAD = """\
spread:
    lsl r5, r0, #2
    ldr r1, [r5, #16]
    ldr r2, [r5, #32]
    ldr r3, [r5, #48]
    str r1, [r4]
    str r2, [r4, #4]
    str r3, [r4, #8]
    bx lr
"""


def test_text_block_permutation_records():
    text = MDTOY + SPREAD
    entries = label_addresses(text)
    rep = analyze_binary(assemble(text), 0,
                         [entries["mdtoy"], entries["spread"]], corpus={})
    (confirmed,), (unconfirmed,) = (
        fn.block_permutation for fn in rep.functions)
    assert confirmed.confirmed and not unconfirmed.confirmed
    assert unconfirmed.anchor_symbol is None
    lines = emit_report(rep, "text").decode().splitlines()
    records = [line for line in lines if "block permutation" in line]
    assert records == [
        "  block permutation: confirmed anchor=R0 "
        "offsets=[0x10, 0x50, 0x90] graph=0",
        f"  block permutation: unconfirmed anchor=node{unconfirmed.anchor} "
        "offsets=[0x10, 0x20, 0x30] graph=0"]
    assert "block_permutations_confirmed=1" in lines[-2]


def test_only_a_dot_analysis_keeps_graphs(nlfsr_corpus):
    # an analysis that keeps no graph cannot be drawn, though its JSON
    # body is the same; the DOT of one that keeps them is pinned
    # by its hash (both graphs, the exemplar's nodes filled)
    image = assemble(LFSR_BRANCHES)
    bare = analyze_binary(image, 0, [0], corpus=nlfsr_corpus)
    assert [fn.dfgs for fn in bare.functions] == [()]
    with pytest.raises(ValueError):
        emit_report(bare, "dot")
    rep = analyze_binary(image, 0, [0], corpus=nlfsr_corpus,
                         keep_graphs=True)
    bodies = [report_to_dict(r) for r in (bare, rep)]
    for body in bodies:
        body.pop("timestamp")
    assert bodies[0] == bodies[1]
    assert [len(fn.dfgs) for fn in rep.functions] == [2]
    assert hashlib.sha256(emit_report(rep, "dot")).hexdigest() == \
        "d6a410aad92dd37cbfe98f2a9a530c0e3bdc4cd1953940970e7df324e8a4bdba"


def test_dot_counts_nodes_and_edges():
    image = assemble("and r0, r0, #255\nbx lr\n")
    rep = analyze_binary(image, 0, [0], corpus={}, keep_graphs=True)
    dot = emit_report(rep, "dot").decode()
    assert dot.count("digraph") == 1
    node_lines = re.findall(r"^  n\d+ \[", dot, flags=re.M)
    edge_lines = re.findall(r"->", dot)
    assert len(node_lines) == 3
    assert len(edge_lines) == 2
    assert 'label="0xff"' in dot
    assert 'label="R0"' in dot


def test_dot_annotates_matched_nodes(lfsr_image, nlfsr_corpus):
    rep = analyze_binary(lfsr_image, 0, [0], corpus=nlfsr_corpus,
                         keep_graphs=True)
    dot = emit_report(rep, "dot").decode()
    assert 'match="nlfsr/C"' in dot
    assert "fillcolor" in dot


def test_dot_escapes_quotes_and_backslashes(lfsr_image):
    # a header name may hold any printable character
    source = signature_source("nlfsr").replace(
        "VARIANT C\n", 'VARIANT a"b\\c\n')
    rep = analyze_binary(lfsr_image, 0, [0], corpus={"x": parse(source)},
                         keep_graphs=True)
    assert rep.functions[0].signatures[0].variant == 'a"b\\c'
    dot = emit_report(rep, "dot").decode()
    assert 'match="x/a\\"b\\\\c"' in dot
    # every quoted string ends at an unescaped quote
    quoted = r'"(?:[^"\\]|\\.)*"'
    attr = rf"\w+=(?:{quoted}|\w+)"
    for line in dot.splitlines()[1:-1]:
        assert re.fullmatch(rf"  n\d+ \[{attr}(?:, {attr})*\];|"
                            r"  n\d+ -> n\d+;", line), line


def test_unknown_format(lfsr_image, nlfsr_corpus):
    rep = analyze_binary(lfsr_image, 0, [0], corpus=nlfsr_corpus)
    with pytest.raises(UnknownFormatError):
        emit_report(rep, "yaml")


if __name__ == "__main__":
    GOLDEN_BODY.write_text(golden_body())
