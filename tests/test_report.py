"""Batch orchestration and report emission."""

import json
import re
from pathlib import Path

import pytest

import wherescrypto.report as report_mod
from wherescrypto.report import (
    AnalysisConfig,
    MalformedLineError,
    UnknownFormatError,
    analyze_binary,
    compute_totals,
    emit_report,
    load_entries,
)
from wherescrypto.asm import assemble, label_addresses
from wherescrypto.siglib import load_builtin, load_catalog

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
    config = AnalysisConfig()
    assert (config.n, config.depth, config.timeout, config.fork_cap) == \
        (4, 2, 10.0, 64)
    assert (config.signature_paths, config.output_format) == ((), "json")


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        AnalysisConfig(n=0)
    with pytest.raises(ValueError):
        AnalysisConfig(depth=-1)
    with pytest.raises(ValueError):
        AnalysisConfig(timeout=0)
    with pytest.raises(UnknownFormatError):
        AnalysisConfig(output_format="yaml")


# --- entry point files -------------------------------------------------

def entries_file(tmp_path, text):
    path = tmp_path / "entries.txt"
    path.write_text(text)
    return path


def test_load_entries_basic(tmp_path):
    path = entries_file(tmp_path, "0x1000\n0x1040\n")
    assert load_entries(path) == [0x1000, 0x1040]


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


def test_load_entries_rejects_negative(tmp_path):
    path = entries_file(tmp_path, "-4\n")
    with pytest.raises(MalformedLineError):
        load_entries(path)


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
        config = AnalysisConfig(depth=depth)
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
    report = analyze_binary(assemble(LADDER), 0, [0], AnalysisConfig())
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


def golden_body(monkeypatch) -> str:
    """The JSON body of a report with a matched exemplar, a block
    permutation record and a failed function, without `timestamp` and
    without `version` (which depends on how the package is installed)."""
    text = LADDER + MDTOY + LEAF
    labels = label_addresses(text)
    entries = [labels["ladder"], labels["mdtoy"], labels["leaf"]]
    real = report_mod.explore

    def explore(entry, image, config=None, base=0):
        if entry == labels["leaf"]:
            raise RuntimeError("injected failure")
        return real(entry, image, config, base=base)

    monkeypatch.setattr(report_mod, "explore", explore)
    config = AnalysisConfig(signature_paths=("sigs",))
    rep = analyze_binary(assemble(text), 0, entries, config, load_catalog())
    data = json.loads(emit_report(rep, "json"))
    del data["timestamp"], data["version"]
    return json.dumps(data, indent=2) + "\n"


def test_json_body_golden(monkeypatch):
    assert golden_body(monkeypatch) == GOLDEN_BODY.read_text()


def test_empty_entries(nlfsr_corpus):
    rep = analyze_binary(b"", 0, [], corpus=nlfsr_corpus)
    assert rep.functions == ()
    assert rep.totals["functions"] == 0
    data = json.loads(emit_report(rep, "json"))
    assert data["functions"] == []
    assert data["schema"] == 1


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


def test_dot_counts_nodes_and_edges():
    image = assemble("and r0, r0, #255\nbx lr\n")
    rep = analyze_binary(image, 0, [0], corpus={})
    dot = emit_report(rep, "dot").decode()
    assert dot.count("digraph") == 1
    node_lines = re.findall(r"^  n\d+ \[", dot, flags=re.M)
    edge_lines = re.findall(r"->", dot)
    assert len(node_lines) == 3
    assert len(edge_lines) == 2
    assert 'label="0xff"' in dot
    assert 'label="R0"' in dot


def test_dot_annotates_matched_nodes(lfsr_image, nlfsr_corpus):
    rep = analyze_binary(lfsr_image, 0, [0], corpus=nlfsr_corpus)
    dot = emit_report(rep, "dot").decode()
    assert 'match="nlfsr/C"' in dot
    assert "fillcolor" in dot


def test_unknown_format(lfsr_image, nlfsr_corpus):
    rep = analyze_binary(lfsr_image, 0, [0], corpus=nlfsr_corpus)
    with pytest.raises(UnknownFormatError):
        emit_report(rep, "yaml")
