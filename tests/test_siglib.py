"""Signature catalog tests: hygiene of every shipped document plus the
behaviors the generic-class signatures are designed around."""

import importlib.util
from pathlib import Path

import pytest

from wherescrypto.dfg import Dfg, NodeKind
from wherescrypto.matcher import match_signature
from wherescrypto.sigdsl import build_variant, parse, print_doc
from wherescrypto.siglib import (
    SignatureFileError,
    UnknownSignatureError,
    builtin_names,
    generate_feistel_variants,
    load_builtin,
    load_catalog,
    load_signature_dir,
    signature_source,
)

SHIFT_REGISTER_C = """\
IDENTIFIER (Non-)Linear feedback shift register

VARIANT C
TRANSIENT layer0:OR(AND(1,OPAQUE),OPAQUE<<1);
TRANSIENT layer1:OR(AND(1,OPAQUE),layer0<<1);
TRANSIENT layer2:OR(AND(1,OPAQUE),layer1<<1);
layer3:OR(AND(1,OPAQUE),layer2<<1);
"""


def kind_counts(graph: Dfg) -> dict[str, int]:
    counts: dict[str, int] = {}
    for node in graph.nodes.values():
        counts[node.kind.name] = counts.get(node.kind.name, 0) + 1
    return counts


def test_builtin_names():
    assert builtin_names() == ["aes", "feistel", "md5", "nlfsr",
                               "sha1", "xtea"]


def test_catalog_parses_and_builds():
    for name, doc in load_catalog().items():
        assert doc.variants, name
        for variant in doc.variants:
            built = build_variant(variant)
            assert built.graph.nodes, f"{name}/{variant.name}"


def test_unknown_name_rejected():
    with pytest.raises(UnknownSignatureError):
        load_builtin("nosuch")
    with pytest.raises(UnknownSignatureError):
        signature_source("nosuch")


def test_print_parse_fixpoint_across_catalog():
    for name in builtin_names():
        doc = load_builtin(name)
        assert parse(print_doc(doc)) == doc, name


def test_shift_register_variant_c_text():
    doc = load_builtin("nlfsr")
    reference = parse(SHIFT_REGISTER_C)
    assert doc.identifier == reference.identifier
    assert [v.name for v in doc.variants] == ["A", "B", "C"]
    assert doc.variants[2] == reference.variants[0]


def test_shift_register_variant_builds():
    doc = load_builtin("nlfsr")
    built = build_variant(doc.variants[2])
    assert len(built.graph.nodes) == 19
    assert len(built.transient_set) == 3
    mirrored = build_variant(doc.variants[1])
    counts = kind_counts(mirrored.graph)
    assert counts["SHR"] == 4
    assert counts["SHL"] == 4       # the <<31 bit placements
    assert "MULT" not in counts     # only <<1 rewrites to doubling


def test_xtea_vertex_count_near_reference():
    built = build_variant(load_builtin("xtea").variants[0])
    assert 60 <= len(built.graph.nodes) <= 80


def test_xtea_key_loads():
    built = build_variant(load_builtin("xtea").variants[0])
    counts = kind_counts(built.graph)
    # the unrolled schedule touches each of the four key words twice,
    # and equal addresses cons to one load
    assert counts["LOAD"] == 4
    assert counts["SHR"] == 8


def test_md5_variants():
    doc = load_builtin("md5")
    assert [v.name for v in doc.variants] == ["rotate", "shift-or",
                                              "rotate-fused"]
    rotate = build_variant(doc.variants[0])
    shifted = build_variant(doc.variants[1])
    fused = build_variant(doc.variants[2])
    assert 400 <= len(rotate.graph.nodes) <= 700
    assert 400 <= len(shifted.graph.nodes) <= 700
    assert 400 <= len(fused.graph.nodes) <= 700
    assert kind_counts(rotate.graph)["ROTATE"] == 64
    # sixteen message words, reused across rounds and consed
    assert kind_counts(rotate.graph)["LOAD"] == 16
    shifted_counts = kind_counts(shifted.graph)
    assert "ROTATE" not in shifted_counts
    assert shifted_counts["SHR"] == 64
    fused_counts = kind_counts(fused.graph)
    assert fused_counts["ROTATE"] == 64
    # folding the selector OR into the step additions leaves only the
    # sixteen ORs of the final round
    assert fused_counts["OR"] == 16


def test_sha1_variants():
    doc = load_builtin("sha1")
    assert [v.name for v in doc.variants] == ["A", "B"]
    built = build_variant(doc.variants[0])
    counts = kind_counts(built.graph)
    assert counts["ROTATE"] == 5    # four step links plus ROTATE(b, 30)
    assert counts["CONST"] == 3     # round constant and the two amounts


def test_aes_round_shape():
    built = build_variant(load_builtin("aes").variants[0])
    counts = kind_counts(built.graph)
    # four table bases shared across the four output words, plus one
    # index and one key wildcard per lookup
    assert counts == {"XOR": 4, "LOAD": 16, "ADD": 16, "OPAQUE": 24}
    for node in built.graph.nodes.values():
        if node.kind is NodeKind.XOR:
            assert len(node.inputs) == 5


def test_feistel_ladder_generation():
    doc = generate_feistel_variants(8)
    assert [v.name for v in doc.variants] == [
        f"depth-{j}" for j in range(1, 9)]
    assert len(generate_feistel_variants(1).variants) == 1
    for bad in (0, 9, -1):
        with pytest.raises(ValueError):
            generate_feistel_variants(bad)


def test_feistel_file_is_printed_ladder():
    assert signature_source("feistel") == \
        print_doc(generate_feistel_variants(8))


@pytest.fixture(scope="module")
def generated() -> dict[str, str]:
    """The documents tools/make_signatures.py writes, by file name."""
    path = Path(__file__).parents[1] / "tools" / "make_signatures.py"
    spec = importlib.util.spec_from_file_location("make_signatures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.documents()


@pytest.mark.parametrize("name", ["feistel", "md5", "xtea"])
def test_shipped_file_matches_generator(generated, name):
    # a hand edit of a generated file fails here until the generator
    # is changed to match and rerun
    assert signature_source(name) == generated[f"{name}.sig"]


def test_feistel_depth2_self_match():
    sig = build_variant(generate_feistel_variants(2).variants[1])
    assert match_signature(sig, sig.graph)


def saturated_feistel(chain: int) -> Dfg:
    """Two rounds whose round function is a chain of ops that all
    consume the round input directly, so every ladder depth up to the
    chain length can anchor."""
    g = Dfg()
    left = g.request_input("L")
    right = g.request_input("R")

    def run_chain(source: int) -> int:
        value = g.request_operation(
            NodeKind.AND, (source, g.request_constant(0xFF)))
        for step in range(1, chain):
            kind = NodeKind.OR if step % 2 else NodeKind.AND
            value = g.request_operation(kind, (value, source))
        return value

    x1 = g.request_operation(NodeKind.XOR, (left, run_chain(right)))
    x2 = g.request_operation(NodeKind.XOR, (right, run_chain(x1)))
    g.purge([x2])
    return g


@pytest.mark.parametrize("chain", [3, 8])
def test_feistel_ladder_monotone_on_saturated_chains(chain):
    target = saturated_feistel(chain)
    doc = generate_feistel_variants(8)
    outcomes = {}
    for depth, variant in enumerate(doc.variants, 1):
        sig = build_variant(variant)
        outcomes[depth] = bool(match_signature(sig, target))
    for depth in range(1, 9):
        assert outcomes[depth] == (depth <= chain), outcomes


def test_load_signature_dir(tmp_path):
    (tmp_path / "toy.sig").write_text(
        "IDENTIFIER toy\nVARIANT only\nx:OPAQUE;\n")
    (tmp_path / "ignored.txt").write_text("not a signature")
    docs = load_signature_dir(tmp_path)
    assert list(docs) == ["toy"]
    assert docs["toy"].identifier == "toy"


def test_load_signature_dir_rejects_unusable_path(tmp_path):
    # a missing directory, a plain file and a directory without a .sig
    # file would otherwise scan with an empty catalog
    (tmp_path / "empty").mkdir()
    (tmp_path / "plain.sig").write_text(signature_source("xtea"))
    for name, cause in (("missing", "no such directory"),
                        ("plain.sig", "not a directory"),
                        ("empty", "no .sig files")):
        path = tmp_path / name
        with pytest.raises(SignatureFileError) as caught:
            load_signature_dir(path)
        assert caught.value.path == path
        assert str(caught.value).startswith(f"{path}: {cause}")
