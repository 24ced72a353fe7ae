"""Signature catalog tests: hygiene of every shipped document plus the
behaviors the generic-class signatures are designed around."""

import importlib.util
import re
from pathlib import Path

import pytest

from helpers import canonical_form
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
    # one variant: the broker gives shift-or rotations and fused
    # selectors the spelling of this one (see the respelling tests)
    doc = load_builtin("md5")
    assert [v.name for v in doc.variants] == ["rotate"]
    rotate = build_variant(doc.variants[0])
    assert 400 <= len(rotate.graph.nodes) <= 700
    counts = kind_counts(rotate.graph)
    assert counts["ROTATE"] == 64
    assert "SHL" not in counts and "SHR" not in counts
    # sixteen message words, reused across rounds and consed
    assert counts["LOAD"] == 16
    # the 32 selector ORs of rounds one and two, and round four's 16
    assert counts["OR"] == 48


def test_sha1_variants():
    doc = load_builtin("sha1")
    assert [v.name for v in doc.variants] == ["A"]
    built = build_variant(doc.variants[0])
    counts = kind_counts(built.graph)
    assert counts["ROTATE"] == 5    # four step links plus ROTATE(b, 30)
    assert counts["CONST"] == 3     # round constant and the two amounts


def shape(doc_text: str) -> tuple[str, list[int]]:
    """The one variant of ``doc_text`` as built: its canonical form and
    the canonical ids of its transient nodes."""
    (variant,) = parse(doc_text).variants
    built = build_variant(variant)
    text, canon = canonical_form(built.graph)
    return text, sorted(canon[ref] for ref in built.transient_set)


_ROTATE_CALL = re.compile(r"ROTATE\((\w+),(\d+)\)")
_SELECTOR_OR = re.compile(
    r"OR\((AND\(\w+,\w+\)),(AND\(\w+,XOR\(\w+,0xffffffff\)\))\)")
_MD5_STEP = re.compile(r"TRANSIENT [pv](\d+):")


def respell_md5(text: str, rotate, selector) -> str:
    """``text`` with each step's ROTATE written as a shift-or pair
    where ``rotate(step)`` holds, and its selector OR written as an ADD
    where ``selector(step)`` holds."""
    lines = []
    for line in text.splitlines():
        step = _MD5_STEP.match(line)
        if step is not None:
            i = int(step[1])
            if rotate(i):
                line = _ROTATE_CALL.sub(
                    lambda m: f"OR({m[1]}<<{m[2]},{m[1]}>>{32 - int(m[2])})",
                    line)
            if selector(i):
                line = _SELECTOR_OR.sub(r"\1+\2", line)
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rotate, selector, rotates, fused", [
    (lambda i: True, lambda i: False, 0, 0),
    (lambda i: False, lambda i: True, 64, 32),
    (lambda i: i % 2 == 1, lambda i: i % 4 >= 2, 32, 16),
], ids=["shift-or", "fused", "mixed"])
def test_md5_respellings_build_the_shipped_variant(rotate, selector,
                                                   rotates, fused):
    shipped = signature_source("md5")
    respelled = respell_md5(shipped, rotate, selector)
    # every step is respelled as asked: 64 rotations, 32 selectors
    assert respelled.count("ROTATE(") == rotates
    assert respelled.count("<<") == 64 - rotates
    assert respelled.count(")+AND(") == fused
    assert len(_SELECTOR_OR.findall(respelled)) == 32 - fused
    assert shape(respelled) == shape(shipped)


#: The shift-or variant ``sha1.sig`` shipped next to ``A`` before the
#: broker normalized the spelling.
SHA1_SHIFT_OR = """\
IDENTIFIER SHA1 compression rounds

VARIANT B
TRANSIENT a:OPAQUE;
TRANSIENT b:OPAQUE;
TRANSIENT t1:OR(a<<5,a>>27)+OPAQUE+OPAQUE+0x5A827999+OPAQUE;
TRANSIENT t2:OR(t1<<5,t1>>27)+OPAQUE+OPAQUE+0x5A827999+OPAQUE;
TRANSIENT t3:OR(t2<<5,t2>>27)+OPAQUE+OPAQUE+0x5A827999+OPAQUE;
t4:OR(t3<<5,t3>>27)+OPAQUE+OR(b<<30,b>>2)+0x5A827999+OPAQUE;
"""


def test_sha1_shift_or_builds_the_shipped_variant():
    assert shape(SHA1_SHIFT_OR) == shape(signature_source("sha1"))


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
