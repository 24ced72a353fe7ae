"""Signature language tests.

Expected graph shapes were worked out by hand from the rewrite rules
before running the builder: a DSL shift-by-one becomes MULT(x, 2), so
each shift-register layer contributes exactly four nodes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wherescrypto.dfg import NodeKind
from wherescrypto.sigdsl import (
    MAX_NESTING,
    ArityError,
    Infix,
    LabelRef,
    Literal,
    OpCall,
    Opaque,
    ParseError,
    SignatureDoc,
    Statement,
    VariantDef,
    build_variant,
    parse,
    print_doc,
)

SHIFT_REGISTER = """\
IDENTIFIER (Non-)Linear feedback shift register

VARIANT C
TRANSIENT layer0:OR(AND(1,OPAQUE),OPAQUE<<1);
TRANSIENT layer1:OR(AND(1,OPAQUE),layer0<<1);
TRANSIENT layer2:OR(AND(1,OPAQUE),layer1<<1);
layer3:OR(AND(1,OPAQUE),layer2<<1);
"""


# ------------------------------------------------------------ parsing


def test_parse_shift_register_document():
    doc = parse(SHIFT_REGISTER)
    assert doc.identifier == "(Non-)Linear feedback shift register"
    assert len(doc.variants) == 1
    (v,) = doc.variants
    assert v.name == "C"
    assert len(v.statements) == 4
    assert [s.transient for s in v.statements] == [True, True, True,
                                                   False]
    assert [s.label for s in v.statements] == ["layer0", "layer1",
                                               "layer2", "layer3"]
    first = v.statements[0].expr
    assert first == OpCall("OR", (
        OpCall("AND", (Literal(1), Opaque())),
        Infix("<<", (Opaque(), Literal(1))),
    ))
    assert v.statements[2].expr.args[1] == \
        Infix("<<", (LabelRef("layer1"), Literal(1)))


def test_parse_minimal_document():
    doc = parse("IDENTIFIER t\nVARIANT a\nx:OPAQUE;")
    assert doc == SignatureDoc("t", (VariantDef("a", (
        Statement(False, "x", Opaque()),)),))


def test_parse_shift_binds_tighter_than_plus():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: 1 + 2 << 3;")
    assert doc.variants[0].statements[0].expr == Infix("+", (
        Literal(1), Infix("<<", (Literal(2), Literal(3)))))


def test_parse_parentheses_group():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: (1 + 2) << 3;")
    assert doc.variants[0].statements[0].expr == Infix("<<", (
        Infix("+", (Literal(1), Literal(2))), Literal(3)))


def test_parse_plus_is_variadic():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: 1 + 2 + 3;")
    assert doc.variants[0].statements[0].expr == Infix("+", (
        Literal(1), Literal(2), Literal(3)))


def test_parse_shift_is_left_associative():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: 1 << 2 << 3;")
    assert doc.variants[0].statements[0].expr == Infix("<<", (
        Infix("<<", (Literal(1), Literal(2))), Literal(3)))


def test_parse_hex_literals_and_comments():
    doc = parse("# leading comment\n"
                "IDENTIFIER t  # trailing\n"
                "VARIANT a\n"
                "x: 0xDEAD + 10;  # body comment\n")
    assert doc.identifier == "t"
    assert doc.variants[0].statements[0].expr == Infix("+", (
        Literal(0xDEAD), Literal(10)))


def test_parse_keywords_case_insensitive():
    doc = parse("identifier t\nvariant a\n"
                "transient L0: or(and(1,opaque),Opaque<<1);\n"
                "x: Xor(L0, rotate(opaque, 7));")
    v = doc.variants[0]
    assert v.statements[0].transient is True
    assert v.statements[0].expr.op == "OR"
    assert v.statements[1].expr == OpCall("XOR", (
        LabelRef("L0"), OpCall("ROTATE", (Opaque(), Literal(7)))))


def test_parse_clamped_opaque():
    doc = parse("IDENTIFIER t\nVARIANT a\n"
                "x: XOR(OPAQUE<box>(1), OPAQUE<box>(2));")
    expr = doc.variants[0].statements[0].expr
    assert expr == OpCall("XOR", (
        Opaque("box", (Literal(1),)), Opaque("box", (Literal(2),))))


def test_parse_opaque_argument_forms():
    doc = parse("IDENTIFIER t\nVARIANT a\n"
                "a: OPAQUE;\nb: OPAQUE();\nc: OPAQUE(1, 2);")
    exprs = [s.expr for s in doc.variants[0].statements]
    assert exprs == [Opaque(), Opaque(),
                     Opaque(None, (Literal(1), Literal(2)))]


def test_parse_statements_may_span_lines():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: OR(1,\n  OPAQUE)\n;")
    assert doc.variants[0].statements[0].expr == OpCall("OR", (
        Literal(1), Opaque()))


def test_parse_multiple_variants():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: OPAQUE;\n"
                "VARIANT b\ny: OPAQUE + 1;\nz: y << 2;")
    assert [v.name for v in doc.variants] == ["a", "b"]
    assert len(doc.variants[1].statements) == 2


def _err(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value


def test_parse_error_missing_semicolon():
    err = _err("IDENTIFIER t\nVARIANT a\nx: OPAQUE")
    assert err.line == 3
    assert "';'" in err.expected


def test_parse_error_missing_semicolon_points_at_next_statement():
    err = _err("IDENTIFIER t\nVARIANT a\nx: 1 + 2\ny: OPAQUE;")
    assert err.line == 4


def test_parse_error_unknown_operation():
    err = _err("IDENTIFIER t\nVARIANT a\nx: FOO(1, 2);")
    assert err.line == 3
    assert err.column == 4


def test_parse_error_forward_label_reference():
    err = _err("IDENTIFIER t\nVARIANT a\nx: later;\nlater: OPAQUE;")
    assert err.line == 3
    assert "previously defined label" in err.expected[0]


def test_parse_error_self_reference():
    _err("IDENTIFIER t\nVARIANT a\nx: x;")


def test_parse_error_duplicate_label():
    err = _err("IDENTIFIER t\nVARIANT a\nx: OPAQUE;\nx: OPAQUE;")
    assert err.line == 4


def test_parse_error_label_shared_across_variants_is_fine():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: OPAQUE;\n"
                "VARIANT b\nx: OPAQUE;")
    assert len(doc.variants) == 2


def test_parse_error_statement_before_variant():
    err = _err("IDENTIFIER t\nx: OPAQUE;")
    assert "VARIANT" in err.expected


def test_parse_error_variant_before_identifier():
    err = _err("VARIANT a\nx: OPAQUE;")
    assert "IDENTIFIER" in err.expected


def test_parse_error_empty_document():
    err = _err("")
    assert "IDENTIFIER" in err.expected


def test_parse_error_missing_variant():
    err = _err("IDENTIFIER t\n")
    assert "VARIANT" in err.expected


def test_parse_error_nameless_variant():
    err = _err("IDENTIFIER t\nVARIANT\nx: OPAQUE;")
    assert err.line == 2


def test_parse_error_unbalanced_parenthesis():
    err = _err("IDENTIFIER t\nVARIANT a\nx: OR(1, 2;")
    assert err.line == 3


def test_parse_error_stray_character():
    err = _err("IDENTIFIER t\nVARIANT a\nx: 1 @ 2;")
    assert err.line == 3
    assert err.column == 6


def test_parse_lines_end_only_at_newline():
    # a form feed in a comment or a CRLF break does not add a line, and
    # any other control character in code is a stray character of its
    # own line; the end-of-file errors count the same lines
    err = _err("IDENTIFIER t\nVARIANT a\n# page\x0c\nx: y;\n")
    assert (err.line, err.column) == (4, 4)
    err = _err("IDENTIFIER t\r\nVARIANT a\r\nx: 1;\r\ny: z;\r\n")
    assert (err.line, err.column) == (4, 4)
    err = _err("IDENTIFIER t\nVARIANT a\nx: 1;\x0by: 2;\u2028\nz: q;")
    assert (err.line, err.column, err.found) == (3, 6, repr("\x0b"))
    assert _err("IDENTIFIER t\n#\x0c\x0c").line == 2
    err = _err("IDENTIFIER t\n#\x0c\n\x0c")
    assert (err.line, err.column, err.found) == (3, 1, repr("\x0c"))


def test_parse_header_words_split_only_at_blanks():
    # space and tab are the only blanks, in a header line as between
    # tokens, so a vertical tab or a no-break space joins the words
    # around it and a line of them is not blank
    err = _err("IDENTIFIER\x0bname\nVARIANT a\nx: 1;\n")
    assert (err.line, err.column, err.found) == \
        (1, 1, repr("IDENTIFIER\x0bname"))
    assert "IDENTIFIER" in err.expected
    err = _err("IDENTIFIER t\nVARIANT\xa0a\nx: 1;\n")
    assert (err.line, err.column, err.found) == (2, 1, repr("VARIANT\xa0a"))
    err = _err("IDENTIFIER t\nVARIANT a\n \x0b\nx: 1;\n")
    assert (err.line, err.column, err.found) == (3, 2, repr("\x0b"))
    doc = parse("IDENTIFIER \t t\t\n\tVARIANT\t a \n \tx: 1;\n")
    assert (doc.identifier, doc.variants[0].name) == ("t", "a")


def test_parse_header_names_must_be_printable():
    # a header name is the rest of its line, so a character a report
    # could not show is refused where it stands; spaces and hyphens
    # inside a name are fine
    err = _err("IDENTIFIER t\x0c\nVARIANT a\nx: 1;\n")
    assert (err.line, err.column, err.found) == (1, 13, repr("\x0c"))
    assert err.expected == ("a signature name",)
    err = _err("IDENTIFIER t\n  VARIANT a\x85b\nx: 1;\n")
    assert (err.line, err.column, err.found) == (2, 12, repr("\x85"))
    assert err.expected == ("a variant name",)
    err = _err("IDENTIFIER Feistel\xa0network\nVARIANT a\nx: 1;\n")
    assert (err.line, err.column, err.found) == (1, 19, repr("\xa0"))
    doc = parse("IDENTIFIER Feistel network\nVARIANT depth-1\nx: 1;\n")
    assert (doc.identifier, doc.variants[0].name) == \
        ("Feistel network", "depth-1")


def test_parse_error_oversized_literal():
    _err("IDENTIFIER t\nVARIANT a\nx: 0x100000000;")


def test_parse_error_reserved_word_as_label():
    _err("IDENTIFIER t\nVARIANT a\nOPAQUE: 1;")


def test_parse_arity_errors():
    # the position is the operation's keyword
    for text, message in (
            ("x: LOAD(1, 2);", "LOAD takes 1 argument(s), got 2"),
            ("x: STORE(1);", "STORE takes 2 argument(s), got 1"),
            ("x: ROTATE(1);", "ROTATE takes 2 argument(s), got 1"),
            ("y: 1;\nx: XOR(y,\n  AND(1));",
             "AND takes at least 2 argument(s), got 1")):
        with pytest.raises(ArityError) as info:
            parse("IDENTIFIER t\nVARIANT a\n" + text)
        line = 3 + text.count("\n")
        column = 3 if "AND" in text else 4
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == \
            f"line {line}, column {column}: {message}"


def test_parse_error_long_decimal_literal():
    # refused by length, before the string is converted at all
    err = _err("IDENTIFIER t\nVARIANT a\nx: " + "9" * 5000 + ";")
    assert err.expected == ("a 32-bit literal",)
    doc = parse("IDENTIFIER t\nVARIANT a\nx: 0x" + "0" * 40 + "1;")
    assert doc.variants[0].statements[0].expr == Literal(1)


@pytest.mark.parametrize("opener", ["(", "XOR(1, ", "OPAQUE("])
def test_parse_nesting_is_bounded(opener):
    def nested(depth: int) -> str:
        return ("IDENTIFIER t\nVARIANT a\nx: " + opener * depth + "1"
                + ")" * depth + ";")

    parse(nested(MAX_NESTING - 1))
    err = _err(nested(MAX_NESTING))
    assert "nested at most" in str(err)
    _err(nested(5000))


def test_parse_shift_chain_counts_as_nesting():
    # a << b << c is ((a << b) << c): each operator is one more level,
    # and the tree is walked recursively when it is built or printed
    head = "IDENTIFIER t\nVARIANT a\nx: OPAQUE"
    doc = parse(head + "<<1" * (MAX_NESTING - 1) + ";")
    build_variant(doc.variants[0])
    print_doc(doc)
    _err(head + "<<1" * MAX_NESTING + ";")
    _err(head + ">>1" * 5000 + ";")


# ----------------------------------------------------------- printing


ROUND_TRIP_DOCS = [
    SHIFT_REGISTER,
    "IDENTIFIER t\nVARIANT a\nx:OPAQUE;",
    ("IDENTIFIER gnarly one\nVARIANT v1\n"
     "TRANSIENT a: OPAQUE<s>(1, 0xCAFEBABE);\n"
     "b: (a + 1) << 2 >> 3;\n"
     "c: XOR(b, MULT(a, 3, 5), ROTATE(a, 31));\n"
     "VARIANT v2\n"
     "s: STORE(OPAQUE, LOAD(OPAQUE));\n"
     "t: 1 + 2 + (3 << (4 + 5));\n"),
]


@pytest.mark.parametrize("text", ROUND_TRIP_DOCS)
def test_parse_print_parse_fixpoint(text):
    doc = parse(text)
    printed = print_doc(doc)
    assert parse(printed) == doc
    assert print_doc(parse(printed)) == printed


def test_print_preserves_precedence_with_parentheses():
    doc = parse("IDENTIFIER t\nVARIANT a\n"
                "x: (1 + 2) << 3;\ny: 1 << (2 << 3);")
    assert parse(print_doc(doc)) == doc


# ------------------------------------------------- parse contract


_DSL_PIECES = ["IDENTIFIER", "VARIANT", "TRANSIENT", "OPAQUE", "XOR", "OR",
               "AND", "MULT", "ROTATE", "LOAD", "STORE", "x", "lab", "t",
               "(", ")", "<", ">", "<<", ">>", ",", ":", ";", "+", "#",
               " ", "\t", "\n", "\r\n", "\x0b", "\u00a0", "@", "0x",
               "1", "0xFFFFFFFF", "4294967296", "007"]


def _dsl_soup():
    piece = st.one_of(
        st.sampled_from(_DSL_PIECES),
        st.text(alphabet="0123456789", min_size=1, max_size=6000),
        st.text(max_size=4))
    return st.lists(piece, max_size=60).map("".join)


def _nested_text():
    opener = st.sampled_from(["(", "XOR(1,", "OPAQUE(", "OPAQUE<t>(",
                              "LOAD("])
    return st.builds(
        lambda o, d, shifts, close: "IDENTIFIER t\nVARIANT a\nx: "
        + o * d + "1" + "<<1" * shifts + ")" * close + ";",
        opener, st.integers(0, 3000), st.integers(0, 3000),
        st.integers(0, 3000))


def _edited_document():
    def edit(text: str, edits) -> str:
        chars = list(text)
        for at, insert in edits:
            at %= len(chars) + 1
            chars[at:at + (0 if insert else 1)] = list(insert)
        return "".join(chars)

    return st.builds(edit, st.sampled_from(ROUND_TRIP_DOCS),
                     st.lists(st.tuples(st.integers(0, 400),
                                        st.sampled_from(_DSL_PIECES + [""])),
                              min_size=1, max_size=6))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_dsl_soup(), _nested_text(), _edited_document(),
                 st.text(max_size=200)))
def test_parse_raises_only_documented_errors(text):
    header = "IDENTIFIER t\nVARIANT a\n"
    for candidate in (text, header + text):
        try:
            parse(candidate)
        except (ParseError, ArityError):
            pass


# ----------------------------------------------------------- building


def test_build_shift_register_variant():
    doc = parse(SHIFT_REGISTER)
    sig = build_variant(doc.variants[0])
    g = sig.graph
    # per layer: one fresh OPAQUE, its AND mask, the doubled previous
    # layer, and the OR; constants 1 and 2 are shared
    assert len(g.nodes) == 19
    kinds = sorted(n.kind.name for n in g.nodes.values())
    assert kinds.count("OR") == 4
    assert kinds.count("AND") == 4
    assert kinds.count("MULT") == 4
    assert kinds.count("OPAQUE") == 5
    assert kinds.count("CONST") == 2
    assert kinds.count("SHL") == 0
    assert len(sig.transient_set) == 3
    assert sig.clamp_labels == {}
    g.check_consing_invariants()


def test_build_folds_constants():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: 4 + 12;")
    sig = build_variant(doc.variants[0])
    assert len(sig.graph.nodes) == 1
    (node,) = sig.graph.nodes.values()
    assert node.kind is NodeKind.CONST
    assert node.const_value == 16


def test_build_transient_only_variant_is_empty():
    doc = parse("IDENTIFIER t\nVARIANT a\nTRANSIENT x: OPAQUE + 1;")
    sig = build_variant(doc.variants[0])
    assert len(sig.graph.nodes) == 0
    assert sig.transient_set == set()


def test_build_transient_survives_only_as_ancestor():
    doc = parse("IDENTIFIER t\nVARIANT a\n"
                "TRANSIENT kept: OPAQUE + 1;\n"
                "TRANSIENT dropped: OPAQUE + 2;\n"
                "x: kept << 4;")
    sig = build_variant(doc.variants[0])
    kinds = sorted(n.kind.name for n in sig.graph.nodes.values())
    assert kinds == ["ADD", "CONST", "CONST", "OPAQUE", "SHL"]
    assert len(sig.transient_set) == 1


def test_build_clamp_labels_recorded():
    doc = parse("IDENTIFIER t\nVARIANT a\n"
                "x: XOR(OPAQUE<box>(1), OPAQUE<box>(2), OPAQUE);")
    sig = build_variant(doc.variants[0])
    assert sorted(sig.clamp_labels.values()) == ["box", "box"]
    for ref in sig.clamp_labels:
        assert sig.graph.node(ref).kind is NodeKind.OPAQUE


def test_build_opaque_occurrences_are_distinct_nodes():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: XOR(OPAQUE, OPAQUE);")
    sig = build_variant(doc.variants[0])
    root = next(n for n in sig.graph.nodes.values()
                if n.kind is NodeKind.XOR)
    assert len(set(root.inputs)) == 2


def test_build_store_load_forwarding_applies():
    doc = parse("IDENTIFIER t\nVARIANT a\n"
                "TRANSIENT addr: OPAQUE;\n"
                "TRANSIENT s: STORE(addr, 5);\n"
                "x: LOAD(addr);")
    sig = build_variant(doc.variants[0])
    # the load forwards to the stored constant; neither the store nor
    # the address survives the purge
    assert len(sig.graph.nodes) == 1
    (node,) = sig.graph.nodes.values()
    assert node.const_value == 5


def test_build_real_load_is_kept():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: LOAD(OPAQUE);")
    sig = build_variant(doc.variants[0])
    kinds = sorted(n.kind.name for n in sig.graph.nodes.values())
    assert kinds == ["LOAD", "OPAQUE"]


def test_build_rotate_normalizes_amount():
    doc = parse("IDENTIFIER t\nVARIANT a\nx: ROTATE(OPAQUE, 33);")
    sig = build_variant(doc.variants[0])
    rot = next(n for n in sig.graph.nodes.values()
               if n.kind is NodeKind.ROTATE)
    assert sig.graph.node(rot.inputs[1]).const_value == 1


def test_build_programmatic_bad_arity():
    v = VariantDef("a", (Statement(
        False, None, OpCall("LOAD", (Literal(1), Literal(2)))),))
    with pytest.raises(ArityError) as info:
        build_variant(v)
    # a tree built in code has no source position
    assert (info.value.line, info.value.column, info.value.op) == \
        (0, 0, "LOAD")
    assert str(info.value) == \
        "line 0, column 0: LOAD takes 1 argument(s), got 2"
    # infix operators go through the same check
    for expr, message in (
            (Infix("+", (Literal(1),)), "+ takes at least 2"),
            (Infix("<<", (Literal(1),) * 3), "<< takes 2")):
        v = VariantDef("a", (Statement(False, None, expr),))
        with pytest.raises(ArityError) as info:
            build_variant(v)
        assert str(info.value).startswith(
            f"line 0, column 0: {message} argument(s), got ")


def test_build_label_references_share_nodes():
    doc = parse("IDENTIFIER t\nVARIANT a\n"
                "TRANSIENT a: OPAQUE + 1;\n"
                "x: XOR(a, ROTATE(a, 3));")
    sig = build_variant(doc.variants[0])
    adds = [n for n in sig.graph.nodes.values()
            if n.kind is NodeKind.ADD]
    assert len(adds) == 1
    root = next(n for n in sig.graph.nodes.values()
                if n.kind is NodeKind.XOR)
    rot = next(r for r in root.inputs
               if sig.graph.node(r).kind is NodeKind.ROTATE)
    shared = next(r for r in root.inputs if r != rot)
    assert sig.graph.node(rot).inputs[0] == shared
    sig.graph.check_consing_invariants()
