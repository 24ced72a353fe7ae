"""Graph broker tests.

The seven golden rewrite tests freeze exact canonical serializations that
were derived by hand from the rewrite rules before the implementation
ran.  They double as the normalization fixtures for the acceptance
suite.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import drive_spec_sequence
from wherescrypto.dfg import (
    COMMUTATIVE,
    FOLD,
    DeadNodeError,
    Dfg,
    GraphError,
    NodeKind,
)


MASK = 0xFFFFFFFF


def add(g: Dfg, *refs: int) -> int:
    return g.request_operation(NodeKind.ADD, refs)


def op(g: Dfg, kind: NodeKind, *refs: int) -> int:
    return g.request_operation(kind, refs)


# ---------------------------------------------------------------- goldens


def test_golden_constant_fold():
    g = Dfg()
    a = g.request_constant(4)
    b = g.request_constant(12)
    r = add(g, a, b)
    assert g.node(r).kind is NodeKind.CONST
    assert g.const_value(r) == 16
    assert g.serialize() == (
        "0: CONST() [0x4]\n"
        "1: CONST() [0xc]\n"
        "2: CONST() [0x10]"
    )


def test_golden_common_subexpression_reuse():
    g = Dfg()
    sp = g.request_input("SP")
    r0 = g.request_input("R0")
    x = add(g, sp, r0)
    y = add(g, sp, r0)
    assert x == y
    c4 = g.request_constant(4)
    z = add(g, x, c4)
    assert g.node(z).inputs == (sp, r0, c4)
    assert g.serialize() == (
        "0: INPUT() [SP]\n"
        "1: INPUT() [R0]\n"
        "2: ADD(0, 1)\n"
        "3: CONST() [0x4]\n"
        "4: ADD(0, 1, 3)"
    )


def test_golden_store_to_load_forwarding():
    g = Dfg()
    sp = g.request_input("SP")
    r3 = g.request_input("R3")
    c8 = g.request_constant(8)
    addr = add(g, sp, c8)
    g.record_store(addr, r3)
    loaded = g.request_load(addr)
    assert loaded == r3
    cff = g.request_constant(0xFF)
    res = op(g, NodeKind.AND, loaded, cff)
    assert all(n.kind is not NodeKind.LOAD for n in g.nodes.values())
    assert g.serialize() == (
        "0: INPUT() [SP]\n"
        "1: INPUT() [R3]\n"
        "2: CONST() [0x8]\n"
        "3: ADD(0, 2)\n"
        "4: STORE(3, 1)\n"
        "5: CONST() [0xff]\n"
        "6: AND(1, 5)"
    )
    assert g.node(res).inputs == (r3, cff)


def test_golden_associative_flattening():
    g = Dfg()
    sp = g.request_input("SP")
    r0 = g.request_input("R0")
    inner = add(g, sp, r0)
    c4 = g.request_constant(4)
    flat = add(g, inner, c4)
    assert g.node(flat).kind is NodeKind.ADD
    assert g.node(flat).inputs == (sp, r0, c4)
    assert g.serialize() == (
        "0: INPUT() [SP]\n"
        "1: INPUT() [R0]\n"
        "2: ADD(0, 1)\n"
        "3: CONST() [0x4]\n"
        "4: ADD(0, 1, 3)"
    )


def test_golden_doubling():
    g = Dfg()
    r1 = g.request_input("R1")
    d = add(g, r1, r1)
    assert g.node(d).kind is NodeKind.MULT
    assert g.serialize() == (
        "0: INPUT() [R1]\n"
        "1: CONST() [0x2]\n"
        "2: MULT(0, 1)"
    )


def test_golden_rotate_mask_to_shift():
    # Lifted from ROR R4, #8: a right rotation by 8 is a left rotation
    # by 24, and masking the result with 0xff only keeps bits that came
    # from a plain right shift by 8.
    g = Dfg()
    r4 = g.request_input("R4")
    c24 = g.request_constant(24)
    rot = op(g, NodeKind.ROTATE, r4, c24)
    cff = g.request_constant(0xFF)
    res = op(g, NodeKind.AND, rot, cff)
    shr = g.node(res).inputs[1]
    assert g.node(shr).kind is NodeKind.SHR
    assert g.const_value(g.node(shr).inputs[1]) == 8
    assert g.serialize() == (
        "0: INPUT() [R4]\n"
        "1: CONST() [0x18]\n"
        "2: ROTATE(0, 1)\n"
        "3: CONST() [0xff]\n"
        "4: CONST() [0x8]\n"
        "5: SHR(0, 4)\n"
        "6: AND(3, 5)"
    )


def test_golden_mult_distributes_over_add():
    g = Dfg()
    r3 = g.request_input("R3")
    c4 = g.request_constant(4)
    inner = add(g, r3, c4)
    c2 = g.request_constant(2)
    res = op(g, NodeKind.MULT, inner, c2)
    assert g.node(res).kind is NodeKind.ADD
    assert g.serialize() == (
        "0: INPUT() [R3]\n"
        "1: CONST() [0x4]\n"
        "2: ADD(0, 1)\n"
        "3: CONST() [0x2]\n"
        "4: MULT(0, 3)\n"
        "5: CONST() [0x8]\n"
        "6: ADD(4, 5)"
    )


# ------------------------------------------------------- rewrite details


def test_identity_elision():
    g = Dfg()
    x = g.request_input("R0")
    zero = g.request_constant(0)
    one = g.request_constant(1)
    ones = g.request_constant(0xFFFFFFFF)
    assert add(g, x, zero) == x
    assert op(g, NodeKind.MULT, x, one) == x
    assert op(g, NodeKind.XOR, x, zero) == x
    assert op(g, NodeKind.OR, x, zero) == x
    assert op(g, NodeKind.AND, x, ones) == x
    assert op(g, NodeKind.SHL, x, zero) == x
    assert op(g, NodeKind.SHR, x, zero) == x
    assert op(g, NodeKind.ROTATE, x, zero) == x


def test_zero_absorption():
    g = Dfg()
    x = g.request_input("R0")
    zero = g.request_constant(0)
    assert op(g, NodeKind.MULT, x, zero) == zero
    assert op(g, NodeKind.AND, x, zero) == zero


def test_shift_by_one_becomes_mult():
    g = Dfg()
    x = g.request_input("R5")
    one = g.request_constant(1)
    r = op(g, NodeKind.SHL, x, one)
    assert g.node(r).kind is NodeKind.MULT
    vals = sorted(
        g.const_value(i) for i in g.node(r).inputs if g.is_const(i))
    assert vals == [2]


def test_sub_constant_becomes_add():
    g = Dfg()
    x = g.request_input("R2")
    c = g.request_constant(5)
    r = op(g, NodeKind.SUB, x, c)
    assert g.node(r).kind is NodeKind.ADD
    consts = [g.const_value(i) for i in g.node(r).inputs if g.is_const(i)]
    assert consts == [(1 << 32) - 5]
    # Non-constant subtrahend stays a SUB node.
    y = g.request_input("R3")
    s = op(g, NodeKind.SUB, x, y)
    assert g.node(s).kind is NodeKind.SUB
    assert g.node(s).inputs == (x, y)


def test_sub_constant_folds_fully_with_const_minuend():
    g = Dfg()
    a = g.request_constant(3)
    b = g.request_constant(5)
    r = op(g, NodeKind.SUB, a, b)
    assert g.const_value(r) == (3 - 5) % (1 << 32)


def test_rotate_amount_reduced_mod_32():
    g = Dfg()
    x = g.request_input("R0")
    c33 = g.request_constant(33)
    c1 = g.request_constant(1)
    assert op(g, NodeKind.ROTATE, x, c33) == op(g, NodeKind.ROTATE, x, c1)


def test_shift_const_folds():
    g = Dfg()
    c = g.request_constant(0x80000001)
    amt = g.request_constant(1)
    assert g.const_value(op(g, NodeKind.SHL, c, amt)) == 2
    assert g.const_value(op(g, NodeKind.SHR, c, amt)) == 0x40000000
    assert g.const_value(op(g, NodeKind.ROTATE, c, amt)) == 3
    big = g.request_constant(40)
    assert g.const_value(op(g, NodeKind.SHL, c, big)) == 0
    assert g.const_value(op(g, NodeKind.SHR, c, big)) == 0


def test_rotate_mask_rule_requires_small_mask():
    # Mask bits at or above 2^r would mix in wrapped-around bits, so the
    # rewrite must not fire there.
    g = Dfg()
    x = g.request_input("R0")
    c8 = g.request_constant(8)
    rot = op(g, NodeKind.ROTATE, x, c8)
    wide = g.request_constant(0x1FF)
    r = op(g, NodeKind.AND, rot, wide)
    kinds = {g.node(i).kind for i in g.node(r).inputs}
    assert NodeKind.ROTATE in kinds


def test_distribution_needs_exactly_one_add_and_one_const():
    g = Dfg()
    x = g.request_input("R0")
    y = g.request_input("R1")
    z = g.request_input("R2")
    inner = add(g, x, y)
    c2 = g.request_constant(2)
    three = op(g, NodeKind.MULT, inner, c2, z)
    assert g.node(three).kind is NodeKind.MULT
    both = op(g, NodeKind.MULT, inner, add(g, y, z))
    assert g.node(both).kind is NodeKind.MULT


def test_constant_wraps_mod_2_32():
    g = Dfg()
    assert g.request_constant(1 << 32) == g.request_constant(0)
    assert g.const_value(g.request_constant(-1)) == 0xFFFFFFFF


def test_add_overflow_folds_mod_2_32():
    g = Dfg()
    a = g.request_constant(0xFFFFFFFF)
    b = g.request_constant(2)
    assert g.const_value(add(g, a, b)) == 1


def test_confluence_under_input_permutation():
    serials = set()
    for perm in itertools.permutations(range(3)):
        g = Dfg()
        leaves = [g.request_input("SP"), g.request_input("R0"),
                  g.request_constant(4)]
        picked = tuple(leaves[i] for i in perm)
        add(g, *picked)
        serials.add(g.serialize())
    assert len(serials) == 1


# ------------------------------- one spelling per value: rules (i), (j)


def shl(g: Dfg, x: int, k: int) -> int:
    return op(g, NodeKind.SHL, x, g.request_constant(k))


def shr(g: Dfg, x: int, k: int) -> int:
    return op(g, NodeKind.SHR, x, g.request_constant(k))


@pytest.mark.parametrize("k", [1, 7, 31])
@pytest.mark.parametrize("kind", [NodeKind.OR, NodeKind.XOR, NodeKind.ADD])
def test_shift_or_pair_becomes_rotate(kind, k):
    # SHL(x, 1) is MULT(x, 2) by rule (e) and still pairs
    g = Dfg()
    x, y = g.request_input("x"), g.request_input("y")
    rotated = op(g, NodeKind.ROTATE, x, g.request_constant(k))
    assert op(g, kind, shr(g, x, 32 - k), shl(g, x, k)) == rotated
    both = op(g, kind, y, shl(g, x, k), shr(g, x, 32 - k))
    assert g.node(both).kind is kind
    assert g.node(both).inputs == tuple(sorted((y, rotated)))


def test_shift_or_pair_needs_one_value_and_amounts_summing_to_32():
    g = Dfg()
    x, y = g.request_input("x"), g.request_input("y")
    for left, right in ((shl(g, x, 7), shr(g, x, 24)),
                        (shl(g, x, 7), shr(g, y, 25)),
                        (shl(g, x, 33), shr(g, x, 1))):
        for kind in (NodeKind.OR, NodeKind.AND, NodeKind.MULT):
            pair = op(g, kind, left, right)
            assert g.node(pair).inputs == tuple(sorted((left, right)))
    assert NodeKind.ROTATE not in {n.kind for n in g.nodes.values()}


@pytest.mark.parametrize("kind", [NodeKind.ADD, NodeKind.XOR])
def test_selector_sum_becomes_or(kind):
    # AND(b, c) and AND(~b, d) share no set bit: adding or XORing them
    # is their OR, the spelling of the MD5 and SHA-1 selectors
    g = Dfg()
    b, c, d, e = (g.request_input(s) for s in "bcde")
    not_b = op(g, NodeKind.XOR, b, g.request_constant(MASK))
    picked, other = op(g, NodeKind.AND, b, c), op(g, NodeKind.AND, d, not_b)
    selector = op(g, NodeKind.OR, picked, other)
    assert op(g, kind, other, picked) == selector
    assert g.node(op(g, kind, e, picked, other)).inputs == \
        tuple(sorted((e, selector)))
    # the complement of a value that the other AND lacks pairs with
    # nothing
    not_e = op(g, NodeKind.XOR, e, g.request_constant(MASK))
    unpaired = op(g, kind, picked, op(g, NodeKind.AND, d, not_e))
    assert g.node(unpaired).kind is kind


def test_paired_terms_are_confluent_under_input_permutation():
    serials = set()
    for perm in itertools.permutations(range(5)):
        g = Dfg()
        x, b, c, d = (g.request_input(s) for s in "xbcd")
        not_b = op(g, NodeKind.XOR, b, g.request_constant(MASK))
        terms = [shl(g, x, 5), shr(g, x, 27), op(g, NodeKind.AND, b, c),
                 op(g, NodeKind.AND, not_b, d), c]
        add(g, *(terms[i] for i in perm))
        serials.add(g.serialize())
    assert len(serials) == 1


def evaluate(g: Dfg, ref: int, words: dict[int, int]) -> int:
    """The value of node ``ref`` through `FOLD`, with the word
    ``words[i]`` for each INPUT node i."""
    node = g.node(ref)
    if node.kind is NodeKind.CONST:
        return node.const_value
    if node.kind is NodeKind.INPUT:
        return words[ref]
    return functools.reduce(FOLD[node.kind],
                            [evaluate(g, i, words) for i in node.inputs])


_PICK = st.integers(0, 63)
_JOINS = [NodeKind.OR, NodeKind.XOR, NodeKind.ADD, NodeKind.AND,
          NodeKind.MULT]
_REQUEST = st.one_of(
    # a shift-or pair joined with up to two more terms: rule (i) fires
    # in an OR, XOR or ADD and must not in an AND or MULT
    st.tuples(st.just("rotate"), st.sampled_from(_JOINS),
              st.integers(1, 31), st.lists(_PICK, min_size=1, max_size=3)),
    # AND(b, c) and AND(XOR(b, m), d) joined with up to two more terms:
    # rule (j) fires in an ADD or XOR, and only for m = 0xffffffff
    st.tuples(st.just("select"), st.sampled_from(_JOINS),
              st.one_of(st.just(MASK), st.integers(1, MASK)),
              st.lists(_PICK, min_size=3, max_size=5)),
    # any other operation, to vary what the pairs are made of
    st.tuples(st.just("other"),
              st.sampled_from(_JOINS + [NodeKind.SHL, NodeKind.SHR,
                                        NodeKind.ROTATE, NodeKind.SUB]),
              st.integers(1, 31), st.lists(_PICK, min_size=2, max_size=3)),
)
_FIRES = {"rotate": {NodeKind.OR, NodeKind.XOR, NodeKind.ADD},
          "select": {NodeKind.XOR, NodeKind.ADD}}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, MASK), min_size=3, max_size=3),
       st.lists(_REQUEST, min_size=1, max_size=10))
def test_paired_spellings_evaluate_like_the_request(words, requests):
    g = Dfg()
    inputs = [g.request_input(s) for s in "xyz"]
    env = dict(zip(inputs, words))
    pool = list(inputs)
    written = dict(env)     # ref -> value of the request as written

    def request(kind: NodeKind, refs: list[int]) -> int:
        if kind not in COMMUTATIVE:
            refs = refs[:2]
        value = functools.reduce(FOLD[kind], [written[r] for r in refs])
        ref = g.request_operation(kind, refs)
        assert evaluate(g, ref, env) == value, (kind, refs)
        assert written.setdefault(ref, value) == value
        pool.append(ref)
        return ref

    def const(value: int) -> int:
        ref = g.request_constant(value)
        written[ref] = value
        return ref

    for shape, kind, k, picks in requests:
        terms = [pool[i % len(pool)] for i in picks]
        if shape == "rotate":
            x = terms.pop()
            pair = [request(NodeKind.SHL, [x, const(k)]),
                    request(NodeKind.SHR, [x, const(32 - k)])]
        elif shape == "select":
            b = inputs[picks[0] % 3]
            c, d = terms[1], terms[2]
            terms = terms[3:]
            not_b = request(NodeKind.XOR, [b, const(k)])
            pair = [request(NodeKind.AND, [b, c]),
                    request(NodeKind.AND, [d, not_b])]
        else:
            if kind in (NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE):
                terms[1:] = [const(k)]
            request(kind, terms)
            continue
        result = request(kind, pair + terms)
        node = g.node(result)
        if kind in _FIRES[shape] and (
                k == MASK if shape == "select"
                else g.node(x).kind is NodeKind.INPUT):
            # the written pair never survives into the node
            assert node.kind is not kind or not set(pair) <= set(node.inputs) \
                or pair[0] == pair[1]
    g.check_consing_invariants()


# ---------------------------------------- all-constant requests fold

# requests whose inputs are all CONST fold with ints in one step; they
# must request the same constants, in the same order, as the rewrite
# rules do, so node numbering stays the same


def test_sub_of_constants_requests_the_complement_first():
    g = Dfg()
    a = g.request_constant(3)
    b = g.request_constant(5)
    assert op(g, NodeKind.SUB, a, b) == 3
    assert g.serialize() == (
        "0: CONST() [0x3]\n"
        "1: CONST() [0x5]\n"
        "2: CONST() [0xfffffffb]\n"
        "3: CONST() [0xfffffffe]"
    )


def test_sub_of_constant_zero_is_the_minuend():
    g = Dfg()
    a = g.request_constant(7)
    zero = g.request_constant(0)
    assert op(g, NodeKind.SUB, a, zero) == a
    assert len(g) == 2


def test_rotate_of_constants_by_33_requests_the_reduced_amount():
    g = Dfg()
    c = g.request_constant(0x80000001)
    c33 = g.request_constant(33)
    assert op(g, NodeKind.ROTATE, c, c33) == 3
    assert g.serialize() == (
        "0: CONST() [0x80000001]\n"
        "1: CONST() [0x21]\n"
        "2: CONST() [0x1]\n"
        "3: CONST() [0x3]"
    )


def test_rotate_of_constants_by_32_is_the_value():
    g = Dfg()
    c = g.request_constant(0x12345678)
    c32 = g.request_constant(32)
    assert op(g, NodeKind.ROTATE, c, c32) == c
    # the reduced amount 0 was requested on the way
    assert g.serialize().splitlines()[-1] == "2: CONST() [0x0]"


@pytest.mark.parametrize(
    "kind", [NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE])
def test_shift_of_constant_by_zero_returns_the_input(kind):
    g = Dfg()
    c = g.request_constant(0x80000001)
    zero = g.request_constant(0)
    assert op(g, kind, c, zero) == c
    assert len(g) == 2


@pytest.mark.parametrize("kind", [NodeKind.MULT, NodeKind.AND])
def test_multiply_and_mask_by_zero_collapse(kind):
    g = Dfg()
    x = g.request_input("R0")
    c = g.request_constant(0xFFFFFFFF)
    zero = g.request_constant(0)
    assert op(g, kind, c, zero) == zero
    assert op(g, kind, zero, c, c) == zero
    assert op(g, kind, x, zero) == zero
    assert len(g) == 3



def _concrete(kind: NodeKind, values: list[int]) -> int:
    """32-bit meaning of an operation on concrete values, written out
    apart from the broker."""
    if kind is NodeKind.ADD:
        return sum(values) & MASK
    if kind is NodeKind.MULT:
        product = 1
        for v in values:
            product = product * v & MASK
        return product
    if kind in (NodeKind.XOR, NodeKind.AND, NodeKind.OR):
        acc = values[0]
        for v in values[1:]:
            acc = {NodeKind.XOR: acc ^ v, NodeKind.AND: acc & v,
                   NodeKind.OR: acc | v}[kind]
        return acc
    a, b = values
    if kind is NodeKind.SUB:
        return (a - b) & MASK
    if kind is NodeKind.SHL:
        return (a << b) & MASK if b < 32 else 0
    if kind is NodeKind.SHR:
        return a >> b if b < 32 else 0
    r = b % 32
    return ((a << r) | (a >> (32 - r))) & MASK


def _requested(kind: NodeKind, values: list[int]) -> list[int]:
    """The constants the rewrite rules request for an all-constant
    operation, in order."""
    result = _concrete(kind, values)
    if kind is NodeKind.SUB:
        return [(-values[1]) & MASK, result]
    if kind in (NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE):
        amount = values[1]
        first = []
        if kind is NodeKind.ROTATE and amount >= 32:
            amount %= 32
            first = [amount]
        return first if amount == 0 else first + [result]
    return [result]


_WORD = st.one_of(
    st.sampled_from([0, 1, 2, 31, 32, 33, 64, 0x7FFFFFFF, 0x80000000,
                     0xFFFFFFFF]),
    st.integers(0, MASK))
_KINDS = [NodeKind.ADD, NodeKind.MULT, NodeKind.XOR, NodeKind.AND,
          NodeKind.OR, NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE,
          NodeKind.SUB]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_KINDS),
                          st.lists(_WORD, min_size=2, max_size=4)),
                min_size=1, max_size=12))
def test_all_constant_requests_fold_like_concrete_words(requests):
    g = Dfg()
    order: list[int] = []       # constant values, by first request

    def expect(value: int) -> None:
        if value not in order:
            order.append(value)

    for kind, values in requests:
        if kind not in COMMUTATIVE:
            values = values[:2]
        refs = [g.request_constant(v) for v in values]
        for v in values:
            expect(v)
        r = g.request_operation(kind, refs)
        assert g.const_value(r) == _concrete(kind, values), (kind, values)
        for v in _requested(kind, values):
            expect(v)
    g.check_consing_invariants()
    assert g.serialize() == "\n".join(
        f"{ref}: CONST() [0x{value:x}]" for ref, value in enumerate(order))


# ------------------------------------------------------ memory behavior


def test_load_without_store_makes_load_node():
    g = Dfg()
    a = g.request_input("R0")
    l1 = g.request_load(a)
    assert g.node(l1).kind is NodeKind.LOAD
    assert g.request_load(a) == l1


def test_store_overwrites_previous_store_to_same_address():
    g = Dfg()
    a = g.request_input("R0")
    v1 = g.request_input("R1")
    v2 = g.request_input("R2")
    g.record_store(a, v1)
    g.record_store(a, v2)
    assert g.request_load(a) == v2


def test_distinct_address_nodes_do_not_forward():
    g = Dfg()
    a = g.request_input("R0")
    b = g.request_input("R1")
    v = g.request_input("R2")
    g.record_store(a, v)
    loaded = g.request_load(b)
    assert g.node(loaded).kind is NodeKind.LOAD


# --------------------------------------------------- opaque / call nodes


def test_opaque_nodes_are_never_shared():
    g = Dfg()
    a = g.request_opaque()
    b = g.request_opaque()
    assert a != b
    x = g.request_input("R0")
    c = g.request_opaque((x,), clamp=2)
    d = g.request_opaque((x,), clamp=2)
    assert c != d
    assert g.node(c).clamp == 2
    g.check_consing_invariants()


def test_call_nodes_are_never_shared():
    g = Dfg()
    x = g.request_input("R0")
    a = g.request_call((x,), 0x8000)
    b = g.request_call((x,), 0x8000)
    assert a != b
    assert g.node(a).symbol == "0x8000"
    g.check_consing_invariants()


# ------------------------------------------------------------ purge


def test_purge_drops_unreachable():
    g = Dfg()
    x = g.request_input("R0")
    y = g.request_input("R1")
    z = g.request_input("R2")
    v = add(g, x, y)
    w = add(g, x, y, z)
    g.purge({w})
    assert v not in g.nodes
    assert set(g.nodes) == {x, y, z, w}
    g.check_consing_invariants()


def test_purge_empty_roots_empties_graph():
    g = Dfg()
    add(g, g.request_input("R0"), g.request_input("R1"))
    g.purge(set())
    assert g.nodes == {}


def test_purge_keeps_everything_reachable():
    g = Dfg()
    x = g.request_input("R0")
    c = g.request_constant(7)
    r = op(g, NodeKind.XOR, x, c)
    before = g.serialize()
    g.purge({r})
    assert g.serialize() == before


def test_purged_node_access_raises():
    g = Dfg()
    x = g.request_input("R0")
    y = g.request_input("R1")
    v = add(g, x, y)
    w = op(g, NodeKind.XOR, x, y)
    g.purge({w})
    with pytest.raises(DeadNodeError):
        g.node(v)


def test_purge_consing_still_active_after():
    g = Dfg()
    x = g.request_input("R0")
    y = g.request_input("R1")
    v = add(g, x, y)
    g.purge({v})
    assert add(g, x, y) == v


# ------------------------------------------------------------ fork


def test_fork_preserves_ids_and_isolates_growth():
    g = Dfg()
    x = g.request_input("R0")
    y = g.request_input("R1")
    v = add(g, x, y)
    h = g.fork_graph()
    assert h.serialize() == g.serialize()
    w = op(g, NodeKind.XOR, x, y)
    assert w not in h.nodes
    w2 = op(h, NodeKind.XOR, x, y)
    assert w2 == w  # same id allocation order in both branches
    assert h.node(v).inputs == (x, y)


def test_fork_isolates_store_map():
    g = Dfg()
    a = g.request_input("R0")
    v1 = g.request_input("R1")
    g.record_store(a, v1)
    h = g.fork_graph()
    v2 = g.request_input("R2")
    g.record_store(a, v2)
    assert g.request_load(a) == v2
    assert h.request_load(a) == v1


# ------------------------------------------------ consing property suite


def test_seeded_random_sequences_keep_invariants():
    for seed in range(6):
        drive_spec_sequence(seed, 400)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(10, 120))
def test_property_random_sequences(seed, count):
    drive_spec_sequence(seed, count)


def test_uniqueness_no_two_live_nodes_share_structure():
    g = drive_spec_sequence(99, 600)
    seen = {}
    for ref, node in g.nodes.items():
        key = node.cons_key()
        if node.kind in (NodeKind.OPAQUE, NodeKind.CALL):
            continue
        assert key not in seen, f"{ref} duplicates {seen[key]}"
        seen[key] = ref


def test_request_operation_rejects_bad_arity():
    g = Dfg()
    x = g.request_input("R0")
    y = g.request_input("R1")
    with pytest.raises(GraphError):
        g.request_operation(NodeKind.ADD, (x,))
    with pytest.raises(GraphError):
        g.request_operation(NodeKind.SHL, (x,))
    with pytest.raises(GraphError):
        g.request_operation(NodeKind.CONST, ())
    # the six kinds with their own request methods, at any count
    for kind in (NodeKind.CONST, NodeKind.INPUT, NodeKind.OPAQUE,
                 NodeKind.CALL, NodeKind.LOAD, NodeKind.STORE):
        for inputs in ((), (x,), (x, y)):
            with pytest.raises(GraphError):
                g.request_operation(kind, inputs)
    # every operation at every wrong count
    for kind in (NodeKind.ADD, NodeKind.MULT, NodeKind.XOR, NodeKind.AND,
                 NodeKind.OR):
        for inputs in ((), (x,)):
            with pytest.raises(GraphError):
                g.request_operation(kind, inputs)
    for kind in (NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE, NodeKind.SUB):
        for inputs in ((), (x,), (x, y, x)):
            with pytest.raises(GraphError):
                g.request_operation(kind, inputs)
    assert g.serialize() == "0: INPUT() [R0]\n1: INPUT() [R1]"


def test_base_offset_reads_base_plus_constant():
    g = Dfg()
    early = g.request_constant(12)
    x = g.request_input("R0")
    y = g.request_input("R1")
    k = g.request_constant(8)
    # inputs are sorted by ref, so the constant is first or second
    assert g.node(add(g, y, early)).inputs == (early, y)
    assert g.node(add(g, x, k)).inputs == (x, k)
    assert g.base_offset(add(g, y, early)) == (y, 12)
    assert g.base_offset(add(g, x, k)) == (x, 8)
    # SUB of a constant is ADD of its complement
    assert g.base_offset(op(g, NodeKind.SUB, x, k)) == (x, 0xFFFFFFF8)
    assert g.base_offset(add(g, x, y)) is None
    assert g.base_offset(add(g, x, y, k)) is None
    assert g.base_offset(op(g, NodeKind.XOR, x, k)) is None
    assert g.base_offset(x) is None
    assert g.base_offset(k) is None
