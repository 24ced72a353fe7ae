"""Matcher tests.

The production matcher is held to the exhaustive oracle on randomized
pairs; the directed cases below pin down individual rules of the
compatibility predicate with counts worked out by hand.
"""

import gc
import random
import weakref
from collections import Counter

import pytest

from helpers import (SizeLimitError, brute_force_match, chain_signature,
                     copies_target, counter_inputs_ok, random_signature,
                     random_target, reference_bfs_path, reference_domains,
                     reference_initial_domains, reference_match)
from wherescrypto.asm import assemble
from wherescrypto.dfg import COMMUTATIVE, Dfg, Node, NodeKind
from wherescrypto.matcher import (
    BlockPermReport,
    TargetIndex,
    _adjacency,
    _bfs_path,
    _consumers,
    _initial_candidates,
    _inputs_ok,
    _links,
    _refine,
    classify_block_permutation,
    match_signature,
)
from wherescrypto.sigdsl import SignatureGraph, build_variant, parse
from wherescrypto.siglib import load_builtin
from wherescrypto.symexec import Config, Status, explore

SHIFT_REGISTER = """\
IDENTIFIER (Non-)Linear feedback shift register

VARIANT C
TRANSIENT layer0:OR(AND(1,OPAQUE),OPAQUE<<1);
TRANSIENT layer1:OR(AND(1,OPAQUE),layer0<<1);
TRANSIENT layer2:OR(AND(1,OPAQUE),layer1<<1);
layer3:OR(AND(1,OPAQUE),layer2<<1);
"""


def sig_from(text: str, index: int = 0) -> SignatureGraph:
    return build_variant(parse(text).variants[index])


def dsl(body: str) -> SignatureGraph:
    return sig_from(f"IDENTIFIER t\nVARIANT a\n{body}")


def keys(mappings):
    return {m.key() for m in mappings}


def op(g: Dfg, kind: NodeKind, *refs: int) -> int:
    return g.request_operation(kind, refs)


def decided(sig: SignatureGraph, target: Dfg) -> bool:
    """Whether refinement leaves every domain a single target, so that
    `match_signature` checks that one assignment instead of searching."""
    index = TargetIndex(target)
    cands = _initial_candidates(sig, index)
    return (cands is not None and _refine(_links(sig, index), cands)
            and all(c.bit_count() == 1 for c in cands.values()))


# -------------------------------------------------- directed matches


def test_single_opaque_matches_any_single_node():
    sig = dsl("x: OPAQUE;")
    target = Dfg()
    target.request_input("R0")
    got = match_signature(sig, target)
    assert len(got) == 1
    assert keys(got) == keys(brute_force_match(sig, target))


def test_shift_register_signature_self_match_is_identity():
    sig = sig_from(SHIFT_REGISTER)
    got = match_signature(sig, sig.graph)
    assert len(got) == 1
    assert got[0].assignment == {r: r for r in sig.graph.nodes}


def test_two_wildcards_give_two_permutations():
    sig = dsl("x: XOR(OPAQUE, OPAQUE);")
    target = Dfg()
    a = target.request_input("A")
    b = target.request_input("B")
    op(target, NodeKind.XOR, a, b)
    got = match_signature(sig, target)
    assert len(got) == 2
    assert keys(got) == keys(brute_force_match(sig, target))


def test_constants_must_match_by_value():
    sig = dsl("x: AND(OPAQUE, 1);")
    target = Dfg()
    a = target.request_input("A")
    op(target, NodeKind.AND, a, target.request_constant(0xFF))
    assert match_signature(sig, target) == []
    assert brute_force_match(sig, target) == []


def test_clamped_wildcards_require_one_tag():
    consistent = dsl("x: MULT(OPAQUE<t>, OPAQUE<t>);")
    free = dsl("x: MULT(OPAQUE<t>, OPAQUE<u>);")

    target = Dfg()
    a = target.request_input("A")
    b = target.request_input("B")
    c = target.request_input("C")
    d = target.request_input("D")
    mixed = Dfg()
    a2 = mixed.request_input("A")
    b2 = mixed.request_input("B")
    c2 = mixed.request_input("C")
    d2 = mixed.request_input("D")
    op(target, NodeKind.MULT,
       op(target, NodeKind.ADD, a, b), op(target, NodeKind.ADD, c, d))
    op(mixed, NodeKind.MULT,
       op(mixed, NodeKind.ADD, a2, b2), op(mixed, NodeKind.XOR, c2, d2))

    both_add = match_signature(consistent, target)
    assert len(both_add) == 2
    for m in both_add:
        assert m.clamp_bindings == {"t": NodeKind.ADD}
    assert match_signature(consistent, mixed) == []
    assert len(match_signature(free, mixed)) == 2
    for s, t in [(consistent, target), (consistent, mixed),
                 (free, mixed)]:
        assert keys(match_signature(s, t)) == \
            keys(brute_force_match(s, t))


def test_exact_arity_unless_transient():
    rigid = dsl("x: ROTATE(XOR(OPAQUE, OPAQUE), 1);")
    loose = dsl("TRANSIENT w: XOR(OPAQUE, OPAQUE);\n"
                "x: ROTATE(w, 1);")
    target = Dfg()
    a = target.request_input("A")
    b = target.request_input("B")
    c = target.request_input("C")
    wide = op(target, NodeKind.XOR, a, b, c)
    op(target, NodeKind.ROTATE, wide, target.request_constant(1))

    assert match_signature(rigid, target) == []
    got = match_signature(loose, target)
    assert len(got) == 6          # ordered pairs out of three inputs
    assert keys(got) == keys(brute_force_match(loose, target))
    assert brute_force_match(rigid, target) == []


def test_ordered_operands_are_positional():
    sig = dsl("x: OPAQUE >> 3;")
    target = Dfg()
    a = target.request_input("A")
    three = target.request_constant(3)
    op(target, NodeKind.SHR, a, three)      # A >> 3
    op(target, NodeKind.SHR, three, a)      # 3 >> A
    got = match_signature(sig, target)
    assert len(got) == 1
    assert keys(got) == keys(brute_force_match(sig, target))


def test_wildcard_monotonicity_on_a_concrete_pair():
    narrow = dsl("x: XOR(ROTATE(OPAQUE, 1), OPAQUE);")
    wide = dsl("x: XOR(OPAQUE, OPAQUE);")
    target = Dfg()
    a = target.request_input("A")
    b = target.request_input("B")
    r = op(target, NodeKind.ROTATE, a, target.request_constant(1))
    op(target, NodeKind.XOR, r, b)
    n = len(match_signature(narrow, target))
    w = len(match_signature(wide, target))
    assert n >= 1
    assert w >= n


def test_match_limit_caps_results():
    sig = dsl("x: OPAQUE;")
    target = Dfg()
    for i in range(20):
        target.request_input(f"R{i}")
    assert len(match_signature(sig, target)) == 16
    assert len(match_signature(sig, target, limit=3)) == 3


def test_empty_target_matches_nothing():
    sig = dsl("x: OPAQUE;")
    assert match_signature(sig, Dfg()) == []
    assert brute_force_match(sig, Dfg()) == []


def test_empty_signature_is_rejected():
    sig = SignatureGraph(Dfg())
    with pytest.raises(ValueError):
        match_signature(sig, Dfg())


def test_brute_force_size_limits():
    big_sig = Dfg()
    for _ in range(9):
        big_sig.request_opaque(())
    with pytest.raises(SizeLimitError):
        brute_force_match(SignatureGraph(big_sig), Dfg())
    small = dsl("x: OPAQUE;")
    big_target = Dfg()
    for i in range(15):
        big_target.request_input(f"R{i}")
    with pytest.raises(SizeLimitError):
        brute_force_match(small, big_target)


# ------------------------------------------- randomized oracle battery


def test_matcher_agrees_with_oracle_battery():
    rng = random.Random(20260822)
    positives = 0
    clamped = 0
    for case in range(240):
        sig = random_signature(rng)
        target = random_target(rng, sig)
        expected = keys(brute_force_match(sig, target))
        got = keys(match_signature(sig, target, limit=1_000_000))
        assert got == expected, (
            f"case {case}: matcher {len(got)} vs oracle "
            f"{len(expected)} mappings\nsig:\n"
            f"{sig.graph.serialize()}\ntarget:\n{target.serialize()}")
        if expected:
            positives += 1
        if sig.clamp_labels:
            clamped += 1
    assert positives >= 30
    assert clamped >= 40


def test_shared_index_agrees_with_oracle_battery():
    # one index per target, reused by several signatures in turn: each
    # result must equal the oracle's and that of a call building its
    # own index, so nothing leaks from one signature to the next.  The
    # strict and loose copies differ only in which commutative nodes
    # may match wider targets, as variants of one document do.
    rng = random.Random(20261018)
    positives = 0
    for case in range(60):
        first = random_signature(rng)
        target = random_target(rng, first)
        index = TargetIndex(target)
        commutative = {r for r, n in first.graph.nodes.items()
                       if n.kind in COMMUTATIVE}
        strict = SignatureGraph(first.graph, first.clamp_labels, set())
        loose = SignatureGraph(first.graph, first.clamp_labels,
                               commutative)
        sigs = [first, strict, loose, strict,
                random_signature(rng), random_signature(rng)]
        for sig in sigs:
            expected = keys(brute_force_match(sig, target))
            shared = match_signature(sig, target, limit=1_000_000,
                                     index=index)
            alone = match_signature(sig, target, limit=1_000_000)
            assert keys(shared) == expected, f"case {case}"
            assert [m.assignment for m in shared] == \
                [m.assignment for m in alone], f"case {case}"
            if expected:
                positives += 1
    assert positives >= 40


def test_matcher_agrees_with_reference_on_large_targets():
    # targets of 200-700 nodes, far past the exhaustive oracle: the
    # refined domains, the mappings and their order must be the
    # reference's, up to the limit
    rng = random.Random(20261101)
    dense = limited = 0
    for case in range(40):
        sig = random_signature(rng)
        target = copies_target(rng, sig, rng.randint(200, 700))
        want = [m.assignment for m in reference_match(sig, target, 64)]
        got = [m.assignment for m in match_signature(sig, target, 64)]
        assert got == want, (
            f"case {case}: {len(got)} vs {len(want)} mappings\nsig:\n"
            f"{sig.graph.serialize()}")
        index = TargetIndex(target)
        cands = _initial_candidates(sig, index)
        if cands and max(c.bit_count() for c in cands.values()) > 64:
            dense += 1
        if cands and not _refine(_links(sig, index), cands):
            cands = None
        assert cands == reference_domains(sig, target, degree=True), \
            f"case {case}"
        if len(want) == 64:
            limited += 1
    assert dense >= 15
    assert limited >= 8


def test_index_tables_are_the_operand_relation():
    # rows[i] of the operand table holds the inputs of node i at the
    # position (any position for None), and the consumer table is its
    # transpose; neither exists before the first `tables` call
    rng = random.Random(7)
    for case in range(30):
        sig = random_signature(rng)
        target = copies_target(rng, sig, rng.randint(20, 80))
        index = TargetIndex(target)
        assert index._tables == {}
        refs = sorted(target.nodes)
        for pos in (None, 0, 1, 2):
            args, users = index.tables(pos)
            want_args = [0] * len(refs)
            want_users = [0] * len(refs)
            for i, ref in enumerate(refs):
                for p, r in enumerate(target.nodes[ref].inputs):
                    if pos in (None, p):
                        j = refs.index(r)
                        want_args[i] |= 1 << j
                        want_users[j] |= 1 << i
            assert (args.rows, users.rows) == (want_args, want_users), \
                f"case {case}, pos {pos}"


def test_index_without_candidates_builds_no_tables():
    # a signature whose tags the target lacks fails before refinement
    target = Dfg()
    target.request_operation(
        NodeKind.ADD, (target.request_input("A"), target.request_input("B")))
    sig = build_variant(parse(
        "IDENTIFIER t\nVARIANT a\nx: ROTATE(OPAQUE, 3);").variants[0])
    index = TargetIndex(target)
    assert match_signature(sig, target, index=index) == []
    assert index._tables == {}


def test_degree_cut_fails_before_any_table_is_built():
    # every Feistel depth wants a `right` with two distinct consumers
    # (the final XOR and the first OPAQUE of its chain); in this target
    # every node has at most one, so each depth is refused after its
    # tag and arity domains, all non-empty, are cut by degree
    target = Dfg()
    h = target.request_input("L")
    for r in range(6):
        f = op(target, NodeKind.ADD, target.request_input(f"R{r}"),
               target.request_input(f"K{r}"))
        h = op(target, NodeKind.ROTATE, op(target, NodeKind.XOR, h, f),
               target.request_constant(r + 1))
    target.purge([h])
    assert max(sum(ref in n.inputs for n in target.nodes.values())
               for ref in target.nodes) == 1
    index = TargetIndex(target)
    variants = load_builtin("feistel").variants
    assert len(variants) == 8
    for variant in variants:
        sig = build_variant(variant)
        shared = [ref for ref in sig.graph.nodes
                  if sum(ref in n.inputs
                         for n in sig.graph.nodes.values()) == 2]
        assert [sig.graph.node(ref).kind for ref in shared] == \
            [NodeKind.OPAQUE]
        assert all(reference_initial_domains(sig, target).values())
        assert match_signature(sig, target, index=index) == []
    assert index._tables == {}


def test_signature_setup_carries_nothing_between_targets():
    # the per-signature set-up, consumer counts included, is made on
    # the first target and reused for every later one; each target
    # must still get its own domains
    rng = random.Random(0)
    sig = random_signature(rng)
    while len(sig.graph.nodes) < 5:
        sig = random_signature(rng)
    other = random_signature(rng)
    outcomes = Counter()
    plan = None
    for case in range(80):
        # every fourth target holds copies of another signature, so
        # some of them leave a domain empty before refinement
        target = copies_target(rng, other if case % 4 == 0 else sig,
                               rng.randint(200, 500))
        index = TargetIndex(target)
        tags = reference_initial_domains(sig, target)
        initial = reference_initial_domains(sig, target, degree=True)
        want = initial if all(initial.values()) else None
        cands = _initial_candidates(sig, index)
        assert cands == want, f"case {case}"
        if cands is not None:
            assert list(cands) == list(sig.graph.nodes), f"case {case}"
            if not _refine(_links(sig, index), cands):
                cands = None
        assert cands == reference_domains(sig, target, degree=True), \
            f"case {case}"
        mappings = match_signature(sig, target, 64, index=index)
        assert [m.assignment for m in mappings] == \
            [m.assignment for m in reference_match(sig, target, 64)], \
            f"case {case}"
        plan = plan or sig.plan
        assert sig.plan is plan
        outcomes["no initial" if not all(tags.values()) else
                 "cut by degree" if want is None else
                 "refined away" if cands is None else
                 "matched" if mappings else "no mapping"] += 1
    assert outcomes["no initial"] >= 5
    assert outcomes["cut by degree"] >= 2
    assert outcomes["refined away"] >= 3
    assert outcomes["matched"] >= 20


def test_long_chain_self_match_agrees_with_reference():
    # every domain is a singleton after refinement, so the search only
    # ever picks from singletons
    rng = random.Random(7)
    for steps in (40, 90, 130):
        sig = chain_signature(rng, steps)
        want = reference_match(sig, sig.graph, 64)
        got = match_signature(sig, sig.graph, 64)
        assert [m.assignment for m in got] == \
            [m.assignment for m in want]
        assert [m.assignment for m in got] == \
            [{r: r for r in sig.graph.nodes}]


def test_matching_leaves_no_cycle_holding_the_index():
    # the report keeps one index alive at a time; a reference cycle
    # through the search, or through the check that replaces it once
    # refinement has decided, would keep each until a cyclic collection
    searched = sig_from(SHIFT_REGISTER)
    checked = chain_signature(random.Random(7), 40)
    assert not decided(searched, searched.graph)
    assert decided(checked, checked.graph)
    for sig in (searched, checked):
        index = TargetIndex(sig.graph)
        alive = weakref.ref(index)
        gc.disable()
        try:
            assert match_signature(sig, sig.graph, index=index)
            del index
            assert alive() is None
        finally:
            gc.enable()


def test_decided_domains_still_face_repeated_inputs():
    # XOR(a, a) with a the input R0; the broker would fold it to 0, so
    # it is inserted as is.  Against XOR(R0, R1) every domain is one
    # target, yet R0 is an input of the XOR only once
    sig_graph = Dfg()
    a = sig_graph.request_input("R0")
    sig_graph._insert(NodeKind.XOR, (a, a))
    sig = SignatureGraph(sig_graph)
    target = Dfg()
    op(target, NodeKind.XOR, target.request_input("R0"),
       target.request_input("R1"))
    twice = Dfg()
    r0 = twice.request_input("R0")
    twice._insert(NodeKind.XOR, (r0, r0))
    for graph, count in ((target, 0), (twice, 1)):
        assert decided(sig, graph)
        got = match_signature(sig, graph)
        assert len(got) == count
        assert keys(got) == keys(brute_force_match(sig, graph))


def test_decided_domains_still_face_clamp_labels():
    # the two wildcards of one label are pinned to an ADD and, in
    # `mixed`, an XOR: refinement decides every node, and only the
    # label makes the mixed target fail
    sig = dsl("x: ROTATE(OPAQUE<t>, OPAQUE<t>);")
    results = []
    for second in (NodeKind.ADD, NodeKind.XOR):
        target = Dfg()
        a, b, c, d = (target.request_input(n) for n in "ABCD")
        op(target, NodeKind.ROTATE, op(target, NodeKind.ADD, a, b),
           op(target, second, c, d))
        assert decided(sig, target)
        got = match_signature(sig, target)
        assert keys(got) == keys(brute_force_match(sig, target))
        results.append(got)
    same, mixed = results
    assert [m.clamp_bindings for m in same] == [{"t": NodeKind.ADD}]
    assert mixed == []


def test_decided_domains_respect_the_limit():
    sig = dsl("x: ROTATE(OPAQUE, OPAQUE);")
    target = Dfg()
    op(target, NodeKind.ROTATE, target.request_input("A"),
       target.request_input("B"))
    assert decided(sig, target)
    assert len(match_signature(sig, target, limit=1)) == 1
    assert match_signature(sig, target, limit=0) == []
    assert match_signature(sig, target, limit=-1) == []


def test_refinement_next_to_singleton_domains_agrees_with_reference():
    # a node that shrinks checks its neighbors that are down to one
    # target in place rather than queueing them.  When one target XOR
    # takes `both` R0 and R1, the signature's XOR keeps that candidate
    # beside the singleton inputs; otherwise no XOR takes both, and
    # refinement runs out next to them
    sig_graph = Dfg()
    xor = op(sig_graph, NodeKind.XOR, sig_graph.request_input("R0"),
             sig_graph.request_input("R1"), sig_graph.request_opaque())
    op(sig_graph, NodeKind.ROTATE, xor, sig_graph.request_constant(3))
    sig = SignatureGraph(sig_graph)
    outcomes = []
    for both in (True, False):
        target = Dfg()
        r0, r1, r2 = (target.request_input(f"R{i}") for i in range(3))
        three = target.request_constant(3)
        op(target, NodeKind.ROTATE,
           op(target, NodeKind.XOR, r0, r1 if both else r2,
              target.request_input("K")), three)
        op(target, NodeKind.ROTATE,
           op(target, NodeKind.XOR, r1, r2, target.request_input("L")),
           three)
        index = TargetIndex(target)
        cands = _initial_candidates(sig, index)
        assert cands is not None
        singles = sum(c.bit_count() == 1 for c in cands.values())
        assert singles >= 3
        if not _refine(_links(sig, index), cands):
            cands = None
        assert cands == reference_domains(sig, target, degree=True)
        got = match_signature(sig, target)
        assert keys(got) == keys(brute_force_match(sig, target))
        outcomes.append((cands is not None, len(got)))
    assert outcomes == [(True, 1), (False, 0)]


def test_inputs_ok_agrees_with_the_counter_reference():
    # random (signature node, target node, assignment) triples: inputs
    # repeat on either side, commutative nodes are transient or not,
    # and ordered operations compare by position
    rng = random.Random(20261021)
    kinds = [NodeKind.XOR, NodeKind.ADD, NodeKind.AND, NodeKind.OR,
             NodeKind.MULT, NodeKind.OPAQUE, NodeKind.SUB, NodeKind.ROTATE,
             NodeKind.SHL, NodeKind.LOAD]
    seen = Counter()
    for case in range(6000):
        kind = rng.choice(kinds)
        s = Node(50, kind, tuple(rng.choices(range(5), k=rng.randint(0, 4))))
        t_inputs = tuple(rng.choices(range(100, 106),
                                     k=max(0, len(s.inputs)
                                           + rng.randint(-1, 2))))
        t = Node(200, kind, t_inputs)
        m = {r: (rng.choice(t_inputs) if t_inputs and rng.random() < 0.8
                 else rng.randrange(100, 106)) for r in range(5)}
        sig = SignatureGraph(Dfg(), {},
                             {50} if rng.random() < 0.5 else set())
        want = counter_inputs_ok(sig, 50, s, t, m)
        assert _inputs_ok(sig, 50, s, t, m) == want, f"case {case}"
        mapped = [m[i] for i in s.inputs]
        repeated = len(set(mapped)) < len(mapped)
        if kind in COMMUTATIVE or kind is NodeKind.OPAQUE:
            as_sets = set(mapped) <= set(t.inputs)
            seen["repeat", want] += repeated
            seen["repeat fits as a set only"] += (
                repeated and as_sets and not want
                and len(t.inputs) >= len(s.inputs))
            seen["wider", want] += len(t.inputs) > len(s.inputs)
        else:
            seen["ordered", want] += 1
    for key in (("repeat", True), ("repeat", False),
                "repeat fits as a set only", ("wider", True),
                ("wider", False), ("ordered", True), ("ordered", False)):
        assert seen[key] >= 20, (key, seen)


def test_index_of_another_graph_is_rejected():
    sig = dsl("x: OPAQUE;")
    target = Dfg()
    target.request_input("R0")
    other = Dfg()
    other.request_input("R0")
    with pytest.raises(ValueError):
        match_signature(sig, target, index=TargetIndex(other))


# ------------------------------------------------ end-to-end matches


LFSR_ROUND = """\
bl feedback
and r0, r0, #1
orr r4, r0, r4, lsl #1
"""


def lfsr_fixture(rounds: int) -> bytes:
    text = "mov r5, lr\nmov r4, r0\n" + LFSR_ROUND * rounds + \
        "mov r0, r4\nbx r5\nfeedback:\nbx lr\n"
    return assemble(text)


def test_shift_register_signature_finds_unrolled_lfsr():
    sig = sig_from(SHIFT_REGISTER)
    results = explore(0, lfsr_fixture(4), Config(timeout=5, depth=0))
    (r,) = results
    assert r.status is Status.COMPLETE
    assert match_signature(sig, r.graph) != []


def test_shift_register_signature_rejects_three_rounds():
    sig = sig_from(SHIFT_REGISTER)
    results = explore(0, lfsr_fixture(3), Config(timeout=5, depth=0))
    (r,) = results
    assert match_signature(sig, r.graph) == []


# ------------------------------------- block permutation classifier


def chain_graph(blocks: int = 4, stride: int = 64) -> Dfg:
    """h := MULT(XOR(h, LOAD(base + stride*j)), 3) repeated."""
    g = Dfg()
    base = g.request_input("R1")
    h = g.request_input("IV")
    k = g.request_constant(3)
    for j in range(1, blocks + 1):
        addr = op(g, NodeKind.ADD, base,
                  g.request_constant(stride * j))
        m = g.request_load(addr)
        h = op(g, NodeKind.MULT, op(g, NodeKind.XOR, h, m), k)
    g.purge([h])
    return g


def test_block_permutation_confirms_chained_compression():
    g = chain_graph()
    reports = classify_block_permutation(g)
    confirmed = [r for r in reports if r.confirmed]
    assert confirmed
    assert any(r.offsets[1] - r.offsets[0] == 64 for r in confirmed)
    for r in reports:
        k0, k1, k2 = r.offsets
        assert k1 - k0 >= 16
        assert k1 - k0 == k2 - k1


def test_block_permutation_requires_min_stride():
    g = chain_graph(stride=4)
    assert classify_block_permutation(g) == []


def test_block_permutation_no_offset_loads():
    g = Dfg()
    a = g.request_input("A")
    g.purge([g.request_load(a)])
    assert classify_block_permutation(g) == []


def test_block_permutation_unlinked_loads_not_confirmed():
    g = Dfg()
    base = g.request_input("R1")
    roots = []
    for j in range(1, 4):
        addr = op(g, NodeKind.ADD, base, g.request_constant(16 * j))
        value = g.request_load(addr)
        out = g.request_input(f"OUT{j}")
        roots.append(g.record_store(out, value))
    g.purge(roots)
    reports = classify_block_permutation(g)
    assert len(reports) == 1
    assert reports[0].confirmed is False
    assert reports[0].path_signature == []


def test_block_permutation_flags_keystream_consumption():
    # a keystream state consumed block-by-block while feeding a running
    # value chains exactly like a compression function; the class
    # overlap is intended behavior
    g = Dfg()
    state = g.request_input("STATE")
    h = g.request_input("H")
    c = g.request_constant(5)
    for j in range(1, 5):
        addr = op(g, NodeKind.ADD, state, g.request_constant(16 * j))
        ks = g.request_load(addr)
        h = op(g, NodeKind.MULT, op(g, NodeKind.XOR, h, ks), c)
    g.purge([h])
    reports = classify_block_permutation(g)
    assert any(r.confirmed for r in reports)


def test_block_permutation_report_shape():
    g = chain_graph()
    report = next(r for r in classify_block_permutation(g)
                  if r.confirmed)
    assert isinstance(report, BlockPermReport)
    assert g.node(report.anchor).symbol == "R1"
    for ref in report.triple:
        assert g.node(ref).kind is NodeKind.LOAD
    directions = [d for d, _ in report.path_signature]
    assert directions[-1] == "rev"          # arrives at a load
    assert report.path_signature[-1][1] == "LOAD"


def test_bfs_path_agrees_with_the_search_that_pops_its_goal():
    # stopping when the goal is discovered and testing `blocked` only
    # at blocked endpoints must give the parent chain of a search that
    # stops when it pops the goal and tests every edge; half the goals
    # are a blocked endpoint or one of its neighbors
    rng = random.Random(20261019)
    outcomes = Counter()
    for case in range(150):
        sig = random_signature(rng)
        target = (random_target(rng, sig) if case % 2 else
                  copies_target(rng, sig, rng.randint(30, 120)))
        refs = sorted(target.nodes)
        edges = [(c, a) for c in refs for a in target.node(c).inputs]
        if not edges:
            continue
        blocked = {rng.choice(edges) for _ in range(3)}
        ends = sorted({n for edge in blocked for n in edge})
        uses = _consumers(target)
        adjacency = _adjacency(target, uses)
        for _ in range(12):
            start = rng.choice(ends + refs)
            if rng.random() < 0.5:
                near = rng.choice(ends)
                goal = rng.choice([near] + [w for w, _ in adjacency[near]])
            else:
                goal = rng.choice(refs)
            want = reference_bfs_path(target, uses, start, goal, blocked)
            assert _bfs_path(adjacency, start, goal, blocked) == want, \
                f"case {case}: {start} -> {goal}, blocked {blocked}"
            outcomes["none" if want is None else
                     "around" if len(want) > 2 and any(
                         (start, goal) in (e, e[::-1]) for e in blocked)
                     else "path"] += 1
    assert outcomes["none"] >= 400
    assert outcomes["path"] >= 500
    assert outcomes["around"] >= 20


def test_block_permutation_takes_first_consumer_on_ties():
    # each block reaches the next through XOR or through SUB in the same
    # number of edges, and MULT(q, q) consumes q twice; the search must
    # step to consumers in ascending ref order, so the XOR route wins
    g = Dfg()
    base = g.request_input("R1")
    h = g.request_input("IV")
    for j in range(1, 5):
        addr = op(g, NodeKind.ADD, base, g.request_constant(16 * j))
        m = g.request_load(addr)
        q = op(g, NodeKind.OR, op(g, NodeKind.XOR, h, m),
               op(g, NodeKind.SUB, h, m))
        h = op(g, NodeKind.MULT, q, q)
        assert g.node(h).inputs == (q, q)
    g.purge([h])
    route = [("fwd", "XOR"), ("fwd", "OR"), ("fwd", "MULT"),
             ("fwd", "XOR"), ("rev", "LOAD")]
    assert classify_block_permutation(g) == [
        BlockPermReport(0, (4, 11, 18), (16, 32, 48), route, True),
        BlockPermReport(0, (11, 18, 25), (32, 48, 64), route, True),
    ]
