"""Symbolic execution engine tests.

The loop fixture freezes the full oracle interaction for a counted loop
with an unknown bound: the expected backlogs, path conditions, and both
output graphs were derived by hand from the branch policy before
running the engine.
"""

from __future__ import annotations

import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ReferencePathCondition, reference_judge_interval
from test_match_pin import _bench_corpus
from wherescrypto import arm, symexec
from wherescrypto.asm import assemble
from wherescrypto.dfg import Dfg, NodeKind
from wherescrypto.symexec import (
    Condition,
    Config,
    DeadStateError,
    OracleDecision,
    PathCondition,
    Status,
    Verdict,
    explore,
    handle_conditional,
    oracle_query,
    ExecState,
)

LOOP_FIXTURE = """\
mov r2, #0
mov r0, #0
loop:
cmp r2, r8
bge exit
eor r0, r0, r1
ror r1, r1, #3
add r2, r2, #1
b loop
exit:
bx lr
"""
GUARD_ADDR = 12                      # address of the bge


def shift_register_loop(iterations: int) -> str:
    """A loop whose counter folds to a constant while its body branches
    on a fresh bit of R0 each time: every iteration past the oracle's n
    adds one fact to the path condition."""
    return f"""\
ldr r3, ={iterations}
mov r2, #0
loop:
tst r0, #1
beq skip
eor r0, r0, r5
skip:
lsr r0, r0, #1
add r2, r2, #1
cmp r2, r3
blt loop
bx lr
"""


def _graph_with_input(name="R8"):
    g = Dfg()
    return g, g.request_input(name)


# ----------------------------------------------------- condition logic


def test_evaluate_unknown_is_undetermined():
    g, r8 = _graph_with_input()
    zero = g.request_constant(0)
    p = PathCondition()
    assert p.evaluate(g, Condition(r8, "<=", zero)) is \
        Verdict.UNDETERMINED


def test_evaluate_boundary_stays_undetermined():
    g, r8 = _graph_with_input()
    zero = g.request_constant(0)
    one = g.request_constant(1)
    p = PathCondition()
    p.extend(g, Condition(r8, ">", zero), True)
    assert p.evaluate(g, Condition(r8, "<=", one)) is \
        Verdict.UNDETERMINED


def test_evaluate_fact_repetition_is_true():
    g, r8 = _graph_with_input()
    zero = g.request_constant(0)
    p = PathCondition()
    c = Condition(r8, "<=", zero)
    p.extend(g, c, True)
    assert p.evaluate(g, c) is Verdict.TRUE


def test_evaluate_interval_window():
    g, r8 = _graph_with_input()
    three = g.request_constant(3)
    p = PathCondition()
    p.extend(g, Condition(r8, ">", three), True)
    four = g.request_constant(4)
    two = g.request_constant(2)
    assert p.evaluate(g, Condition(r8, "<=", four)) is \
        Verdict.UNDETERMINED
    assert p.evaluate(g, Condition(r8, ">", two)) is Verdict.TRUE


def test_evaluate_mirrored_constant_side():
    g, r8 = _graph_with_input()
    zero = g.request_constant(0)
    p = PathCondition()
    p.extend(g, Condition(zero, ">=", r8), True)      # R8 <= 0
    assert p.evaluate(g, Condition(r8, "<=", zero)) is Verdict.TRUE
    assert p.evaluate(g, Condition(r8, ">", zero)) is Verdict.FALSE


def test_evaluate_reflexive_and_const_const():
    g, r8 = _graph_with_input()
    a = g.request_constant(3)
    b = g.request_constant(5)
    p = PathCondition()
    assert p.evaluate(g, Condition(a, "<", b)) is Verdict.TRUE
    assert p.evaluate(g, Condition(b, "<=", a)) is Verdict.FALSE
    assert p.evaluate(g, Condition(r8, "<=", r8)) is Verdict.TRUE
    assert p.evaluate(g, Condition(r8, "<", r8)) is Verdict.FALSE


def test_evaluate_signed_interpretation_of_constants():
    g, r8 = _graph_with_input()
    minus_one = g.request_constant(0xFFFFFFFF)
    zero = g.request_constant(0)
    p = PathCondition()
    p.extend(g, Condition(r8, "<", minus_one), True)   # R8 < -1 signed
    assert p.evaluate(g, Condition(r8, "<", zero)) is Verdict.TRUE


def test_evaluate_soundness_against_enumeration():
    rng = random.Random(7)
    ops = ["<", "<=", "==", ">=", ">"]
    for _ in range(300):
        g, node = _graph_with_input("R0")
        consts = {v: g.request_constant(v & 0xFFFFFFFF)
                  for v in range(-8, 9)}
        p = PathCondition()
        facts = []
        try:
            for _ in range(rng.randrange(0, 4)):
                c = Condition(node, rng.choice(ops),
                              consts[rng.randrange(-8, 9)])
                pol = rng.random() < 0.5
                p.extend(g, c, pol)
                facts.append((c, pol))
        except DeadStateError:
            continue
        query = Condition(node, rng.choice(ops),
                          consts[rng.randrange(-8, 9)])
        verdict = p.evaluate(g, query)

        def sat(value, cond, polarity=True):
            cv = g.const_value(cond.v2)
            cv = cv - (1 << 32) if cv >= (1 << 31) else cv
            res = {"<": value < cv, "<=": value <= cv,
                   "==": value == cv, ">=": value >= cv,
                   ">": value > cv}[cond.op]
            return res if polarity else not res

        window = [v for v in range(-40, 41)
                  if all(sat(v, c, pol) for c, pol in facts)]
        holds = [sat(v, query) for v in window]
        if verdict is Verdict.TRUE:
            assert all(holds)
        elif verdict is Verdict.FALSE:
            assert not any(holds)


def test_extend_exact_contradiction_dies():
    g, r8 = _graph_with_input()
    zero = g.request_constant(0)
    p = PathCondition()
    c = Condition(r8, "<=", zero)
    p.extend(g, c, True)
    with pytest.raises(DeadStateError):
        p.extend(g, c, False)


def test_extend_empty_interval_dies():
    g, r8 = _graph_with_input()
    p = PathCondition()
    p.extend(g, Condition(r8, ">", g.request_constant(5)), True)
    with pytest.raises(DeadStateError):
        p.extend(g, Condition(r8, "<", g.request_constant(3)), True)


def test_extend_fully_excluded_interval_dies():
    g, r8 = _graph_with_input()
    c = lambda op, v: Condition(r8, op, g.request_constant(v))
    # excluding every value of [0, width) kills the path up to 1,024
    # values; wider ranges are not counted
    for width in (2, 1024, 1025):
        p = PathCondition()
        p.extend(g, c(">=", 0), True)
        p.extend(g, c("<", width), True)
        for v in range(width - 1):
            p.extend(g, c("==", v), False)
        if width > 1024:
            p.extend(g, c("==", width - 1), False)
            assert p.ranges[r8] == (0, width - 1, frozenset(range(width)))
        else:
            with pytest.raises(DeadStateError,
                               match=f"interval for node {r8} fully"):
                p.extend(g, c("==", width - 1), False)


_NEAR_ENDS = st.one_of(
    st.integers(-2, 2),
    st.integers(symexec.SIGNED_MIN, symexec.SIGNED_MIN + 2),
    st.integers(symexec.SIGNED_MAX - 2, symexec.SIGNED_MAX))


@st.composite
def _fact_sequences(draw):
    """Facts over 2-3 input nodes, each against a constant near 0, near
    either end of the signed range or near the other constants, on
    either side, or between two nodes; and queries of any two operands.
    An operand is ("node", index) or ("const", 32-bit word)."""
    nodes = draw(st.integers(2, 3))
    bases = draw(st.lists(_NEAR_ENDS, min_size=1, max_size=2))
    node = st.tuples(st.just("node"), st.integers(0, nodes - 1))
    const = st.tuples(st.just("const"), st.builds(
        lambda base, delta: (base + delta) & 0xFFFFFFFF,
        st.sampled_from(bases), st.integers(-1, 1)))
    operand = node | const
    # "==" twice as often, so that its negations fully exclude a range
    op = st.sampled_from(_OPS + ("==",))
    fact = st.tuples(node, op, operand) | st.tuples(const, op, node)
    facts = draw(st.lists(st.tuples(fact, st.booleans()), max_size=16))
    queries = draw(st.lists(st.tuples(operand, op, operand), max_size=6))
    return nodes, facts, queries


@settings(max_examples=400, deadline=None)
@given(_fact_sequences())
@example((2, [((("node", 0), ">=", ("const", 0)), True),
              ((("node", 0), "<=", ("const", 1)), True),
              ((("const", 0), "==", ("node", 0)), False),
              ((("node", 0), "==", ("const", 1)), False)], []))
def test_path_condition_matches_rescanning_reference(sequence):
    nodes, facts, queries = sequence
    g = Dfg()
    inputs = [g.request_input(f"R{i}") for i in range(nodes)]

    def node_of(operand):
        kind, value = operand
        return inputs[value] if kind == "node" else g.request_constant(value)

    def condition(spec):
        return Condition(node_of(spec[0]), spec[1], node_of(spec[2]))

    fact_conds = [condition(spec) for spec, _ in facts]
    queries = fact_conds + [condition(spec) for spec in queries]
    p, reference = PathCondition(), ReferencePathCondition()
    for cond, (_, polarity) in zip(fact_conds, facts):
        errors = []
        for pc in (p, reference):
            try:
                pc.extend(g, cond, polarity)
                errors.append(None)
            except DeadStateError as err:
                errors.append(str(err))
        assert errors[0] == errors[1]
        if errors[0] is not None:
            break                          # the path is dead
        constrained = {node for node in inputs for fact, _ in reference.facts
                       if symexec._against_constant(g, fact, node)}
        assert set(p.ranges) == constrained
        for node in inputs:
            assert (p.ranges.get(node, symexec._UNCONSTRAINED)
                    == reference.interval(g, node))
        for query in queries:
            assert p.evaluate(g, query) is reference.evaluate(g, query)


# ------------------------------------------------------------- oracle


def test_oracle_policy_table():
    assert oracle_query(0x10, {}, 4) is OracleDecision.TAKE_BOTH
    assert oracle_query(0x10, {0x10: [False, False]}, 4) is \
        OracleDecision.TAKE_FALSE
    assert oracle_query(0x10, {0x10: [False] * 4}, 4) is \
        OracleDecision.TAKE_TRUE
    assert oracle_query(0x10, {0x10: [True]}, 4) is \
        OracleDecision.TAKE_TRUE
    assert oracle_query(0x10, {0x10: [True] * 4}, 4) is \
        OracleDecision.TAKE_FALSE
    assert oracle_query(0x10, {0x10: [True] * 9}, 4) is \
        OracleDecision.TAKE_FALSE


def _state_for_conditional() -> ExecState:
    image = assemble("nop")
    return ExecState.initial(0, image, 0)


def test_handle_conditional_determined_skips_backlog():
    st = _state_for_conditional()
    g = st.graph
    r8 = st.regs["R8"]
    zero = g.request_constant(0)
    cond = Condition(r8, "<=", zero)
    st.path_condition.extend(g, cond, True)
    out = handle_conditional(st, 0x20, cond, n=4, live_count=1)
    assert out == [(st, True)]
    assert st.backlog == {}


def test_handle_conditional_forks_both():
    st = _state_for_conditional()
    g = st.graph
    cond = Condition(st.regs["R8"], "<=", g.request_constant(0))
    out = handle_conditional(st, 0x20, cond, n=4, live_count=1)
    assert len(out) == 2
    values = [v for _, v in out]
    assert values == [True, False]
    for s, v in out:
        assert s.backlog == {0x20: [v]}
        assert list(s.path_condition.facts.items()) == [(cond, v)]


def test_handle_conditional_drops_contradicted_arm():
    st = _state_for_conditional()
    g = st.graph
    r0 = st.regs["R0"]
    c = lambda op, v: Condition(r0, op, g.request_constant(v))
    st.path_condition.extend(g, c(">=", 4), True)
    st.path_condition.extend(g, c("<=", 5), True)
    st.path_condition.extend(g, c("==", 4), False)
    out = handle_conditional(st, 0x20, c("==", 5), n=4, live_count=1)
    assert len(out) == 1
    assert out[0][1] is True


def test_fork_cap_forces_false():
    st = _state_for_conditional()
    g = st.graph
    cond = Condition(st.regs["R8"], "<=", g.request_constant(0))
    out = handle_conditional(st, 0x20, cond, n=4,
                             live_count=symexec.FORK_CAP)
    assert [v for _, v in out] == [False]
    assert "fork cap reached" in st.flags


# ------------------------------------------------------------ explore


def test_explore_straight_line():
    image = assemble("mov r0, #1\nbx lr")
    results = explore(0, image, Config(timeout=2))
    assert len(results) == 1
    r = results[0]
    assert r.status is Status.COMPLETE
    assert r.backlog == {}
    g = r.graph
    assert len(g.nodes) == 1
    assert g.const_value(r.result_ref) == 1


def test_explore_counted_loop_yields_two_graphs():
    image = assemble(LOOP_FIXTURE)
    results = explore(0, image, Config(n=4, timeout=5))
    assert len(results) == 2
    trivial, looped = results
    assert trivial.status is Status.COMPLETE
    assert looped.status is Status.COMPLETE

    assert trivial.backlog == {GUARD_ADDR: [True]}
    assert looped.backlog == {GUARD_ADDR: [False, False, False, False,
                                           True]}

    # exit-immediately path: R0 is the constant 0, P says R8 <= 0
    g = trivial.graph
    assert g.const_value(trivial.result_ref) == 0
    assert trivial.conditions == [("0 >= R8", True)]

    # loop path: the negated guards pin R8 to exactly 4
    assert looped.conditions == [("0 >= R8", False),
                                 ("1 >= R8", False),
                                 ("2 >= R8", False),
                                 ("3 >= R8", False),
                                 ("4 >= R8", True)]

    # graph: R0 root is a 4-way XOR of R1 and its three rotations
    g = looped.graph
    root = g.node(looped.result_ref)
    assert root.kind is NodeKind.XOR
    assert len(root.inputs) == 4
    kinds = sorted(g.node(i).kind.name for i in root.inputs)
    assert kinds == ["INPUT", "ROTATE", "ROTATE", "ROTATE"]


def _count_decodes(monkeypatch) -> list[int]:
    decoded: list[int] = []
    original = arm.decode

    def counting(image, address, base=0):
        decoded.append(address)
        return original(image, address, base)

    monkeypatch.setattr(arm, "decode", counting)
    return decoded


def test_explore_decodes_each_address_once(monkeypatch):
    decoded = _count_decodes(monkeypatch)
    results = explore(0, assemble(LOOP_FIXTURE), Config(n=8, timeout=5))
    assert len(results) == 2
    assert len(decoded) == len(set(decoded)) == 9


def test_explorer_reaches_the_lifter_through_the_arm_module(monkeypatch):
    """The benchmark's tracer wraps `arm.decode` and `arm.execute`, so
    the explorer must call both through the module: one decode per
    distinct address and one execute per instruction whose condition
    held, on a seed-1 `selftest-loops` function with skipped
    conditional steps.  A guard on two ints is decided in the step
    loop, so its skip is counted here from the comparison; a guard with
    a node side is counted from what `handle_conditional` returns."""
    bench = _bench_corpus()
    corpus = bench.generate("selftest-loops", 1)
    decoded = _count_decodes(monkeypatch)
    counts = {"execute": 0, "skipped": 0}
    expected: list[bool] = []
    execute, condition_info = arm.execute, arm.condition_info
    handle = symexec.handle_conditional

    def counting_execute(state, ins):
        counts["execute"] += 1
        return execute(state, ins)

    def noting_condition(state, cond):
        info = condition_info(state, cond)
        (v1, op, v2), expect = info
        expected.append(expect)
        if v1 < 0 and v2 < 0:
            counts["skipped"] += (_HOLDS[op](_signed(~v1), _signed(~v2))
                                  != expect)
        return info

    def counting_skips(*args, **kwargs):
        pairs = handle(*args, **kwargs)
        counts["skipped"] += sum(value != expected[-1] for _, value in pairs)
        return pairs

    monkeypatch.setattr(arm, "execute", counting_execute)
    monkeypatch.setattr(arm, "condition_info", noting_condition)
    monkeypatch.setattr(symexec, "handle_conditional", counting_skips)
    [path] = explore(corpus.entries["crc32_check_a"], corpus.image,
                     Config(n=corpus.n, depth=bench.DEPTH,
                            timeout=bench.TIMEOUT), base=corpus.base)
    assert path.status is Status.COMPLETE
    assert decoded and len(decoded) == len(set(decoded))
    assert counts["skipped"] > 0
    assert counts["execute"] == path.steps - counts["skipped"]


def test_explore_decode_memo_keeps_paths():
    # the memo must not change what any path does or builds
    results = explore(0, assemble(LOOP_FIXTURE), Config(n=8, timeout=5))
    assert [(r.status, r.steps, sorted(r.flags), len(r.graph.nodes))
            for r in results] == [(Status.COMPLETE, 5, [], 1),
                                  (Status.COMPLETE, 53, [], 10)]


def test_forked_paths_abort_on_same_undecodable_word(monkeypatch):
    decoded = _count_decodes(monkeypatch)
    image = assemble("cmp r0, #0\nbeq bad\nmov r1, #1\n"
                     "bad:\n.word 0xffffffff")
    results = explore(0, image, Config(timeout=2))
    assert [r.status for r in results] == [Status.ABORTED] * 2
    flags = [r.flags for r in results]
    assert flags[0] == flags[1] == {
        "undecodable at 0xc word=0xffffffff (unconditional space)"}
    # failures are not memoised: each path decodes the bad word itself
    assert decoded.count(0xc) == 2


def test_conditional_that_leaves_no_live_state_ends_the_path(monkeypatch):
    # a fork cap of 1 makes every undetermined guard take its false side
    # alone.  The first three leave R0 in [0, 1] with 0 excluded; the
    # fourth's false side, R0 != 1, excludes the rest, so the step loop
    # is left with no state and the path ends without a result
    image = assemble("cmp r0, #0\nblt out\ncmp r0, #1\nbgt out\n"
                     "cmp r0, #0\nbeq out\ncmp r0, #1\nbeq out\n"
                     "mov r0, #7\nout: bx lr")
    monkeypatch.setattr(symexec, "FORK_CAP", 1)
    explorer = symexec.Explorer(image, config=Config(timeout=2))
    assert explorer.explore(0) == []
    # the eight steps up to the dead guard still count against the budget
    assert explorer._steps_left == symexec.STEP_BUDGET - 8


def test_forked_sibling_that_returns_at_once_is_finished():
    # NE is "not (R0 == 5)": the sibling that takes it returns at its
    # first instruction and is finished before the other side runs on
    image = assemble("cmp r0, #5\nbxne lr\nmov r0, #1\nbx lr")
    results = symexec.Explorer(image, config=Config(timeout=2)).explore(0)
    assert [(r.status, r.steps, r.conditions) for r in results] == [
        (Status.COMPLETE, 2, [("R0 == 5", False)]),
        (Status.COMPLETE, 4, [("R0 == 5", True)])]
    sibling, rest = results
    assert sibling.graph.node(sibling.result_ref).symbol == "R0"
    assert rest.graph.const_value(rest.result_ref) == 1


def test_forked_sibling_that_writes_a_symbolic_pc_aborts():
    image = assemble("cmp r0, #5\nbxne r1\nmov r0, #1\nbx lr")
    results = symexec.Explorer(image, config=Config(timeout=2)).explore(0)
    assert [(r.status, r.steps, r.flags) for r in results] == [
        (Status.ABORTED, 2, {"symbolic PC write at 0x4"}),
        (Status.COMPLETE, 4, set())]
    assert results[0].result_ref is None


def test_explore_diamond_makes_two_paths():
    image = assemble("cmp r0, #0\nbge pos\nmov r0, #7\nbx lr\n"
                     "pos: mov r0, #9\nbx lr")
    results = explore(0, image, Config(timeout=2))
    assert len(results) == 2
    values = sorted(r.graph.const_value(r.result_ref)
                    for r in results)
    assert values == [7, 9]


def test_explore_inlines_to_depth(toolchain):
    src = """
unsigned int addmul(unsigned int a, unsigned int b) {
    return (a + b) * 3u;
}
unsigned int twice(unsigned int a) { return addmul(a, a); }
"""
    loaded = toolchain.compile(src, "O0")
    results = explore(loaded.functions["twice"], loaded.image,
                      Config(timeout=5, depth=2), base=loaded.base)
    assert len(results) == 1
    r = results[0]
    assert r.status is Status.COMPLETE
    g = r.graph

    # the callee computes (a + b) * 3 as x + (x << 1); with a == b the
    # rules normalize that to ADD(MULT(R0, 2), MULT(R0, 4))
    node = g.node(r.result_ref)
    assert node.kind is NodeKind.ADD
    factors = []
    for i in node.inputs:
        term = g.node(i)
        assert term.kind is NodeKind.MULT
        base, scale = term.inputs
        if g.is_const(base):
            base, scale = scale, base
        assert g.node(base).symbol == "R0"
        factors.append(g.const_value(scale))
    assert sorted(factors) == [2, 4]
    assert not any(n.kind is NodeKind.CALL for n in g.nodes.values())


def test_explore_depth_zero_emits_call_node(toolchain):
    src = """
unsigned int addmul(unsigned int a, unsigned int b) {
    return (a + b) * 3u;
}
unsigned int twice(unsigned int a) { return addmul(a, a); }
"""
    loaded = toolchain.compile(src, "O0")
    results = explore(loaded.functions["twice"], loaded.image,
                      Config(timeout=5, depth=0), base=loaded.base)
    assert len(results) == 1
    g = results[0].graph
    calls = [n for n in g.nodes.values() if n.kind is NodeKind.CALL]
    assert len(calls) == 1
    assert calls[0].symbol == f"0x{loaded.functions['addmul']:x}"
    result = g.node(results[0].result_ref)
    assert result.kind is NodeKind.OPAQUE


CALL_CHAIN = """\
f0: push {lr}
    add r0, r0, #1
    bl f1
    pop {pc}
f1: push {lr}
    bl f2
    mov r1, r0
    bl f2
    add r0, r0, r1
    pop {pc}
f2: push {lr}
    bl f3
    eor r0, r0, #0x55
    bl f3
    pop {pc}
f3: add r0, r0, r0, lsl #2
    bx lr
"""

# depth -> (CALL nodes left in the graph, serialized graph)
CALL_CHAIN_GOLDEN = {
    0: (1, (
        "0: INPUT() [R0]\n"
        "1: INPUT() [R1]\n"
        "2: INPUT() [R2]\n"
        "3: INPUT() [R3]\n"
        "13: INPUT() [SP]\n"
        "16: CONST() [0xfffffffc]\n"
        "17: ADD(13, 16)\n"
        "19: CONST() [0x1]\n"
        "20: ADD(0, 19)\n"
        "21: CALL(20, 1, 2, 3, 17) [0x10 #0]\n"
        "22: OPAQUE(21) [#1]"
    )),
    1: (2, (
        "0: INPUT() [R0]\n"
        "1: INPUT() [R1]\n"
        "2: INPUT() [R2]\n"
        "3: INPUT() [R3]\n"
        "13: INPUT() [SP]\n"
        "19: CONST() [0x1]\n"
        "20: ADD(0, 19)\n"
        "21: CONST() [0xfffffff8]\n"
        "22: ADD(13, 21)\n"
        "25: CALL(20, 1, 2, 3, 22) [0x28 #0]\n"
        "26: OPAQUE(25) [#1]\n"
        "28: OPAQUE() [#3]\n"
        "29: OPAQUE() [#4]\n"
        "31: CALL(26, 26, 28, 29, 22) [0x28 #6]\n"
        "32: OPAQUE(31) [#7]\n"
        "33: OPAQUE() [#8]\n"
        "37: ADD(32, 33)"
    )),
    2: (4, (
        "0: INPUT() [R0]\n"
        "1: INPUT() [R1]\n"
        "2: INPUT() [R2]\n"
        "3: INPUT() [R3]\n"
        "13: INPUT() [SP]\n"
        "19: CONST() [0x1]\n"
        "20: ADD(0, 19)\n"
        "25: CONST() [0xfffffff4]\n"
        "26: ADD(13, 25)\n"
        "29: CALL(20, 1, 2, 3, 26) [0x3c #0]\n"
        "30: OPAQUE(29) [#1]\n"
        "31: OPAQUE() [#2]\n"
        "32: OPAQUE() [#3]\n"
        "33: OPAQUE() [#4]\n"
        "35: CONST() [0x55]\n"
        "36: XOR(30, 35)\n"
        "37: CALL(36, 31, 32, 33, 26) [0x3c #6]\n"
        "38: OPAQUE(37) [#7]\n"
        "40: OPAQUE() [#9]\n"
        "41: OPAQUE() [#10]\n"
        "46: CALL(38, 38, 40, 41, 26) [0x3c #12]\n"
        "47: OPAQUE(46) [#13]\n"
        "48: OPAQUE() [#14]\n"
        "49: OPAQUE() [#15]\n"
        "50: OPAQUE() [#16]\n"
        "52: XOR(35, 47)\n"
        "53: CALL(52, 48, 49, 50, 26) [0x3c #18]\n"
        "54: OPAQUE(53) [#19]\n"
        "55: OPAQUE() [#20]\n"
        "59: ADD(54, 55)"
    )),
    3: (0, (
        "0: INPUT() [R0]\n"
        "19: CONST() [0x1]\n"
        "20: ADD(0, 19)\n"
        "29: CONST() [0x2]\n"
        "30: SHL(20, 29)\n"
        "31: ADD(0, 19, 30)\n"
        "32: CONST() [0x55]\n"
        "33: XOR(31, 32)\n"
        "34: SHL(33, 29)\n"
        "35: ADD(33, 34)\n"
        "39: SHL(35, 29)\n"
        "40: ADD(33, 34, 39)\n"
        "41: XOR(32, 40)\n"
        "42: SHL(41, 29)\n"
        "44: ADD(33, 34, 41, 42)"
    )),
}


def test_explore_call_chain_inlines_to_each_depth():
    # f0 calls f1 once, f1 calls f2 twice and f2 calls f3 twice: each
    # depth inlines one more level and cuts the chain with CALL nodes
    # at the next, until depth 3 inlines everything
    image = assemble(CALL_CHAIN)
    for depth, (calls, serialized) in CALL_CHAIN_GOLDEN.items():
        (r,) = explore(0, image, Config(timeout=5, depth=depth))
        assert r.status is Status.COMPLETE
        assert sum(n.kind is NodeKind.CALL
                   for n in r.graph.nodes.values()) == calls
        assert r.graph.serialize() == serialized
    (deeper,) = explore(0, image, Config(timeout=5, depth=4))
    assert deeper.graph.serialize() == CALL_CHAIN_GOLDEN[3][1]

def test_explore_stack_stores_are_purged():
    image = assemble("str r1, [sp, #8]\nldr r0, [sp, #8]\nbx lr")
    results = explore(0, image, Config(timeout=2))
    (r,) = results
    g = r.graph
    assert all(n.kind is not NodeKind.STORE for n in g.nodes.values())
    assert g.node(r.result_ref).symbol == "R1"


def test_explore_external_stores_are_roots():
    image = assemble("str r1, [r2]\nbx lr")
    results = explore(0, image, Config(timeout=2))
    (r,) = results
    g = r.graph
    stores = [n for n in g.nodes.values() if n.kind is NodeKind.STORE]
    assert len(stores) == 1


def test_explore_aborts_on_undecodable():
    image = assemble("mov r0, #1\n.word 0xe1d100b0")  # halfword load
    results = explore(0, image, Config(timeout=2))
    (r,) = results
    assert r.status is Status.ABORTED
    assert any("undecodable" in f for f in r.flags)


def test_explore_aborts_on_symbolic_pc():
    image = assemble("bx r4")
    results = explore(0, image, Config(timeout=2))
    (r,) = results
    assert r.status is Status.ABORTED


def test_explore_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(symexec, "STEP_BUDGET", 10_000)
    image = assemble("loop: b loop")
    results = explore(0, image, Config(timeout=100.0))
    (r,) = results
    assert r.status is Status.TIMEOUT
    assert r.flags == {"instruction budget exhausted"}
    assert r.steps == 10_000


def test_explore_budget_is_independent_of_timeout(monkeypatch):
    # the step budget, not the machine's speed, ends this store loop,
    # which never exits and grows the graph on every iteration, so a
    # short and a long wall-clock backstop give the same path
    monkeypatch.setattr(symexec, "STEP_BUDGET", 5_000)
    image = assemble("loop:\nstr r1, [r0, r1, lsl #2]\n"
                     "add r1, r1, #1\nb loop")
    runs = []
    for timeout in (5, 60):
        (r,) = explore(0, image, Config(timeout=timeout))
        runs.append((r.status, r.flags, r.steps, r.graph.serialize()))
    assert runs[0] == runs[1]
    assert runs[0][:3] == (Status.TIMEOUT,
                           {"instruction budget exhausted"}, 5_000)


@pytest.mark.parametrize("ending, status, flag", [
    pytest.param("bx lr", Status.COMPLETE, None, id="return"),
    pytest.param(".word 0xffffffff", Status.ABORTED,
                 "undecodable at 0xc word=0xffffffff (unconditional space)",
                 id="undecodable"),
    pytest.param("bx r1", Status.ABORTED, "symbolic PC write at 0xc",
                 id="symbolic-pc"),
    pytest.param("b end", Status.TIMEOUT, "instruction budget exhausted",
                 id="spin"),
])
def test_forked_paths_share_the_budget(monkeypatch, ending, status, flag):
    # cmp and beq run once before the fork; the taken side runs first,
    # and whatever both paths step after the fork comes out of the same
    # budget, however the first one ends
    monkeypatch.setattr(symexec, "STEP_BUDGET", 3_000)
    image = assemble(f"cmp r0, #0\nbeq end\nspin: b spin\nend: {ending}")
    first, spin = explore(0, image, Config(timeout=60))
    assert first.status is status
    assert first.flags == ({flag} if flag else set())
    assert spin.status is Status.TIMEOUT
    assert spin.flags == {"instruction budget exhausted"}
    assert 2 + sum(r.steps - 2 for r in (first, spin)) == 3_000


def test_work_per_conditional_does_not_grow_with_the_path(monkeypatch):
    # each conditional orients a condition against a constant a fixed
    # number of times, however many facts the path already holds
    counts = {"oriented": 0, "conditionals": 0}

    def counted(module, name, key):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(symexec, "_against_constant", "oriented")
    # every conditional step reads its guard through the arm module
    counted(arm, "condition_info", "conditionals")
    for iterations in (250, 1000):
        counts.update(oriented=0, conditionals=0)
        results = explore(0, assemble(shift_register_loop(iterations)),
                          Config(timeout=600))
        assert [r.status for r in results] == [Status.COMPLETE] * 2
        assert counts["conditionals"] >= 2 * iterations
        assert counts["oriented"] <= 2 * counts["conditionals"], iterations


def constant_count_loop(iterations: int) -> str:
    """A loop whose counter, accumulator and literal loads are all
    constants; an even count leaves the accumulator at 0, so the
    function returns R0 ^ 0x55 for every even count."""
    return f"""\
    ldr r2, ={iterations}
    mov r3, #0
loop:
    ldr r5, =0x5a5a5a5a
    eor r3, r3, r5
    add r6, r3, r2, lsl #2
    subs r2, r2, #1
    bne loop
    add r3, r3, #0x55
    eor r0, r0, r3
    bx lr
"""


def test_constant_work_makes_no_nodes_per_iteration(monkeypatch):
    # constant-only work stays on ints, so 1,000 iterations leave the
    # same graph as 10 and create no more nodes on the way; the loop's
    # guard compares two ints, so the step loop decides it without
    # `handle_conditional`
    handle, handled = symexec.handle_conditional, []

    def noting(state, e, *args, **kwargs):
        handled.append(e)
        return handle(state, e, *args, **kwargs)
    monkeypatch.setattr(symexec, "handle_conditional", noting)
    short, long = (explore(0, assemble(constant_count_loop(count)),
                           Config(timeout=600))
                   for count in (10, 1000))
    (a,), (b,) = short, long
    assert handled == []
    assert a.status is b.status is Status.COMPLETE
    assert b.steps > 90 * a.steps
    assert a.graph._next_id == b.graph._next_id
    assert a.graph.serialize() == b.graph.serialize()
    assert a.result_ref == b.result_ref
    result = a.graph.node(a.result_ref)
    assert result.kind is NodeKind.XOR
    assert {a.graph.node(i).const_value
            for i in result.inputs} == {None, 0x55}


def test_explore_wall_clock_timeout():
    image = assemble("loop: b loop")
    results = explore(0, image, Config(timeout=0.05))
    (r,) = results
    assert r.status is Status.TIMEOUT


def test_fork_cap_bounds_live_states(monkeypatch):
    # independent conditions on distinct registers keep every arm
    # underdetermined, so the depth-first frontier really grows
    lines = []
    for k in range(13):
        lines.append(f"cmp r{k}, #1")
        lines.append(f"bne l{k}")
        lines.append(f"l{k}:")
    lines.append("mov r0, #0")
    lines.append("bx lr")
    image = assemble("\n".join(lines))
    monkeypatch.setattr(symexec, "FORK_CAP", 8)
    results = explore(0, image, Config(timeout=10))
    assert any("fork cap reached" in r.flags for r in results)
    assert all(r.status is Status.COMPLETE for r in results)
    assert 8 <= len(results) < 2 ** 13


def test_config_rejects_bad_values():
    for bad in ({"n": 0}, {"depth": -1}, {"timeout": 0},
                {"timeout": float("nan")}, {"timeout": float("inf")},
                {"timeout": float("-inf")}, {"timeout": float("1e309")}):
        with pytest.raises(ValueError):
            Config(**bad)


_OPS = ("<", "<=", "==", ">=", ">")


def test_judge_interval_matches_reference_near_the_constant():
    # every placement of the two ends around c, empty intervals
    # (lo > hi) included, with c excluded or not
    c = 0
    for op in _OPS:
        for lo in range(-3, 4):
            for hi in range(-3, 4):
                for excluded in (set(), {c}, {c - 1, c + 1}, {lo, hi}):
                    assert (symexec._judge_interval(op, c, lo, hi, excluded)
                            == reference_judge_interval(op, c, lo, hi,
                                                        excluded)), \
                        (op, lo, hi, excluded)


_SIGNED = st.integers(symexec.SIGNED_MIN, symexec.SIGNED_MAX)


@settings(max_examples=500, deadline=None)
@given(op=st.sampled_from(_OPS), c=_SIGNED, lo=_SIGNED, hi=_SIGNED,
       excluded=st.sets(_SIGNED, max_size=3), exclude_c=st.booleans())
def test_judge_interval_matches_reference(op, c, lo, hi, excluded,
                                          exclude_c):
    if exclude_c:
        excluded.add(c)
    assert (symexec._judge_interval(op, c, lo, hi, excluded)
            == reference_judge_interval(op, c, lo, hi, excluded))



_WORDS = st.one_of(st.sampled_from([0, 1, 0x7FFFFFFF, 0x80000000,
                                    0xFFFFFFFF]),
                   st.integers(0, 0xFFFFFFFF))
_HOLDS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
          ">=": operator.ge, ">": operator.gt}


def _signed(word: int) -> int:
    return word - (1 << 32) if word >> 31 else word


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(_OPS), x=_WORDS, y=_WORDS, known=st.booleans())
def test_evaluate_two_constants_is_signed_comparison(op, x, y, known):
    g, r8 = _graph_with_input()
    a, b = g.request_constant(x), g.request_constant(y)
    state = ExecState(g, 0, {"LR": r8}, None, 0)
    if known:                      # facts about other nodes do not matter
        state.path_condition.extend(
            g, Condition(r8, "<", g.request_constant(5)), True)
    holds = _HOLDS[op](_signed(x), _signed(y))
    assert state.path_condition.evaluate(g, Condition(a, op, b)) is \
        (Verdict.TRUE if holds else Verdict.FALSE)
    # decided outright, so following it adds no fact and no backlog
    facts = dict(state.path_condition.facts)
    assert handle_conditional(state, 0x20, Condition(a, op, b), n=4,
                              live_count=1) == [(state, holds)]
    assert state.path_condition.facts == facts and state.backlog == {}


# condition code -> the signed comparison it takes the instruction on
_EXACT_CODES = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
                "le": operator.le, "gt": operator.gt, "ge": operator.ge}


@settings(max_examples=300, deadline=None)
@given(code=st.sampled_from(sorted(_EXACT_CODES)), x=_WORDS, y=_WORDS)
def test_step_loop_decides_two_constants_as_signed(code, x, y):
    # the flag source of `cmp` holds two ints, so the step loop decides
    # the guard itself: one path, no fact, no backlog entry
    image = assemble(f"ldr r1, ={x}\nldr r2, ={y}\nmov r0, #0\n"
                     f"cmp r1, r2\nmov{code} r0, #1\nbx lr")
    [path] = explore(0, image, Config(timeout=5))
    assert path.status is Status.COMPLETE
    assert (path.conditions, path.backlog) == ([], {})
    taken = _EXACT_CODES[code](_signed(x), _signed(y))
    assert path.graph.node(path.result_ref).const_value == int(taken)
