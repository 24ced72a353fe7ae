"""Symbolic execution engine tests.

The loop fixture freezes the full oracle interaction for a counted loop
with an unknown bound: the expected backlogs, path conditions, and both
output graphs were derived by hand from the branch policy before
running the engine.
"""

from __future__ import annotations

import random

import pytest

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
    return ExecState.initial(0, image, 0, Config(timeout=1))


def test_handle_conditional_determined_skips_backlog():
    st = _state_for_conditional()
    g = st.graph
    r8 = st.regs["R8"]
    zero = g.request_constant(0)
    cond = Condition(r8, "<=", zero)
    st.path_condition.extend(g, cond, True)
    out = handle_conditional(st, 0x20, cond, n=4, live_count=1,
                             fork_cap=64)
    assert out == [(st, True)]
    assert st.backlog == {}


def test_handle_conditional_forks_both():
    st = _state_for_conditional()
    g = st.graph
    cond = Condition(st.regs["R8"], "<=", g.request_constant(0))
    out = handle_conditional(st, 0x20, cond, n=4, live_count=1,
                             fork_cap=64)
    assert len(out) == 2
    values = [v for _, v in out]
    assert values == [True, False]
    for s, v in out:
        assert s.backlog == {0x20: [v]}
        assert s.path_condition.facts == [(cond, v)]


def test_handle_conditional_drops_contradicted_arm():
    st = _state_for_conditional()
    g = st.graph
    r0 = st.regs["R0"]
    c = lambda op, v: Condition(r0, op, g.request_constant(v))
    st.path_condition.extend(g, c(">=", 4), True)
    st.path_condition.extend(g, c("<=", 5), True)
    st.path_condition.extend(g, c("==", 4), False)
    out = handle_conditional(st, 0x20, c("==", 5), n=4, live_count=1,
                             fork_cap=64)
    assert len(out) == 1
    assert out[0][1] is True


def test_fork_cap_forces_false():
    st = _state_for_conditional()
    g = st.graph
    cond = Condition(st.regs["R8"], "<=", g.request_constant(0))
    out = handle_conditional(st, 0x20, cond, n=4, live_count=64,
                             fork_cap=64)
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
    # at 1 instruction per second the instruction budget bottoms out at
    # its floor long before the wall clock matters
    monkeypatch.setattr(symexec, "STEPS_PER_SECOND", 1)
    image = assemble("loop: b loop")
    results = explore(0, image, Config(timeout=100.0))
    (r,) = results
    assert r.status is Status.TIMEOUT
    assert "instruction budget exhausted" in r.flags
    assert r.steps == 10_000


def test_explore_wall_clock_timeout():
    image = assemble("loop: b loop")
    results = explore(0, image, Config(timeout=0.05))
    (r,) = results
    assert r.status is Status.TIMEOUT


def test_fork_cap_bounds_live_states():
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
    results = explore(0, image, Config(timeout=10, fork_cap=8))
    assert any("fork cap reached" in r.flags for r in results)
    assert all(r.status is Status.COMPLETE for r in results)
    assert 8 <= len(results) < 2 ** 13


def test_budget_scales_with_timeout():
    assert Config(timeout=10).budget == 20_000_000
    assert Config(timeout=0.001).budget == 10_000


def test_config_rejects_bad_values():
    for bad in ({"n": 0}, {"depth": -1}, {"timeout": 0}):
        with pytest.raises(ValueError):
            Config(**bad)
