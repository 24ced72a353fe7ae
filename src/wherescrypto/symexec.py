"""Symbolic execution over the graph broker.

Each execution state is S = (G, P, B): the data flow graph under
construction, the path condition, and the per-address backlog of branch
decisions.  Underdetermined conditionals consult the iteration oracle,
which aims for exactly n iterations of every loop: first encounter
forks, the next n-1 encounters repeat the first decision, and from then
on the opposite decision forces the exit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import arm
from .arm import Instruction, OutcomeKind, StepOutcome
from .dfg import Dfg, NodeKind, NodeRef, NodeSpec

SIGNED_MIN = -(1 << 31)
SIGNED_MAX = (1 << 31) - 1

_NEGATED = {"<": ">=", "<=": ">", ">=": "<", ">": "<=", "==": "!="}


class Verdict(Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UNDETERMINED = "UNDETERMINED"


class OracleDecision(Enum):
    TAKE_TRUE = "TAKE_TRUE"
    TAKE_FALSE = "TAKE_FALSE"
    TAKE_BOTH = "TAKE_BOTH"


class Status(Enum):
    COMPLETE = "COMPLETE"
    TIMEOUT = "TIMEOUT"
    ABORTED = "ABORTED"


class DeadStateError(Exception):
    pass


@dataclass(frozen=True)
class Condition:
    v1: NodeRef
    op: str                      # < <= == >= >
    v2: NodeRef


def _to_signed(value: int) -> int:
    return value - (1 << 32) if value >= (1 << 31) else value


class PathCondition:
    """Conjunction of (Condition, polarity) facts with an interval
    abstraction over nodes compared against constants."""

    def __init__(self) -> None:
        self.facts: list[tuple[Condition, bool]] = []

    def copy(self) -> "PathCondition":
        p = PathCondition()
        p.facts = list(self.facts)
        return p

    def extend(self, graph: Dfg, cond: Condition, polarity: bool) -> None:
        for fact, pol in self.facts:
            if fact == cond and pol != polarity:
                raise DeadStateError(f"contradiction on {cond}")
        self.facts.append((cond, polarity))
        # interval emptiness check
        for node in (cond.v1, cond.v2):
            if not graph.is_const(node):
                lo, hi, excluded = self._interval(graph, node)
                if lo > hi:
                    raise DeadStateError(f"empty interval for node {node}")
                if hi - lo < 1024:
                    inside = sum(1 for x in excluded if lo <= x <= hi)
                    if inside > hi - lo:
                        raise DeadStateError(
                            f"interval for node {node} fully excluded")

    def _interval(self, graph: Dfg, node: NodeRef):
        lo, hi = SIGNED_MIN, SIGNED_MAX
        excluded: set[int] = set()
        for fact, polarity in self.facts:
            if fact.v1 == node and graph.is_const(fact.v2):
                op = fact.op
                c = _to_signed(graph.const_value(fact.v2))
            elif fact.v2 == node and graph.is_const(fact.v1):
                c = _to_signed(graph.const_value(fact.v1))
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                      "==": "=="}[fact.op]
            else:
                continue
            if not polarity:
                op = _NEGATED[op]
            if op == "<":
                hi = min(hi, c - 1)
            elif op == "<=":
                hi = min(hi, c)
            elif op == ">":
                lo = max(lo, c + 1)
            elif op == ">=":
                lo = max(lo, c)
            elif op == "==":
                lo, hi = max(lo, c), min(hi, c)
            else:                                   # !=
                excluded.add(c)
        return lo, hi, excluded

    def evaluate(self, graph: Dfg, cond: Condition) -> Verdict:
        for fact, polarity in self.facts:
            if fact == cond:
                return Verdict.TRUE if polarity else Verdict.FALSE
        v1c = graph.is_const(cond.v1)
        v2c = graph.is_const(cond.v2)
        if v1c and v2c:
            return (Verdict.TRUE
                    if _compare(cond.op,
                                _to_signed(graph.const_value(cond.v1)),
                                _to_signed(graph.const_value(cond.v2)))
                    else Verdict.FALSE)
        if cond.v1 == cond.v2:
            return (Verdict.TRUE if cond.op in ("<=", ">=", "==")
                    else Verdict.FALSE)
        if v1c or v2c:
            if v2c:
                node = cond.v1
                op = cond.op
                c = _to_signed(graph.const_value(cond.v2))
            else:
                node = cond.v2
                c = _to_signed(graph.const_value(cond.v1))
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                      "==": "=="}[cond.op]
            lo, hi, excluded = self._interval(graph, node)
            return _judge_interval(op, c, lo, hi, excluded)
        return Verdict.UNDETERMINED


def _compare(op: str, a: int, b: int) -> bool:
    return {"<": a < b, "<=": a <= b, "==": a == b,
            ">=": a >= b, ">": a > b}[op]


def _judge_interval(op: str, c: int, lo: int, hi: int,
                    excluded: set[int]) -> Verdict:
    if op == "<":
        if hi < c:
            return Verdict.TRUE
        if lo >= c:
            return Verdict.FALSE
    elif op == "<=":
        if hi <= c:
            return Verdict.TRUE
        if lo > c:
            return Verdict.FALSE
    elif op == ">":
        if lo > c:
            return Verdict.TRUE
        if hi <= c:
            return Verdict.FALSE
    elif op == ">=":
        if lo >= c:
            return Verdict.TRUE
        if hi < c:
            return Verdict.FALSE
    else:                                           # ==
        if lo == hi == c and c not in excluded:
            return Verdict.TRUE
        if c < lo or c > hi or c in excluded:
            return Verdict.FALSE
    return Verdict.UNDETERMINED


def _render_operand(graph: Dfg, ref: NodeRef) -> str:
    node = graph.node(ref)
    if node.kind is NodeKind.CONST:
        assert node.const_value is not None
        return str(_to_signed(node.const_value))
    if node.kind is NodeKind.INPUT:
        return str(node.symbol)
    return f"n{ref}"


def render_condition(graph: Dfg, cond: Condition) -> str:
    """Readable form of a comparison, resolving constants and named
    inputs; other operands print as node ids."""
    return (f"{_render_operand(graph, cond.v1)} {cond.op} "
            f"{_render_operand(graph, cond.v2)}")


def oracle_query(e: int, backlog: dict[int, list[bool]],
                 n: int) -> OracleDecision:
    decisions = backlog.get(e, [])
    i = len(decisions)
    if i == 0:
        return OracleDecision.TAKE_BOTH
    first = decisions[0]
    if i <= n - 1:
        return OracleDecision.TAKE_TRUE if first else \
            OracleDecision.TAKE_FALSE
    return OracleDecision.TAKE_FALSE if first else \
        OracleDecision.TAKE_TRUE


# Instruction budget per second of `Config.timeout`.
STEPS_PER_SECOND = 2_000_000


@dataclass(frozen=True)
class Config:
    """Exploration settings for one function.

    ``n`` is the loop iteration target handed to the path oracle,
    ``depth`` the call inlining budget and ``fork_cap`` the number of
    live states beyond which underdetermined branches stop forking.
    ``timeout`` limits the exploration in two ways: a wall-clock
    deadline of that many seconds covers all of its paths together,
    and an instruction budget of ``timeout`` x `STEPS_PER_SECOND`
    steps (at least 10,000) starts at the entry and is copied to each
    forked path, so every path counts its steps from the entry.
    """

    n: int = 4
    depth: int = 2
    timeout: float = 10.0
    fork_cap: int = 64

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.depth < 0:
            raise ValueError("depth must not be negative")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    @property
    def budget(self) -> int:
        return max(10_000, int(self.timeout * STEPS_PER_SECOND))


class ExecState:
    def __init__(self, graph: Dfg, pc: int, regs: dict[str, NodeRef],
                 image: Optional[bytes], base: int, budget: int,
                 depth: int):
        self.graph = graph
        self.pc = pc
        self.regs = regs
        self.path_condition = PathCondition()
        self.backlog: dict[int, list[bool]] = {}
        self.call_stack: list[int] = []
        self.inline_depth_remaining = depth
        self.budget_remaining = budget
        self.flag_source: Optional[tuple[NodeRef, NodeRef]] = None
        self.approx: set[str] = set()
        self.flags: set[str] = set()
        self.image = image
        self.base = base
        self.initial_lr: NodeRef = regs["LR"]
        self.steps = 0

    @staticmethod
    def initial(entry: int, image: Optional[bytes], base: int,
                config: Config) -> "ExecState":
        g = Dfg()
        regs = {name: g.request_input(name) for name in arm.REG_NAMES}
        return ExecState(g, entry, regs, image, base, config.budget,
                         config.depth)

    def fork(self) -> "ExecState":
        s = ExecState.__new__(ExecState)
        s.graph = self.graph.fork_graph()
        s.pc = self.pc
        s.regs = dict(self.regs)
        s.path_condition = self.path_condition.copy()
        s.backlog = {e: list(d) for e, d in self.backlog.items()}
        s.call_stack = list(self.call_stack)
        s.inline_depth_remaining = self.inline_depth_remaining
        s.budget_remaining = self.budget_remaining
        s.flag_source = self.flag_source
        s.approx = set(self.approx)
        s.flags = set(self.flags)
        s.image = self.image
        s.base = self.base
        s.initial_lr = self.initial_lr
        s.steps = self.steps
        return s


@dataclass
class PathResult:
    graph: Dfg
    path_condition: PathCondition
    status: Status
    backlog: dict[int, list[bool]]
    approx: set[str] = field(default_factory=set)
    flags: set[str] = field(default_factory=set)
    steps: int = 0
    result_ref: Optional[NodeRef] = None   # R0 at return, COMPLETE only
    # conditions are rendered before the graph is purged down to its
    # result roots, because the guards they mention rarely survive it
    conditions: list[tuple[str, bool]] = field(default_factory=list)


def handle_conditional(state: ExecState, e: int, cond: Condition,
                       n: int, live_count: int,
                       fork_cap: int) -> list[tuple[ExecState, bool]]:
    """Algorithm: determined conditions follow the forced value with no
    backlog entry; underdetermined ones ask the oracle.  Returns up to
    two (state, tuple-value) pairs; contradictory extensions are
    dropped."""
    verdict = state.path_condition.evaluate(state.graph, cond)
    if verdict is Verdict.TRUE:
        return [(state, True)]
    if verdict is Verdict.FALSE:
        return [(state, False)]

    decision = oracle_query(e, state.backlog, n)
    if decision is OracleDecision.TAKE_BOTH and live_count >= fork_cap:
        decision = OracleDecision.TAKE_FALSE
        state.flags.add("fork cap reached")

    out: list[tuple[ExecState, bool]] = []
    if decision is OracleDecision.TAKE_BOTH:
        sibling = state.fork()
        for st, value in ((state, True), (sibling, False)):
            try:
                st.path_condition.extend(st.graph, cond, value)
            except DeadStateError:
                continue
            st.backlog.setdefault(e, []).append(value)
            out.append((st, value))
        return out

    value = decision is OracleDecision.TAKE_TRUE
    try:
        state.path_condition.extend(state.graph, cond, value)
    except DeadStateError:
        return []
    state.backlog.setdefault(e, []).append(value)
    return [(state, value)]


def _stack_address(graph: Dfg, addr: NodeRef, sp_input: NodeRef) -> bool:
    if addr == sp_input:
        return True
    node = graph.node(addr)
    if node.kind is not NodeKind.ADD or len(node.inputs) != 2:
        return False
    a, b = node.inputs
    if a == sp_input and graph.is_const(b):
        return True
    return b == sp_input and graph.is_const(a)


def purge_roots(graph: Dfg, state_regs: dict[str, NodeRef],
                sp_input: NodeRef, complete: bool) -> set[NodeRef]:
    roots: set[NodeRef] = set()
    if complete:
        roots.add(state_regs["R0"])
    for ref, node in graph.nodes.items():
        if node.kind is NodeKind.CALL:
            roots.add(ref)
        elif node.kind is NodeKind.STORE:
            if not _stack_address(graph, node.inputs[0], sp_input):
                roots.add(ref)
    return roots


class Explorer:
    def __init__(self, image: bytes, base: int = 0,
                 config: Optional[Config] = None):
        self.image = image
        self.base = base
        self.config = config or Config()
        self._decoded: dict[int, Instruction] = {}

    def _decode(self, address: int) -> Instruction:
        """Decode through a per-exploration memo.  The image is
        immutable (stores only reach the graph's store map), so a
        decoded word never goes stale.  Decode errors are not memoised:
        they end their path, and re-raising a stored exception would
        keep growing its traceback."""
        ins = self._decoded.get(address)
        if ins is None:
            ins = arm.decode(self.image, address, self.base)
            self._decoded[address] = ins
        return ins

    def _decodable(self, address: int) -> bool:
        try:
            self._decode(address)
            return True
        except arm.DecodeError:
            return False

    def explore(self, entry: int) -> list[PathResult]:
        config = self.config
        first = ExecState.initial(entry, self.image, self.base, config)
        stack = [first]
        results: list[PathResult] = []
        deadline = time.monotonic() + config.timeout
        self._decoded = {}

        while stack:
            state = stack.pop()
            rec = self._run_state(state, stack, results, deadline)
            if rec is not None:
                results.append(rec)
        return results

    def _finish(self, state: ExecState, status: Status) -> PathResult:
        sp_input = state.graph.cons_table.get(
            (NodeKind.INPUT, (), None, "SP", None, None))
        complete = status is Status.COMPLETE
        described = [(render_condition(state.graph, c), pol)
                     for c, pol in state.path_condition.facts]
        roots = purge_roots(state.graph, state.regs, sp_input, complete)
        state.graph.purge(roots)
        return PathResult(state.graph, state.path_condition, status,
                          state.backlog, state.approx, state.flags,
                          state.steps,
                          state.regs["R0"] if complete else None,
                          described)

    def _run_state(self, state: ExecState, stack: list[ExecState],
                   results: list[PathResult],
                   deadline: float) -> Optional[PathResult]:
        config = self.config
        while True:
            if state.budget_remaining <= 0:
                state.flags.add("instruction budget exhausted")
                return self._finish(state, Status.TIMEOUT)
            if state.steps % 256 == 0 and time.monotonic() > deadline:
                state.flags.add("wall clock exceeded")
                return self._finish(state, Status.TIMEOUT)
            state.budget_remaining -= 1
            state.steps += 1

            try:
                ins = self._decode(state.pc)
            except arm.DecodeError as err:
                state.flags.add(str(err))
                return self._finish(state, Status.ABORTED)

            try:
                outcome = arm.step(state, ins)
            except (arm.UnsupportedPcWrite, arm.DecodeError) as err:
                state.flags.add(str(err))
                return self._finish(state, Status.ABORTED)

            if outcome.kind is OutcomeKind.CONDITIONAL:
                cond = Condition(*outcome.condition)
                pairs = handle_conditional(
                    state, state.pc, cond, config.n,
                    live_count=len(stack) + 1,
                    fork_cap=config.fork_cap)
                if not pairs:
                    return None                       # dead state
                follow: Optional[tuple[ExecState, bool]] = None
                for st, value in pairs:
                    taken = value == outcome.expect_true
                    if follow is None:
                        follow = (st, taken)
                    else:
                        self._after_conditional(st, ins, taken, stack,
                                                results)
                st, taken = follow
                cont = self._apply_conditional(st, ins, taken)
                if cont is None:
                    state = st
                    continue
                return cont
            end = self._apply_outcome(state, ins, outcome)
            if end is not None:
                return end

    def _after_conditional(self, st: ExecState, ins: Instruction,
                           taken: bool, stack: list[ExecState],
                           results: list[PathResult]) -> None:
        cont = self._apply_conditional(st, ins, taken)
        if cont is None:
            stack.append(st)
        else:
            results.append(cont)

    def _apply_conditional(self, st: ExecState, ins: Instruction,
                           taken: bool) -> Optional[PathResult]:
        """Run the instruction body (taken) or skip it.  Returns None to
        keep stepping or a PathResult that ends the path."""
        if not taken:
            st.pc = ins.address + 4
            return None
        try:
            outcome = arm.execute(st, ins)
        except (arm.UnsupportedPcWrite, arm.DecodeError) as err:
            st.flags.add(str(err))
            return self._finish(st, Status.ABORTED)
        return self._apply_outcome(st, ins, outcome)

    def _apply_outcome(self, state: ExecState, ins: Instruction,
                       outcome: StepOutcome) -> Optional[PathResult]:
        kind = outcome.kind
        if kind is OutcomeKind.FALLTHROUGH:
            state.pc = ins.address + 4
            return None
        if kind is OutcomeKind.JUMP:
            target = outcome.target
            if state.call_stack and target == state.call_stack[-1]:
                state.call_stack.pop()
                state.inline_depth_remaining += 1
            state.pc = target
            return None
        if kind is OutcomeKind.CALL:
            self._handle_call(state, outcome.target,
                              outcome.return_address)
            return None
        if kind is OutcomeKind.RETURN:
            return self._finish(state, Status.COMPLETE)
        raise AssertionError(f"unexpected outcome {kind}")

    def _handle_call(self, state: ExecState, target: int,
                     return_address: int) -> None:
        g = state.graph
        if state.inline_depth_remaining > 0 and self._decodable(target):
            state.call_stack.append(return_address)
            state.inline_depth_remaining -= 1
            state.regs["LR"] = g.request_constant(return_address)
            state.pc = target
            return
        args = tuple(state.regs[r] for r in ("R0", "R1", "R2", "R3",
                                             "SP"))
        call = g.request_call(args, target)
        state.regs["R0"] = g.request_opaque((call,))
        for r in ("R1", "R2", "R3", "R12"):
            state.regs[r] = g.request_opaque(())
        state.regs["LR"] = g.request_constant(return_address)
        state.pc = return_address


def explore(entry: int, image: bytes, config: Optional[Config] = None,
            base: int = 0) -> list[PathResult]:
    return Explorer(image, base, config).explore(entry)
