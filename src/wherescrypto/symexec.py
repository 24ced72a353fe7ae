"""Symbolic execution over the graph broker.

Each execution state is S = (G, P, B): the data flow graph under
construction, the path condition, and the per-address backlog of branch
decisions.  Underdetermined conditionals consult the iteration oracle,
which aims for exactly n iterations of every loop: first encounter
forks, the next n-1 encounters repeat the first decision, and from then
on the opposite decision forces the exit.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from enum import Enum
from math import inf, isfinite
from typing import AbstractSet, NamedTuple, Optional

from . import arm
from .arm import _FALLTHROUGH, Instruction, OutcomeKind
from .dfg import Dfg, NodeKind, NodeRef

SIGNED_MIN = -(1 << 31)
SIGNED_MAX = (1 << 31) - 1
_SIGN = 1 << 31               # w ^ _SIGN orders 32-bit words as signed

# `x op c` holds exactly for c + below <= x <= c + above
_OPS = {"<": (-inf, -1), "<=": (-inf, 0), "==": (0, 0), ">=": (0, inf),
        ">": (1, inf)}
# `c op x` is `x _MIRRORED[op] c`
_MIRRORED = {"<": ">", "<=": ">=", "==": "==", ">=": "<=", ">": "<"}
_NEGATED = {"<": ">=", "<=": ">", ">=": "<", ">": "<=", "==": "!="}
_COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
            ">=": operator.ge, ">": operator.gt}


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


# Enum members read once (see `dfg.NodeKind.__hash__`): the code below
# runs at every step or every conditional
_TRUE, _FALSE, _UNDETERMINED = (Verdict.TRUE, Verdict.FALSE,
                                Verdict.UNDETERMINED)
_TAKE_TRUE, _TAKE_FALSE, _TAKE_BOTH = (OracleDecision.TAKE_TRUE,
                                       OracleDecision.TAKE_FALSE,
                                       OracleDecision.TAKE_BOTH)
_CONST = NodeKind.CONST
_JUMP, _CALL = OutcomeKind.JUMP, OutcomeKind.CALL


class DeadStateError(Exception):
    pass


class Condition(NamedTuple):
    # a named tuple: one is made at every conditional, and tuples are
    # built and compared in C
    v1: NodeRef
    op: str                      # < <= == >= >
    v2: NodeRef


# the range of a node that no fact compares with a constant
_UNCONSTRAINED = (SIGNED_MIN, SIGNED_MAX, frozenset())


def _to_signed(value: int) -> int:
    return value - (1 << 32) if value >= (1 << 31) else value


class PathCondition:
    """Conjunction of facts, each condition mapped to its polarity in the
    order added, and the signed (lo, hi, excluded) range of every node
    that some fact compares with a constant, kept up by `extend`."""

    def __init__(self) -> None:
        self.facts: dict[Condition, bool] = {}
        self.ranges: dict[NodeRef, tuple[int, int, frozenset[int]]] = {}

    def copy(self) -> "PathCondition":
        p = PathCondition()
        p.facts = dict(self.facts)
        p.ranges = dict(self.ranges)
        return p

    def extend(self, graph: Dfg, cond: Condition, polarity: bool) -> None:
        if self.facts.setdefault(cond, polarity) != polarity:
            raise DeadStateError(f"contradiction on {cond}")
        node = cond.v2 if graph.is_const(cond.v1) else cond.v1
        oriented = (None if graph.is_const(node)
                    else _against_constant(graph, cond, node))
        if oriented is None:
            return
        op, c = oriented
        op = op if polarity else _NEGATED[op]
        lo, hi, excluded = self.ranges.get(node, _UNCONSTRAINED)
        if op == "!=":
            excluded = excluded | {c}
        else:
            below, above = _OPS[op]
            lo, hi = max(lo, c + below), min(hi, c + above)
        # interval emptiness check
        if lo > hi:
            raise DeadStateError(f"empty interval for node {node}")
        if hi - lo < 1024 and sum(lo <= x <= hi for x in excluded) > hi - lo:
            raise DeadStateError(f"interval for node {node} fully excluded")
        self.ranges[node] = (lo, hi, excluded)

    def evaluate(self, graph: Dfg, cond: Condition) -> Verdict:
        # two constants decide the comparison, so such a condition is
        # never undetermined and never among the facts
        n1, n2 = graph.node(cond.v1), graph.node(cond.v2)
        if n1.kind is _CONST and n2.kind is _CONST:
            holds = _COMPARE[cond.op](_to_signed(n1.const_value),
                                      _to_signed(n2.const_value))
            return _TRUE if holds else _FALSE
        polarity = self.facts.get(cond)
        if polarity is not None:
            return _TRUE if polarity else _FALSE
        if cond.v1 == cond.v2:
            return _TRUE if cond.op in ("<=", ">=", "==") else _FALSE
        node = cond.v2 if n1.kind is _CONST else cond.v1
        oriented = _against_constant(graph, cond, node)
        if oriented is None:
            return _UNDETERMINED
        return _judge_interval(*oriented,
                               *self.ranges.get(node, _UNCONSTRAINED))


def _against_constant(graph: Dfg, cond: Condition,
                      node: NodeRef) -> Optional[tuple[str, int]]:
    """`cond` read as `node op c` for a signed constant c, or None when
    it does not compare `node` with a constant."""
    if cond.v1 == node and graph.is_const(cond.v2):
        return cond.op, _to_signed(graph.const_value(cond.v2))
    if cond.v2 == node and graph.is_const(cond.v1):
        return _MIRRORED[cond.op], _to_signed(graph.const_value(cond.v1))
    return None


def _judge_interval(op: str, c: int, lo: int, hi: int,
                    excluded: AbstractSet[int]) -> Verdict:
    """Whether `x op c` holds for the x in [lo, hi] that are not
    excluded, read off the two ends: TRUE when every end that faces a
    closed side of the range `_OPS` admits lies in that range, FALSE
    when [lo, hi] lies wholly beyond one side of it, or when the one
    value it admits is excluded."""
    below, above = _OPS[op]
    low, high = c + below, c + above
    if low == high and c in excluded:
        return _FALSE
    if ((below == -inf or low <= lo <= high)
            and (above == inf or low <= hi <= high)):
        return _TRUE
    if lo > high or hi < low:
        return _FALSE
    return _UNDETERMINED


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
        return _TAKE_BOTH
    first = decisions[0]
    if i <= n - 1:
        return _TAKE_TRUE if first else _TAKE_FALSE
    return _TAKE_FALSE if first else _TAKE_TRUE


# Instructions one `explore` call may step, summed over all its paths.
STEP_BUDGET = 100_000

# Live states beyond which underdetermined branches stop forking.
FORK_CAP = 64


@dataclass(frozen=True)
class Config:
    """Exploration settings for one function.

    ``n`` is the loop iteration target handed to the path oracle and
    ``depth`` the call inlining budget.  The work is bounded by
    `STEP_BUDGET` instructions shared by all paths of the function,
    and forking by `FORK_CAP` live states; ``timeout`` is only a
    wall-clock backstop, a deadline of that many seconds for all of
    its paths together.
    """

    n: int = 4
    depth: int = 2
    timeout: float = 10.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.depth < 0:
            raise ValueError("depth must not be negative")
        if not (isfinite(self.timeout) and self.timeout > 0):
            raise ValueError("timeout must be a finite positive number")


class ExecState:
    def __init__(self, graph: Dfg, pc: int, regs: dict[str, NodeRef],
                 image: Optional[bytes], base: int):
        self.graph = graph
        self.pc = pc
        self.regs = regs
        self.path_condition = PathCondition()
        self.backlog: dict[int, list[bool]] = {}
        self.call_stack: list[int] = []
        # registers and the flag source hold values: a NodeRef, or ~c
        # for a constant c that may have no node (`Dfg.is_const`)
        self.flag_source: Optional[tuple[NodeRef, NodeRef]] = None
        self.approx: set[str] = set()
        self.flags: set[str] = set()
        self.image = image
        self.base = base
        self.initial_lr: NodeRef = regs["LR"]
        self.steps = 0

    @staticmethod
    def initial(entry: int, image: Optional[bytes],
                base: int) -> "ExecState":
        g = Dfg()
        regs = {name: g.request_input(name) for name in arm.REG_NAMES}
        return ExecState(g, entry, regs, image, base)

    def fork(self) -> "ExecState":
        s = ExecState.__new__(ExecState)
        s.graph = self.graph.fork_graph()
        s.pc = self.pc
        s.regs = dict(self.regs)
        s.path_condition = self.path_condition.copy()
        s.backlog = {e: list(d) for e, d in self.backlog.items()}
        s.call_stack = list(self.call_stack)
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
    """One explored path: its purged graph, status and condition."""

    graph: Dfg
    status: Status
    backlog: dict[int, list[bool]]
    approx: set[str] = field(default_factory=set)
    flags: set[str] = field(default_factory=set)
    steps: int = 0
    result_ref: Optional[NodeRef] = None   # R0 at return, COMPLETE only
    # conditions are rendered before the graph is purged down to its
    # result roots, because the guards they mention rarely survive it
    conditions: list[tuple[str, bool]] = field(default_factory=list)


def handle_conditional(state: ExecState, e: int,
                       comparison: tuple[NodeRef, str, NodeRef], n: int,
                       live_count: int) -> list[tuple[ExecState, bool]]:
    """Algorithm: determined conditions follow the forced value with no
    backlog entry; underdetermined ones ask the oracle.  The sides of
    ``comparison`` are values (`dfg.Dfg.is_const`), one of them at
    least a node (the step loop decides a guard on two ints), and each
    gets its node for the `Condition`.  Returns up to two (state,
    tuple-value) pairs; contradictory extensions are dropped."""
    v1, op, v2 = comparison
    g = state.graph
    cond = Condition(g.materialize(v1), op, g.materialize(v2))
    verdict = state.path_condition.evaluate(g, cond)
    if verdict is _TRUE:
        return [(state, True)]
    if verdict is _FALSE:
        return [(state, False)]

    decision = oracle_query(e, state.backlog, n)
    if decision is _TAKE_BOTH and live_count >= FORK_CAP:
        decision = _TAKE_FALSE
        state.flags.add("fork cap reached")

    if decision is _TAKE_BOTH:
        sides = [(state, True), (state.fork(), False)]
    else:
        sides = [(state, decision is _TAKE_TRUE)]
    out: list[tuple[ExecState, bool]] = []
    for st, value in sides:
        try:
            st.path_condition.extend(st.graph, cond, value)
        except DeadStateError:
            continue
        st.backlog.setdefault(e, []).append(value)
        out.append((st, value))
    return out


def _stack_address(graph: Dfg, addr: NodeRef, sp_input: NodeRef) -> bool:
    if addr == sp_input:
        return True
    found = graph.base_offset(addr)
    return found is not None and found[0] == sp_input


def purge_roots(graph: Dfg, result: Optional[NodeRef],
                sp_input: NodeRef) -> set[NodeRef]:
    """The result of a complete path (None for another one), every
    CALL and every store outside the stack frame."""
    roots: set[NodeRef] = set()
    if result is not None:
        roots.add(result)
    call, store = NodeKind.CALL, NodeKind.STORE
    for ref, node in graph.nodes.items():
        if node.kind is call:
            roots.add(ref)
        elif node.kind is store:
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
        first = ExecState.initial(entry, self.image, self.base)
        stack = [first]
        results: list[PathResult] = []
        deadline = time.monotonic() + self.config.timeout
        self._decoded = {}
        self._steps_left = STEP_BUDGET
        self._sp_input = first.regs["SP"]

        while stack:
            self._run_state(stack.pop(), stack, results, deadline)
        return results

    def _finish(self, state: ExecState, status: Status) -> PathResult:
        described = [(render_condition(state.graph, c), pol)
                     for c, pol in state.path_condition.facts.items()]
        g = state.graph
        result = (g.materialize(state.regs["R0"])
                  if status is Status.COMPLETE else None)
        g.purge(purge_roots(g, result, self._sp_input))
        return PathResult(g, status, state.backlog, state.approx,
                          state.flags, state.steps, result, described)

    def _run_state(self, state: ExecState, stack: list[ExecState],
                   results: list[PathResult],
                   deadline: float) -> None:
        """Step one path until it ends or dies.  A guard on two ints is
        decided here, adding no fact or backlog entry; the step count and
        budget are locals, written back before a fork and at the end."""
        decoded = self._decoded
        steps = state.steps
        limit = steps + self._steps_left    # where the budget runs out
        while True:
            if steps >= limit:
                state.flags.add("instruction budget exhausted")
                status = Status.TIMEOUT
                break
            if steps % 256 == 0 and time.monotonic() > deadline:
                state.flags.add("wall clock exceeded")
                status = Status.TIMEOUT
                break
            steps += 1
            try:
                ins = decoded.get(state.pc) or self._decode(state.pc)
                if ins.cond != "AL":
                    (v1, op, v2), expect = arm.condition_info(state, ins.cond)
                    if v1 < 0 and v2 < 0:
                        value = _COMPARE[op](~v1 ^ _SIGN, ~v2 ^ _SIGN)
                    else:
                        state.steps = steps
                        pairs = handle_conditional(
                            state, state.pc, (v1, op, v2), self.config.n,
                            live_count=len(stack) + 1)
                        if not pairs:                       # dead state
                            self._steps_left = limit - steps
                            return
                        # follow the first pair; run a forked sibling
                        # up to its next instruction and set it aside
                        for st, value in pairs[1:]:
                            end = self._execute(st, ins, value == expect)
                            if end is None:
                                stack.append(st)
                            else:
                                results.append(self._finish(st, end))
                        state, value = pairs[0]
                    if value != expect:
                        state.pc = ins.address + 4
                        continue
                # `_execute`'s body, inline: most steps fall through
                outcome = arm.execute(state, ins)
            except (arm.DecodeError, arm.UnsupportedPcWrite) as err:
                state.flags.add(str(err))
                status = Status.ABORTED
                break
            if outcome is _FALLTHROUGH:
                state.pc = ins.address + 4
                continue
            status = self._follow(state, outcome)
            if status is not None:
                break
        state.steps = steps
        self._steps_left = limit - steps
        results.append(self._finish(state, status))

    def _execute(self, state: ExecState, ins: Instruction,
                 taken: bool) -> Optional[Status]:
        """Skip the instruction if its condition failed, else lift it and
        follow it; None to keep stepping, or the status ending the path."""
        try:
            outcome = arm.execute(state, ins) if taken else _FALLTHROUGH
        except arm.UnsupportedPcWrite as err:
            state.flags.add(str(err))
            return Status.ABORTED
        if outcome is _FALLTHROUGH:
            state.pc = ins.address + 4
            return None
        return self._follow(state, outcome)

    def _follow(self, state: ExecState,
                outcome: arm.StepOutcome) -> Optional[Status]:
        """Follow a jump or call, or end the path COMPLETE at a return;
        `arm.execute` returns every fall-through as `_FALLTHROUGH`."""
        kind = outcome.kind
        if kind is _JUMP:
            target = outcome.target
            if state.call_stack and target == state.call_stack[-1]:
                state.call_stack.pop()
            state.pc = target
            return None
        if kind is _CALL:
            self._handle_call(state, outcome.target,
                              outcome.return_address)
            return None
        return Status.COMPLETE                          # RETURN

    def _handle_call(self, state: ExecState, target: int,
                     return_address: int) -> None:
        if (len(state.call_stack) < self.config.depth
                and self._decodable(target)):
            state.call_stack.append(return_address)
            state.regs["LR"] = ~return_address
            state.pc = target
            return
        g = state.graph
        args = tuple(g.materialize(state.regs[r])
                     for r in ("R0", "R1", "R2", "R3", "SP"))
        call = g.request_call(args, target)
        state.regs["R0"] = g.request_opaque((call,))
        for r in ("R1", "R2", "R3", "R12"):
            state.regs[r] = g.request_opaque(())
        state.regs["LR"] = ~return_address
        state.pc = return_address


def explore(entry: int, image: bytes, config: Optional[Config] = None,
            base: int = 0) -> list[PathResult]:
    return Explorer(image, base, config).explore(entry)
