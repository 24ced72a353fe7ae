"""Data flow graph storage and the normalizing node broker.

A Dfg is a DAG whose vertices are operations or input values; an edge
v1 -> v2 means v1 is an input of operation v2.  All node creation goes
through the broker methods (request_*), which normalize the requested
specification with a small rewrite system and then hash-cons it, so any
two equivalent expressions are represented by the same node.  Node
equality therefore degenerates to id equality, and store-to-load
forwarding is a constant-time dictionary lookup on the address node.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import reduce
from typing import Iterable, NamedTuple, Optional

MASK32 = 0xFFFFFFFF
MOD32 = 1 << 32

NodeRef = int


class NodeKind(Enum):
    CONST = "CONST"
    INPUT = "INPUT"
    ADD = "ADD"
    MULT = "MULT"
    XOR = "XOR"
    AND = "AND"
    OR = "OR"
    SHL = "SHL"
    SHR = "SHR"
    ROTATE = "ROTATE"
    SUB = "SUB"
    LOAD = "LOAD"
    STORE = "STORE"
    CALL = "CALL"
    OPAQUE = "OPAQUE"

    # Enum.__hash__ hashes the member name in Python code, and kinds are
    # hashed on every cons-table key and rewrite-table lookup. Members
    # are singletons compared by identity, so identity hashing agrees
    # with equality; name hashes already vary with PYTHONHASHSEED, so no
    # output can depend on the hash values.
    #
    # Loading a member is slow as well: on Python 3.10 and 3.11
    # `EnumType` defines `__getattr__`, so `NodeKind.CONST` takes about
    # 130-170 ns against 10-25 ns for a module global (about 30 ns on
    # 3.12 and 3.13). Code that runs per request or per lifted step
    # reads members from module names such as `_CONST` below.
    __hash__ = object.__hash__


_CONST, _ADD, _MULT, _AND = (NodeKind.CONST, NodeKind.ADD, NodeKind.MULT,
                             NodeKind.AND)
_XOR, _OR = NodeKind.XOR, NodeKind.OR
_SHL, _SHR, _ROTATE, _SUB = (NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE,
                             NodeKind.SUB)
_LOAD, _STORE = NodeKind.LOAD, NodeKind.STORE


#: Variadic, commutative operator kinds.  Inputs are kept sorted by id.
COMMUTATIVE = frozenset(
    {NodeKind.ADD, NodeKind.MULT, NodeKind.XOR, NodeKind.AND, NodeKind.OR}
)

#: The operation kinds `Dfg.request_operation` normalizes: the
#: commutative ones plus shifts, rotation and subtraction.
_OPERATIONS = COMMUTATIVE | {
    NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE, NodeKind.SUB}

#: (least, most) operand count per operation kind and memory access;
#: None means no upper bound.  The broker and the signature language
#: both check operand counts against this table.
ARITY = {kind: (2, None) if kind in COMMUTATIVE else (2, 2)
         for kind in _OPERATIONS}
ARITY.update({NodeKind.LOAD: (1, 1), NodeKind.STORE: (2, 2)})

#: Identity element per commutative kind (dropped when other inputs remain).
_IDENTITY = {
    NodeKind.ADD: 0,
    NodeKind.MULT: 1,
    NodeKind.XOR: 0,
    NodeKind.OR: 0,
    NodeKind.AND: MASK32,
}

#: Absorbing element per commutative kind (collapses the whole node).
_ZERO = {
    NodeKind.MULT: 0,
    NodeKind.AND: 0,
}


def _rotate(a: int, b: int) -> int:
    b &= 31
    return ((a << b) | (a >> (32 - b))) & MASK32


#: The value of each operation on two 32-bit ints, reduced mod 2^32:
#: the one meaning of every operation on constants.  The broker folds
#: all-constant requests with it, and the lifter computes constant-only
#: work with it without a request.  A shift by 32 or more leaves 0, a
#: rotation is by its amount modulo 32, and SUB is the difference mod
#: 2^32 that its rewrite (h), an ADD of the complement, gives.
FOLD = {
    NodeKind.ADD: lambda a, b: (a + b) & MASK32,
    NodeKind.MULT: lambda a, b: (a * b) & MASK32,
    NodeKind.XOR: operator.xor,
    NodeKind.AND: operator.and_,
    NodeKind.OR: operator.or_,
    NodeKind.SUB: lambda a, b: (a - b) & MASK32,
    NodeKind.SHL: lambda a, b: (a << b) & MASK32 if b < 32 else 0,
    NodeKind.SHR: operator.rshift,
    NodeKind.ROTATE: _rotate,
}


class GraphError(Exception):
    pass


class DeadNodeError(GraphError):
    """A request referenced a NodeRef that is not live in the graph."""


class Node(NamedTuple):
    """A live, normalized graph node.

    ``serial`` is only populated for OPAQUE and CALL nodes: both denote
    events/wildcards whose identity is not structural, so each request
    mints a fresh serial and they never hash-cons together.

    A named tuple rather than a frozen dataclass: exploration makes
    thousands of nodes per function, and a tuple is built in about a
    third of the time.
    """

    id: NodeRef
    kind: NodeKind
    inputs: tuple[NodeRef, ...]
    const_value: Optional[int] = None
    symbol: Optional[str] = None
    clamp: Optional[str] = None
    serial: Optional[int] = None

    def cons_key(self):
        return (self.kind, self.inputs, self.const_value, self.symbol,
                self.clamp, self.serial)


class Dfg:
    """One data flow graph with its cons table and store map."""

    def __init__(self) -> None:
        self.nodes: dict[NodeRef, Node] = {}
        self.cons_table: dict[tuple, NodeRef] = {}
        self.store_map: dict[NodeRef, NodeRef] = {}
        self._next_id = 0
        self._next_serial = 0

    # ------------------------------------------------------------------
    # basic access

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, ref: NodeRef) -> bool:
        return ref in self.nodes

    def node(self, ref: NodeRef) -> Node:
        try:
            return self.nodes[ref]
        except KeyError:
            raise DeadNodeError(f"node {ref} is not live") from None

    # A lifted value is a NodeRef, or ``~c`` (below 0) for a constant c
    # that needs no node yet; the lifter keeps constants as ints and
    # asks for their node only when an operation on a node, a store, a
    # condition or a root needs one (`materialize`).

    def is_const(self, ref: NodeRef) -> bool:
        """Whether the value ``ref`` is a constant: ``~c`` or a CONST
        node."""
        return ref < 0 or self.node(ref).kind is _CONST

    def const_value(self, ref: NodeRef) -> int:
        if ref < 0:
            return ~ref
        n = self.node(ref)
        if n.kind is not _CONST:
            raise GraphError(f"node {ref} is {n.kind.value}, not CONST")
        assert n.const_value is not None
        return n.const_value

    def materialize(self, value: NodeRef) -> NodeRef:
        """The node of a value: the CONST node of ``~c``, else the ref."""
        return self.request_constant(~value) if value < 0 else value

    def find_constant(self, value: int) -> Optional[NodeRef]:
        """The CONST node of ``value`` if the graph has one; creates
        none."""
        return self.cons_table.get((_CONST, (), value, None, None, None))

    def _check_live(self, refs: Iterable[NodeRef]) -> None:
        for r in refs:
            if r not in self.nodes:
                raise DeadNodeError(f"request references dead node {r}")

    # ------------------------------------------------------------------
    # node creation

    def _insert(self, kind: NodeKind, inputs: tuple[NodeRef, ...],
                const_value: Optional[int] = None, symbol: Optional[str] = None,
                clamp: Optional[str] = None, serial: Optional[int] = None,
                ) -> NodeRef:
        key = (kind, inputs, const_value, symbol, clamp, serial)
        found = self.cons_table.get(key)
        if found is not None:
            return found
        ref = self._next_id
        self._next_id += 1
        node = Node(ref, kind, inputs, const_value, symbol, clamp, serial)
        self.nodes[ref] = node
        self.cons_table[key] = ref
        return ref

    def request_constant(self, value: int) -> NodeRef:
        value &= MASK32
        key = (_CONST, (), value, None, None, None)
        found = self.cons_table.get(key)
        if found is not None:
            return found
        ref = self._next_id
        self._next_id = ref + 1
        self.nodes[ref] = Node(ref, _CONST, (), value)
        self.cons_table[key] = ref
        return ref

    def request_input(self, symbol: str) -> NodeRef:
        return self._insert(NodeKind.INPUT, (), symbol=symbol)

    def request_opaque(self, inputs: Iterable[NodeRef] = (),
                       clamp: Optional[str] = None) -> NodeRef:
        inputs = tuple(inputs)
        self._check_live(inputs)
        serial = self._next_serial
        self._next_serial += 1
        return self._insert(NodeKind.OPAQUE, inputs, clamp=clamp, serial=serial)

    def request_call(self, inputs: Iterable[NodeRef], target: Optional[int]) -> NodeRef:
        inputs = tuple(inputs)
        self._check_live(inputs)
        serial = self._next_serial
        self._next_serial += 1
        symbol = None if target is None else f"0x{target:x}"
        return self._insert(NodeKind.CALL, inputs, symbol=symbol, serial=serial)

    def request_operation(self, kind: NodeKind,
                          inputs: Iterable[NodeRef]) -> NodeRef:
        """Normalize the operation ``kind`` over ``inputs`` to a fixed
        point of the rewrite system and return the (possibly
        pre-existing) node implementing it.  ``kind`` is one of
        `_OPERATIONS`; the other kinds have their own request methods."""
        if kind not in _OPERATIONS:
            raise GraphError(f"{kind} is not an operation")
        inputs = tuple(inputs)
        least, most = ARITY[kind]
        if len(inputs) < least or (most is not None and len(inputs) > most):
            want = str(least) if most == least else f"at least {least}"
            raise GraphError(
                f"{kind.value} takes {want} inputs, got {len(inputs)}")
        # one pass checks liveness and collects the constant values for
        # as long as every input so far is CONST
        nodes = self.nodes
        values: Optional[list[int]] = []
        for ref in inputs:
            node = nodes.get(ref)
            if node is None:
                raise DeadNodeError(f"request references dead node {ref}")
            if values is not None:
                if node.kind is _CONST:
                    values.append(node.const_value)
                else:
                    values = None
        if values is not None:
            return self._fold_constants(kind, inputs, values)
        if kind in COMMUTATIVE:
            return self._build_commutative(kind, inputs)
        if kind is _SUB:
            return self._build_sub(*inputs)
        return self._build_shift(kind, *inputs)

    # ------------------------------------------------------------------
    # rewrite rules

    def _fold_constants(self, kind: NodeKind, inputs: tuple[NodeRef, ...],
                        values: list[int]) -> NodeRef:
        """An operation whose inputs are all CONST, folded with ints.
        It requests the same constants as the rewrite rules below, in
        the same order, so node numbering does not depend on which path
        a request takes."""
        fold = FOLD[kind]
        if kind in COMMUTATIVE:
            return self.request_constant(reduce(fold, values))
        a, b = values
        if kind is _SUB:
            self.request_constant(-b)   # (h) in _build_sub: a + (2^32 - b)
            return self.request_constant(fold(a, b))
        _, b = self._shift_amount(kind, inputs[1], b)
        if b == 0:
            return inputs[0]
        return self.request_constant(fold(a, b))

    def _build_commutative(self, kind: NodeKind, inputs: tuple[NodeRef, ...]) -> NodeRef:
        # (d) flatten same-kind children into one variadic node
        nodes = self.nodes
        flat: list[NodeRef] = []
        for i in inputs:
            n = nodes[i]
            if n.kind is kind:
                flat.extend(n.inputs)
            else:
                flat.append(i)

        # (a)-(c) fold constants, drop the identity, collapse on zero;
        # count what rules (i) and (j) need, so they cost nothing where
        # they cannot fire
        acc = _IDENTITY[kind]
        rest: list[NodeRef] = []
        shr = False
        ands = 0
        for i in flat:
            n = nodes[i]
            k = n.kind
            if k is _CONST:
                acc = FOLD[kind](acc, n.const_value)
            else:
                rest.append(i)
                if k is _SHR:
                    shr = True
                elif k is _AND:
                    ands += 1
        zero = _ZERO.get(kind)
        if zero is not None and acc == zero:
            return self.request_constant(zero)
        if not rest:
            return self.request_constant(acc)
        if acc != _IDENTITY[kind]:
            rest.append(self.request_constant(acc))
        if len(rest) == 1:
            return rest[0]

        # (i) SHL(x, k) and SHR(x, 32-k) share no set bit, so in an OR,
        # XOR or ADD the pair is ROTATE(x, k); (j) AND(b, ...) and
        # AND(XOR(b, 0xffffffff), ...) share none either, so in an ADD
        # or XOR the pair is their OR.  With one spelling per value, a
        # signature needs only one.
        pair = None
        if shr and kind is not _AND and kind is not _MULT:
            pair = self._rotate_pair(rest)
        if pair is None and ands > 1 and (kind is _ADD or kind is _XOR):
            pair = self._selector_pair(rest)
        if pair is not None:
            a, b, joined = pair
            rest.remove(a)
            rest.remove(b)
            return self._build_commutative(kind, (*rest, joined))

        # (e) doubling: ADD(x, x) -> MULT(x, 2)
        if kind is _ADD and len(rest) == 2 and rest[0] == rest[1]:
            return self._build_commutative(
                _MULT, (rest[0], self.request_constant(2)))

        # (g) distribute a constant multiplier over an addition
        if kind is _MULT and len(rest) == 2:
            a, b = rest
            if self.nodes[a].kind is _CONST:
                a, b = b, a
            if (self.nodes[b].kind is _CONST
                    and self.nodes[a].kind is _ADD):
                m = b
                terms = tuple(
                    self._build_commutative(_MULT, (t, m))
                    for t in self.nodes[a].inputs)
                return self._build_commutative(_ADD, terms)

        # (f) AND of a masked constant-amount rotate is really a shift:
        # with left-rotation semantics, the low r bits of ROTATE(x, r) are
        # the low r bits of SHR(x, 32-r).
        if kind is _AND and len(rest) == 2:
            a, b = rest
            if self.nodes[a].kind is _CONST:
                a, b = b, a
            bn = self.nodes[b]
            an = self.nodes[a]
            if (bn.kind is _CONST and an.kind is _ROTATE
                    and self.nodes[an.inputs[1]].kind is _CONST):
                r = self.nodes[an.inputs[1]].const_value
                assert bn.const_value is not None and r is not None
                if 0 < r < 32 and bn.const_value < (1 << r):
                    shr = self._build_shift(
                        _SHR, an.inputs[0], self.request_constant(32 - r))
                    return self._build_commutative(_AND, (shr, b))

        rest.sort()
        return self._insert(kind, tuple(rest))

    def _rotate_pair(self, terms: list[NodeRef]) -> Optional[tuple]:
        """Rule (i): SHL(x, k) and SHR(x, 32-k) among ``terms`` and
        their ROTATE(x, k), or None.  Rule (e) made SHL(x, 1) MULT(x, 2)."""
        nodes = self.nodes
        right = {}
        left = []
        for t in terms:
            n = nodes[t]
            if n.kind is _SHR and nodes[n.inputs[1]].kind is _CONST:
                right[n.inputs[0], 32 - nodes[n.inputs[1]].const_value] = t
            elif n.kind is _SHL or n.kind is _MULT:
                left.append(t)
        for t in sorted(left):
            n = nodes[t]
            if len(n.inputs) != 2:
                continue
            x, by = n.inputs
            if n.kind is _SHL:
                k = nodes[by].const_value
            else:
                if nodes[x].kind is _CONST:
                    x, by = by, x
                k = 1 if nodes[by].const_value == 2 else None
            if (x, k) in right:
                return t, right[x, k], self._build_shift(
                    _ROTATE, x, self.request_constant(k))
        return None

    def _selector_pair(self, terms: list[NodeRef]) -> Optional[tuple]:
        """Rule (j): AND(b, ...) and AND(XOR(b, 0xffffffff), ...) among
        ``terms`` and their OR, or None."""
        nodes = self.nodes
        ands = sorted(t for t in terms if nodes[t].kind is _AND)
        for t in ands:
            for c in nodes[t].inputs:
                n = nodes[c]
                if n.kind is not _XOR or len(n.inputs) != 2:
                    continue
                b, mask = n.inputs
                if nodes[b].kind is _CONST:
                    b, mask = mask, b
                if nodes[mask].const_value != MASK32:
                    continue
                for u in ands:
                    if u != t and b in nodes[u].inputs:
                        return t, u, self._build_commutative(_OR, (t, u))
        return None

    def _shift_amount(self, kind: NodeKind, amount: NodeRef,
                      a: int) -> tuple[NodeRef, int]:
        """The constant amount ``a`` (node ``amount``) in normal form: a
        rotation by 32 or more is reduced modulo 32, and the reduced
        amount is requested as its own constant."""
        if kind is _ROTATE and a >= 32:
            a %= 32
            amount = self.request_constant(a)
        return amount, a

    def _build_shift(self, kind: NodeKind, value: NodeRef, amount: NodeRef) -> NodeRef:
        # an all-CONST request was folded by _fold_constants
        amt = self.nodes[amount]
        if amt.kind is _CONST:
            amount, a = self._shift_amount(kind, amount, amt.const_value)
            if a == 0:
                return value  # (b) shift/rotate by zero
            if kind is _SHL and a == 1:
                # (e) doubling
                return self._build_commutative(
                    _MULT, (value, self.request_constant(2)))
        return self._insert(kind, (value, amount))

    def _build_sub(self, minuend: NodeRef, subtrahend: NodeRef) -> NodeRef:
        sn = self.nodes[subtrahend]
        if sn.kind is _CONST:
            assert sn.const_value is not None
            # (h) x - c  ->  x + (2^32 - c)
            comp = (MOD32 - sn.const_value) % MOD32
            return self._build_commutative(
                _ADD, (minuend, self.request_constant(comp)))
        return self._insert(_SUB, (minuend, subtrahend))

    def base_offset(self, ref: NodeRef) -> Optional[tuple[NodeRef, int]]:
        """(base, k) when ``ref`` is a two-input ADD of ``base`` and the
        constant k, else None."""
        node = self.node(ref)
        if node.kind is not NodeKind.ADD or len(node.inputs) != 2:
            return None
        a, b = node.inputs
        if self.nodes[b].kind is NodeKind.CONST:
            return a, self.nodes[b].const_value
        if self.nodes[a].kind is NodeKind.CONST:
            return b, self.nodes[a].const_value
        return None

    # ------------------------------------------------------------------
    # memory

    def record_store(self, addr: NodeRef, value: NodeRef) -> NodeRef:
        self._check_live((addr, value))
        ref = self._insert(_STORE, (addr, value))
        self.store_map[addr] = value
        return ref

    def request_load(self, addr: NodeRef) -> NodeRef:
        self._check_live((addr,))
        forwarded = self.store_map.get(addr)
        if forwarded is not None:
            return forwarded
        return self._insert(_LOAD, (addr,))

    # ------------------------------------------------------------------
    # purging and forking

    def purge(self, roots: Iterable[NodeRef]) -> "Dfg":
        """Drop every node that is neither a root nor an ancestor of one.

        Equivalent to iteratively deleting non-root leaves to a fixed
        point: a node survives iff some root reaches it through input
        edges.
        """
        roots = set(roots)
        self._check_live(roots)
        keep: set[NodeRef] = set()
        stack = list(roots)
        while stack:
            ref = stack.pop()
            if ref in keep:
                continue
            keep.add(ref)
            stack.extend(self.nodes[ref].inputs)
        # rebuilt from the survivors, which keeps ascending ref order
        self.nodes = {r: n for r, n in self.nodes.items() if r in keep}
        self.cons_table = {k: r for k, r in self.cons_table.items()
                           if r in keep}
        self.store_map = {a: v for a, v in self.store_map.items()
                          if a in keep and v in keep}
        return self

    def fork_graph(self) -> "Dfg":
        """Independent copy sharing no mutable state; ids are preserved."""
        g = Dfg()
        g.nodes = dict(self.nodes)
        g.cons_table = dict(self.cons_table)
        g.store_map = dict(self.store_map)
        g._next_id = self._next_id
        g._next_serial = self._next_serial
        return g

    # ------------------------------------------------------------------
    # serialization

    def serialize(self) -> str:
        """Canonical text form: one node per line, ordered by id.

        Creation order is topological (inputs are created before their
        consumers), so sorting by id preserves topology.
        """
        lines = []
        for ref in sorted(self.nodes):
            n = self.nodes[ref]
            args = ", ".join(str(i) for i in n.inputs)
            extra = []
            if n.kind is NodeKind.CONST:
                extra.append(f"0x{n.const_value:x}")
            if n.symbol is not None:
                extra.append(n.symbol)
            if n.serial is not None:
                extra.append(f"#{n.serial}")
            if n.clamp is not None:
                extra.append(f"clamp={n.clamp}")
            payload = f" [{' '.join(extra)}]" if extra else ""
            lines.append(f"{ref}: {n.kind.value}({args}){payload}")
        return "\n".join(lines)

    def check_consing_invariants(self) -> None:
        """Full-table scan asserting no two live nodes share a canonical
        specification and the cons table mirrors the node table."""
        seen: dict[tuple, NodeRef] = {}
        for ref, node in self.nodes.items():
            key = node.cons_key()
            if key in seen:
                raise GraphError(
                    f"nodes {seen[key]} and {ref} share spec {key}")
            seen[key] = ref
            if self.cons_table.get(key) != ref:
                raise GraphError(f"cons table out of sync for node {ref}")
        if len(self.cons_table) != len(self.nodes):
            raise GraphError("cons table has stale entries")
