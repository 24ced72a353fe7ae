"""Graph matching: subgraph embedding of signatures and a structural
classifier for chained compression functions.

Both the production matcher and the exhaustive oracle decide validity
with the same predicate (`_assignment_ok`), so the two can only
disagree on enumeration, never on acceptance.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .dfg import COMMUTATIVE, Dfg, Node, NodeKind, NodeRef
from .sigdsl import SignatureGraph

__all__ = [
    "Mapping", "BlockPermReport", "SizeLimitError", "TargetIndex",
    "match_signature", "brute_force_match", "classify_block_permutation",
]


class SizeLimitError(Exception):
    pass


@dataclass
class Mapping:
    assignment: dict[NodeRef, NodeRef]
    clamp_bindings: dict[str, NodeKind] = field(default_factory=dict)

    def key(self) -> frozenset:
        return frozenset(self.assignment.items())


# ----------------------------------------------- the match predicate


def _node_tag_ok(s: Node, t: Node) -> bool:
    """Kind compatibility of a single node pair, ignoring edges."""
    if s.kind is NodeKind.OPAQUE:
        return True
    if s.kind is not t.kind:
        return False
    if s.kind is NodeKind.CONST:
        return s.const_value == t.const_value
    if s.kind is NodeKind.INPUT:
        return s.symbol == t.symbol
    return True


def _ordered(node: Node) -> bool:
    """Whether the node's operands correspond by position."""
    return node.kind is not NodeKind.OPAQUE and node.kind not in COMMUTATIVE


def _subset_arity(sig: SignatureGraph, ref: NodeRef, node: Node) -> bool:
    """True when the node may match a wider target node: wildcards
    always, commutative operations only when the statement that built
    them was transient (flattening in the target can widen those)."""
    if node.kind is NodeKind.OPAQUE:
        return True
    return node.kind in COMMUTATIVE and ref in sig.transient_set


def _inputs_ok(sig: SignatureGraph, s_ref: NodeRef, s: Node, t: Node,
               m: dict[NodeRef, NodeRef]) -> bool:
    mapped = [m[i] for i in s.inputs]
    if not _ordered(s):
        want = Counter(mapped)
        have = Counter(t.inputs)
        if any(have[r] < c for r, c in want.items()):
            return False
        if _subset_arity(sig, s_ref, s):
            return len(t.inputs) >= len(s.inputs)
        return len(t.inputs) == len(s.inputs)
    # ordered operation: positional correspondence
    return tuple(mapped) == t.inputs


def _assignment_ok(sig: SignatureGraph, target: Dfg,
                   m: dict[NodeRef, NodeRef]) -> Optional[Mapping]:
    """Full validity check of a complete assignment; returns the
    Mapping (with clamp bindings) or None."""
    if len(set(m.values())) != len(m):
        return None
    for s_ref, t_ref in m.items():
        s = sig.graph.node(s_ref)
        t = target.node(t_ref)
        if not _node_tag_ok(s, t):
            return None
        if not _inputs_ok(sig, s_ref, s, t, m):
            return None
    bindings: dict[str, NodeKind] = {}
    for s_ref, label in sig.clamp_labels.items():
        tag = target.node(m[s_ref]).kind
        if bindings.setdefault(label, tag) is not tag:
            return None
    return Mapping(dict(m), bindings)


# ------------------------------------------------- exhaustive oracle


_BRUTE_SIG_LIMIT = 8
_BRUTE_TARGET_LIMIT = 14


def brute_force_match(sig: SignatureGraph,
                      target: Dfg) -> list[Mapping]:
    """Enumerates every injective assignment and filters through the
    predicate.

    Signature nodes are filled in ascending id order, which is
    topological, so when a node is placed its inputs already are; a
    placement violating the tag or input conjuncts of the predicate on
    decided values can never become valid later, and skipping it drops
    no assignments from the result.  Every completed assignment still
    goes through the full predicate."""
    sig_nodes = sorted(sig.graph.nodes)
    target_nodes = sorted(target.nodes)
    if len(sig_nodes) > _BRUTE_SIG_LIMIT:
        raise SizeLimitError(
            f"signature has {len(sig_nodes)} nodes, "
            f"limit {_BRUTE_SIG_LIMIT}")
    if len(target_nodes) > _BRUTE_TARGET_LIMIT:
        raise SizeLimitError(
            f"target has {len(target_nodes)} nodes, "
            f"limit {_BRUTE_TARGET_LIMIT}")

    out = []
    m: dict[NodeRef, NodeRef] = {}
    used: set[NodeRef] = set()

    def place(i: int) -> None:
        if i == len(sig_nodes):
            mapping = _assignment_ok(sig, target, m)
            if mapping is not None:
                out.append(mapping)
            return
        s_ref = sig_nodes[i]
        s = sig.graph.node(s_ref)
        for t_ref in target_nodes:
            if t_ref in used:
                continue
            t = target.node(t_ref)
            if not _node_tag_ok(s, t):
                continue
            m[s_ref] = t_ref
            if _inputs_ok(sig, s_ref, s, t, m):
                used.add(t_ref)
                place(i + 1)
                used.discard(t_ref)
            del m[s_ref]

    place(0)
    return out


# ----------------------------------------------- production matcher


def _tag(node: Node) -> tuple:
    """The part of a node `_node_tag_ok` compares, as a bucket key."""
    return (node.kind,
            node.const_value if node.kind is NodeKind.CONST else None,
            node.symbol if node.kind is NodeKind.INPUT else None)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, ascending."""
    if mask.bit_count() * 6 > mask.bit_length():
        # dense: one pass over the binary digits beats peeling bits
        return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TargetIndex:
    """Tables over one target graph, built once and shared by every
    signature variant matched into it.

    Target nodes are numbered densely in ascending ref order, and a set
    of them is a Python int whose bit i stands for `refs[i]`.  Per node
    i, `args[i]` holds its operands and `users[i]` its consumers;
    `args_at(pos)[i]` and `users_at(pos)[i]` restrict both to operand
    position `pos`.  The graph must not change while the index is in
    use.
    """

    def __init__(self, target: Dfg):
        self.target = target
        self.refs = sorted(target.nodes)
        bit = {ref: i for i, ref in enumerate(self.refs)}
        self._operands = [tuple(bit[r] for r in target.nodes[ref].inputs)
                          for ref in self.refs]
        self.args: list[int] = []
        self.users = [0] * len(self.refs)
        self._buckets: dict[tuple, int] = {}
        self._arity: dict[int, int] = {}
        for i, ref in enumerate(self.refs):
            one = 1 << i
            mask = 0
            for j in self._operands[i]:
                mask |= 1 << j
                self.users[j] |= one
            self.args.append(mask)
            key = _tag(target.nodes[ref])
            self._buckets[key] = self._buckets.get(key, 0) | one
            arity = len(self._operands[i])
            self._arity[arity] = self._arity.get(arity, 0) | one
        self._args_at: dict[int, list[int]] = {}
        self._users_at: dict[int, list[int]] = {}
        self._domains: dict[tuple, int] = {}

    def args_at(self, pos: int) -> list[int]:
        table = self._args_at.get(pos)
        if table is None:
            table = [1 << ops[pos] if pos < len(ops) else 0
                     for ops in self._operands]
            self._args_at[pos] = table
        return table

    def users_at(self, pos: int) -> list[int]:
        table = self._users_at.get(pos)
        if table is None:
            table = [0] * len(self.refs)
            for i, ops in enumerate(self._operands):
                if pos < len(ops):
                    table[ops[pos]] |= 1 << i
            self._users_at[pos] = table
        return table

    def domain(self, s: Node, subset: bool) -> int:
        """Target nodes passing the tag and arity conjuncts of the
        predicate for signature node `s`."""
        arity = len(s.inputs)
        key = _tag(s) + (subset, arity)
        found = self._domains.get(key)
        if found is None:
            if subset:
                shape = 0
                for n, mask in self._arity.items():
                    if n >= arity:
                        shape |= mask
            else:
                shape = self._arity.get(arity, 0)
            if s.kind is not NodeKind.OPAQUE:
                shape &= self._buckets.get(key[:3], 0)
            found = self._domains[key] = shape
        return found


# Per signature node, one (neighbor, own, theirs) per edge: target t
# stays a candidate only while own[t] meets the neighbor's domain, and
# a neighbor candidate u supports exactly the targets in theirs[u].
_Links = dict[NodeRef, list[tuple[NodeRef, list[int], list[int]]]]


def _links(sig: SignatureGraph, index: TargetIndex) -> _Links:
    links: _Links = {r: [] for r in sig.graph.nodes}
    for c_ref, c in sig.graph.nodes.items():
        ordered = _ordered(c)
        for pos, a in enumerate(c.inputs):
            if ordered:
                down, up = index.args_at(pos), index.users_at(pos)
            else:
                down, up = index.args, index.users
            links[c_ref].append((a, down, up))
            links[a].append((c_ref, up, down))
    return links


def _initial_candidates(sig: SignatureGraph,
                        index: TargetIndex) -> Optional[dict[NodeRef, int]]:
    """Candidate domains from the tag and arity conjuncts alone, or
    None as soon as one of them is empty."""
    cands: dict[NodeRef, int] = {}
    for s_ref, s in sig.graph.nodes.items():
        cands[s_ref] = index.domain(s, _subset_arity(sig, s_ref, s))
        if not cands[s_ref]:
            return None
    return cands


def _refine(links: _Links, cands: dict[NodeRef, int]) -> bool:
    """Iterated Ullmann refinement: a candidate survives only while
    every signature neighbor still has a compatible candidate adjacent
    to it.  Returns False if some signature node runs out.

    Runs as a first-in first-out worklist: when a candidate set
    shrinks, only the nodes whose support could depend on it are
    re-examined.  Each neighbor constraint is applied by walking
    whichever of the two domains is smaller; the survival test is
    monotone, so the fixed point is the same either way."""
    queue = deque(sorted(cands))
    queued = set(queue)
    while queue:
        s_ref = queue.popleft()
        queued.discard(s_ref)
        dom = cands[s_ref]
        size = dom.bit_count()
        for nbr, own, theirs in links[s_ref]:
            other = cands[nbr]
            if other.bit_count() < size:
                support = 0
                for u in _bits(other):
                    support |= theirs[u]
                dom &= support
            else:
                for t in _bits(dom):
                    if not own[t] & other:
                        dom ^= 1 << t
            if not dom:
                return False
            size = dom.bit_count()
        if dom != cands[s_ref]:
            cands[s_ref] = dom
            for nbr, _, _ in links[s_ref]:
                if nbr not in queued:
                    queued.add(nbr)
                    queue.append(nbr)
    return True


def _search(sig: SignatureGraph, index: TargetIndex, links: _Links,
            cands: dict[NodeRef, int], limit: int) -> Iterator[Mapping]:
    """Backtracking over dynamically maintained domains.  Assigning a
    node immediately prunes the domains of its unassigned neighbors
    (and removes the chosen target from every other domain), so the
    most-constrained node is always picked next; a shared wildcard is
    collapsed as soon as the first structure around it is placed
    instead of being guessed at the end.

    Domains are the int bitsets refinement leaves; candidates are tried
    in ascending bit order, which is ascending ref order.  The trail
    records each domain's value before a change, and backtracking
    restores them in reverse."""
    sig_nodes = sorted(sig.graph.nodes)
    dom = dict(cands)
    m: dict[NodeRef, int] = {}
    trail: list[tuple[NodeRef, int]] = []
    found = 0

    def narrow(r: NodeRef, new: int) -> bool:
        if new != dom[r]:
            trail.append((r, dom[r]))
            dom[r] = new
        return bool(new)

    def assign(s_ref: NodeRef, t: int) -> bool:
        for nbr, own, _ in links[s_ref]:
            if nbr not in m and not narrow(nbr, dom[nbr] & own[t]):
                return False
        bit = 1 << t
        for r in sig_nodes:
            if r != s_ref and r not in m and dom[r] & bit:
                if not narrow(r, dom[r] ^ bit):
                    return False
        return True

    def step() -> Iterator[Mapping]:
        nonlocal found
        if found >= limit:
            return
        if len(m) == len(sig_nodes):
            mapping = _assignment_ok(
                sig, index.target,
                {s: index.refs[t] for s, t in m.items()})
            if mapping is not None:
                found += 1
                yield mapping
            return
        _, s_ref = min((dom[r].bit_count(), r)
                       for r in sig_nodes if r not in m)
        for t in _bits(dom[s_ref]):
            m[s_ref] = t
            mark = len(trail)
            if assign(s_ref, t):
                yield from step()
            while len(trail) > mark:
                r, old = trail.pop()
                dom[r] = old
            del m[s_ref]
            if found >= limit:
                return

    yield from step()


def match_signature(sig: SignatureGraph, target: Dfg,
                    limit: int = 16,
                    index: Optional[TargetIndex] = None) -> list[Mapping]:
    """Backtracking subgraph embedding with candidate refinement.

    Candidate domains are int bitsets over `index`, a `TargetIndex` of
    `target`; pass one to share its tables and cached initial domains
    across the signatures matched into the same graph, or leave it out
    to have one built for this call.  Refinement intersects those
    domains with the index's neighbor masks, and the search then
    backtracks over them in ascending target order.

    Returns up to `limit` mappings; an empty list means no embedding
    exists."""
    if not sig.graph.nodes:
        raise ValueError("empty signature")
    if not target.nodes:
        return []
    if index is None:
        index = TargetIndex(target)
    elif index.target is not target:
        raise ValueError("index was built for another graph")
    cands = _initial_candidates(sig, index)
    if cands is None:
        return []
    links = _links(sig, index)
    if not _refine(links, cands):
        return []
    return list(_search(sig, index, links, cands, limit))


# ------------------------------- chained compression classification


@dataclass
class BlockPermReport:
    anchor: NodeRef
    triple: tuple[NodeRef, NodeRef, NodeRef]
    offsets: tuple[int, int, int]
    path_signature: list[tuple[str, str]]
    confirmed: bool


def _offset_loads(target: Dfg) -> dict[NodeRef,
                                       list[tuple[int, NodeRef,
                                                  NodeRef]]]:
    """Group LOAD(ADD(x, k)) nodes by x as {x: [(k, load, addr)]}."""
    groups: dict[NodeRef, list[tuple[int, NodeRef, NodeRef]]] = {}
    for ref, node in target.nodes.items():
        if node.kind is not NodeKind.LOAD:
            continue
        addr = target.node(node.inputs[0])
        if addr.kind is not NodeKind.ADD or len(addr.inputs) != 2:
            continue
        a, b = addr.inputs
        if target.node(b).kind is NodeKind.CONST:
            base, k = a, target.node(b).const_value
        elif target.node(a).kind is NodeKind.CONST:
            base, k = b, target.node(a).const_value
        else:
            continue
        assert k is not None
        groups.setdefault(base, []).append((k, ref, node.inputs[0]))
    return groups


def _bfs_path(target: Dfg, start: NodeRef, goal: NodeRef,
              blocked: set[tuple[NodeRef, NodeRef]],
              ) -> Optional[list[tuple[NodeRef, str]]]:
    """Shortest undirected path as [(node, direction-of-arrival)],
    where 'fwd' follows data flow (operand to consumer) and 'rev' goes
    against it.  `blocked` lists undirected edges to avoid."""
    parents: dict[NodeRef, tuple[Optional[NodeRef], str]] = {
        start: (None, "")}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        if u == goal:
            path: list[tuple[NodeRef, str]] = []
            cur: Optional[NodeRef] = u
            while cur is not None:
                prev, direction = parents[cur]
                path.append((cur, direction))
                cur = prev
            path.reverse()
            return path
        steps = [(w, "fwd") for w in target.uses.get(u, ())]
        steps += [(w, "rev") for w in target.node(u).inputs]
        for w, direction in steps:
            if w in parents:
                continue
            if (u, w) in blocked or (w, u) in blocked:
                continue
            parents[w] = (u, direction)
            queue.append(w)
    return None


def _replay(target: Dfg, start: NodeRef, goal: NodeRef,
            signature: list[tuple[str, str]],
            blocked: set[tuple[NodeRef, NodeRef]]) -> Optional[
                list[NodeRef]]:
    """Walk every simple path from `start` whose edge directions and
    node kinds repeat `signature`; returns one that ends at `goal`."""

    def walk(u: NodeRef, depth: int,
             seen: set[NodeRef]) -> Optional[list[NodeRef]]:
        if depth == len(signature):
            return [u] if u == goal else None
        direction, kind_name = signature[depth]
        if direction == "fwd":
            options = target.uses.get(u, ())
        else:
            options = target.node(u).inputs
        for w in options:
            if w in seen:
                continue
            if (u, w) in blocked or (w, u) in blocked:
                continue
            if target.node(w).kind.name != kind_name:
                continue
            tail = walk(w, depth + 1, seen | {w})
            if tail is not None:
                return [u] + tail
        return None

    return walk(start, 0, {start})


_PROFILE_WILDCARDS = (NodeKind.CONST, NodeKind.LOAD)


def _kinds_correspond(p_kinds: list[NodeKind],
                      q_kinds: list[NodeKind]) -> bool:
    """Multiset correspondence where CONST and LOAD entries match
    anything on the other side."""
    if len(p_kinds) != len(q_kinds):
        return False
    p_hard = Counter(k for k in p_kinds if k not in _PROFILE_WILDCARDS)
    q_hard = Counter(k for k in q_kinds if k not in _PROFILE_WILDCARDS)
    overlap = p_hard & q_hard
    p_extra = sum((p_hard - overlap).values())
    q_extra = sum((q_hard - overlap).values())
    p_wild = len(p_kinds) - sum(p_hard.values())
    q_wild = len(q_kinds) - sum(q_hard.values())
    return p_extra <= q_wild and q_extra <= p_wild


def _profiles_match(target: Dfg, p: NodeRef, q: NodeRef) -> bool:
    pn, qn = target.node(p), target.node(q)
    p_in = [target.node(i).kind for i in pn.inputs]
    q_in = [target.node(i).kind for i in qn.inputs]
    if not _kinds_correspond(p_in, q_in):
        return False
    p_out = sorted(target.node(c).kind.name
                   for c in set(target.uses.get(p, ())))
    q_out = sorted(target.node(c).kind.name
                   for c in set(target.uses.get(q, ())))
    return p_out == q_out


def classify_block_permutation(target: Dfg) -> list[BlockPermReport]:
    """Detects two chained instances of an unknown compression
    function fed from equally spaced memory blocks.

    The shortest-path search refuses to step between an endpoint load
    and its own address node; without that, the trivial route through
    the shared address base would always win and say nothing about the
    computation.
    """
    reports: list[BlockPermReport] = []
    for anchor, entries in sorted(_offset_loads(target).items()):
        entries = sorted(entries)
        for (k0, v0, a0), (k1, v1, a1), (k2, v2, a2) in \
                itertools.combinations(entries, 3):
            if k1 - k0 < 16 or k1 - k0 != k2 - k1:
                continue
            blocked = {(v0, a0), (v1, a1), (v2, a2)}
            path = _bfs_path(target, v0, v1, blocked)
            if path is None:
                reports.append(BlockPermReport(
                    anchor, (v0, v1, v2), (k0, k1, k2), [], False))
                continue
            signature = [(direction, target.node(ref).kind.name)
                         for ref, direction in path[1:]]
            replay = _replay(target, v1, v2, signature, blocked)
            confirmed = replay is not None
            if confirmed:
                assert replay is not None
                first = [ref for ref, _ in path]
                profile_ok = all(
                    _profiles_match(target, p, q)
                    for p, q in zip(first, replay))
                confirmed = profile_ok
            reports.append(BlockPermReport(
                anchor, (v0, v1, v2), (k0, k1, k2), signature,
                confirmed))
    return reports
