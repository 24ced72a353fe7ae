"""Graph matching: subgraph embedding of signatures and a structural
classifier for chained compression functions.

Every mapping the matcher returns has passed `_assignment_ok`, the
full match predicate.  The test suite's exhaustive oracle filters
through the same predicate, so the two can only disagree on
enumeration, never on acceptance.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .dfg import COMMUTATIVE, Dfg, Node, NodeKind, NodeRef
from .sigdsl import SignatureGraph

__all__ = [
    "Mapping", "BlockPermReport", "TargetIndex", "match_signature",
    "classify_block_permutation",
]


@dataclass
class Mapping:
    """One embedding: signature ref to target ref, with the kind
    each clamp label took."""

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
        want = set(mapped)
        if len(want) == len(mapped):
            # no input repeats: multiset containment is set containment
            if not want.issubset(t.inputs):
                return False
        else:
            have = Counter(t.inputs)
            if any(have[r] < c for r, c in Counter(mapped).items()):
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


# ----------------------------------------------- production matcher


def _tag(node: Node) -> tuple:
    """The part of a node `_node_tag_ok` compares, as a bucket key."""
    return (node.kind,
            node.const_value if node.kind is NodeKind.CONST else None,
            node.symbol if node.kind is NodeKind.INPUT else None)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# A mask with at most this many bits is walked bit by bit; a denser one
# is taken a byte at a time.
_SPARSE = 16


class _Table:
    """One neighbor relation over a target graph: `rows[i]` is the set
    of nodes related to node i.  `union(mask)` ORs the rows of the nodes
    in `mask`, and keeps each result in `memo`, keyed by mask, for as
    long as the table lives.  A dense mask is read a byte at a time:
    `blocks[b]` maps the byte value of bits 8b..8b+7 to the union of
    those rows, and is filled the first time that value is asked for."""

    def __init__(self, rows: list[int]):
        self.rows = rows
        self.width = (len(rows) + 7) // 8
        self.blocks: list[dict[int, int]] = [{} for _ in range(self.width)]
        self.memo: dict[int, int] = {}

    def union(self, mask: int) -> int:
        out = self.memo.get(mask)
        if out is None:
            out = self.memo[mask] = self._union(mask)
        return out

    def _union(self, mask: int) -> int:
        out = 0
        rows = self.rows
        if mask.bit_count() <= _SPARSE:
            while mask:
                low = mask & -mask
                out |= rows[low.bit_length() - 1]
                mask ^= low
            return out
        blocks = self.blocks
        for b, byte in enumerate(mask.to_bytes(self.width, "little")):
            if byte:
                part = blocks[b].get(byte)
                if part is None:
                    part = 0
                    for j in _bits(byte):
                        part |= rows[8 * b + j]
                    blocks[b][byte] = part
                out |= part
        return out


class TargetIndex:
    """Tables over one target graph, built once and shared by every
    signature variant matched into it.

    Target nodes are numbered densely in ascending ref order, and a set
    of them is a Python int whose bit i stands for `refs[i]`.  The
    tag buckets and arity masks behind `domain` are built with the
    index.  `consumed(k)`, the nodes with at least k distinct
    consumers, and `tables(pos)`, the operand and consumer relations
    restricted to operand position `pos` or over every position for
    None, are read off the graph on first use, so a graph that fails
    every candidate check pays only for its buckets.  The graph must
    not change while the index is in use.
    """

    def __init__(self, target: Dfg):
        self.target = target
        self.refs = sorted(target.nodes)
        self._bit = {ref: i for i, ref in enumerate(self.refs)}
        self._buckets: dict[tuple, int] = {}
        self._arity: dict[int, int] = {}
        for i, ref in enumerate(self.refs):
            one = 1 << i
            node = target.nodes[ref]
            key = _tag(node)
            self._buckets[key] = self._buckets.get(key, 0) | one
            arity = len(node.inputs)
            self._arity[arity] = self._arity.get(arity, 0) | one
        self._tables: dict[Optional[int], tuple[_Table, _Table]] = {}
        self._domains: dict[tuple, int] = {}
        self._degree: Optional[list[int]] = None
        self._consumed: dict[int, int] = {}

    def tables(self, pos: Optional[int]) -> tuple[_Table, _Table]:
        """(operands, consumers) of every node, at operand position
        `pos`, or at any position when `pos` is None."""
        found = self._tables.get(pos)
        if found is None:
            nodes, bit = self.target.nodes, self._bit
            args = [0] * len(self.refs)
            users = [0] * len(self.refs)
            for i, ref in enumerate(self.refs):
                for p, r in enumerate(nodes[ref].inputs):
                    if pos is None or p == pos:
                        j = bit[r]
                        args[i] |= 1 << j
                        users[j] |= 1 << i
            found = self._tables[pos] = (_Table(args), _Table(users))
        return found

    def consumed(self, k: int) -> int:
        """Target nodes with at least `k` distinct consumers."""
        found = self._consumed.get(k)
        if found is None:
            if self._degree is None:
                bit = self._bit
                self._degree = [0] * len(self.refs)
                for node in self.target.nodes.values():
                    for r in set(node.inputs):
                        self._degree[bit[r]] += 1
            found = 0
            for i, n in enumerate(self._degree):
                if n >= k:
                    found |= 1 << i
            self._consumed[k] = found
        return found

    def domain(self, key: tuple) -> int:
        """Target nodes passing the tag and arity conjuncts of the
        predicate for a signature node with domain key `key`
        (`_domain_key`)."""
        found = self._domains.get(key)
        if found is None:
            kind, _, _, subset, arity = key
            if subset:
                shape = 0
                for n, mask in self._arity.items():
                    if n >= arity:
                        shape |= mask
            else:
                shape = self._arity.get(arity, 0)
            if kind is not NodeKind.OPAQUE:
                shape &= self._buckets.get(key[:3], 0)
            found = self._domains[key] = shape
        return found


# Per signature node, one (neighbor, own, theirs) per edge: target t
# stays a candidate only while own[t] meets the neighbor's domain, and
# a neighbor candidate u supports exactly the targets in theirs.rows[u].
_Links = dict[NodeRef, list[tuple[NodeRef, list[int], _Table]]]


def _links(sig: SignatureGraph, index: TargetIndex) -> _Links:
    links: _Links = {r: [] for r in sig.graph.nodes}
    for c_ref, c in sig.graph.nodes.items():
        ordered = _ordered(c)
        for pos, a in enumerate(c.inputs):
            down, up = index.tables(pos if ordered else None)
            links[c_ref].append((a, down.rows, up))
            links[a].append((c_ref, up.rows, down))
    return links


def _domain_key(sig: SignatureGraph, ref: NodeRef, node: Node) -> tuple:
    """What the tag and arity conjuncts of the predicate read of a
    signature node: its `_tag`, whether it may match a wider target
    node (`_subset_arity`), and its arity."""
    return _tag(node) + (_subset_arity(sig, ref, node), len(node.inputs))


def _plan(sig: SignatureGraph) -> tuple:
    """The target-independent part of `_initial_candidates`, worked
    out on first use and kept in ``sig.plan``: each node with its
    domain key and its number of distinct consumers, in node order,
    and the distinct keys."""
    if sig.plan is None:
        users: dict[NodeRef, set[NodeRef]] = {r: set()
                                              for r in sig.graph.nodes}
        for ref, node in sig.graph.nodes.items():
            for i in node.inputs:
                users[i].add(ref)
        nodes = tuple((ref, _domain_key(sig, ref, node), len(users[ref]))
                      for ref, node in sig.graph.nodes.items())
        sig.plan = (nodes, tuple(dict.fromkeys(key for _, key, _ in nodes)))
    return sig.plan


def _initial_candidates(sig: SignatureGraph,
                        index: TargetIndex) -> Optional[dict[NodeRef, int]]:
    """Candidate domains from the tag and arity conjuncts and the
    consumer degree, or None when one of them is empty.

    Every distinct domain key is checked first, and only when none of
    them is empty are the domains cut by degree: the mapping is
    injective, so a node with k distinct consumers can only stand for
    a target node with at least k (`TargetIndex.consumed`).  A graph
    that fails at tag or arity never counts its consumers."""
    nodes, keys = _plan(sig)
    for key in keys:
        if not index.domain(key):
            return None
    cands = {}
    for ref, key, k in nodes:
        dom = index.domain(key)
        if k:
            dom &= index.consumed(k)
            if not dom:
                return None
        cands[ref] = dom
    return cands


def _refine(links: _Links, cands: dict[NodeRef, int]) -> bool:
    """Iterated Ullmann refinement: a candidate survives only while
    every signature neighbor still has a compatible candidate adjacent
    to it.  Returns False if some signature node runs out.

    Runs as a first-in first-out worklist (AC-3): every node is checked
    against all its neighbors once, and afterwards a node is queued
    again only when a neighbor's domain shrinks, and then re-checked
    against just the neighbors that shrank since its last check; its
    support on the others cannot have changed.  The fixed point is the
    unique largest one either way.  A sparse domain facing a larger
    neighbor domain is checked candidate by candidate; otherwise it is
    intersected with the union of the neighbor's support rows
    (`_Table.union`).  Both keep exactly the candidates with a
    compatible neighbor.

    A neighbor down to one candidate u can only lose u, and that ends
    refinement; so when a node shrinks, such a neighbor that is not
    queued is checked against it at once instead of being queued.  The
    node has just been checked against that neighbor's present domain,
    so the check holds while the node has a candidate; it stands in for
    the neighbor's pop, so the fixpoint does not rest on that argument."""
    queue = deque(sorted(cands))
    # queued node -> the neighbors that shrank since its last check,
    # or None to check them all
    changed: dict[NodeRef, Optional[set[NodeRef]]] = dict.fromkeys(queue)
    while queue:
        s_ref = queue.popleft()
        dirty = changed.pop(s_ref)
        dom = cands[s_ref]
        for nbr, own, theirs in links[s_ref]:
            if dirty is not None and nbr not in dirty:
                continue
            other = cands[nbr]
            size = dom.bit_count()
            if size <= _SPARSE and size <= other.bit_count():
                rest = dom
                while rest:
                    low = rest & -rest
                    if not own[low.bit_length() - 1] & other:
                        dom ^= low
                    rest ^= low
            else:
                dom &= theirs.union(other)
            if not dom:
                return False
        if dom != cands[s_ref]:
            cands[s_ref] = dom
            for nbr, _, theirs in links[s_ref]:
                if nbr not in changed:
                    other = cands[nbr]
                    if other.bit_count() == 1:
                        if not theirs.rows[other.bit_length() - 1] & dom:
                            return False
                        continue
                    changed[nbr] = {s_ref}
                    queue.append(nbr)
                elif changed[nbr] is not None:
                    changed[nbr].add(s_ref)
    return True


def _search(sig: SignatureGraph, index: TargetIndex, links: _Links,
            cands: dict[NodeRef, int], limit: int) -> Iterator[Mapping]:
    """Backtracking over dynamically maintained domains.  Assigning a
    node immediately prunes the domains of its unassigned neighbors
    (and removes the chosen target from every other domain), so the
    most-constrained node is always picked next; a shared wildcard is
    collapsed as soon as the first structure around it is placed
    instead of being guessed at the end.

    The pick is the unassigned node with the fewest candidates, lowest
    ref first.  Nodes whose domain is down to one candidate wait in a
    min-heap, `singles`, pushed when a domain narrows to one bit and
    when backtracking unassigns them; an entry that is assigned or no
    longer a singleton when it reaches the top is dropped.  Only when
    no singleton is left are all unassigned nodes compared.
    Injectivity only needs to prune the nodes whose refined domain
    holds the chosen target, listed per target in `holders`.

    Domains are the int bitsets refinement leaves; candidates are tried
    in ascending bit order, which is ascending ref order.  The trail
    records each domain's value before a change, and backtracking
    restores them in reverse."""
    sig_nodes = sorted(sig.graph.nodes)
    dom = dict(cands)
    holders: dict[int, list[NodeRef]] = {}
    for r in sig_nodes:
        for t in _bits(cands[r]):
            holders.setdefault(t, []).append(r)
    singles = [r for r in sig_nodes if dom[r].bit_count() == 1]
    m: dict[NodeRef, int] = {}
    trail: list[tuple[NodeRef, int]] = []
    found = 0

    def narrow(r: NodeRef, new: int) -> bool:
        if new != dom[r]:
            trail.append((r, dom[r]))
            dom[r] = new
            if new.bit_count() == 1:
                heapq.heappush(singles, r)
        return bool(new)

    def assign(s_ref: NodeRef, t: int) -> bool:
        for nbr, own, _ in links[s_ref]:
            if nbr not in m and not narrow(nbr, dom[nbr] & own[t]):
                return False
        bit = 1 << t
        for r in holders[t]:
            if r != s_ref and r not in m and dom[r] & bit:
                if not narrow(r, dom[r] ^ bit):
                    return False
        return True

    def pick() -> NodeRef:
        while singles:
            r = heapq.heappop(singles)
            if r not in m and dom[r].bit_count() == 1:
                return r
        return min((dom[r].bit_count(), r)
                   for r in sig_nodes if r not in m)[1]

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
        s_ref = pick()
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
                break
        if dom[s_ref].bit_count() == 1:
            heapq.heappush(singles, s_ref)

    try:
        yield from step()
    finally:
        # step reaches itself through its closure; breaking that cycle
        # frees the domains, and with them the index, right away
        # instead of at the next cyclic collection
        del step


def match_signature(sig: SignatureGraph, target: Dfg,
                    limit: int = 16,
                    index: Optional[TargetIndex] = None) -> list[Mapping]:
    """Backtracking subgraph embedding with candidate refinement.

    Candidate domains are int bitsets over `index`, a `TargetIndex` of
    `target`; pass one to share its tables and cached initial domains
    across the signatures matched into the same graph, or leave it out
    to have one built for this call.  Refinement intersects those
    domains with the index's neighbor masks, and the search then
    backtracks over them in ascending target order.  When refinement
    leaves every domain a single target, there is no search: that one
    assignment is checked with `_assignment_ok`.

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
    if limit >= 1 and all(d.bit_count() == 1 for d in cands.values()):
        mapping = _assignment_ok(sig, target, {
            s: index.refs[cands[s].bit_length() - 1] for s in sorted(cands)})
        return [] if mapping is None else [mapping]
    return list(_search(sig, index, links, cands, limit))


# ------------------------------- chained compression classification


@dataclass
class BlockPermReport:
    """One sequential-block-permutation candidate on a graph."""

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
        found = target.base_offset(node.inputs[0])
        if found is not None:
            base, k = found
            groups.setdefault(base, []).append((k, ref, node.inputs[0]))
    return groups


def _consumers(target: Dfg) -> dict[NodeRef, list[NodeRef]]:
    """Each node's consumers in ascending ref order, listing a consumer
    once per input slot it takes the node in."""
    uses: dict[NodeRef, list[NodeRef]] = {}
    for ref in sorted(target.nodes):
        for i in target.nodes[ref].inputs:
            uses.setdefault(i, []).append(ref)
    return uses


def _adjacency(target: Dfg, uses: dict[NodeRef, list[NodeRef]],
               ) -> dict[NodeRef, list[tuple[NodeRef, str]]]:
    """Each node's undirected neighbors as (neighbor, direction): its
    consumers ('fwd', with data flow) in `uses` order, then its operands
    ('rev', against it) in input order."""
    return {ref: [(w, "fwd") for w in uses.get(ref, ())]
            + [(w, "rev") for w in node.inputs]
            for ref, node in target.nodes.items()}


def _bfs_path(adjacency: dict[NodeRef, list[tuple[NodeRef, str]]],
              start: NodeRef, goal: NodeRef,
              blocked: set[tuple[NodeRef, NodeRef]],
              ) -> Optional[list[tuple[NodeRef, str]]]:
    """Shortest undirected path over `adjacency` as
    [(node, direction-of-arrival)], where 'fwd' follows data flow
    (operand to consumer) and 'rev' goes against it.  `blocked` lists
    undirected edges to avoid.

    The search ends as soon as the goal is discovered: its parent is
    fixed then, so the path is the one found when it would be popped."""
    ends = {n for edge in blocked for n in edge}
    parents: dict[NodeRef, tuple[Optional[NodeRef], str]] = {
        start: (None, "")}
    queue = deque([start])
    while queue and goal not in parents:
        u = queue.popleft()
        check = u in ends
        for w, direction in adjacency[u]:
            if w in parents:
                continue
            if check and ((u, w) in blocked or (w, u) in blocked):
                continue
            parents[w] = (u, direction)
            if w == goal:
                break
            queue.append(w)
    if goal not in parents:
        return None
    path: list[tuple[NodeRef, str]] = []
    cur: Optional[NodeRef] = goal
    while cur is not None:
        prev, direction = parents[cur]
        path.append((cur, direction))
        cur = prev
    path.reverse()
    return path


def _replay(target: Dfg, uses: dict[NodeRef, list[NodeRef]],
            start: NodeRef, goal: NodeRef,
            signature: list[tuple[str, str]],
            blocked: set[tuple[NodeRef, NodeRef]]) -> Optional[
                list[NodeRef]]:
    """Walk every simple path from `start` whose edge directions and
    node kinds repeat `signature`; returns one that ends at `goal`."""
    ends = {n for edge in blocked for n in edge}

    def walk(u: NodeRef, depth: int,
             seen: set[NodeRef]) -> Optional[list[NodeRef]]:
        if depth == len(signature):
            return [u] if u == goal else None
        direction, kind_name = signature[depth]
        if direction == "fwd":
            options = uses.get(u, ())
        else:
            options = target.node(u).inputs
        for w in options:
            if w in seen:
                continue
            if u in ends and ((u, w) in blocked or (w, u) in blocked):
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


def _profiles_match(target: Dfg, uses: dict[NodeRef, list[NodeRef]],
                    p: NodeRef, q: NodeRef) -> bool:
    pn, qn = target.node(p), target.node(q)
    p_in = [target.node(i).kind for i in pn.inputs]
    q_in = [target.node(i).kind for i in qn.inputs]
    if not _kinds_correspond(p_in, q_in):
        return False
    p_out = sorted(target.node(c).kind.name
                   for c in set(uses.get(p, ())))
    q_out = sorted(target.node(c).kind.name
                   for c in set(uses.get(q, ())))
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
    uses: dict[NodeRef, list[NodeRef]] = {}
    adjacency: dict[NodeRef, list[tuple[NodeRef, str]]] = {}
    for anchor, entries in sorted(_offset_loads(target).items()):
        entries = sorted(entries)
        for (k0, v0, a0), (k1, v1, a1), (k2, v2, a2) in \
                itertools.combinations(entries, 3):
            if k1 - k0 < 16 or k1 - k0 != k2 - k1:
                continue
            if not adjacency:
                uses = _consumers(target)
                adjacency = _adjacency(target, uses)
            blocked = {(v0, a0), (v1, a1), (v2, a2)}
            path = _bfs_path(adjacency, v0, v1, blocked)
            if path is None:
                reports.append(BlockPermReport(
                    anchor, (v0, v1, v2), (k0, k1, k2), [], False))
                continue
            signature = [(direction, target.node(ref).kind.name)
                         for ref, direction in path[1:]]
            replay = _replay(target, uses, v1, v2, signature, blocked)
            confirmed = replay is not None
            if confirmed:
                assert replay is not None
                first = [ref for ref, _ in path]
                profile_ok = all(
                    _profiles_match(target, uses, p, q)
                    for p, q in zip(first, replay))
                confirmed = profile_ok
            reports.append(BlockPermReport(
                anchor, (v0, v1, v2), (k0, k1, k2), signature,
                confirmed))
    return reports
