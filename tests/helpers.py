"""Shared test utilities: randomized sequences of broker requests, a
form of a graph that ignores node numbering, signature/target pair
generators for the matcher-versus-oracle battery,
the exhaustive matching oracle, the input conjunct of the match
predicate counted with `Counter`, a plain reference matcher with
generators for large targets, the classifier's path search restated,
the branch-per-operator interval judge
that `symexec._judge_interval` restates, the rescanning path
condition that `symexec.PathCondition` keeps indexed, and the
per-step lifter table that `arm`'s bound lifters replaced.

Used by both the unit property tests and the acceptance suite.  A spec
is a (kind, arguments) pair that `request_spec` sends to the broker
method for its kind.  The spec generator sticks to structural node
kinds: OPAQUE and CALL mint a fresh serial per request by design (they
are events/wildcards, not expressions), so re-requesting their spec
intentionally yields a new node and they are exercised by their own
tests instead.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial
from typing import Optional

from wherescrypto import arm
from wherescrypto.arm import OutcomeKind
from wherescrypto.dfg import COMMUTATIVE, MASK32, Dfg, Node, NodeKind
from wherescrypto.matcher import (Mapping, _assignment_ok, _inputs_ok,
                                  _node_tag_ok, _ordered, _subset_arity)
from wherescrypto.sigdsl import SignatureGraph
from wherescrypto.symexec import (SIGNED_MAX, SIGNED_MIN, _COMPARE,
                                  _NEGATED, _OPS, Condition, DeadStateError,
                                  Verdict, _against_constant, _to_signed)

_BINARY = [NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE, NodeKind.SUB]
_VARIADIC = [NodeKind.ADD, NodeKind.MULT, NodeKind.XOR, NodeKind.AND, NodeKind.OR]


Spec = tuple[NodeKind, tuple]


def request_spec(g: Dfg, spec: Spec) -> int:
    """Request ``spec`` through the broker method for its kind."""
    kind, args = spec
    if kind is NodeKind.CONST:
        return g.request_constant(*args)
    if kind is NodeKind.INPUT:
        return g.request_input(*args)
    if kind is NodeKind.LOAD:
        return g.request_load(*args)
    if kind is NodeKind.STORE:
        return g.record_store(*args)
    return g.request_operation(kind, args)


def spec_of(node: Node) -> Spec:
    """The spec a structural node would be requested with."""
    if node.kind is NodeKind.CONST:
        return node.kind, (node.const_value,)
    if node.kind is NodeKind.INPUT:
        return node.kind, (node.symbol,)
    return node.kind, node.inputs


def random_structural_spec(rng: random.Random, pool: list[int]) -> Spec:
    roll = rng.random()
    if roll < 0.15 or len(pool) < 2:
        if rng.random() < 0.5:
            return NodeKind.CONST, (rng.choice(
                [0, 1, 2, 4, 0xFF, 0xFFFFFFFF, rng.getrandbits(32)]),)
        return NodeKind.INPUT, (f"R{rng.randrange(13)}",)
    if roll < 0.25:
        return NodeKind.LOAD, (rng.choice(pool),)
    if roll < 0.35:
        return NodeKind.STORE, (rng.choice(pool), rng.choice(pool))
    if roll < 0.55:
        kind = rng.choice(_BINARY)
        return kind, (rng.choice(pool), rng.choice(pool))
    kind = rng.choice(_VARIADIC)
    arity = rng.randrange(2, 5)
    return kind, tuple(rng.choice(pool) for _ in range(arity))


def drive_spec_sequence(seed: int, count: int) -> Dfg:
    """Apply ``count`` random specs to a fresh graph, asserting
    idempotence after every single request.

    Two shapes of the property, both checked each step:

    * stability: re-requesting the very same spec returns the same ref;
    * spec idempotence: re-requesting the returned node's own spec
      returns that node again.

    The one carve-out: a returned LOAD node whose address has a memory
    binding to some other value.  Re-running its spec is then a fresh
    load and must forward to the currently bound value, not the stale
    node; that is the store-forwarding contract, and we assert exactly
    that instead.
    """
    rng = random.Random(seed)
    g = Dfg()
    pool: list[int] = []
    for _ in range(count):
        spec = random_structural_spec(rng, pool)
        ref = request_spec(g, spec)
        stable = request_spec(g, spec)
        assert stable == ref, f"unstable result for {spec}: {ref} != {stable}"
        node = g.node(ref)
        again = request_spec(g, spec_of(node))
        if node.kind is NodeKind.LOAD:
            expect = g.store_map.get(node.inputs[0], ref)
        else:
            expect = ref
        assert again == expect, (
            f"idempotence violated for {spec_of(node)}: "
            f"{expect} != {again}")
        pool.append(ref)
    g.check_consing_invariants()
    return g


# ----------------------------------------------------------------------
# a form of a graph that ignores node numbering


def canonical_form(graph: Dfg,
                   roots: Optional[list[int]] = None
                   ) -> tuple[str, dict[int, int]]:
    """The nodes of ``graph`` (or only the ancestors of ``roots``,
    roots included) renumbered without regard to their refs, as text
    in the manner of `Dfg.serialize`, with the map from ref to
    canonical id.

    Nodes are ordered by depth level (a node without inputs is on level
    0, any other one level above its deepest input), then by kind,
    payload and the canonical ids of their inputs, which are sorted for
    a commutative kind.  Hash-consing gives every live node its own
    (kind, inputs, payload), so no two nodes of a level tie and two
    graphs that differ only in their numbering have the same form."""
    nodes = graph.nodes
    refs = sorted(nodes)
    if roots is not None:
        keep: set[int] = set()
        stack = list(roots)
        while stack:
            ref = stack.pop()
            if ref not in keep:
                keep.add(ref)
                stack.extend(nodes[ref].inputs)
        refs = [ref for ref in refs if ref in keep]
    # creation order is topological, so every input has its level
    level: dict[int, int] = {}
    levels: list[list[int]] = []
    for ref in refs:
        depth = 1 + max((level[i] for i in nodes[ref].inputs), default=-1)
        level[ref] = depth
        if depth == len(levels):
            levels.append([])
        levels[depth].append(ref)
    canon: dict[int, int] = {}
    lines = []
    for same_level in levels:
        keyed = []
        for ref in same_level:
            node = nodes[ref]
            inputs = [canon[i] for i in node.inputs]
            if node.kind in COMMUTATIVE:
                inputs.sort()
            payload = " ".join(
                f"{name}={value!r}" for name, value in (
                    ("const", node.const_value), ("symbol", node.symbol),
                    ("clamp", node.clamp), ("serial", node.serial))
                if value is not None)
            keyed.append(((node.kind.value, payload, tuple(inputs)), ref))
        keyed.sort()
        for (kind, payload, inputs), ref in keyed:
            canon[ref] = len(canon)
            args = ", ".join(map(str, inputs))
            lines.append(f"{canon[ref]}: {kind}({args}) [{payload}]")
        assert len({key for key, _ in keyed}) == len(keyed), "tied nodes"
    return "\n".join(lines), canon


# ----------------------------------------------------------------------
# random (signature, target) pairs within the exhaustive-oracle bounds

_CLAMP_NAMES = ("t", "u")
_SIG_OPS = (NodeKind.XOR, NodeKind.OR, NodeKind.AND, NodeKind.MULT,
            NodeKind.ADD, NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE,
            NodeKind.LOAD)


def _grow(g: Dfg, rng: random.Random, refs: list[int],
          clamp_map: dict[int, str]) -> int:
    kind = rng.choice(_SIG_OPS + (None,))
    if kind is None:
        count = rng.randint(0, min(2, len(refs)))
        args = tuple(rng.sample(refs, k=count))
        clamp = (rng.choice(_CLAMP_NAMES)
                 if rng.random() < 0.35 else None)
        ref = g.request_opaque(args, clamp=clamp)
        if clamp is not None:
            clamp_map[ref] = clamp
        return ref
    if kind is NodeKind.LOAD:
        return g.request_load(rng.choice(refs))
    if kind in (NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE):
        amount = g.request_constant(rng.randint(1, 31))
        return g.request_operation(kind, (rng.choice(refs), amount))
    return g.request_operation(kind, (rng.choice(refs), rng.choice(refs)))


def random_signature(rng: random.Random) -> SignatureGraph:
    """A small random SignatureGraph with occasional clamp labels and
    transient markings."""
    while True:
        g = Dfg()
        clamp_map: dict[int, str] = {}
        refs: list[int] = []
        for _ in range(rng.randint(1, 2)):
            roll = rng.random()
            if roll < 0.45:
                clamp = (rng.choice(_CLAMP_NAMES)
                         if rng.random() < 0.4 else None)
                ref = g.request_opaque((), clamp=clamp)
                if clamp is not None:
                    clamp_map[ref] = clamp
            elif roll < 0.75:
                ref = g.request_constant(rng.choice((1, 2, 3, 0xFF)))
            else:
                ref = g.request_input(rng.choice("AB"))
            refs.append(ref)
        for _ in range(rng.randint(1, 4)):
            refs.append(_grow(g, rng, refs, clamp_map))
        if rng.random() < 0.5:
            g.purge([refs[-1]])
        if not 1 <= len(g.nodes) <= 8:
            continue
        transient = {r for r, n in g.nodes.items()
                     if n.kind in COMMUTATIVE and rng.random() < 0.35}
        return SignatureGraph(
            g, {r: lab for r, lab in clamp_map.items() if r in g},
            transient)


def random_target(rng: random.Random, sig: SignatureGraph) -> Dfg:
    """A target graph: either an embedding of the signature with noise
    and occasional widened commutative nodes, or independent noise."""
    while True:
        g = Dfg()
        refs: list[int] = []
        if rng.random() < 0.55:
            m: dict[int, int] = {}
            for s_ref in sorted(sig.graph.nodes):
                node = sig.graph.node(s_ref)
                if node.kind is NodeKind.OPAQUE:
                    roll = rng.random()
                    if roll < 0.4 and not node.inputs:
                        m[s_ref] = g.request_input(f"X{s_ref}")
                    elif roll < 0.55 and not node.inputs:
                        m[s_ref] = g.request_constant(rng.randint(0, 7))
                    else:
                        m[s_ref] = g.request_opaque(
                            tuple(m[i] for i in node.inputs))
                elif node.kind is NodeKind.CONST:
                    m[s_ref] = g.request_constant(node.const_value)
                elif node.kind is NodeKind.INPUT:
                    m[s_ref] = g.request_input(node.symbol)
                elif node.kind is NodeKind.LOAD:
                    m[s_ref] = g.request_load(m[node.inputs[0]])
                else:
                    ins = [m[i] for i in node.inputs]
                    if (node.kind in COMMUTATIVE
                            and rng.random() < 0.3):
                        ins.append(g.request_input(f"N{s_ref}"))
                    m[s_ref] = g.request_operation(node.kind, ins)
            refs.extend(m.values())
        else:
            for _ in range(rng.randint(1, 3)):
                refs.append(g.request_input(rng.choice("ABX")))
        clamp_sink: dict[int, str] = {}
        for _ in range(rng.randint(0, 4)):
            refs.append(_grow(g, rng, refs, clamp_sink))
        if 1 <= len(g.nodes) <= 14:
            return g


# ----------------------------------------------------------------------
# the exhaustive oracle


class SizeLimitError(Exception):
    pass


_BRUTE_SIG_LIMIT = 8
_BRUTE_TARGET_LIMIT = 14


def brute_force_match(sig: SignatureGraph,
                      target: Dfg) -> list[Mapping]:
    """Enumerates every injective assignment and filters through the
    matcher's own predicate, `matcher._assignment_ok`.

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
    m: dict[int, int] = {}
    used: set[int] = set()

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


def counter_inputs_ok(sig: SignatureGraph, s_ref: int, s: Node, t: Node,
                      m: dict[int, int]) -> bool:
    """`matcher._inputs_ok` as it was before it learned to skip the
    counting when no input repeats: unordered inputs are compared as
    multisets with `Counter` in every case.  Both the oracle and the
    matcher accept mappings through `_inputs_ok`, so this copy is what
    holds that conjunct to its definition."""
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


# ----------------------------------------------------------------------
# a plain reference for matching into graphs beyond the oracle's reach


def _reference_links(sig: SignatureGraph, target: Dfg, refs: list[int]):
    """Per signature node, (neighbor, own) per edge, where own[t] is the
    set of target nodes (as a bitset) that may stand for the neighbor
    when target t stands for the node."""
    bit = {ref: i for i, ref in enumerate(refs)}
    links = {r: [] for r in sig.graph.nodes}
    for c_ref, c in sig.graph.nodes.items():
        ordered = _ordered(c)
        for pos, a in enumerate(c.inputs):
            down = [0] * len(refs)
            up = [0] * len(refs)
            for i, ref in enumerate(refs):
                for p, arg in enumerate(target.nodes[ref].inputs):
                    if not ordered or p == pos:
                        down[i] |= 1 << bit[arg]
                        up[bit[arg]] |= 1 << i
            links[c_ref].append((a, down))
            links[a].append((c_ref, up))
    return links


def reference_degree_domains(sig: SignatureGraph, target: Dfg):
    """The degree conjunct, as bitsets over the target's refs in
    ascending order per signature node: target node t qualifies for
    signature node s when t has at least as many distinct consumers as
    s.

    It is not a conjunct of the match predicate but follows from it:
    every signature edge lands on a target edge (`_inputs_ok`), and the
    mapping is injective, so the distinct consumers of s stand for
    distinct consumers of t.  Cutting domains by it drops no mapping."""
    def consumers(graph: Dfg) -> dict[int, int]:
        return {ref: sum(ref in node.inputs for node in graph.nodes.values())
                for ref in graph.nodes}

    have = consumers(target)
    want = consumers(sig.graph)
    refs = sorted(target.nodes)
    return {s_ref: sum(1 << i for i, ref in enumerate(refs)
                       if have[ref] >= want[s_ref])
            for s_ref in sorted(sig.graph.nodes)}


def reference_initial_domains(sig: SignatureGraph, target: Dfg,
                              degree: bool = False):
    """Candidate domains from the tag and arity conjuncts of the
    predicate alone, and with `degree` also the degree conjunct
    (`reference_degree_domains`), as bitsets over the target's refs in
    ascending order, for every signature node in ascending ref order."""
    refs = sorted(target.nodes)
    dom = {}
    for s_ref in sorted(sig.graph.nodes):
        s = sig.graph.node(s_ref)
        wide = _subset_arity(sig, s_ref, s)
        dom[s_ref] = sum(
            1 << i for i, ref in enumerate(refs)
            if _node_tag_ok(s, target.node(ref))
            and (len(target.node(ref).inputs) >= len(s.inputs) if wide
                 else len(target.node(ref).inputs) == len(s.inputs)))
    if degree:
        cut = reference_degree_domains(sig, target)
        dom = {s_ref: d & cut[s_ref] for s_ref, d in dom.items()}
    return dom


def reference_domains(sig: SignatureGraph, target: Dfg,
                      degree: bool = False):
    """Refined candidate domains, as bitsets over the target's refs in
    ascending order, or None when one runs empty.

    Domains start from `reference_initial_domains` (with the degree
    conjunct if `degree`).  Refinement sweeps every node until nothing
    changes: target t stays a candidate while own[t] meets the
    neighbor's domain on every link."""
    refs = sorted(target.nodes)
    dom = reference_initial_domains(sig, target, degree)
    links = _reference_links(sig, target, refs)
    changed = True
    while changed:
        changed = False
        for s_ref in dom:
            for nbr, own in links[s_ref]:
                keep = sum(1 << t for t in range(len(refs))
                           if dom[s_ref] >> t & 1 and own[t] & dom[nbr])
                if keep != dom[s_ref]:
                    dom[s_ref] = keep
                    changed = True
            if not dom[s_ref]:
                return None
    return dom


def reference_match(sig: SignatureGraph, target: Dfg,
                    limit: int) -> list[Mapping]:
    """`match_signature` restated from its definition, for any size.

    From the domains of `reference_domains`, the search picks the
    unassigned node with the least (candidate count, ref), tries its
    candidates in ascending ref order, narrows each unassigned neighbor
    to own[t], removes t from every other unassigned domain, and
    backtracks on an empty domain."""
    dom = reference_domains(sig, target)
    if dom is None:
        return []
    refs = sorted(target.nodes)
    sig_nodes = sorted(sig.graph.nodes)
    links = _reference_links(sig, target, refs)

    out: list[Mapping] = []
    m: dict[int, int] = {}

    def step(dom: dict[int, int]) -> None:
        if len(out) >= limit:
            return
        if len(m) == len(sig_nodes):
            mapping = _assignment_ok(
                sig, target, {s: refs[t] for s, t in m.items()})
            if mapping is not None:
                out.append(mapping)
            return
        _, s_ref = min((dom[r].bit_count(), r)
                       for r in sig_nodes if r not in m)
        for t in range(len(refs)):
            if not dom[s_ref] >> t & 1:
                continue
            m[s_ref] = t
            narrowed = dict(dom)
            for nbr, own in links[s_ref]:
                if nbr not in m:
                    narrowed[nbr] &= own[t]
            for r in sig_nodes:
                if r not in m:
                    narrowed[r] &= ~(1 << t)
            if all(narrowed[r] for r in sig_nodes if r not in m):
                step(narrowed)
            del m[s_ref]
            if len(out) >= limit:
                return

    step(dom)
    return out


def reference_bfs_path(target: Dfg, uses: dict[int, list[int]],
                       start: int, goal: int,
                       blocked: set[tuple[int, int]]):
    """The classifier's shortest-path search restated plainly: a
    breadth-first search that steps to a node's consumers ('fwd', in
    `uses` order) and then to its operands ('rev'), skips an edge in
    `blocked` in either orientation, and returns the parent chain to
    `goal` as [(node, direction-of-arrival)] when it pops the goal, or
    None when the goal is out of reach."""
    parents = {start: (None, "")}
    queue = [start]
    for u in queue:
        if u == goal:
            path = []
            cur = u
            while cur is not None:
                prev, direction = parents[cur]
                path.append((cur, direction))
                cur = prev
            return path[::-1]
        steps = [(w, "fwd") for w in uses.get(u, ())]
        steps += [(w, "rev") for w in target.node(u).inputs]
        for w, direction in steps:
            if w in parents or (u, w) in blocked or (w, u) in blocked:
                continue
            parents[w] = (u, direction)
            queue.append(w)
    return None


def _embed(g: Dfg, rng: random.Random, sig: SignatureGraph,
           decoy: bool) -> list[int]:
    """One copy of `sig` in `g`, built as `random_target` builds its
    embeddings, some commutative nodes widened.  A decoy rewires one
    operand of one node to a fresh input, so refinement has to strip
    the nodes that lean on it."""
    inner = [r for r, n in sig.graph.nodes.items() if n.inputs]
    broken = rng.choice(inner) if decoy and inner else None
    m: dict[int, int] = {}
    for s_ref in sorted(sig.graph.nodes):
        node = sig.graph.node(s_ref)
        ins = [m[i] for i in node.inputs]
        if s_ref == broken:
            ins[rng.randrange(len(ins))] = g.request_input(
                f"D{rng.randrange(1000)}")
        if node.kind is NodeKind.OPAQUE:
            if not ins and rng.random() < 0.5:
                m[s_ref] = (g.request_input(f"X{rng.randrange(40)}")
                            if rng.random() < 0.7 else
                            g.request_constant(rng.randint(0, 7)))
            else:
                m[s_ref] = g.request_opaque(tuple(ins))
        elif node.kind is NodeKind.CONST:
            m[s_ref] = g.request_constant(node.const_value)
        elif node.kind is NodeKind.INPUT:
            m[s_ref] = g.request_input(node.symbol)
        elif node.kind is NodeKind.LOAD:
            m[s_ref] = g.request_load(ins[0])
        else:
            if node.kind in COMMUTATIVE and rng.random() < 0.2:
                ins.append(g.request_input(f"N{rng.randrange(40)}"))
            m[s_ref] = g.request_operation(node.kind, ins)
    return list(m.values())


def _orphan(g: Dfg, rng: random.Random, sig: SignatureGraph,
            refs: list[int]) -> int:
    """A node of the kind and arity of some operation in `sig`, over
    random earlier nodes and with no consumer yet: a candidate that
    refinement must drop when the signature wants a consumer for it."""
    ops = [n for n in sig.graph.nodes.values()
           if n.inputs and n.kind is not NodeKind.OPAQUE]
    if not ops:
        return _grow(g, rng, refs, {})
    node = rng.choice(ops)
    if node.kind is NodeKind.LOAD:
        return g.request_load(rng.choice(refs))
    ins = [rng.choice(refs) for _ in node.inputs]
    if node.kind in (NodeKind.SHL, NodeKind.SHR, NodeKind.ROTATE):
        ins[1] = sig.graph.node(node.inputs[1]).const_value
        ins[1] = g.request_constant(ins[1] if ins[1] is not None
                                    else rng.randint(1, 31))
    return g.request_operation(node.kind, ins)


def copies_target(rng: random.Random, sig: SignatureGraph,
                  size: int) -> Dfg:
    """A target of at least `size` nodes: a few or many copies of `sig`,
    some of them decoys (see `_embed`), random noise over their nodes,
    and a SUB chain that only wildcards can match as filler."""
    g = Dfg()
    refs: list[int] = []
    clamp_sink: dict[int, str] = {}
    copies = rng.choice((rng.randint(1, 6), size))
    for _ in range(copies):
        if len(g.nodes) >= size:
            break
        refs.extend(_embed(g, rng, sig, rng.random() < 0.3))
        for _ in range(rng.randint(0, 3)):
            refs.append(_grow(g, rng, refs, clamp_sink))
        for _ in range(rng.randint(0, 2)):
            refs.append(_orphan(g, rng, sig, refs))
    filler = g.request_input("F")
    while len(g.nodes) < size:
        filler = g.request_operation(
            NodeKind.SUB, (filler, g.request_input(f"F{len(g.nodes)}")))
    return g


def chain_signature(rng: random.Random, steps: int) -> SignatureGraph:
    """A long chain h := ROTATE(XOR(h, k), r), now and then through a
    load, with a distinct constant k per step: in a self-match every
    node has exactly one candidate after refinement."""
    g = Dfg()
    h = g.request_input("H")
    for i in range(steps):
        k = g.request_constant(0x1000 + i)
        h = g.request_operation(NodeKind.XOR, (h, k))
        if rng.random() < 0.2:
            h = g.request_load(h)
        r = g.request_constant(rng.randint(1, 31))
        h = g.request_operation(NodeKind.ROTATE, (h, r))
    g.purge([h])
    return SignatureGraph(g)


def reference_judge_interval(op: str, c: int, lo: int, hi: int,
                             excluded: set[int]) -> Verdict:
    """One branch per comparison operator: the earlier form of
    `symexec._judge_interval`, kept verbatim as its reference."""
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


class ReferencePathCondition:
    """A path condition kept as a list of (Condition, polarity) facts
    that every `extend` and `evaluate` rescans: the earlier form of
    `symexec.PathCondition`, kept as its reference."""

    def __init__(self) -> None:
        self.facts: list[tuple[Condition, bool]] = []

    def extend(self, graph: Dfg, cond: Condition, polarity: bool) -> None:
        for fact, pol in self.facts:
            if fact == cond and pol != polarity:
                raise DeadStateError(f"contradiction on {cond}")
        self.facts.append((cond, polarity))
        # interval emptiness check
        for node in (cond.v1, cond.v2):
            if not graph.is_const(node):
                lo, hi, excluded = self.interval(graph, node)
                if lo > hi:
                    raise DeadStateError(f"empty interval for node {node}")
                if hi - lo < 1024:
                    inside = sum(1 for x in excluded if lo <= x <= hi)
                    if inside > hi - lo:
                        raise DeadStateError(
                            f"interval for node {node} fully excluded")

    def interval(self, graph: Dfg, node: int):
        """The signed (lo, hi, excluded) that the facts allow `node`."""
        lo, hi = SIGNED_MIN, SIGNED_MAX
        excluded: set[int] = set()
        for fact, polarity in self.facts:
            oriented = _against_constant(graph, fact, node)
            if oriented is None:
                continue
            op, c = oriented
            if not polarity:
                op = _NEGATED[op]
            if op == "!=":
                excluded.add(c)
            else:
                below, above = _OPS[op]
                lo, hi = max(lo, c + below), min(hi, c + above)
        return lo, hi, excluded

    def evaluate(self, graph: Dfg, cond: Condition) -> Verdict:
        n1, n2 = graph.node(cond.v1), graph.node(cond.v2)
        if n1.kind is NodeKind.CONST and n2.kind is NodeKind.CONST:
            holds = _COMPARE[cond.op](_to_signed(n1.const_value),
                                      _to_signed(n2.const_value))
            return Verdict.TRUE if holds else Verdict.FALSE
        for fact, polarity in self.facts:
            if fact == cond:
                return Verdict.TRUE if polarity else Verdict.FALSE
        if cond.v1 == cond.v2:
            return (Verdict.TRUE if cond.op in ("<=", ">=", "==")
                    else Verdict.FALSE)
        node = cond.v2 if n1.kind is NodeKind.CONST else cond.v1
        oriented = _against_constant(graph, cond, node)
        if oriented is None:
            return Verdict.UNDETERMINED
        op, c = oriented
        return reference_judge_interval(op, c, *self.interval(graph, node))


# ----------------------------------------------------------------------
# the per-step lifters that `arm`'s binders replaced, kept as their
# reference: one table entry per mnemonic, dispatched at every step

_REF_FALLTHROUGH = arm.StepOutcome(OutcomeKind.FALLTHROUGH)
_REF_RETURN = arm.StepOutcome(OutcomeKind.RETURN)


def _read_reg(state, index: int, ins: arm.Instruction) -> int:
    if index == 15:
        return state.graph.request_constant(ins.address + 8)
    return state.regs[arm.REG_NAMES[index]]


def _pc_write(state, value: int, ins: arm.Instruction) -> arm.StepOutcome:
    g = state.graph
    if value == state.initial_lr:
        return _REF_RETURN
    if g.is_const(value):
        return arm.StepOutcome(OutcomeKind.JUMP, g.const_value(value))
    raise arm.UnsupportedPcWrite(ins.address)


def _write_reg(state, index: int, value: int,
               ins: arm.Instruction) -> arm.StepOutcome:
    if index == 15:
        return _pc_write(state, value, ins)
    state.regs[arm.REG_NAMES[index]] = value
    return _REF_FALLTHROUGH


def _write_result(state, ins: arm.Instruction, rd: arm.Reg, result: int,
                  flags: Optional[tuple[int, int]] = None
                  ) -> arm.StepOutcome:
    """The tail of every data-processing lifter: with the S bit set the
    flags come from ``flags``, or else from comparing the result with
    zero; then the result goes to Rd, where a write to PC ends the
    step."""
    if ins.set_flags:
        state.flag_source = flags or (result,
                                      state.graph.request_constant(0))
    return _write_reg(state, rd.index, result, ins)


def _op(state, kind: NodeKind, *inputs: int) -> int:
    return state.graph.request_operation(kind, inputs)


def _not(state, value: int) -> int:
    return _op(state, NodeKind.XOR, value,
               state.graph.request_constant(MASK32))


def _operand_node(state, op: arm.Operand, ins: arm.Instruction) -> int:
    g = state.graph
    if isinstance(op, arm.Imm):
        return g.request_constant(op.value)
    if isinstance(op, arm.Reg):
        return _read_reg(state, op.index, ins)
    if isinstance(op, arm.ShiftedReg):
        value = _read_reg(state, op.reg, ins)
        if op.amount_reg is not None:
            amount = _read_reg(state, op.amount_reg, ins)
        else:
            amount = g.request_constant(op.amount)
        return _apply_shift(state, op.kind, value, amount)
    raise TypeError(f"not a value operand: {op!r}")


def _apply_shift(state, kind: str, value: int, amount: int) -> int:
    g = state.graph
    if kind == "LSL":
        return _op(state, NodeKind.SHL, value, amount)
    if kind == "LSR":
        return _op(state, NodeKind.SHR, value, amount)
    if kind == "ASR":
        state.approx.add("ASR lifted as logical shift right")
        return _op(state, NodeKind.SHR, value, amount)
    # right rotation by c is canonical left rotation by 32 - c
    if g.is_const(amount):
        left = g.request_constant((32 - g.const_value(amount)) % 32)
    else:
        left = _op(state, NodeKind.SUB, g.request_constant(32), amount)
    return _op(state, NodeKind.ROTATE, value, left)


def _in_image(state, address: int, length: int) -> bool:
    if state.image is None:
        return False
    off = address - state.base
    return 0 <= off and off + length <= len(state.image)


def _load_value(state, addr: int, byte: bool) -> int:
    g = state.graph
    if addr not in g.store_map and g.is_const(addr):
        address = g.const_value(addr)
        if byte and _in_image(state, address, 1):
            return g.request_constant(state.image[address - state.base])
        if not byte and _in_image(state, address, 4):
            return g.request_constant(
                arm.fetch_word(state.image, address, state.base))
    value = g.request_load(addr)
    if byte:
        value = _op(state, NodeKind.AND, value,
                    g.request_constant(0xFF))
    return value


def _lift_bx(state, ins: arm.Instruction) -> arm.StepOutcome:
    return _pc_write(state, _read_reg(state, ins.operands[0].index, ins),
                     ins)


def _lift_mov(state, ins: arm.Instruction) -> arm.StepOutcome:
    rd, src = ins.operands
    return _write_result(state, ins, rd, _operand_node(state, src, ins))


def _lift_mvn(state, ins: arm.Instruction) -> arm.StepOutcome:
    rd, src = ins.operands
    return _write_result(state, ins, rd,
                         _not(state, _operand_node(state, src, ins)))


def _lift_shift(state, ins: arm.Instruction) -> arm.StepOutcome:
    rd, rm, by = ins.operands
    value = _read_reg(state, rm.index, ins)
    amount = _operand_node(state, by, ins)
    return _write_result(state, ins, rd,
                         _apply_shift(state, ins.mnemonic, value, amount))


def _lift_cmp(state, ins: arm.Instruction) -> arm.StepOutcome:
    rn, op2 = ins.operands
    state.flag_source = (_read_reg(state, rn.index, ins),
                         _operand_node(state, op2, ins))
    return _REF_FALLTHROUGH


def _flag_test(state, ins: arm.Instruction,
               kind: NodeKind) -> arm.StepOutcome:
    """CMN and TST: flags from comparing ``kind(Rn, Op2)`` with zero."""
    rn, op2 = ins.operands
    a = _read_reg(state, rn.index, ins)
    result = _op(state, kind, a, _operand_node(state, op2, ins))
    state.flag_source = (result, state.graph.request_constant(0))
    return _REF_FALLTHROUGH


def _alu(state, ins: arm.Instruction, kind: NodeKind, swap: bool = False,
         invert: bool = False) -> arm.StepOutcome:
    """``Rd = kind(Rn, Op2)``; ``swap`` exchanges the two operands (RSB)
    and ``invert`` complements Op2 first (BIC).  A flag-setting
    subtraction compares its operands, as CMP does."""
    rd, rn, op2 = ins.operands
    a = _read_reg(state, rn.index, ins)
    b = _operand_node(state, op2, ins)
    if swap:
        a, b = b, a
    if invert:
        b = _not(state, b)
    flags = (a, b) if kind is NodeKind.SUB else None
    return _write_result(state, ins, rd, _op(state, kind, a, b), flags)


def _lift_adc(state, ins: arm.Instruction) -> arm.StepOutcome:
    state.approx.add("ADC lifted without carry-in")
    return _alu(state, ins, NodeKind.ADD)


def _lift_mul(state, ins: arm.Instruction,
              accumulate: bool) -> arm.StepOutcome:
    rd, rm, rs = ins.operands[:3]
    result = _op(state, NodeKind.MULT, _read_reg(state, rm.index, ins),
                 _read_reg(state, rs.index, ins))
    if accumulate:
        result = _op(state, NodeKind.ADD, result,
                     _read_reg(state, ins.operands[3].index, ins))
    return _write_result(state, ins, rd, result)


def _mem_access(state, ins: arm.Instruction, load: bool,
                byte: bool) -> arm.StepOutcome:
    """LDR, LDRB, STR and STRB, with every addressing mode."""
    rd, mem = ins.operands
    g = state.graph
    base = _read_reg(state, mem.base, ins)
    if mem.offset is None:
        indexed = base
    else:
        offset = _operand_node(state, mem.offset, ins)
        indexed = _op(state, NodeKind.ADD if mem.add else NodeKind.SUB,
                      base, offset)
    addr = indexed if mem.pre else base
    if not load:
        g.record_store(addr, _read_reg(state, rd.index, ins))
    if mem.writeback:
        if mem.base == 15:
            raise arm.UnsupportedPcWrite(ins.address)
        state.regs[arm.REG_NAMES[mem.base]] = indexed
    if load:
        return _write_reg(state, rd.index, _load_value(state, addr, byte),
                          ins)
    return _REF_FALLTHROUGH


def _block_transfer(state, ins: arm.Instruction,
                    load: bool) -> arm.StepOutcome:
    """LDM/POP and STM/PUSH in all four addressing modes."""
    rl = ins.operands[0]
    g = state.graph
    base = _read_reg(state, rl.base, ins)
    n = len(rl.regs)
    first = {"IA": 0, "IB": 4, "DA": -4 * (n - 1), "DB": -4 * n}[rl.mode]
    pc_value = None
    for i, r in enumerate(rl.regs):
        delta = first + 4 * i
        if delta:
            addr = _op(state, NodeKind.ADD, base, g.request_constant(delta))
        else:
            addr = base
        if load:
            value = _load_value(state, addr, byte=False)
            if r == 15:
                pc_value = value
            else:
                state.regs[arm.REG_NAMES[r]] = value
        else:
            g.record_store(addr, _read_reg(state, r, ins))
    if rl.writeback:
        total = 4 * n if rl.mode in ("IA", "IB") else -4 * n
        state.regs[arm.REG_NAMES[rl.base]] = _op(
            state, NodeKind.ADD, base, g.request_constant(total))
    if pc_value is not None:
        return _pc_write(state, pc_value, ins)
    return _REF_FALLTHROUGH


_REFERENCE_LIFTERS = {
    "NOP": lambda state, ins: _REF_FALLTHROUGH,
    "B": lambda state, ins: arm.StepOutcome(OutcomeKind.JUMP,
                                            ins.operands[0].address),
    "BL": lambda state, ins: arm.StepOutcome(OutcomeKind.CALL,
                                             ins.operands[0].address,
                                             ins.address + 4),
    "BX": _lift_bx, "MOV": _lift_mov, "MVN": _lift_mvn,
    "LSL": _lift_shift, "LSR": _lift_shift, "ASR": _lift_shift,
    "ROR": _lift_shift, "CMP": _lift_cmp,
    "CMN": partial(_flag_test, kind=NodeKind.ADD),
    "TST": partial(_flag_test, kind=NodeKind.AND),
    "ADD": partial(_alu, kind=NodeKind.ADD), "ADC": _lift_adc,
    "SUB": partial(_alu, kind=NodeKind.SUB),
    "RSB": partial(_alu, kind=NodeKind.SUB, swap=True),
    "AND": partial(_alu, kind=NodeKind.AND),
    "ORR": partial(_alu, kind=NodeKind.OR),
    "EOR": partial(_alu, kind=NodeKind.XOR),
    "BIC": partial(_alu, kind=NodeKind.AND, invert=True),
    "MUL": partial(_lift_mul, accumulate=False),
    "MLA": partial(_lift_mul, accumulate=True),
    "LDR": partial(_mem_access, load=True, byte=False),
    "LDRB": partial(_mem_access, load=True, byte=True),
    "STR": partial(_mem_access, load=False, byte=False),
    "STRB": partial(_mem_access, load=False, byte=True),
    "LDM": partial(_block_transfer, load=True),
    "POP": partial(_block_transfer, load=True),
    "STM": partial(_block_transfer, load=False),
    "PUSH": partial(_block_transfer, load=False),
}


def reference_execute(state, ins: arm.Instruction) -> arm.StepOutcome:
    """Lift the instruction body as `arm.execute` did before binding."""
    return _REFERENCE_LIFTERS[ins.mnemonic](state, ins)
