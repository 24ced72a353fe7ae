"""Batch analysis over entry points and report emission.

Ties the pipeline together: explore every entry point, match every
signature variant against every recovered graph, run the sequential
block permutation classifier, and aggregate the outcomes into a report
renderable as JSON, a text summary, or DOT.

The JSON layout keeps every wall-clock figure inside the single
top-level "timestamp" object.  Everything outside it is a pure function
of the inputs and the configuration, so two runs over the same corpus
can be compared byte for byte after dropping that one key.

The body is derived from the result dataclasses: each field is emitted
under its own name, in declaration order, with tuples as lists.  A
field declared with ``compare=False`` is not in the body: those are the
machine-dependent timings, which go under "timestamp", and the live
graphs, which only DOT emission reads.  There is no JSON reader.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from typing import Optional

from .dfg import MASK32, Dfg, NodeKind
from .matcher import (TargetIndex, classify_block_permutation,
                      match_signature)
from .sigdsl import SignatureDoc, SignatureGraph, build_variant
from .siglib import load_catalog
from .symexec import Config, explore

__all__ = [
    "AnalysisReport",
    "BlockPermRecord",
    "FunctionResult",
    "MalformedLineError",
    "SignatureResult",
    "UnknownFormatError",
    "analyze_binary",
    "compute_totals",
    "emit_report",
    "load_entries",
    "parse_hex",
    "report_to_dict",
]

FORMATS = ("json", "text", "dot")

SCHEMA_VERSION = 2

# the package version; pyproject.toml reads it from here
VERSION = "0.1.0"


class UnknownFormatError(ValueError):
    def __init__(self, fmt: str):
        self.format = fmt
        super().__init__(
            f"UNKNOWN_FORMAT: {fmt!r} (expected one of {', '.join(FORMATS)})")


class MalformedLineError(ValueError):
    def __init__(self, line: int, text: str):
        self.line = line
        self.text = text
        super().__init__(f"MALFORMED_LINE({line}): {text!r}")


@dataclass
class SignatureResult:
    """Outcome of one signature document against one function.

    ``graph_hits`` records, per explored graph, whether any variant of
    the document embeds into it; ``matched`` is their disjunction.  The
    exemplar fields (graph_index, variant, assignment, clamps) describe
    the first embedding found.
    """

    name: str
    identifier: str
    matched: bool
    graph_hits: tuple[bool, ...] = ()
    graph_index: Optional[int] = None
    variant: Optional[str] = None
    mappings: int = 0
    assignment: tuple[tuple[int, int], ...] = ()
    clamps: tuple[tuple[str, str], ...] = ()
    elapsed: float = field(default=0.0, compare=False)


@dataclass
class BlockPermRecord:
    """One sequential-block-permutation finding on one graph."""

    graph_index: int
    anchor: int
    anchor_symbol: Optional[str]
    triple: tuple[int, int, int]
    offsets: tuple[int, int, int]
    path: tuple[tuple[str, str], ...]
    confirmed: bool


@dataclass
class FunctionResult:
    """Outcome of one entry point: its graphs' statuses, every
    signature's result and the block-permutation findings, or the
    error that stopped its exploration."""

    entry: int = field(metadata={"json": "0x{:x}".format})
    error: Optional[str] = None
    graphs: int = 0
    statuses: tuple[str, ...] = ()
    signatures: tuple[SignatureResult, ...] = ()
    block_permutation: tuple[BlockPermRecord, ...] = ()
    elapsed: float = field(default=0.0, compare=False)
    # live graphs, kept only when the analysis asks to keep them
    dfgs: tuple[Dfg, ...] = field(default=(), compare=False, repr=False)

    @property
    def matched_signatures(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.signatures if s.matched)


@dataclass
class AnalysisReport:
    """One batch run: the tool version, its config, the totals and
    one result per entry point."""

    version: str
    config: Config
    totals: dict[str, int]
    functions: tuple[FunctionResult, ...]
    wall_time: float = field(default=0.0, compare=False)
    created: str = field(default="", compare=False)


def compute_totals(functions: tuple[FunctionResult, ...]) -> dict[str, int]:
    return {
        "functions": len(functions),
        "errors": sum(1 for f in functions if f.error is not None),
        "graphs": sum(f.graphs for f in functions),
        "matched_functions": sum(
            1 for f in functions if f.matched_signatures),
        "signature_matches": sum(
            len(f.matched_signatures) for f in functions),
        "block_permutations_confirmed": sum(
            1 for f in functions
            if any(r.confirmed for r in f.block_permutation)),
    }


BuiltCorpus = list[tuple[str, str, list[tuple[str, SignatureGraph]]]]


def _build_corpus(corpus: dict[str, SignatureDoc]) -> BuiltCorpus:
    """Builds every variant of every document once, in name order.

    Variants that purge to an empty graph (transient-only documents)
    are dropped: an empty pattern embeds nowhere meaningful and the
    matcher rejects it outright.
    """
    built: BuiltCorpus = []
    for name in sorted(corpus):
        doc = corpus[name]
        variants = []
        for variant in doc.variants:
            sig = build_variant(variant)
            if sig.graph.nodes:
                variants.append((variant.name, sig))
        built.append((name, doc.identifier, variants))
    return built


def _first_hit(variants: list[tuple[str, SignatureGraph]], graph: Dfg,
               index: TargetIndex) -> Optional[tuple]:
    """The first variant that embeds into `graph`, as (variant name,
    count, assignment, clamps) of its first embedding, or None."""
    for vname, sig in variants:
        found = match_signature(sig, graph, index=index)
        if found:
            exemplar = found[0]
            assignment = tuple(sorted(exemplar.assignment.items()))
            clamps = tuple(sorted(
                (label, kind.name)
                for label, kind in exemplar.clamp_bindings.items()))
            return vname, len(found), assignment, clamps
    return None


def _analyze_function(image: bytes, base: int, entry: int, config: Config,
                      built: BuiltCorpus, keep_graphs: bool) -> FunctionResult:
    start = time.perf_counter()
    try:
        paths = explore(entry, image, config, base=base)
    except Exception as exc:
        return FunctionResult(entry=entry,
                              error=f"{type(exc).__name__}: {exc}",
                              elapsed=time.perf_counter() - start)

    signatures = tuple(SignatureResult(name, identifier, matched=False)
                       for name, identifier, _ in built)
    records = []
    # graph by graph, so only one index is alive at a time
    for graph_index, path in enumerate(paths):
        graph = path.graph
        target_index = TargetIndex(graph)
        for result, (_, _, variants) in zip(signatures, built):
            sig_start = time.perf_counter()
            hit = _first_hit(variants, graph, target_index)
            result.elapsed += time.perf_counter() - sig_start
            result.graph_hits += (hit is not None,)
            if hit is not None and not result.matched:
                result.matched = True
                result.graph_index = graph_index
                (result.variant, result.mappings, result.assignment,
                 result.clamps) = hit
        for report in classify_block_permutation(graph):
            records.append(BlockPermRecord(
                graph_index=graph_index,
                anchor=report.anchor,
                anchor_symbol=graph.node(report.anchor).symbol,
                triple=tuple(report.triple),
                offsets=tuple(report.offsets),
                path=tuple(tuple(step) for step in report.path_signature),
                confirmed=report.confirmed))

    return FunctionResult(
        entry=entry,
        graphs=len(paths),
        statuses=tuple(p.status.name for p in paths),
        signatures=signatures,
        block_permutation=tuple(records),
        elapsed=time.perf_counter() - start,
        dfgs=tuple(p.graph for p in paths) if keep_graphs else ())


def analyze_binary(image: bytes, base: int, entries: list[int],
                   config: Optional[Config] = None,
                   corpus: Optional[dict[str, SignatureDoc]] = None,
                   keep_graphs: bool = False) -> AnalysisReport:
    """Explores and matches every entry point; one failed function is
    recorded in place and never aborts the batch.  ``keep_graphs``
    keeps each function's graphs in its ``dfgs``, for DOT emission."""
    if config is None:
        config = Config()
    built = _build_corpus(load_catalog() if corpus is None else corpus)
    start = time.perf_counter()
    functions = tuple(
        _analyze_function(image, base, entry, config, built, keep_graphs)
        for entry in entries)
    return AnalysisReport(
        version=VERSION,
        config=config,
        functions=functions,
        totals=compute_totals(functions),
        wall_time=time.perf_counter() - start,
        created=datetime.now(timezone.utc).isoformat())


_HEX = re.compile(r"(?:0[xX])?[0-9a-fA-F]+")


def parse_hex(text: str) -> int:
    """ASCII hex digits with an optional 0x or 0X prefix, and nothing
    else: no sign, underscore, space or non-ASCII digit."""
    if _HEX.fullmatch(text) is None:
        raise ValueError(f"not a hex number: {text!r}")
    return int(text, 16)


def load_entries(path) -> list[int]:
    """One hex address below 2^32 per line, with ASCII blanks around
    it; '#' starts a comment; blank lines ignored.  Any other character,
    Unicode whitespace included, makes the line malformed.  Result is
    sorted and deduplicated."""
    addresses = set()
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            text = raw.split("#", 1)[0].strip(" \t\n\r\v\f")
            if not text:
                continue
            try:
                value = parse_hex(text)
            except ValueError:
                raise MalformedLineError(number, text) from None
            if value > MASK32:                  # an A32 address
                raise MalformedLineError(number, text)
            addresses.add(value)
    return sorted(addresses)


# --- emission -----------------------------------------------------------


def _body(value):
    """The JSON form of a result: a dataclass becomes an object of its
    ``compare=True`` fields in declaration order, a field's ``json``
    metadata formats its value, and tuples become lists."""
    if is_dataclass(value):
        return {f.name: f.metadata.get("json", _body)(getattr(value, f.name))
                for f in fields(value) if f.compare}
    if isinstance(value, tuple):
        return [_body(item) for item in value]
    if isinstance(value, dict):
        return {key: _body(item) for key, item in value.items()}
    return value


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": "wherescrypto",
        **_body(report),
        "timestamp": {
            "created": report.created,
            "wall_time": report.wall_time,
            "functions": [{
                "elapsed": fn.elapsed,
                "signatures": {s.name: s.elapsed for s in fn.signatures},
            } for fn in report.functions],
        },
    }


def _emit_json(report: AnalysisReport) -> bytes:
    text = json.dumps(report_to_dict(report), indent=2)
    return (text + "\n").encode("utf-8")


def _emit_text(report: AnalysisReport) -> bytes:
    config = report.config
    lines = [
        f"wherescrypto {report.version}",
        f"config: n={config.n} depth={config.depth} "
        f"timeout={config.timeout:g}s",
        "",
    ]
    for fn in report.functions:
        if fn.error is not None:
            lines.append(f"function 0x{fn.entry:x}: ERROR {fn.error}")
            continue
        statuses = ", ".join(fn.statuses) if fn.statuses else "none"
        lines.append(f"function 0x{fn.entry:x}: {fn.graphs} graph(s) "
                     f"[{statuses}] in {fn.elapsed:.3f}s")
        for s in fn.signatures:
            if s.matched:
                lines.append(
                    f"  {s.name}: MATCH variant={s.variant} "
                    f"graph={s.graph_index} mappings={s.mappings} "
                    f"({s.elapsed:.3f}s)")
            else:
                lines.append(f"  {s.name}: no match ({s.elapsed:.3f}s)")
        for r in fn.block_permutation:
            state = "confirmed" if r.confirmed else "unconfirmed"
            anchor = r.anchor_symbol or f"node{r.anchor}"
            offsets = ", ".join(f"0x{k:x}" for k in r.offsets)
            lines.append(f"  block permutation: {state} anchor={anchor} "
                         f"offsets=[{offsets}] graph={r.graph_index}")
    totals = report.totals
    lines.append("")
    lines.append("totals: " + " ".join(
        f"{key}={value}" for key, value in totals.items()))
    lines.append(f"wall time: {report.wall_time:.3f}s")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _quoted(text: str) -> str:
    """`text` as a DOT quoted string: backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_label(node) -> str:
    if node.kind is NodeKind.CONST:
        return f"0x{node.const_value:x}"
    if node.symbol is not None:
        return node.symbol
    return node.kind.name


def _emit_dot(report: AnalysisReport) -> bytes:
    if any(fn.error is None and fn.graphs and not fn.dfgs
           for fn in report.functions):
        raise ValueError("DOT needs an analysis run with keep_graphs=True")
    lines = []
    for fn in report.functions:
        if fn.error is not None:
            continue
        # target refs annotated by the exemplar embeddings, per graph
        annotations: dict[int, dict[int, list[str]]] = {}
        for s in fn.signatures:
            if not s.matched or s.graph_index is None:
                continue
            per_graph = annotations.setdefault(s.graph_index, {})
            for _sig_ref, target_ref in s.assignment:
                per_graph.setdefault(target_ref, []).append(
                    f"{s.name}/{s.variant}")
        for index, graph in enumerate(fn.dfgs):
            name = _quoted(f"f_0x{fn.entry:x}_g{index}")
            lines.append(f"digraph {name} {{")
            marked = annotations.get(index, {})
            for ref in sorted(graph.nodes):
                node = graph.nodes[ref]
                attrs = [f"label={_quoted(_dot_label(node))}"]
                if ref in marked:
                    tags = ",".join(sorted(set(marked[ref])))
                    attrs.append('style=filled')
                    attrs.append('fillcolor="#f4cccc"')
                    attrs.append(f"match={_quoted(tags)}")
                lines.append(f"  n{ref} [{', '.join(attrs)}];")
            for ref in sorted(graph.nodes):
                for source in graph.nodes[ref].inputs:
                    lines.append(f"  n{source} -> n{ref};")
            lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_report(report: AnalysisReport, fmt: str) -> bytes:
    if fmt == "json":
        return _emit_json(report)
    if fmt == "text":
        return _emit_text(report)
    if fmt == "dot":
        return _emit_dot(report)
    raise UnknownFormatError(fmt)
