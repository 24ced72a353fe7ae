"""Span tracing around the program's layer boundaries.

`Tracer.install` replaces the module attributes the program looks up at
call time with timing wrappers, and `Tracer.uninstall` puts the
originals back.  Nothing inside the program changes: report.py calls
`explore`, `match_signature`, `classify_block_permutation` and
`build_variant` through its own module globals, cli.py calls
`load_catalog`, `analyze_binary` and `emit_report` the same way,
symexec.py calls `arm.decode` and `arm.execute` through the `arm`
module, and the broker is reached through methods of `Dfg`.

Each call becomes a span (id, parent id, name, start, end).  Self time
is a span's duration minus the time of its direct children.  Broker
requests nest (`request_operation` calls `request_constant`), so the
broker figures count outermost requests only.
"""

from __future__ import annotations

import time
from collections import Counter

from wherescrypto import arm, cli, report
from wherescrypto.dfg import Dfg

# (owner, attribute, span name)
FUNCTION_BOUNDARIES = (
    (cli, "load_catalog", "siglib.load"),
    (cli, "analyze_binary", "report.analyze"),
    (cli, "emit_report", "report.emit"),
    (report, "build_variant", "sigdsl.build"),
    (report, "explore", "symexec.explore"),
    (report, "match_signature", "matcher.match"),
    (report, "classify_block_permutation", "matcher.classify"),
    (arm, "decode", "arm.decode"),
    (arm, "execute", "arm.execute"),
)
DFG_REQUESTS = ("request_constant", "request_input", "request_opaque",
                "request_call", "request_operation", "record_store",
                "request_load")
DFG_OTHER = (("fork_graph", "dfg.fork"), ("purge", "dfg.purge"))

SIGNATURE_DOCS = ("aes", "feistel", "md5", "nlfsr", "sha1", "xtea")


class BoundaryNeverFired(RuntimeError):
    pass


class Tracer:
    """Records spans and per-boundary counters for traced scans."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []     # [id, name, start, child time]
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.count: Counter = Counter()  # other counters
        self.doc_time: Counter = Counter()
        self.decoded: set[int] = set()
        self.flags: Counter = Counter()
        self._doc_of_variant: dict[int, str] = {}
        self._doc_of_sig: dict[int, tuple[str, object]] = {}

    # ---------------------------------------------------------- spans

    def _open(self, name: str) -> list:
        frame = [len(self.spans) + len(self._stack), name,
                 time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else -1, name,
                           start, end))
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        return duration

    # ------------------------------------------------------- wrappers

    def _wrap_function(self, name: str, original, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
            if observe is not None:
                observe(args, result, duration)
            return result

        traced.__wrapped__ = original
        return traced

    def _wrap_request(self, attr: str, original):
        tracer = self
        name = "dfg.request"
        fired = f"dfg.{attr}"

        def traced(graph, *args, **kwargs):
            tracer.count[fired] += 1
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                return original(graph, *args, **kwargs)
            before = graph._next_id
            frame = tracer._open(name)
            try:
                result = original(graph, *args, **kwargs)
            finally:
                tracer._close(frame)
            if graph._next_id == before:
                tracer.count["dfg.cons_hits"] += 1
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        observers = {
            "siglib.load": self._observe_catalog,
            "report.emit": self._observe_emit,
            "sigdsl.build": self._observe_build,
            "symexec.explore": self._observe_explore,
            "matcher.match": self._observe_match,
            "arm.decode": self._observe_decode,
        }
        for owner, attr, name in FUNCTION_BOUNDARIES:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap_function(
                name, original, observers.get(name)))
        for attr in DFG_REQUESTS:
            original = getattr(Dfg, attr)
            self._originals.append((Dfg, attr, original))
            setattr(Dfg, attr, self._wrap_request(attr, original))
        for attr, name in DFG_OTHER:
            original = getattr(Dfg, attr)
            self._originals.append((Dfg, attr, original))
            setattr(Dfg, attr, self._wrap_function(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------ observers

    def _observe_catalog(self, args, catalog, duration) -> None:
        for doc_name, doc in catalog.items():
            for variant in doc.variants:
                self._doc_of_variant[id(variant)] = doc_name

    def _observe_build(self, args, sig, duration) -> None:
        doc = self._doc_of_variant.get(id(args[0]), "?")
        # keep the graph alive so its id is not reused within the scan
        self._doc_of_sig[id(sig)] = (doc, sig)

    def _observe_match(self, args, found, duration) -> None:
        sig, target = args[0], args[1]
        doc = self._doc_of_sig.get(id(sig), ("?",))[0]
        self.doc_time[doc] += duration
        self.count["matcher.target_nodes"] += len(target.nodes)
        if found:
            self.count["matcher.hits"] += 1

    def _observe_explore(self, args, paths, duration) -> None:
        self.count["symexec.paths"] += len(paths)
        for path in paths:
            self.count["symexec.steps"] += path.steps
            self.count[f"symexec.status.{path.status.name}"] += 1
            self.count["dfg.nodes_final"] += len(path.graph.nodes)
            for flag in path.flags:
                self.flags[flag] += 1

    def _observe_decode(self, args, ins, duration) -> None:
        self.decoded.add(args[1])

    def _observe_emit(self, args, payload, duration) -> None:
        self.count["report.json_bytes"] += len(payload)

    # -------------------------------------------------------- results

    def check_all_fired(self) -> None:
        """A boundary that never fired means the program no longer
        calls it by that name: fail instead of reporting zero."""
        names = [name for _, _, name in FUNCTION_BOUNDARIES]
        names += [name for _, name in DFG_OTHER]
        missing = [n for n in names if not self.calls[n]]
        missing += [f"dfg.{attr}" for attr in DFG_REQUESTS
                    if not self.count[f"dfg.{attr}"]]
        missing += [f"matcher.match.{d}" for d in SIGNATURE_DOCS
                    if not self.doc_time[d]]
        if missing:
            raise BoundaryNeverFired(
                "traced boundaries never fired: " + ", ".join(missing))

    def layer_metrics(self, scan_s: float) -> dict[str, float]:
        """Per-layer figures of the one scan traced since the last
        reset; `scan_s` is that scan's wall time."""
        t, c, k = self.total, self.calls, self.count
        match_calls = c["matcher.match"]
        requests = c["dfg.request"]
        decodes = c["arm.decode"]
        metrics = {
            "matcher.match_s": t["matcher.match"],
            "matcher.match_calls": match_calls,
            "matcher.hit_ratio": k["matcher.hits"] / match_calls,
            "matcher.target_nodes": k["matcher.target_nodes"],
            "matcher.classify_s": t["matcher.classify"],
            "matcher.classify_calls": c["matcher.classify"],
            "matcher.scan_share":
                (t["matcher.match"] + t["matcher.classify"]) / scan_s,
            "symexec.explore_s": t["symexec.explore"],
            "symexec.self_s": self.self_time["symexec.explore"],
            "symexec.paths": k["symexec.paths"],
            "symexec.steps": k["symexec.steps"],
            "symexec.aborted_paths": k["symexec.status.ABORTED"],
            "symexec.scan_share": t["symexec.explore"] / scan_s,
            "arm.decode_s": t["arm.decode"],
            "arm.decode_calls": decodes,
            "arm.decode_redundancy": decodes / len(self.decoded),
            "arm.execute_s": t["arm.execute"],
            "arm.execute_calls": c["arm.execute"],
            "dfg.request_s": t["dfg.request"],
            "dfg.requests": requests,
            "dfg.cons_hit_ratio": k["dfg.cons_hits"] / requests,
            "dfg.fork_s": t["dfg.fork"],
            "dfg.forks": c["dfg.fork"],
            "dfg.purge_s": t["dfg.purge"],
            "dfg.nodes_final": k["dfg.nodes_final"],
            "siglib.load_s": t["siglib.load"],
            "sigdsl.build_s": t["sigdsl.build"],
            "sigdsl.variants": c["sigdsl.build"],
            "report.analyze_s": t["report.analyze"],
            "report.self_s": self.self_time["report.analyze"],
            "report.emit_s": t["report.emit"],
            "report.json_bytes": k["report.json_bytes"],
        }
        for doc in SIGNATURE_DOCS:
            metrics[f"matcher.match_s.{doc}"] = self.doc_time[doc]
        return metrics

    def timeout_paths(self) -> int:
        return self.count["symexec.status.TIMEOUT"]
