"""Benchmark of whole-image scans through `wherescrypto.cli.main`.

    python3 perfbench/run.py --workload crypto-unrolled --seed 1 \
        --seconds 20 --trace 0

The load is a closed loop: one client, one scan at a time, in this
process and thread.  Each scan is an in-process call of
`wherescrypto.cli.main` over a raw image plus an entry file generated
from the seed (see corpus.py), with the JSON report written to a file.

`--trace 0` measures the end-to-end metrics.  `--trace 1` alternates
plain and traced scans (see tracing.py) and reports the per-layer
metrics.  The last line of standard output is the result object; the
line before it, prefixed `# detail`, holds the figures that are not
metrics: the report digest, detection counts with their bases, the
tail percentile and its sample count.  Exit code 2 means the benchmark
could not run and printed no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"

SETUP_RUNS = 9          # counted set-up probes, after one warm-up probe
SETUP_TIMEOUT = 60.0
MIN_SCANS = 3           # per kind of scan, even when --seconds is short
TAIL_BEYOND = 10        # samples the tail percentile must leave above it
BLOCK_PERMUTATION = "block_permutation"


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


# ------------------------------------------------------------- scanning


def _scan(cli, argv: list[str], out_path: Path) -> tuple[float, bytes]:
    gc.collect()
    start = time.perf_counter()
    status = cli.main(argv)
    elapsed = time.perf_counter() - start
    if status != 0:
        raise BenchError(f"wherescrypto exited with {status}")
    return elapsed, out_path.read_bytes()


def _body(payload: bytes) -> tuple[dict, bytes]:
    """The report without its `timestamp`, and that part's canonical
    bytes; everything outside `timestamp` must be deterministic."""
    report = json.loads(payload)
    timing = report.pop("timestamp")
    canonical = json.dumps(report, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    return {"report": report, "timing": timing}, canonical


def _elapsed(parsed: dict) -> list[float]:
    return [f["elapsed"] for f in parsed["timing"]["functions"]]


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and the
    percentile itself."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise BenchError(f"{len(ordered)} latency samples are too few "
                         "for a tail; raise --seconds")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


# ------------------------------------------------------------- checking


def _check_report(report: dict, corpus) -> tuple[int, list[str]]:
    """Failed functions, and problems that make the run incorrect."""
    problems = []
    expected = [f"0x{a:x}" for a in sorted(corpus.entries.values())]
    got = [f["entry"] for f in report["functions"]]
    if got != expected:
        problems.append(f"report covers {got}, expected {expected}")
    failed = 0
    for fn in report["functions"]:
        timed_out = "TIMEOUT" in fn["statuses"]
        if timed_out:
            problems.append(f"{fn['entry']} has a TIMEOUT path, so the "
                            "report depends on machine speed")
        if fn["error"] is not None or timed_out:
            failed += 1
    return failed, problems


def _detections(report: dict, corpus, labels) -> dict:
    """Compares each function's findings with its hand-written labels.
    A primitive is a signature document, or block_permutation when
    the classifier confirms one."""
    name_of = {f"0x{a:x}": n for n, a in corpus.entries.items()}
    primitives = {s["name"] for fn in report["functions"]
                  for s in fn["signatures"]} | {BLOCK_PERMUTATION}
    missed, false, labelled, per_function = 0, 0, 0, {}
    for fn in report["functions"]:
        name = name_of[fn["entry"]]
        want = labels[corpus.kernel_of[name]]
        found = {s["name"] for s in fn["signatures"] if s["matched"]}
        if any(r["confirmed"] for r in fn["block_permutation"]):
            found.add(BLOCK_PERMUTATION)
        missed += len(want - found)
        false += len(found - want)
        labelled += len(want)
        if found != want:
            per_function[name] = {"missed": sorted(want - found),
                                  "false": sorted(found - want)}
    decisions = len(report["functions"]) * len(primitives)
    return {"missed_detections": missed, "missed_base": labelled,
            "false_detections": false,
            "false_base": decisions - labelled,
            "decisions": decisions,
            "label_agreement": 1.0 - (missed + false) / decisions,
            "mismatches": per_function}


# ---------------------------------------------------------------- setup


def _setup_probe(image_path: Path, entries_path: Path) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(image_path),
         str(entries_path)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT)
    if result.returncode != 0:
        raise BenchError("set-up probe failed: " + result.stderr.strip())
    return json.loads(result.stdout)


# ----------------------------------------------------------------- runs


def _run_plain(cli, argv, out_path, seconds, reference, probe):
    """Scans for `seconds`.  The set-up probes are spread over the same
    window, so a slow spell of the machine affects both alike."""
    scans, latencies, probes, problems = [], [], [], []
    start = time.perf_counter()
    while len(scans) < MIN_SCANS or time.perf_counter() < start + seconds:
        due = SETUP_RUNS * (time.perf_counter() - start) / seconds
        if len(probes) <= due and len(probes) < SETUP_RUNS:
            probes.append(probe())
        elapsed, payload = _scan(cli, argv, out_path)
        parsed, canonical = _body(payload)
        if canonical != reference:
            problems.append(f"scan {len(scans)} differs from the first "
                            "outside timestamp")
        scans.append(elapsed)
        latencies += _elapsed(parsed)
    while len(probes) < SETUP_RUNS:
        probes.append(probe())
    setup = {key: statistics.median(p[key] for p in probes)
             for key in probes[0]}
    return scans, latencies, setup, problems


def _run_traced(cli, argv, out_path, seconds, reference):
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, layers, problems = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_SCANS or time.perf_counter() < deadline:
        elapsed, payload = _scan(cli, argv, out_path)
        if _body(payload)[1] != reference:
            problems.append("untraced scan differs outside timestamp")
        plain.append(elapsed)

        tracer.reset()
        tracer.install()
        try:
            elapsed, payload = _scan(cli, argv, out_path)
        finally:
            tracer.uninstall()
        if _body(payload)[1] != reference:
            problems.append("traced scan differs from untraced outside "
                            "timestamp")
        tracer.check_all_fired()
        if tracer.timeout_paths():
            problems.append(f"{tracer.timeout_paths()} TIMEOUT paths")
        for flag in tracer.flags:
            if "wall clock" in flag:
                problems.append(f"a path ended by {flag!r}")
        traced.append(elapsed)
        layers.append(tracer.layer_metrics(elapsed))
    spans = tracer.spans
    return plain, traced, layers, problems, spans


def _write_spans(path: Path, spans) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def _units() -> dict[str, str]:
    """Metric name -> unit, as `BENCHMARK.json` declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes=None) -> dict:
    """One benchmark run; `sizes` shrinks the corpus for tests."""
    import corpus as corpus_mod
    from wherescrypto import cli

    labels = corpus_mod.load_labels()
    corpus = corpus_mod.generate(workload, seed,
                                 sizes or corpus_mod.FULL)
    unlabelled = set(corpus.kernel_of.values()) - set(labels)
    if unlabelled:
        raise BenchError(f"kernels without labels: {sorted(unlabelled)}")

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{workload}-{seed}-{trace:d}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        image_path, entries_path = corpus.write(work)
        out_path = work / "report.json"
        argv = corpus.argv(image_path, entries_path) + [
            "--out", str(out_path)]

        def probe():
            return _setup_probe(image_path, entries_path)

        if not trace:
            probe()                                 # fills bytecode caches
        _, payload = _scan(cli, argv, out_path)     # warm-up, reference
        first, reference = _body(payload)
        report = first["report"]
        shutil.copyfile(out_path, OUT / f"{workload}-report.json")
        failed, problems = _check_report(report, corpus)
        found = _detections(report, corpus, labels)

        detail = {"workload": workload, "seed": seed,
                  "report_sha256": hashlib.sha256(reference).hexdigest(),
                  "functions": len(report["functions"]),
                  "graphs": report["totals"]["graphs"]}
        detail.update(found)

        if trace:
            plain, traced, layers, more, spans = _run_traced(
                cli, argv, out_path, seconds, reference)
            _write_spans(OUT / f"{workload}-spans.jsonl", spans)
            scans = len(plain) + len(traced)
            metrics = {name: statistics.median(layer[name]
                                               for layer in layers)
                       for name in layers[0]}
            metrics["trace.scan_s"] = statistics.median(traced)
            metrics["trace.overhead"] = (statistics.median(traced) /
                                         statistics.median(plain))
            detail["traced_scans"] = len(traced)
        else:
            times, latencies, setup, more = _run_plain(
                cli, argv, out_path, seconds, reference, probe)
            scans = len(times)
            tail, percentile = _tail(latencies)
            metrics = {
                "setup_s": setup["setup_s"],
                "scan_s": statistics.median(times),
                "fn_p50_s": statistics.median(latencies),
                "fn_tail_s": tail,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "label_agreement": found["label_agreement"],
            }
            detail.update(setup_parts=setup, scans=scans,
                          tail_percentile=round(percentile, 2),
                          latency_samples=len(latencies))
        problems += more
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = _units()
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise BenchError(f"metrics missing from BENCHMARK.json: {undeclared}")
    attempted = scans * len(report["functions"])
    detail.update(failed_ratio=failed * scans / attempted,
                  failed_base=attempted, problems=problems)
    return {
        "detail": detail,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed * scans,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in sorted(metrics.items())},
        },
    }


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Scan benchmark for wherescrypto.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wherescrypto" / "cli.py").is_file():
        print(f"perfbench: no wherescrypto sources at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpus import WORKLOADS
    from tracing import BoundaryNeverFired
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    try:
        outcome = run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except (BenchError, BoundaryNeverFired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("# detail " + json.dumps(outcome["detail"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
