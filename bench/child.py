"""One workload in a fresh process: closed loop over ``gq3.cli.main``.

Run by ``run.py`` with ``src`` on PYTHONPATH, so that ``ru_maxrss`` of
this process belongs to the workload alone.  One client, one thread: each
query starts when the previous one has returned.  The loop runs a fixed
number of whole passes over the corpus, set by ``--seconds`` and the
workload, so every pass runs the same queries; fresh interpreters that
import ``gq3.cli`` are timed between passes.  Every query is timed next
to a fixed calibration loop, and its time is scaled to a reference
machine speed.  Answers are checked after each pass, outside the timed
region.  With ``--trace 1`` it runs each query untraced and then traced
instead, and reports per-layer metrics.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
# Nominal seconds per pass on the machine the benchmark was written on;
# fixes the pass count for a given ``--seconds``.
PASS_SECONDS = {"groups": 2.3, "certificates": 3.6, "milnor": 4.1}
SETUP_STARTS = 21
TRACE_ROUNDS = 4
# The speed of the shared machine the benchmark was written on drifts by up
# to 2x over periods of seconds to minutes, in CPU time as much as in wall
# time.  A fixed pure-Python loop that shares no code with gq3 is timed
# before every query; each time is scaled by CALIBRATION_REF_S over the
# median of the CALIBRATION_WINDOW calibrations on each side of it, which
# reads it at the speed at which the loop takes CALIBRATION_REF_S (the
# machine's fast state).
CALIBRATION_REF_S = 0.31e-3
CALIBRATION_WINDOW = 2
# A cold start is mostly process creation and interpreter start-up, which
# slow down less than the calibration loop does.  Each timed start is paired
# with a bare interpreter start (``python -c pass``), and the median start is
# scaled by BARE_START_REF_S over the median bare start: the time at the
# speed at which a bare start takes BARE_START_REF_S.
BARE_START_REF_S = 0.045


def _calibration_loop() -> int:
    """Fixed work: small tuples and lists built, hashed into a dict and sorted."""
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(500):
        key = (i % 17, i % 13, i * 7 % 11)
        counts[key] = counts.get(key, 0) + i
    rows = [list(key) for key in counts]
    rows.sort()
    return len(rows)


def calibrate() -> float:
    """Seconds of one calibration loop.  The collector is off, so that
    garbage the program left behind is not collected inside the loop."""
    gc.disable()
    try:
        start = perf_counter()
        _calibration_loop()
        return perf_counter() - start
    finally:
        gc.enable()


def speed_factors(calibrations: list[float]) -> list[float]:
    """Scale factor of each of ``len(calibrations) - 1`` timings, timing i
    having run between calibrations i and i + 1."""
    w = CALIBRATION_WINDOW
    return [CALIBRATION_REF_S / statistics.median(calibrations[max(0, i + 1 - w):i + 1 + w])
            for i in range(len(calibrations) - 1)]


def run_query(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None, stdout, error) of one in-process invocation.

    ``cli.main`` is looked up on each call, so an installed tracer sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    error = ""
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # counted as a failed query
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue(), error


def validate(queries, results) -> list[str]:
    """One entry per failed query: wrong exit code, wrong answer, exception,
    or a group order that disagrees with another query on the same input."""
    failures = {}
    orders: dict[str, list[tuple[int, int]]] = {}
    for i, (query, (_, rc, stdout, error)) in enumerate(zip(queries, results)):
        if error:
            failures[i] = error
            continue
        try:
            payload = json.loads(stdout) if stdout.strip() else None
            errors = query.check(rc, payload, query.expect)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            payload, errors = None, [f"malformed report: {exc!r}"]
        if errors:
            failures[i] = "; ".join(errors)
        elif query.group is not None:
            orders.setdefault(query.group, []).append((i, payload["group"]["order"]))
    for group, seen in orders.items():
        if len({order for _, order in seen}) > 1:
            for i, _ in seen:
                failures.setdefault(i, f"orders of {group} disagree across queries: {seen}")
    return [f"{' '.join(queries[i].argv)}: {msg}" for i, msg in sorted(failures.items())]


def run_pass(cli, queries) -> tuple[list, list[float]]:
    """Results of one pass, and the calibrations before each query and after the last."""
    results, calibrations = [], []
    for query in queries:
        calibrations.append(calibrate())
        results.append(run_query(cli, query.argv))
    calibrations.append(calibrate())
    return results, calibrations


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(fraction * len(sorted_values))) - 1]


def passes_for(workload: str, seconds: float) -> int:
    """Passes that fill about ``seconds`` at the nominal pass length.

    The count depends only on the workload and ``seconds``, never on how
    fast this run goes, so both sides of a comparison take the same
    number of samples.
    """
    return max(MIN_PASSES, int(seconds / PASS_SECONDS[workload]))


def cold_start(code: str = "import gq3.cli") -> float:
    """Wall time of one fresh interpreter that runs ``code``.

    The interpreter reads and writes its bytecode cache under ``OUT_DIR``
    whatever the environment says, so every start after the first loads
    compiled modules, as an installed program does.  ``Popen.wait``
    without a timeout blocks in waitpid; with a timeout it polls in sleeps
    of up to 50 ms, which would quantise the measurement.  A timer kills a
    start that hangs.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT_DIR / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env)
    timer = threading.Timer(60, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    elapsed = perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"python -c {code!r} exited with {rc}")
    return elapsed


def measure(cli, queries, passes: int, cold_starts: int = 0) -> dict:
    """``passes`` whole passes over the corpus, with ``cold_starts`` fresh
    interpreters spread evenly between them.

    Query times are scaled to the reference speed (``speed_factors``).
    ``throughput_qps`` is the median over the passes of the corpus size
    over the pass's query time; the percentiles are taken over every
    query of every pass.  ``setup_s`` is the median cold start scaled by
    the median bare start (``BARE_START_REF_S``).  The unscaled figures
    are reported beside them under ``raw``.
    """
    latencies: list[float] = []
    raw_latencies: list[float] = []
    pass_qps: list[float] = []
    raw_pass_qps: list[float] = []
    calibrations: list[float] = []
    failures: list[str] = []
    # Gap i comes before pass i; gap ``passes`` comes after the last pass.
    gaps = [round((k + 0.5) * passes / cold_starts) for k in range(cold_starts)]
    starts: list[float] = []
    bare_starts: list[float] = []
    for gap in range(passes + 1):
        for _ in range(gaps.count(gap)):
            bare_starts.append(cold_start("pass"))
            starts.append(cold_start())
        if gap == passes:
            break
        results, cals = run_pass(cli, queries)
        times = [r[0] for r in results]
        scaled = [t * f for t, f in zip(times, speed_factors(cals))]
        pass_qps.append(len(queries) / sum(scaled))
        raw_pass_qps.append(len(queries) / sum(times))
        latencies += scaled
        raw_latencies += times
        calibrations += cals
        failures += validate(queries, results)
    attempted = passes * len(queries)
    latencies.sort()
    raw_latencies.sort()
    metrics = {
        "throughput_qps": statistics.median(pass_qps),
        "query_p50_ms": percentile(latencies, 0.5) * 1e3,
        "query_p90_ms": percentile(latencies, 0.9) * 1e3,
        "failed_ratio": len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "throughput_qps": statistics.median(raw_pass_qps),
        "query_p50_ms": percentile(raw_latencies, 0.5) * 1e3,
        "query_p90_ms": percentile(raw_latencies, 0.9) * 1e3,
    }
    if starts:
        metrics["setup_s"] = (statistics.median(starts) * BARE_START_REF_S
                              / statistics.median(bare_starts))
        raw["setup_s"] = statistics.median(starts)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": passes,
        "queries_per_pass": len(queries),
        "latency_samples": len(latencies),
        "p90_samples_beyond": len(latencies) - math.ceil(0.9 * len(latencies)),
        "calibration_ms": statistics.median(calibrations) * 1e3,
        "pass_qps": pass_qps,
        "setup_starts": starts,
        "bare_starts": bare_starts,
        "raw": raw,
        "metrics": metrics,
    }


def trace(cli, queries, workload: str, seed: int) -> dict:
    """Per-layer metrics of traced passes, and the tracing overhead.

    Each query runs untraced and traced back to back, so that both runs see
    the same speed of the machine.  Which goes first alternates by round,
    because a run right after a large allocation reuses memory already
    mapped.  The overhead compares the sums of each query's fastest
    untraced and traced runs.  A function's self time is its smallest
    over the rounds, unscaled; counts must be the same in every round.  The spans file comes from the last round.
    """
    plain = [math.inf] * len(queries)
    traced = [math.inf] * len(queries)
    failures: list[str] = []
    tracers = []
    for round_no in range(TRACE_ROUNDS):
        tracer = Tracer()
        tracers.append(tracer)
        plain_results, traced_results = [], []
        for i, query in enumerate(queries):
            if round_no % 2 == 0:
                plain_results.append(run_query(cli, query.argv))
            tracer.query = i
            tracer.install()
            try:
                traced_results.append(run_query(cli, query.argv))
            finally:
                tracer.uninstall()
            if round_no % 2 == 1:
                plain_results.append(run_query(cli, query.argv))
        plain = [min(b, r[0]) for b, r in zip(plain, plain_results)]
        traced = [min(b, r[0]) for b, r in zip(traced, traced_results)]
        failures += validate(queries, plain_results) + validate(queries, traced_results)
        if (tracer.calls, tracer.counters) != (tracers[0].calls, tracers[0].counters):
            failures.append(f"traced counts of round {round_no} differ from round 0")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{workload}-{seed}.tsv"
    tracers[-1].write_spans(str(spans_path))
    metrics = layer_metrics(tracers)
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain) - 1
    return {
        "attempted": 2 * TRACE_ROUNDS * len(queries),
        "failed": len(failures),
        "failures": failures[:20],
        "spans": len(tracers[-1].span_start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from gq3 import cli

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        corpus = workloads.build(args.workload, args.seed, workdir)
        for path, text in corpus.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        # Warm-up: one query per command, so lazy set-up inside the
        # interpreter is done before timing, and one cold start, which
        # writes the bytecode cache.
        seen = set()
        for query in corpus.queries:
            if query.command not in seen:
                seen.add(query.command)
                run_query(cli, query.argv)
        if args.trace:
            result = trace(cli, corpus.queries, args.workload, args.seed)
        else:
            cold_start()
            result = measure(cli, corpus.queries, passes_for(args.workload, args.seconds),
                             SETUP_STARTS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
