"""gq3 benchmark: end-to-end and per-layer metrics of the ``gq3`` CLI.

    python3 bench/run.py --workload groups --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Run from the repository root; the program is imported from ``src``.
Each workload runs in its own child process (``child.py``), a closed loop
of one client calling ``gq3.cli.main`` in-process.  Query times are
scaled to a reference machine speed by a calibration loop timed beside
each query.  ``setup_s`` is the time for a fresh interpreter to finish
``import gq3.cli``, timed by the child between its passes and scaled by
bare interpreter starts.

Prints each metric by name with its unit, then one JSON object
``{"correct", "attempted", "failed", "metrics"}`` as the last line.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Exits 1 if any answer was wrong, 2 if the program cannot
be found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from child import BARE_START_REF_S, CALIBRATION_REF_S
from tracer import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # for rechecking a gain on a seed not used while writing it
DEFAULT_SECONDS = 22
CHILD_TIMEOUT_S = 170

# name, unit, better
END_TO_END = [
    ("throughput_qps", "queries/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]

_FUNCTIONS = [
    ("cli.main", ["self_ms"]),
    ("presentations.parse_presentation", ["calls", "self_ms"]),
    ("trunc.multiply", ["calls", "self_ms"]),
    ("trunc.relator_subspace", ["calls", "self_ms"]),
    ("trunc.group_invariants", ["self_ms"]),
    ("zqlin.reduce_vector", ["calls", "self_ms"]),
    ("zqlin.canonicalize", ["calls", "self_ms"]),
    ("zqlin.smith_normal_form", ["calls", "self_ms"]),
    ("zqlin.kernel", ["calls", "self_ms"]),
    ("freelie.word_nontriviality_certificate", ["calls", "self_ms"]),
    ("freelie.magnus_expansion", ["self_ms"]),
    ("freelie.tensor_to_hall", ["calls", "self_ms"]),
    ("freelie.hall_basis", ["calls", "self_ms"]),
    ("cohom.cohomology_data_from_presentation", ["self_ms"]),
    ("cohom.reconstruct_g3", ["self_ms"]),
    ("cohom.morphism_check", ["self_ms"]),
    ("cohom.obstruction_screen", ["self_ms"]),
    ("cohom.check_relator_independence", ["self_ms"]),
    ("milnor.steinberg_relations_tame", ["calls", "self_ms"]),
    ("milnor.steinberg_relations_finite", ["self_ms"]),
    ("milnor.hilbert_symbol_two_adic", ["calls", "self_ms"]),
    ("milnor.quadratic_hull", ["calls", "self_ms"]),
    ("milnor.milnor_mod_q", ["self_ms"]),
    ("milnor.galois_symbol_compare", ["self_ms"]),
]
_COUNTERS = [
    ("presentations.letters.syllables", "count", "lower"),
    ("trunc.eliminated_generators", "count", "lower"),
    ("zqlin.canonicalize.rows_in", "count", "lower"),
    ("zqlin.canonicalize.rows_distinct", "count", "lower"),
    ("zqlin.canonicalize.rows_out", "count", "lower"),
    ("zqlin.canonicalize.rows_distinct_per_in", "ratio", "higher"),
    ("freelie.magnus_expansion.monomials", "count", "lower"),
    ("freelie.certificate.weight_per_class_bound", "ratio", "higher"),
]

PER_LAYER = (
    [(f"{fn}.{kind}", "count" if kind == "calls" else "ms", "lower")
     for fn, kinds in _FUNCTIONS for kind in kinds]
    + _COUNTERS
    + [(f"{layer}.{kind}", "ms" if kind == "self_ms" else "ratio", "lower")
       for layer in LAYERS for kind in ("self_ms", "share")]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result = run_child(workload, seed, seconds, trace)
    spec = PER_LAYER if trace else END_TO_END
    values = result["metrics"]
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit}
                         for name, unit, _ in spec}
    for name, entry in result["metrics"].items():
        extra = ""
        if not trace and name in result["raw"]:
            extra = f"  (unscaled {result['raw'][name]:.6g})"
        if name == "query_p90_ms":
            extra += (f"  ({result['latency_samples']} samples, {result['p90_samples_beyond']}"
                      f" beyond; {result['passes']} passes of {result['queries_per_pass']})")
        print(f"{workload:12s} {name:48s} {entry['value']:14.6g} {entry['unit']}{extra}")
    if not trace:
        print(f"{workload:12s} {'failed_ratio':48s} {values['failed_ratio']:14.6g} fraction")
        print(f"{workload:12s} {'calibration_ms':48s} {result['calibration_ms']:14.6g} ms"
              f"  (median calibration loop; {CALIBRATION_REF_S * 1e3:g} ms is the reference speed)")
        if result["bare_starts"]:
            print(f"{workload:12s} {'bare_start_s':48s} {statistics.median(result['bare_starts']):14.6g}"
                  f" s  (median `python -c pass`; {BARE_START_REF_S:g} s is the reference speed)")
    for failure in result["failures"]:
        print(f"{workload:12s} FAILED {failure}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gq3" / "cli.py").is_file():
        print(f"gq3 sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
