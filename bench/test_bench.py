"""Tests of the benchmark itself: corpora, oracles, tracer and output.

    python3 -m pytest -q bench/test_bench.py

Workloads run here on a reduced corpus: the first query of each command
on each family of inputs.  Only the check of where each workload spends
its time runs the full corpora.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

from gq3 import cli  # noqa: E402

SEED = 5
FAMILY = re.compile(r"-(min|elim|image|w2|w3|w4|mixed|big-w2|big-w3)[.-]"
                    r"|(tame_local|finite|two_adic)")


def _small(workload: str, tmp_path) -> list:
    """The first query of each command on each input family."""
    corpus = workloads.build(workload, SEED, str(tmp_path))
    for path, text in corpus.files.items():
        Path(path).write_text(text, encoding="utf-8")
    chosen = {}
    for query in corpus.queries:
        family = FAMILY.search(" ".join(query.argv)).group(0)
        chosen.setdefault((query.command, family, len(query.argv)), query)
    return list(chosen.values())


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Untraced and traced metrics of every workload on a reduced corpus."""
    out = {}
    for workload in workloads.WORKLOADS:
        queries = _small(workload, tmp_path_factory.mktemp(workload))
        plain = child.measure(cli, queries, passes=1)
        traced = child.trace(cli, queries, workload, SEED)
        out[workload] = (queries, plain, traced)
    return out


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_emitted_metrics():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_corpus_is_answered_correctly(small_runs, workload):
    _, plain, traced = small_runs[workload]
    assert plain["failures"] == [] and plain["metrics"]["failed_ratio"] == 0
    assert traced["failures"] == []
    e2e = {name for name, _, _ in run.END_TO_END} - {"setup_s"}
    assert e2e <= set(plain["metrics"])
    assert all(plain["metrics"][name] > 0 for name in e2e)


def test_every_per_layer_metric_is_measured_somewhere(small_runs):
    seen = set()
    for _, _, traced in small_runs.values():
        seen |= {k for k, v in traced["metrics"].items() if v}
    missing = [name for name, _, _ in run.PER_LAYER if name not in seen]
    assert missing == []


def test_traced_runs_confirm_the_workload_design(tmp_path):
    """On the full corpora: each workload's time sits in the layers it targets."""
    share = {}
    for workload in workloads.WORKLOADS:
        corpus = workloads.build(workload, SEED, str(tmp_path))
        for path, text in corpus.files.items():
            Path(path).write_text(text, encoding="utf-8")
        share[workload] = child.trace(cli, corpus.queries, workload, SEED)["metrics"]
    groups, certs, milnor = share["groups"], share["certificates"], share["milnor"]
    top = lambda m: max(run.LAYERS, key=lambda layer: m[f"{layer}.share"])  # noqa: E731
    assert top(groups) in ("trunc", "zqlin")
    assert top(certs) == "freelie"
    assert top(milnor) in ("milnor", "zqlin")
    assert groups["freelie.share"] < 0.05 and milnor["freelie.share"] < 0.05


def test_traced_counts_repeat_for_one_seed(tmp_path):
    queries = _small("groups", tmp_path)

    def counts():
        tracer = Tracer()
        tracer.install()
        try:
            child.run_pass(cli, queries)
        finally:
            tracer.uninstall()
        return dict(tracer.calls), dict(tracer.counters)

    assert counts() == counts()


def test_layer_self_time_is_the_smallest_over_rounds():
    rounds = []
    for ms in (5.0, 3.0, 4.0):
        tracer = Tracer()
        tracer.calls = {"zqlin.kernel": 2}
        tracer.self_s = {"zqlin.kernel": ms / 1e3}
        rounds.append(tracer)
    metrics = layer_metrics(rounds)
    assert metrics["zqlin.kernel.calls"] == 2
    assert metrics["zqlin.kernel.self_ms"] == pytest.approx(3.0)
    assert metrics["zqlin.self_ms"] == pytest.approx(3.0) and metrics["zqlin.share"] == 1.0


def test_pass_count_depends_only_on_workload_and_seconds():
    for workload in workloads.WORKLOADS:
        assert child.passes_for(workload, 0) == child.MIN_PASSES
        assert child.passes_for(workload, 30) == int(30 / child.PASS_SECONDS[workload])


def test_cold_starts_are_spread_over_the_passes(monkeypatch):
    ref = child.CALIBRATION_REF_S
    order = []
    monkeypatch.setattr(child, "cold_start",
                        lambda code="import gq3.cli": order.append("start") or 0.1)
    monkeypatch.setattr(child, "run_pass",
                        lambda cli, queries: order.append("pass") or ([(0.01, 0, "", "")], [ref] * 2))
    monkeypatch.setattr(child, "validate", lambda queries, results: [])
    result = child.measure(cli, [None], passes=4, cold_starts=2)
    assert order == ["pass"] + ["start"] * 2 + ["pass"] * 2 + ["start"] * 2 + ["pass"]
    assert result["setup_starts"] == [0.1, 0.1] and result["attempted"] == 4


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    """On a machine twice as slow as the reference, times read half."""
    slow = 2 * child.CALIBRATION_REF_S
    monkeypatch.setattr(child, "calibrate", lambda: slow)
    bare = 2 * child.BARE_START_REF_S
    monkeypatch.setattr(child, "cold_start",
                        lambda code="import gq3.cli": bare if code == "pass" else 0.3)
    monkeypatch.setattr(child, "run_pass",
                        lambda cli, queries: ([(0.02, 0, "", ""), (0.04, 0, "", "")], [slow] * 3))
    monkeypatch.setattr(child, "validate", lambda queries, results: [])
    result = child.measure(cli, [None, None], passes=3, cold_starts=1)
    metrics, raw = result["metrics"], result["raw"]
    assert metrics["throughput_qps"] == pytest.approx(2 / 0.03)
    assert metrics["query_p50_ms"] == pytest.approx(10) and metrics["query_p90_ms"] == pytest.approx(20)
    assert metrics["setup_s"] == pytest.approx(0.15)
    assert raw["query_p50_ms"] == pytest.approx(20) and raw["setup_s"] == pytest.approx(0.3)
    assert result["latency_samples"] == 6


def test_speed_factors_take_the_median_of_nearby_calibrations():
    ref = child.CALIBRATION_REF_S
    cals = [ref, ref, 4 * ref, 2 * ref, 2 * ref, 2 * ref]
    factors = child.speed_factors(cals)
    assert len(factors) == len(cals) - 1
    # timing 0 sees calibrations 0..2, timing 2 sees 1..4, timing 4 sees 3..5
    assert factors[0] == pytest.approx(1.0)
    assert factors[2] == pytest.approx(1 / 2)
    assert factors[4] == pytest.approx(1 / 2)


def test_tracer_rebinds_every_namespace_and_restores_it():
    from gq3 import cohom, milnor, trunc, zqlin

    original = zqlin.canonicalize
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (trunc, cohom, milnor):
            assert mod.canonicalize is zqlin.canonicalize is not original
        assert zqlin.ZqSubspace.reduce_vector.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for mod in (zqlin, trunc, cohom, milnor):
        assert mod.canonicalize is original
    assert not hasattr(zqlin.ZqSubspace.reduce_vector, "__wrapped__")


def test_same_seed_same_corpus(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, SEED, str(tmp_path))
        b = workloads.build(workload, SEED, str(tmp_path))
        assert [(q.argv, q.expect) for q in a.queries] == [(q.argv, q.expect) for q in b.queries]
        assert a.files == b.files
        assert len(a.queries) >= 100


@pytest.mark.parametrize("workload,command,key,wrong", [
    ("groups", "truncate", "kept", lambda v: v + 1),
    ("groups", "cohomology", "kept", lambda v: v + 1),
    ("groups", "reconstruct", "rc", lambda v: 1),
    ("groups", "morphism", "rc", lambda v: 1),
    ("certificates", "screen", "verdict", lambda v: "obstructed" if v != "obstructed" else "x"),
    ("certificates", "equiv", "weights", lambda v: [w + 1 for w in v]),
    ("milnor", "kmilnor", "ranks", lambda v: [v[0] + 1] + v[1:]),
    ("milnor", "galois-check", "ranks", lambda v: v[:-1] + [1]),
])
def test_a_wrong_expected_answer_is_counted_as_failed(tmp_path, workload, command, key, wrong):
    corpus = workloads.build(workload, SEED, str(tmp_path))
    for path, text in corpus.files.items():
        Path(path).write_text(text, encoding="utf-8")
    query = next(q for q in corpus.queries if q.command == command)
    right = [child.run_query(cli, query.argv)]
    assert child.validate([query], right) == []
    query.expect[key] = wrong(query.expect[key])
    assert len(child.validate([query], right)) == 1


def test_prime_order_oracle_bites(tmp_path):
    queries = workloads.build("groups", SEED, str(tmp_path)).queries
    query = next(q for q in queries if q.command == "truncate" and q.expect["order"])
    payload = {"group": {"n": query.expect["kept"], "order": query.expect["order"] * 3},
               "minimality": {"eliminated": [[g, ""] for g in query.expect["eliminated"]]}}
    assert query.check(0, payload, query.expect) != []


def test_disagreeing_orders_and_exceptions_fail(tmp_path):
    queries = workloads.build("groups", SEED, str(tmp_path)).queries
    trunc_q = next(q for q in queries if q.command == "truncate" and q.expect["order"] is None)
    recon_q = next(q for q in queries if q.command == "reconstruct" and q.group == trunc_q.group)
    report = {"group": {"n": trunc_q.expect["kept"], "order": 81},
              "minimality": {"eliminated": [[g, ""] for g in trunc_q.expect["eliminated"]]},
              "round_trip_equal": True}
    other = json.loads(json.dumps(report))
    other["group"]["order"] = 243
    results = [(0.0, 0, json.dumps(report), ""), (0.0, 0, json.dumps(other), "")]
    assert len(child.validate([trunc_q, recon_q], results)) == 2
    crashed = [(0.0, None, "", "KeyError: 'h2_rank'")]
    assert len(child.validate([trunc_q], crashed)) == 1


def test_rank_mod_p():
    assert workloads.rank_mod_p([[1, 2], [2, 4]], 3) == 1
    assert workloads.rank_mod_p([[1, 2], [2, 1]], 3) == 1
    assert workloads.rank_mod_p([[1, 2], [2, 1]], 5) == 2


def test_command_line_prints_result_last(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "groups",
                           "--seed", str(SEED), "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert list(result["metrics"]) == [name for name, _, _ in run.END_TO_END]
    for name, _, _ in run.END_TO_END:
        assert any(line.split()[1] == name for line in lines[:-1])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "groups", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
