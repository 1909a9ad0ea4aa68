"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cutoffmatch import lp  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def smoke_results():
    proc = run_bench("--smoke")
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert len({m["name"] for m in metrics}) == len(metrics)


def test_smoke_runs_every_workload_untraced_and_traced():
    results = smoke_results()
    assert len(results) == 2 * len(workloads.WORKLOADS)
    e2e = {name for name, _ in run.END_TO_END}
    per_layer = {name for name, _ in tracing.PER_LAYER}
    for untraced, traced in zip(results[::2], results[1::2]):
        for result in (untraced, traced):
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] == run.SMOKE_UNITS
        assert set(untraced["metrics"]) == e2e
        assert set(traced["metrics"]) == per_layer
        assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_count_metrics_repeat_exactly():
    def counts(results):
        return [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
                for r in results[1::2]]
    first = counts(smoke_results())
    assert first == counts(smoke_results())
    assert any(c["flow.maxflow_calls"] for c in first)


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "solve-cohort", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_stratified_stream_follows_its_schedule():
    pool, _ = workloads.build_pool(workloads.WORKLOADS["oracle-reduce"], 3, 40)
    strata = [workloads._smti_key(pair) for pair in pool]
    assert strata == list(workloads.ORACLE_SCHEDULE) * 2
    counts = {k: strata.count(k) for k in set(strata)}
    assert counts == {(1, 0): 14, (2, 0): 12, (3, 0): 6, (2, 1): 6, (3, 1): 2}


def test_same_seed_same_inputs_other_seed_other_inputs():
    w = workloads.WORKLOADS["optimize-small"]
    a, _ = workloads.build_pool(w, 5, 16)
    b, _ = workloads.build_pool(w, 5, 16)
    c, _ = workloads.build_pool(w, 6, 16)
    assert [x.to_json() for x in a] == [x.to_json() for x in b]
    assert [x.to_json() for x in a] != [x.to_json() for x in c]


def test_c07_seeds_give_the_baseline_node_count():
    """The acceptance test's 100 MILP instances explore 1,768 B&B nodes."""
    tracer = tracing.Tracer()
    solve = workloads.milp.solve_max_cutoff_stable
    for seed in range(100):
        inst = workloads.random_instance(seed, **workloads.OPTIMIZE_SHAPE)
        with tracer.installed(seed):
            tracer.call("milp.solve_max_cutoff_stable", solve, inst, verify=False)
    assert tracer.counts["milp.nodes"] == 1768
    assert len(tracer.lp_rows) == 1768  # one LP per node
    assert workloads.milp.solve_lp is lp.solve_lp  # the rebinding was undone
