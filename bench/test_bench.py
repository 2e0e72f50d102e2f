"""Self-tests of the benchmark harness (not part of the library's suite):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def lib():
    return workloads.load_library(ROOT)


@pytest.fixture
def small_pools(monkeypatch):
    monkeypatch.setattr(workloads, "ENGINE_POOL", 24)
    monkeypatch.setattr(workloads, "HOPF_POOL", 30)


def _same_ops(a, b):
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_operands_follow_the_seed(lib, small_pools, name):
    workload = workloads.WORKLOADS[name]
    first = workload.setup(lib, ROOT, 7).ops
    again = workload.setup(lib, ROOT, 7).ops
    other = workload.setup(lib, ROOT, 8).ops
    assert _same_ops(first, again)
    assert not _same_ops(first, other)


def test_every_golden_command_is_generated(lib):
    commands = workloads.cli_commands(lib, ROOT)
    goldens = workloads.load_goldens()["commands"]
    assert sorted(map(workloads.command_key, commands)) == sorted(goldens)


def test_corrupted_golden_is_a_failure(lib):
    state = workloads.WORKLOADS["cli-corpus"].setup(lib, ROOT, 1)
    command = next(c for c in state.ops if c[1] == "mul")
    assert workloads.WORKLOADS["cli-corpus"].run_op(state, command) is None
    key = workloads.command_key(command)
    state.context["goldens"] = dict(state.context["goldens"])
    state.context["goldens"][key] = dict(state.context["goldens"][key])
    state.context["goldens"][key]["stdout"] += "x"
    assert workloads.WORKLOADS["cli-corpus"].run_op(state, command)


def test_wrong_product_is_a_failure(lib, small_pools, monkeypatch):
    workload = workloads.WORKLOADS["engine-qfunc"]
    state = workload.setup(lib, ROOT, 3)
    cls = lib.ambicore.AmbiElement
    original = cls.__mul__
    monkeypatch.setattr(cls, "__mul__", lambda a, b: original(a, b) + a.algebra.one())
    triples = [op for op in state.ops if op[0] == "triple" and op[2] != op[4]]
    assert triples and all(workload.run_op(state, op) for op in triples)
    raw, rescaled, failures, _, _ = run.timed_window(workload, state, 0.2)
    assert failures
    assert raw.count(math.inf) == rescaled.count(math.inf) == len(failures)


def test_wrong_oracle_is_a_failure(lib, small_pools, monkeypatch):
    workload = workloads.WORKLOADS["hopf-rational"]
    state = workload.setup(lib, ROOT, 3)
    oracle_ops = [op for op in state.ops if op[0] == "oracle"]
    assert all(workload.run_op(state, op) is None for op in oracle_ops)
    monkeypatch.setattr(lib.coradical, "delta_mixed_closed",
                        lambda hopf, m, n: lib.ambicore.Tensor(hopf.algebra, 2, {}))
    assert all(workload.run_op(state, op) for op in oracle_ops)


def test_defect_rows_fail_only_on_the_contract(lib):
    assert workloads.contract_failure(2, "error: bad input\n") is None
    assert workloads.contract_failure(1, "Traceback (most recent call last):\n")
    assert workloads.contract_failure(0, "")
    assert workloads.contract_failure(None, "") == "timed out"


def _slice_counts(name, seed, n_ops, hash_seed):
    code = (
        "import json, run, workloads\n"
        "workloads.ENGINE_POOL = workloads.HOPF_POOL = 200\n"
        f"t, failures, _, _ = run.trace_slice(workloads.WORKLOADS[{name!r}], {seed}, {n_ops})\n"
        "assert not failures, failures\n"
        "print(json.dumps({k: v for k, (v, _) in t.metrics().items() if k.endswith('.calls')}))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name,n_ops", [("hopf-rational", 30), ("cli-corpus", 6),
                                        ("engine-cyclotomic", 12)])
def test_traced_counts_repeat(name, n_ops):
    first = _slice_counts(name, 5, n_ops, hash_seed=1)
    second = _slice_counts(name, 5, n_ops, hash_seed=2)
    assert first == second
    assert sum(first.values()) > 0


def test_tracer_restores_the_library(lib):
    before = vars(lib.ambicore.AmbiElement)["__mul__"]
    trace = tracer.Tracer()
    trace.install(lib)
    assert vars(lib.ambicore.AmbiElement)["__mul__"] is not before
    assert lib.cli.check_main_theorem is not lib.hopfstruct.check_main_theorem.__wrapped__
    trace.uninstall()
    assert vars(lib.ambicore.AmbiElement)["__mul__"] is before
    assert lib.cli.check_main_theorem is lib.hopfstruct.check_main_theorem


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hopf-rational",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
