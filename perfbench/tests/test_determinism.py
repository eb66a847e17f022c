"""Self-tests of the benchmark: determinism, the failure accounting, and the
refusal to run without the program's source.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

#: small fixed operation counts, so a run costs seconds
OPS = {"query-mix": 12, "compile-mix": 8, "serve-churn": 20}


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(OPS))
def test_same_seed_same_per_layer_counts(workload):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1",
            "--ops", str(OPS[workload])]
    first, second = result_of(bench(*args)), result_of(bench(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _ in layers.PER_LAYER}
    counts = {name: first["metrics"][name]["value"] for name in layers.DETERMINISTIC}
    assert counts == {name: second["metrics"][name]["value"] for name in layers.DETERMINISTIC}
    assert first["metrics"]["trace.coverage"]["value"] >= 0.95


def sabotage(monkeypatch, *, corrupt_check=None, raise_run=None) -> None:
    """Make the n-th timed operation fail: its answer loses one row
    before the check (*corrupt_check*), or its run raises (*raise_run*)."""
    import workloads

    real_op = workloads.Op
    seen = {"run": 0, "check": 0}

    def op(run_fn, check_fn):
        def sabotaged_run():
            seen["run"] += 1
            if seen["run"] == raise_run:
                raise RuntimeError("injected failure")
            return run_fn()

        def sabotaged_check(got):
            seen["check"] += 1
            if seen["check"] == corrupt_check:
                rows = sorted(got, key=repr)
                got = frozenset(rows[1:]) if rows else frozenset({("corrupt",)})
            return check_fn(got)

        return real_op(sabotaged_run, sabotaged_check)

    monkeypatch.setattr(workloads, "Op", op)


def run_in_process(workload, capsys) -> dict:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--ops", "4"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(OPS))
@pytest.mark.parametrize("failure", ["corrupt_check", "raise_run"])
def test_failed_operation_is_counted(workload, failure, monkeypatch, capsys):
    sabotage(monkeypatch, **{failure: 2})
    result = run_in_process(workload, capsys)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the untraced run installed span wrappers")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    assert run.main(["--workload", "serve-churn", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--ops", "3"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_tracer_restores_every_target():
    import importlib

    def current():
        out = []
        for _, module, attr in spans.TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            out.append(getattr(owner, leaf))
        return out

    before = current()
    tracer = spans.Tracer()
    tracer.install()
    assert all(hasattr(fn, "__wrapped__") for fn in current())
    tracer.remove()
    assert current() == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "query-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
