"""Self-tests of the benchmark.

    python3 -m pytest -q benchmark/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads as wl  # noqa: E402
from cliffgrad import AnsatzCircuit, parse_observable  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generated_inputs_are_deterministic(tmp_path, workload):
    wl.generate(workload, 7, tmp_path / "a")
    wl.generate(workload, 7, tmp_path / "b")
    wl.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    if workload == "expand-wide":  # the other workloads' inputs are fixed on purpose
        assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_wide_instance_spans_two_words():
    ham = parse_observable(wl.wide_hamiltonian(wl.WIDE_QUBITS, 3))
    assert ham.n_qubits > 64 and ham.n_terms == 99


@pytest.fixture
def tiny_expand(tmp_path):
    """A 4-qubit instance expanded by the CLI with every parameter kept."""
    inst = wl.generate_tiny("expand-narrow", tmp_path / "in")[0]
    (cmd,) = wl.commands("expand-narrow", [inst], tmp_path / "out")
    assert run.run_command(cmd)[2] is None
    return inst, cmd, run.load_doc(cmd.out)


def _passes(cmd, doc):
    return [[{"cmd": cmd, "wall": 1.0, "cpu": 1.0, "error": None, "doc": doc}]]


def test_correct_output_passes(tiny_expand):
    inst, cmd, doc = tiny_expand
    assert run.check_outputs([inst], _passes(cmd, doc),
                             np.random.default_rng(0)) == []


def test_perturbed_hessian_entry_is_a_failed_operation(tiny_expand):
    inst, cmd, doc = tiny_expand
    doc["hessian"]["rows"][0][1] += 1e-6
    failures = run.check_outputs([inst], _passes(cmd, doc),
                                 np.random.default_rng(0))
    assert {(p, i) for p, i, _ in failures} == {(0, 0)}


def test_perturbed_diagonal_entry_fails_the_exact_check(tiny_expand):
    inst, _, doc = tiny_expand
    doc["hessian"]["rows"][2][2] += 1e-6
    circ = AnsatzCircuit.deserialize(inst.ansatz.read_text())
    obs = parse_observable(inst.hamiltonian.read_text())
    k = circ.n_params
    fails = checks.check_expand(circ, obs, inst.reference, doc, np.random.default_rng(0),
                                sample=k * (k + 1) // 2, dense=False)
    assert any("A[2,2]" in f for f in fails)


def test_replay_matches_the_command_bit_for_bit(tiny_expand):
    _, cmd, doc = tiny_expand
    replayed = traced.replay(cmd.argv, Tracer("t"))
    assert traced.replay_mismatches(doc, replayed) == []
    replayed["gradient"][0] += 1e-15
    replayed["counters"]["expectation_cache_hits"] += 1
    assert traced.replay_mismatches(doc, replayed) == ["gradient", "counters"]


def test_cli_spans_wrap_the_command_and_restore_the_library(tmp_path):
    from cliffgrad import cli

    inst = wl.generate_tiny("expand-narrow", tmp_path / "in")[0]
    (cmd,) = wl.commands("expand-narrow", [inst], tmp_path / "out")
    original = cli.expand
    tracer = Tracer("t")
    with traced.cli_spans(tracer):
        assert run.run_command(cmd)[2] is None
    assert cli.expand is original
    assert tracer.spans[0].name == "cli.main"
    calls = {s.name for s in tracer.spans if s.parent == 0}
    assert {"call.cliffgrad.cli.expand", "call.ExpansionResult.to_dict"} <= calls
    assert 0.0 < tracer.self_times()["cli.main"] < tracer.spans[0].end - tracer.spans[0].start


def test_self_time_excludes_child_spans():
    t = Tracer("t")
    t.spans = [
        Span("parent", 0.0, 10.0, None, "t"),
        Span("child", 2.0, 4.0, 0, "t"),
        Span("child", 3.0, 6.0, 0, "t"),      # overlaps the first child
        Span("grandchild", 3.5, 4.5, 2, "t"),  # inside a child, not the parent's
        Span("child", 8.0, 9.0, 0, "t"),
    ]
    selfs = t.self_times()
    assert selfs["parent"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs["child"] == pytest.approx(2.0 + (3.0 - 1.0) + 1.0)
    assert selfs["grandchild"] == pytest.approx(1.0)


def test_nested_spans_record_their_parent():
    t = Tracer("run-1")
    with t.span("outer"):
        with t.span("inner"):
            pass
    assert [(s.name, s.parent, s.run_id) for s in t.spans] == [
        ("outer", None, "run-1"), ("inner", 0, "run-1")]
    assert t.spans[0].start <= t.spans[1].start <= t.spans[1].end <= t.spans[0].end


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "expand-narrow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
