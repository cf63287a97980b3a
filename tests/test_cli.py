import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cliffgrad import AnsatzCircuit, dense, generate_hwe_ansatz, parse_observable
from cliffgrad.cli import main
from cliffgrad.dense import energy

ROOT = Path(__file__).resolve().parents[1]
CHAIN8 = ROOT / "data" / "chain8.txt"
TOY_OBS = "qubits 1\n1.0 X0\n2.0 Z0\n"
TOY_ANSATZ = json.dumps(
    {
        "version": 1,
        "n_qubits": 1,
        "elements": [{"type": "rotation", "axis": "Y", "wire": 0, "param": 0}],
        "metadata": {},
    }
)


@pytest.fixture
def toy(tmp_path):
    ham = tmp_path / "ham.txt"
    ham.write_text(TOY_OBS)
    ans = tmp_path / "ansatz.json"
    ans.write_text(TOY_ANSATZ)
    return ham, ans


def test_missing_input_file_is_exit_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(
        [
            "expand",
            "--hamiltonian", str(tmp_path / "nope.txt"),
            "--ansatz", str(tmp_path / "nope.json"),
            "--reference", "0",
            "--out", str(out),
        ]
    )
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_bad_generation_flags_are_exit_2(tmp_path):
    assert main(["gen-ansatz", "--qubits", "4", "--depth", "0",
                 "--out", str(tmp_path / "a.json")]) == 2
    assert main(["gen-ansatz", "--qubits", "1", "--depth", "2",
                 "--out", str(tmp_path / "a.json")]) == 2


def test_malformed_hamiltonian_is_exit_2(tmp_path, toy, capsys):
    ham = tmp_path / "bad.txt"
    ham.write_text("qubits 1\noops Z0\n")
    rc = main(
        [
            "expand",
            "--hamiltonian", str(ham),
            "--ansatz", str(toy[1]),
            "--reference", "0",
        ]
    )
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_huge_qubit_count_is_exit_2(tmp_path, toy, capsys):
    # it used to end in an OverflowError traceback from packing the rows
    ham = tmp_path / "wide.txt"
    ham.write_text("qubits 99999999999999999999\n1 Z0\n")
    out = tmp_path / "r.json"
    rc = main(["expand", "--hamiltonian", str(ham), "--ansatz", str(toy[1]),
               "--reference", "0", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "line 1" in err
    assert not out.exists()


# Arabic-Indic digits one, zero and three: int() and float() read them,
# the wire format does not
@pytest.mark.parametrize("doc,line", [("qubits \u0661\n1.0 Z0\n", "line 1"),
                                      ("qubits 1\n1.0 Z\u0660\n", "line 2"),
                                      ("qubits 1\n\u0663 Z0\n", "line 2: bad coefficient")])
def test_non_ascii_digits_are_exit_2(tmp_path, toy, capsys, doc, line):
    ham = tmp_path / "digits.txt"
    ham.write_text(doc, encoding="utf-8")
    rc = main(["expand", "--hamiltonian", str(ham), "--ansatz", str(toy[1]),
               "--reference", "0", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert line in capsys.readouterr().err


@pytest.mark.parametrize("kind", ("hamiltonian", "ansatz", "result"))
def test_undecodable_input_file_is_exit_2(tmp_path, toy, capsys, kind):
    ham, ans = toy
    res = tmp_path / "result.json"
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
                 "--reference", "0", "--out", str(res)]) == 0
    # one Latin-1 byte: a comment line, or a JSON string the reader ignores
    path = {"hamiltonian": ham, "ansatz": ans, "result": res}[kind]
    text = path.read_bytes()
    if kind == "hamiltonian":
        path.write_bytes(b"# caf\xe9\n" + text)
    else:
        path.write_bytes(b'{"note": "caf\xe9", ' + text.lstrip()[1:])
    capsys.readouterr()
    rc = main(["verify", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "0", "--result", str(res)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text: ") and err.count("\n") == 1


def test_overflowing_merged_coefficient_is_exit_2(tmp_path, toy, capsys):
    ham = tmp_path / "huge.txt"
    ham.write_text("qubits 1\n1e308 Z0\n0.5 X0\n1e308 Z0\n")
    out = tmp_path / "r.json"
    rc = main(["expand", "--hamiltonian", str(ham), "--ansatz", str(toy[1]),
               "--reference", "0", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 4" in err and "overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("terms", ["1e308 Z0\n1e308 Z1\n", "1e308 Z0\n1e308 X0\n"],
                         ids=["sum-overflows", "entries-overflow"])
def test_overflowing_observable_sum_is_exit_4(tmp_path, capsys, terms):
    n = 2 if "Z1" in terms else 1
    ham = tmp_path / "huge.txt"
    ham.write_text(f"qubits {n}\n{terms}")
    ans = tmp_path / "ansatz.json"
    ans.write_text(json.dumps(json.loads(TOY_ANSATZ) | {"n_qubits": n}))
    out = tmp_path / "r.json"
    rc = main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "0" * n, "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# -2 * (1e308 + 0) overflows a gradient entry; with 6e307 every entry is
# finite and only the candidate's sum |g| overflows
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeff", ["1e308", "6e307"], ids=["entry-overflows", "sum-overflows"])
def test_overflowing_select_gradient_is_exit_4(tmp_path, capsys, coeff):
    ham = tmp_path / "huge.txt"
    ham.write_text(f"qubits 2\n{coeff} X0\n{coeff} X1\n")
    ansatz, report = tmp_path / "a.json", tmp_path / "report.json"
    rc = main(["select-ansatz", "--hamiltonian", str(ham), "--qubits", "2", "--depth", "1",
               "--variant", "real", "--count", "3", "--reference", "00",
               "--out", str(ansatz), "--report-out", str(report)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not ansatz.exists() and not report.exists()


# BFGS used to overflow a gradient entry with numpy and scipy warnings, then
# end in exit 1 when the trace's NaN could not be written
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("init", ("zero", "pert-hessian"))
def test_overflowing_optimize_gradient_is_exit_4(tmp_path, capsys, init):
    ham, ansatz = tmp_path / "huge.txt", tmp_path / "a.json"
    ham.write_text(CHAIN8.read_text().replace("0.094217 X0 X1\n", "0.091e309 X0 X1\n", 1))
    files = ["--ansatz", str(ansatz), "--reference", "01010101"]
    assert main(["gen-ansatz", "--qubits", "8", "--depth", "1", "--variant", "real",
                 "--out", str(ansatz)]) == 0
    res, trace = tmp_path / "r.json", tmp_path / "trace.json"
    assert main(["expand", "--hamiltonian", str(CHAIN8), *files, "--out", str(res)]) == 0
    capsys.readouterr()
    rc = main(["optimize", "--hamiltonian", str(ham), *files, "--init", init,
               "--result", str(res), "--trace-out", str(trace)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err
    assert not trace.exists()


# every sweep is finite, but scipy's line search used to overflow its dot
# products with 13 numpy and scipy warnings before writing the trace
@pytest.mark.filterwarnings("error")
def test_huge_finite_coefficient_optimizes_silently(tmp_path, capsys):
    ham, ansatz = tmp_path / "huge.txt", tmp_path / "a.json"
    ham.write_text(CHAIN8.read_text().replace("0.094217 X0 X1\n", "1e200 X0 X1\n", 1))
    assert main(["gen-ansatz", "--qubits", "8", "--depth", "2", "--seed", "3",
                 "--variant", "real", "--out", str(ansatz)]) == 0
    capsys.readouterr()
    trace = tmp_path / "trace.json"
    rc = main(["optimize", "--hamiltonian", str(ham), "--ansatz", str(ansatz),
               "--reference", "01010101", "--init", "zero", "--trace-out", str(trace)])
    assert rc == 0 and capsys.readouterr().err == ""
    doc = json.loads(trace.read_text())
    assert not doc["converged"] and math.isfinite(doc["final_cost"])


# g and A are finite, but theta* = -pinv(A) g is not small where A's curvature
# is, and the model optimum used to overflow with numpy warnings, then exit 1
@pytest.mark.filterwarnings("error")
def test_overflowing_model_optimum_is_exit_4(tmp_path, capsys):
    ham, ansatz, out = tmp_path / "huge.txt", tmp_path / "a.json", tmp_path / "r.json"
    ham.write_text(CHAIN8.read_text().replace("0.094217 X0 X1\n", "1e200 X0 X1\n", 1))
    assert main(["gen-ansatz", "--qubits", "8", "--depth", "1", "--variant", "real",
                 "--out", str(ansatz)]) == 0
    capsys.readouterr()
    rc = main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ansatz),
               "--reference", "01010101", "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "optimum" in err
    assert not out.exists()


def _warm_start_files(tmp_path):
    """A depth-1 real ansatz on chain8 and its expand result."""
    ansatz, res = tmp_path / "a.json", tmp_path / "r.json"
    files = ["--hamiltonian", str(CHAIN8), "--ansatz", str(ansatz), "--reference", "01010101"]
    assert main(["gen-ansatz", "--qubits", "8", "--depth", "1", "--variant", "real",
                 "--out", str(ansatz)]) == 0
    assert main(["expand", *files, "--out", str(res)]) == 0
    return files, res


# a Hessian entry of 1e21 made the warm start's inverse too ill-conditioned
# for scipy's Cholesky check, whose ValueError escaped as a traceback
@pytest.mark.filterwarnings("error")
def test_warm_start_of_a_stiff_hessian_optimizes(tmp_path, capsys):
    files, res = _warm_start_files(tmp_path)
    doc = json.loads(res.read_text())
    doc["hessian"]["rows"][7][4] = doc["hessian"]["rows"][4][7] = 1e21
    res.write_text(json.dumps(doc))
    capsys.readouterr()
    trace = tmp_path / "trace.json"
    rc = main(["optimize", *files, "--init", "pert-hessian", "--result", str(res),
               "--trace-out", str(trace)])
    assert rc == 0 and capsys.readouterr().err == ""
    assert json.loads(trace.read_text())["n_iterations"] > 0


# LAPACK fails to converge on some Hessians with entries near 1e300; its
# LinAlgError escaped the warm start as a traceback
def test_warm_start_eigensolve_failure_is_exit_4(tmp_path, capsys, monkeypatch):
    files, res = _warm_start_files(tmp_path)

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    capsys.readouterr()
    trace = tmp_path / "trace.json"
    rc = main(["optimize", *files, "--init", "pert-hessian", "--result", str(res),
               "--trace-out", str(trace)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "did not converge" in err
    assert not trace.exists()


# the norm of theta* used to print numpy's overflow warning first, and the
# message used to name JSON ("Out of range float values are not JSON
# compliant: inf"), not the key that held the value
@pytest.mark.filterwarnings("error")
def test_verify_of_an_overflowing_theta_norm_is_exit_1(tmp_path, toy, capsys):
    ham, ans = toy
    res, out = tmp_path / "result.json", tmp_path / "verify.json"
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
                 "--reference", "0", "--out", str(res)]) == 0
    doc = json.loads(res.read_text())
    res.write_text(json.dumps(doc | {"theta_star": [1e200]}))
    capsys.readouterr()
    rc = main(["verify", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "0", "--result", str(res), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == ("error: output document not written: theta_star_norm "
                                       "is inf, which strict JSON cannot hold\n")
    assert not out.exists()


ROTATION = {"type": "rotation", "axis": "Y", "wire": 0, "param": 0}
C1 = {"type": "clifford", "kind": "C1", "wires": [0], "index": 3}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"version": True}, "unsupported ansatz schema version True"),
        ({"elements": 5}, "elements must be a list"),
        ({"metadata": 5}, "metadata an object"),
        ({"n_qubits": 1.5}, "n_qubits must be an integer"),
        ({"n_params": "1"}, "n_params must be an integer"),
        ({"elements": [ROTATION | {"wire": 0.9}]}, "wire must be an integer"),
        ({"elements": [ROTATION | {"param": "0"}]}, "param must be an integer"),
        ({"elements": [{"type": "clifford", "kind": "H", "wires": [0.7]}, ROTATION]},
         "wire must be an integer"),
        ({"elements": [C1 | {"index": 3.5}, ROTATION]}, "index must be an integer"),
        ({"elements": [C1 | {"index": True}, ROTATION]}, "index must be an integer"),
    ],
    ids=["bool-version", "elements-not-list", "metadata-not-object", "float-n_qubits", "string-n_params",
         "float-wire", "string-param", "float-wires-entry", "float-index", "bool-index"],
)
def test_malformed_ansatz_is_exit_2(tmp_path, toy, capsys, change, message):
    ham, _ = toy
    ans = tmp_path / "bad.json"
    ans.write_text(json.dumps(json.loads(TOY_ANSATZ) | change))
    out = tmp_path / "r.json"
    rc = main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "0", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_gen_ansatz_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["gen-ansatz", "--qubits", "4", "--depth", "2",
                     "--seed", "9", "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()


def test_expand_toy_values(tmp_path, toy):
    ham, ans = toy
    out = tmp_path / "result.json"
    rc = main(
        [
            "expand",
            "--hamiltonian", str(ham),
            "--ansatz", str(ans),
            "--reference", "0",
            "--dropout-threshold", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["e0"] == pytest.approx(2.0)
    assert doc["gradient"] == pytest.approx([-2.0])
    assert doc["hessian"]["rows"] == [[-8.0]]
    assert doc["theta_star"] == pytest.approx([-0.25])
    assert doc["perturbative_optimum"] == pytest.approx(2.25)
    assert doc["tool_version"] and len(doc["inputs"]["hamiltonian"]) == 64


def test_expand_all_dropped_warns(tmp_path, toy):
    ham, ans = toy
    out = tmp_path / "result.json"
    rc = main(
        [
            "expand",
            "--hamiltonian", str(ham),
            "--ansatz", str(ans),
            "--reference", "0",
            "--dropout-threshold", "1e9",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["warnings"]
    assert doc["theta_star"] == [0.0]
    assert doc["perturbative_optimum"] == doc["e0"]


@pytest.mark.parametrize("threshold, model", [
    # the toy model: g = -2 and A = [[-8]], one retained negative direction
    ("0", {"max_abs_gradient": 2.0, "stationary_point": False, "negative_curvature": 1,
           "discarded_by_rtol": 0, "condition_number": 1.0}),
    # all dropped: nothing is inverted, and strict JSON writes the ratio as null
    ("1e9", {"max_abs_gradient": 2.0, "stationary_point": False, "negative_curvature": 0,
             "discarded_by_rtol": 0, "condition_number": None}),
], ids=["toy", "all-dropped"])
def test_expand_model_block(tmp_path, toy, threshold, model):
    ham, ans = toy
    out = tmp_path / "result.json"
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans), "--reference", "0",
                 "--dropout-threshold", threshold, "--out", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert doc["model"] == model and "max_abs_gradient" not in doc["counters"]
    assert ('"condition_number": null' in text) == (model["condition_number"] is None)


def test_verify_zero_theta_gap_is_zero(tmp_path, toy):
    ham, ans = toy
    res = tmp_path / "result.json"
    # stationary case: Z-only observable gives zero gradient for a Y rotation
    zham = tmp_path / "zham.txt"
    zham.write_text("qubits 1\n1.0 Z0\n")
    assert main(["expand", "--hamiltonian", str(zham), "--ansatz", str(ans),
                 "--reference", "0", "--out", str(res)]) == 0
    out = tmp_path / "verify.json"
    rc = main(
        [
            "verify",
            "--hamiltonian", str(zham),
            "--ansatz", str(ans),
            "--reference", "0",
            "--result", str(res),
            "--exact-ground",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["theta_star_norm"] == 0.0
    assert doc["gap"] == pytest.approx(0.0, abs=1e-12)
    assert doc["circuit_value"] == pytest.approx(doc["e0"])
    assert doc["exact_ground_energy"] == pytest.approx(-1.0)


def write_two_parameter_result(tmp_path, ham):
    """Expand a 2-rotation ansatz on the toy Hamiltonian; the toy ansatz has 1."""
    ans = tmp_path / "ansatz2.json"
    doc = json.loads(TOY_ANSATZ)
    doc["elements"].append({"type": "rotation", "axis": "X", "wire": 0, "param": 1})
    ans.write_text(json.dumps(doc))
    res = tmp_path / "result.json"
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
                 "--reference", "0", "--out", str(res)]) == 0
    return res


def test_verify_rejects_mismatched_result(tmp_path, toy, capsys):
    ham, ans = toy
    res = write_two_parameter_result(tmp_path, ham)
    capsys.readouterr()
    rc = main(["verify", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "0", "--result", str(res)])
    assert rc == 2
    assert "result has 2 parameters, ansatz has 1" in capsys.readouterr().err


@pytest.mark.parametrize("init", ("pert", "pert-hessian"))
def test_optimize_rejects_mismatched_result(tmp_path, toy, capsys, init):
    ham, ans = toy
    res = write_two_parameter_result(tmp_path, ham)
    capsys.readouterr()
    rc = main(["optimize", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "0", "--result", str(res), "--init", init])
    assert rc == 2
    assert "result has 2 parameters, ansatz has 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("verify", "optimize"))
def test_result_of_another_width_is_exit_2(tmp_path, capsys, command):
    # a 6-qubit depth-1 and a 2-qubit depth-4 real ansatz both have K = 18
    files = {}
    for n, depth in ((6, 1), (2, 4)):
        ham, ans = tmp_path / f"ham{n}.txt", tmp_path / f"ansatz{n}.json"
        ham.write_text(f"qubits {n}\n" + "".join(f"0.5 X{q}\n-1.0 Z{q}\n" for q in range(n)))
        assert main(["gen-ansatz", "--qubits", str(n), "--depth", str(depth),
                     "--variant", "real", "--out", str(ans)]) == 0
        files[n] = ["--hamiltonian", str(ham), "--ansatz", str(ans), "--reference", "0" * n]
    res = tmp_path / "result2.json"
    assert main(["expand", *files[2], "--out", str(res)]) == 0
    capsys.readouterr()
    extra = ["--init", "pert-hessian"] if command == "optimize" else []
    rc = main([command, *files[6], "--result", str(res), *extra])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and "result is on 2 qubits, ansatz on 6" in err


@pytest.mark.parametrize(
    "field, value",
    [("hessian", 5), ("theta_star", [float("nan")]), ("counters", {"n_qubits": True})],
    ids=["hessian-int", "theta_star-nan", "n_qubits-bool"],
)
def test_verify_rejects_malformed_result(tmp_path, toy, capsys, field, value):
    ham, ans = toy
    res = tmp_path / "result.json"
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
                 "--reference", "0", "--out", str(res)]) == 0
    doc = json.loads(res.read_text())
    doc[field] = value
    res.write_text(json.dumps(doc))  # writes NaN as the non-standard token NaN
    capsys.readouterr()
    rc = main(["verify", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "0", "--result", str(res)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "" and "invalid result document" in err


def test_verify_cap_is_exit_5(tmp_path, capsys):
    # a 2-qubit instance under the smallest cap, 1; a cap below 1 is exit 2
    ham = tmp_path / "ham.txt"
    ham.write_text("qubits 2\n1.0 X0 X1\n2.0 Z0\n")
    ans = tmp_path / "ansatz.json"
    res = tmp_path / "result.json"
    assert main(["gen-ansatz", "--qubits", "2", "--depth", "1", "--out", str(ans)]) == 0
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
                 "--reference", "00", "--out", str(res)]) == 0
    rc = main(["verify", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "00", "--result", str(res), "--cap", "1"])
    assert rc == 5
    assert "exceeds the cap of 1" in capsys.readouterr().err


def test_reference_validation(tmp_path, toy):
    ham, ans = toy
    rc = main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "01"])
    assert rc == 2


def test_optimize_warm_modes_require_result(toy):
    ham, ans = toy
    rc = main(["optimize", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "0", "--init", "pert"])
    assert rc == 2


def test_optimize_trace_document(tmp_path, toy):
    ham, ans = toy
    res = tmp_path / "result.json"
    trace = tmp_path / "trace.json"
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
                 "--reference", "0", "--out", str(res)]) == 0
    rc = main(
        [
            "optimize",
            "--hamiltonian", str(ham),
            "--ansatz", str(ans),
            "--reference", "0",
            "--result", str(res),
            "--init", "pert-hessian",
            "--trace-out", str(trace),
        ]
    )
    assert rc == 0
    doc = json.loads(trace.read_text())
    assert doc["converged"]
    assert doc["final_cost"] == pytest.approx(-np.sqrt(5.0), abs=1e-6)
    assert doc["init"] == "theta_star_with_hessian"


@pytest.mark.parametrize("init", ("zero", "pert", "pert-hessian"))
def test_optimize_zero_parameter_ansatz(tmp_path, toy, init):
    ham, _ = toy
    ans = tmp_path / "clifford_only.json"
    ans.write_text(json.dumps({"version": 1, "n_qubits": 1, "metadata": {},
                               "elements": [{"type": "clifford", "kind": "H", "wires": [0]}]}))
    res = tmp_path / "result.json"
    trace = tmp_path / "trace.json"
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
                 "--reference", "0", "--out", str(res)]) == 0
    rc = main(["optimize", "--hamiltonian", str(ham), "--ansatz", str(ans),
               "--reference", "0", "--result", str(res), "--init", init,
               "--trace-out", str(trace)])
    assert rc == 0
    doc = json.loads(trace.read_text())
    # H|0> = |+>: <X> = 1, <Z> = 0, read exactly in the input frame
    assert doc["iterations"] == [{"iteration": 0, "cost": 1.0, "grad_norm": 0.0}]
    assert doc["final_cost"] == 1.0
    assert doc["n_iterations"] == 0 and doc["converged"]
    # the gate-by-gate oracle agrees to rounding
    circ = AnsatzCircuit.from_dict(json.loads(ans.read_text()))
    assert energy(circ, [], "0", parse_observable(ham.read_text())) == pytest.approx(1.0)


def test_select_ansatz_report(tmp_path):
    ham = tmp_path / "ham.txt"
    ham.write_text("qubits 4\n-1.0 Z0 Z1\n-1.0 Z2 Z3\n-0.7 X0\n-0.7 X1\n-0.7 X2\n-0.7 X3\n")
    out = tmp_path / "best.json"
    report = tmp_path / "report.json"
    rc = main(
        [
            "select-ansatz",
            "--qubits", "4",
            "--depth", "1",
            "--count", "3",
            "--seed", "7",
            "--hamiltonian", str(ham),
            "--reference", "0000",
            "--out", str(out),
            "--report-out", str(report),
        ]
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert len(doc["candidates"]) == 3
    sums = [c["seed_sum_abs_gradient"] for c in doc["candidates"]]
    assert doc["winner_sum_abs_gradient"] == max(sums)
    assert sums[doc["winner_index"]] == max(sums)
    assert out.is_file()
    assert set(doc["timings"]) == {"generate_s", "sweep_s", "gradient_s"}
    assert all(t >= 0 for t in doc["timings"].values())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--result", "{res}", "--cap", "0", "--out", "{out}"],
        ["optimize", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--cap", "-1", "--trace-out", "{out}"],
        ["expand", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--dropout-threshold", "-1", "--out", "{out}"],
        ["expand", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--dropout-threshold", "nan", "--out", "{out}"],
        ["expand", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--rtol", "nan", "--out", "{out}"],
        ["optimize", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--gtol", "nan", "--trace-out", "{out}"],
        ["expand", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--dropout-threshold", "inf", "--out", "{out}"],
        ["expand", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--rtol", "inf", "--out", "{out}"],
        ["optimize", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--gtol", "inf", "--trace-out", "{out}"],
        ["optimize", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--max-iters", "-1", "--trace-out", "{out}"],
        ["gen-ansatz", "--qubits", "2", "--depth", "1", "--seed", "-1", "--out", "{out}"],
        ["select-ansatz", "--qubits", "8", "--depth", "1", "--count", "2", "--seed", "-1",
         "--hamiltonian", str(CHAIN8), "--reference", "01010101", "--out", "{out}"],
    ],
    ids=["verify-zero-cap", "optimize-negative-cap", "expand-negative-dropout",
         "expand-nan-dropout", "expand-nan-rtol", "optimize-nan-gtol", "expand-inf-dropout",
         "expand-inf-rtol", "optimize-inf-gtol", "optimize-negative-max-iters",
         "gen-ansatz-negative-seed", "select-ansatz-negative-seed"],
)
def test_malformed_numeric_input_is_exit_2(tmp_path, toy, capsys, argv):
    ham, ans = toy
    res = tmp_path / "result.json"
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
                 "--reference", "0", "--out", str(res)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main([a.format(ham=ham, ans=ans, res=res, out=out) for a in argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--hamiltonian", "{ham2}", "--ansatz", "{ans}", "--reference", "0",
         "--out", "{out}"],
        ["verify", "--hamiltonian", "{ham2}", "--ansatz", "{ans}", "--reference", "0",
         "--result", "{res}", "--out", "{out}"],
        ["optimize", "--hamiltonian", "{ham2}", "--ansatz", "{ans}", "--reference", "0",
         "--trace-out", "{out}"],
        ["select-ansatz", "--qubits", "2", "--depth", "1", "--hamiltonian", "{ham}",
         "--reference", "00", "--out", "{out}", "--report-out", "{out}.report"],
        ["verify", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "01",
         "--result", "{res}", "--out", "{out}"],
        ["verify", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "2",
         "--result", "{res}", "--out", "{out}"],
        ["optimize", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "01",
         "--trace-out", "{out}"],
        ["optimize", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "x",
         "--trace-out", "{out}"],
        ["optimize", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--result", "{res}.missing", "--trace-out", "{out}"],
        # {out} is never created, so {out}/... lies in a missing directory
        ["expand", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--out", "{out}/r.json"],
        ["expand", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--out", "{tmp}"],
        ["verify", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--result", "{res}", "--out", "{out}/r.json"],
        ["optimize", "--hamiltonian", "{ham}", "--ansatz", "{ans}", "--reference", "0",
         "--trace-out", "{out}/t.json"],
        ["gen-ansatz", "--qubits", "2", "--depth", "1", "--out", "{out}/a.json"],
        ["select-ansatz", "--qubits", "2", "--depth", "1", "--count", "2",
         "--hamiltonian", "{ham}", "--reference", "00", "--out", "{out}",
         "--report-out", "{out}.report/r.json"],
    ],
    ids=["expand-width", "verify-width", "optimize-width", "select-ansatz-width",
         "verify-reference-length", "verify-reference-letter", "optimize-reference-length",
         "optimize-reference-letter", "optimize-zero-missing-result",
         "expand-out-missing-dir", "expand-out-is-dir", "verify-out-missing-dir",
         "optimize-trace-out-missing-dir", "gen-ansatz-out-missing-dir",
         "select-ansatz-report-out-missing-dir"],
)
def test_mismatched_input_is_exit_2(tmp_path, toy, capsys, argv):
    ham, ans = toy
    ham2 = tmp_path / "ham2.txt"
    ham2.write_text("qubits 2\n1.0 X0\n1.0 Z1\n")
    res = tmp_path / "result.json"
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
                 "--reference", "0", "--out", str(res)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    before = sorted(tmp_path.iterdir())
    rc = main([a.format(ham=ham, ham2=ham2, ans=ans, res=res, out=out, tmp=tmp_path)
               for a in argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() and not Path(f"{out}.report").exists()
    assert sorted(tmp_path.iterdir()) == before


# A 300-character file name is longer than the OS allows (255 on common
# file systems), so Path.is_file / is_dir raise OSError instead of answering
@pytest.mark.parametrize("flag", ("hamiltonian", "ansatz", "result", "out", "report-out",
                                  "trace-out"))
def test_over_long_path_is_exit_2(tmp_path, toy, capsys, flag):
    ham, ans = toy
    res, out = tmp_path / "result.json", tmp_path / "out"
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ans),
                 "--reference", "0", "--out", str(res)]) == 0
    capsys.readouterr()
    paths = {"hamiltonian": ham, "ansatz": ans, "result": res, "out": out,
             "report-out": out, "trace-out": out, flag: tmp_path / ("a" * 300)}
    files = ["--hamiltonian", str(paths["hamiltonian"]), "--ansatz", str(paths["ansatz"]),
             "--reference", "0"]
    argv = {
        "report-out": ["select-ansatz", "--qubits", "1", "--depth", "1", "--count", "2",
                       "--hamiltonian", str(ham), "--reference", "0", "--out", str(out) + ".a",
                       "--report-out", str(paths["report-out"])],
        "trace-out": ["optimize", *files, "--init", "zero", "--trace-out",
                      str(paths["trace-out"])],
    }.get(flag, ["verify", *files, "--result", str(paths["result"]), "--out",
                 str(paths["out"])])
    before = sorted(tmp_path.iterdir())
    rc = main(argv)
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "too long" in err
    assert sorted(tmp_path.iterdir()) == before


def test_verify_exact_ground_is_reproducible(tmp_path):
    ans = tmp_path / "ansatz.json"
    res = tmp_path / "result.json"
    assert main(["gen-ansatz", "--qubits", "8", "--depth", "1", "--variant", "real",
                 "--out", str(ans)]) == 0
    assert main(["expand", "--hamiltonian", str(CHAIN8), "--ansatz", str(ans),
                 "--reference", "01010101", "--out", str(res)]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    values = []
    # each process runs Lanczos afresh from its seeded start vector
    for k in range(2):
        out = tmp_path / f"verify{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "cliffgrad.cli", "verify", "--hamiltonian", str(CHAIN8),
             "--ansatz", str(ans), "--reference", "01010101", "--result", str(res),
             "--exact-ground", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        values.append(json.loads(out.read_text())["exact_ground_energy"])
    assert values[0] == values[1]


def test_verify_lanczos_failure_is_exit_4(tmp_path, capsys, monkeypatch):
    files, res = _warm_start_files(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr(dense, "_LANCZOS_STEPS", 1)
    out = tmp_path / "verify.json"
    rc = main(["verify", *files, "--result", str(res), "--exact-ground", "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 4
    assert stdout == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Lanczos" in err and not out.exists()


def test_optimize_loads_no_scipy(tmp_path):
    # one fresh interpreter runs the whole README flow on chain8
    ansatz, res = tmp_path / "a.json", tmp_path / "r.json"
    files = ["--hamiltonian", str(CHAIN8), "--ansatz", str(ansatz), "--reference", "01010101"]
    inits = ("zero", "pert-hessian")
    runs = [
        ["select-ansatz", "--qubits", "8", "--depth", "2", "--variant", "real", "--count", "8",
         "--seed", "5", "--hamiltonian", str(CHAIN8), "--reference", "01010101",
         "--out", str(ansatz)],
        ["expand", *files, "--out", str(res)],
        ["verify", *files, "--result", str(res), "--exact-ground",
         "--out", str(tmp_path / "verify.json")],
        *(["optimize", *files, "--init", init, "--result", str(res),
           "--trace-out", str(tmp_path / f"{init}.json")] for init in inits),
    ]
    code = ("import sys\nfrom cliffgrad.cli import main\n"
            f"assert [main(argv) for argv in {runs!r}] == [0] * {len(runs)}\n"
            "print([m for m in sys.modules if m.startswith('scipy')])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"  # after select-ansatz's report
    assert math.isfinite(json.loads((tmp_path / "verify.json").read_text())["exact_ground_energy"])
    assert all(json.loads((tmp_path / f"{init}.json").read_text())["converged"] for init in inits)


def test_importing_the_cli_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, cliffgrad.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# json.loads raises RecursionError, not a JSONDecodeError, on deep nesting;
# it used to escape main as a traceback and exit 1
@pytest.mark.parametrize("flag", ("ansatz", "verify-result", "optimize-result"))
def test_deeply_nested_json_is_exit_2(tmp_path, capsys, flag):
    files, res = _warm_start_files(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    if flag == "ansatz":
        files[files.index("--ansatz") + 1] = str(deep)
    out = tmp_path / "out.json"
    capsys.readouterr()
    argv = {
        "ansatz": ["expand", *files, "--out", str(out)],
        "verify-result": ["verify", *files, "--result", str(deep), "--out", str(out)],
        "optimize-result": ["optimize", *files, "--init", "pert", "--result", str(deep),
                            "--trace-out", str(out)],
    }[flag]
    rc = main(argv)
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == ""
    assert err.startswith(f"error: {deep}: ") and err.count("\n") == 1 and "recursion" in err
    assert not out.exists()


def test_dense_operator_that_cannot_be_allocated_is_exit_5(tmp_path):
    # 4000 Jordan-Wigner-like lines on 16 qubits have 1340 distinct X parts,
    # so the dense operator's weights take 1.31 GiB; the child's address
    # space is limited to 1 GiB. Without such a limit, whether the
    # allocation fails at once depends on the kernel's memory overcommit.
    resource = pytest.importorskip("resource")
    from bench_layers import _jw_document

    n = 16
    ham, ans, res = tmp_path / "ham.txt", tmp_path / "a.json", tmp_path / "r.json"
    ham.write_text(_jw_document(n, 4000, n))
    ans.write_text(generate_hwe_ansatz(n, 1, 3, "real").serialize())
    files = ["--hamiltonian", str(ham), "--ansatz", str(ans), "--reference", "0" * n]
    # every gradient entry is dropped, so expand skips the Hessian
    assert main(["expand", *files, "--dropout-threshold", "1e300", "--out", str(res)]) == 0
    outs = [tmp_path / "t.json", tmp_path / "v.json"]
    runs = [["optimize", *files, "--init", "zero", "--trace-out", str(outs[0])],
            ["verify", *files, "--result", str(res), "--out", str(outs[1])]]
    code = ("import sys\nfrom cliffgrad.cli import main\n"
            f"for argv in {runs!r}:\n    print(main(argv), file=sys.stderr)\n")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=limit)
    assert proc.returncode == 0 and proc.stdout == "", proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 4, proc.stderr
    for error, rc in zip(lines[::2], lines[1::2]):
        assert rc == "5" and error.startswith("error: ") and "allocate" in error, proc.stderr
        assert "(1340, 65536)" in error, proc.stderr
    assert not any(out.exists() for out in outs)


def test_dense_operator_is_built_before_any_statevector_work(tmp_path, monkeypatch):
    # verify and optimize size the operator first: when it cannot be
    # allocated, neither builds a gather table nor sweeps a state
    n = 4
    ham, ans, res = tmp_path / "ham.txt", tmp_path / "a.json", tmp_path / "r.json"
    ham.write_text("qubits 4\n1.0 X0 X1\n0.5 Z2 Z3\n-0.3 Y1 Y2\n")
    ans.write_text(generate_hwe_ansatz(n, 1, 3, "real").serialize())
    files = ["--hamiltonian", str(ham), "--ansatz", str(ans), "--reference", "0101"]
    assert main(["expand", *files, "--out", str(res)]) == 0
    calls = []

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate the dense operator")

    def record(name):
        real = getattr(dense, name)
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(dense, "_operator", refuse)
    for name in ("_actions", "_forward"):
        monkeypatch.setattr(dense, name, record(name))
    out = tmp_path / "out.json"
    for argv in (["verify", *files, "--result", str(res), "--out", str(out)],
                 ["optimize", *files, "--init", "zero", "--trace-out", str(out)]):
        assert main(argv) == 5
        assert calls == [] and not out.exists(), argv[0]
