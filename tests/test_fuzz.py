"""Seeded input fuzzing of the commands that read files.

The chain8 Hamiltonian, a generated ansatz and an expand result are mutated
token by token, and expand, verify or optimize runs in process on the
mutated file. A second test also runs select-ansatz on a mutated
Hamiltonian, mutates the values of every numeric flag, and draws from a
larger token list that adds JSON nested 100,000 deep and a line of a
million characters. Whatever the input, a command must end in a documented
exit code (cli.py): on success with nothing on stderr, on failure with
exactly one ``error:`` line and no output file. Any warning is an error
here, and so is any exception that escapes main.

The seeds and the example budgets are fixed, so every tier-1 run replays
the same inputs; a failure names the run, its document and its command.
"""

import random
import re
from pathlib import Path

import pytest

from cliffgrad.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = "01010101"
EXIT_CODES = {0, 1, 2, 4, 5}
SEED, BUDGET = 2027, 3000

# nan and overflow spellings, signs, a huge integer, a finite huge
# coefficient, small integers that are valid wires, gate indices or
# parameters, control and separator characters, a no-break space,
# Arabic-Indic digits and JSON literals
TOKENS = [
    "nan", "NaN", "inf", "Infinity", "-Infinity", "1e309", "-1", "1e200", "2.5",
    "99999999999999999999", "0", "1", "7", "8", "23", "24",
    "\x00", "\x1c", "\x85", "\u00a0", "\u0663", "\u0660",
    "null", "true", "false", "[]", "{}", '""', "X9", "Q0",
]

# numbers, words and Pauli tokens; everything between them is kept as it is
ATOM = re.compile(r"[A-Za-z0-9_.+\-]+")


def mutate(text: str, rng: random.Random, tokens=TOKENS) -> str:
    """text with one to three atoms replaced, deleted, split or preceded by a
    token; fewer when no atom is left."""
    for _ in range(rng.randint(1, 3)):
        atoms = list(ATOM.finditer(text))
        if not atoms:
            break
        m = rng.choice(atoms)
        token, op = rng.choice(tokens), rng.randrange(4)
        if op == 0:
            new = token
        elif op == 1:
            new = ""
        elif op == 2:
            cut = rng.randint(0, len(m.group()))
            new = m.group()[:cut] + token + m.group()[cut:]
        else:
            new = f"{token} {m.group()}"
        text = text[: m.start()] + new + text[m.end():]
    return text


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The unmutated Hamiltonian, depth-1 real ansatz and expand result, as text."""
    d = tmp_path_factory.mktemp("fuzz-inputs")
    ham, ansatz, result = d / "ham.txt", d / "ansatz.json", d / "result.json"
    ham.write_text((ROOT / "data" / "chain8.txt").read_text())
    assert main(["gen-ansatz", "--qubits", "8", "--depth", "1", "--variant", "real",
                 "--out", str(ansatz)]) == 0
    assert main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ansatz),
                 "--reference", REFERENCE, "--out", str(result)]) == 0
    return {"hamiltonian": ham.read_text(), "ansatz": ansatz.read_text(),
            "result": result.read_text()}


def command(kind: str, files: dict, out: Path, rng: random.Random) -> list:
    """A command that reads the mutated document: a result is read only by
    verify and by optimize's warm starts."""
    name = rng.choice(["verify", "optimize"] if kind == "result" else
                      ["expand", "verify", "optimize"])
    common = ["--hamiltonian", str(files["hamiltonian"]), "--ansatz", str(files["ansatz"]),
              "--reference", REFERENCE]
    if name == "expand":
        return ["expand", *common, "--out", str(out)]
    if name == "verify":
        return ["verify", *common, "--result", str(files["result"]), "--out", str(out)]
    init = rng.choice(["pert", "pert-hessian"] if kind == "result" else
                      ["zero", "pert", "pert-hessian"])
    return ["optimize", *common, "--init", init, "--result", str(files["result"]),
            "--trace-out", str(out)]


@pytest.mark.filterwarnings("error")
def test_mutated_inputs_end_in_a_documented_exit(inputs, tmp_path, capsys):
    rng = random.Random(SEED)
    files, out = {k: tmp_path / f"{k}.in" for k in inputs}, tmp_path / "out.json"
    seen = set()
    for run in range(BUDGET):
        kind = rng.choice(sorted(inputs))
        for k, text in inputs.items():
            files[k].write_text(mutate(text, rng) if k == kind else text, encoding="utf-8")
        argv = command(kind, files, out, rng)
        capsys.readouterr()
        try:
            rc = main(argv)
        except Exception as exc:  # a warning, turned into an error, included
            pytest.fail(f"run {run}: {argv[0]} on a mutated {kind} raised {exc!r}")
        err = capsys.readouterr().err
        where = f"run {run}: {argv[0]} on a mutated {kind}, exit {rc}, stderr {err!r}"
        assert rc in EXIT_CODES, where
        if rc == 0:
            assert err == "" and out.exists(), where
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, where
            assert not out.exists(), where
        seen.add(rc)
        out.unlink(missing_ok=True)
    # the budget reaches both a success and an input error
    assert {0, 2} <= seen


SECOND_SEED, SECOND_BUDGET = 2031, 2000
# JSON nested 100,000 deep, which json.loads refuses with a RecursionError,
# and a line of a million characters
SECOND_TOKENS = TOKENS + ["[" * 100_000 + "]" * 100_000, "x" * 1_000_000]

# each command's numeric flags and the values the runs mutate
FLAGS = {
    "select-ansatz": {"--qubits": "8", "--depth": "1", "--count": "4", "--seed": "5"},
    "expand": {"--dropout-threshold": "1e-6", "--rtol": "1e-10"},
    "verify": {"--cap": "20"},
    "optimize": {"--gtol": "1e-6", "--max-iters": "100", "--cap": "20"},
}
# the largest value an integer flag keeps (argparse reads it with int), so
# that no run can allocate much or run long
BOUNDS = {"--qubits": 16, "--depth": 3, "--count": 16, "--max-iters": 100}


def bounded(flag: str, value: str) -> str:
    try:
        too_large = int(value) > BOUNDS.get(flag, float("inf"))
    except ValueError:
        return value
    return str(BOUNDS[flag]) if too_large else value


def flag_command(name: str, files: dict, outs: list, rng: random.Random, mutated: bool) -> list:
    """`name` on the files with its numeric flags, one or more of them
    mutated (or replaced by a token) when `mutated`."""
    flags = dict(FLAGS[name])
    if mutated:
        for flag in rng.sample(sorted(flags), rng.randint(1, len(flags))):
            value = (mutate(flags[flag], rng, SECOND_TOKENS) if rng.random() < 0.5
                     else rng.choice(SECOND_TOKENS))
            flags[flag] = bounded(flag, value)
    numeric = [arg for item in flags.items() for arg in item]
    ham = ["--hamiltonian", str(files["hamiltonian"]), "--reference", REFERENCE]
    common = [*ham, "--ansatz", str(files["ansatz"]), *numeric]
    if name == "select-ansatz":
        return ["select-ansatz", *numeric, "--variant", "real", *ham, "--out", str(outs[0]),
                "--report-out", str(outs[1])]
    if name == "expand":
        return ["expand", *common, "--out", str(outs[0])]
    if name == "verify":
        return ["verify", *common, "--result", str(files["result"]), "--out", str(outs[0])]
    return ["optimize", *common, "--init", rng.choice(["zero", "pert", "pert-hessian"]),
            "--result", str(files["result"]), "--trace-out", str(outs[0])]


@pytest.mark.filterwarnings("error")
def test_mutated_flags_and_select_inputs_end_in_a_documented_exit(inputs, tmp_path, capsys):
    rng = random.Random(SECOND_SEED)
    files = {k: tmp_path / f"{k}.in" for k in inputs}
    outs = [tmp_path / "out.json", tmp_path / "report.json"]
    seen = set()
    for run in range(SECOND_BUDGET):
        # a document the command reads, or its flags
        kind = rng.choice(["flags", *sorted(inputs)])
        for k, text in inputs.items():
            files[k].write_text(mutate(text, rng, SECOND_TOKENS) if k == kind else text,
                                encoding="utf-8")
        name = rng.choice({"ansatz": ["expand", "verify", "optimize"],
                           "result": ["verify", "optimize"]}.get(kind, sorted(FLAGS)))
        argv = flag_command(name, files, outs, rng, kind == "flags")
        capsys.readouterr()
        try:
            rc = main(argv)
        except Exception as exc:  # a warning, turned into an error, included
            pytest.fail(f"run {run}: {name} on mutated {kind} raised {exc!r}")
        err = capsys.readouterr().err
        where = f"run {run}: {name} on mutated {kind}, exit {rc}, stderr {err[:300]!r}"
        assert rc in EXIT_CODES, where
        if rc == 0:
            assert err == "" and outs[0].exists(), where
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, where
            assert not any(out.exists() for out in outs), where
        seen.add(rc)
        for out in outs:
            out.unlink(missing_ok=True)
    # the budget reaches a success, an input error and the resource cap
    assert {0, 2, 5} <= seen
