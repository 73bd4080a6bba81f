"""Golden CLI corpus: every argv below, with its exit code and the sha256 of
its stdout and of its stderr, is pinned in ``tests/golden/cli.json``.

The corpus is replayed in-process through :func:`ncfgl.cli.run`, so a change
that alters any byte of output, any error message or any exit code of these
commands fails here.  Regenerating the file is a reviewed act of changing
the CLI's output:

    PYTHONPATH=src python tests/test_golden_cli.py --write

argparse words its own usage errors differently across Python versions, so
stderr digests are compared only under the Python version that wrote the
corpus; exit codes and stdout digests are compared under every version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json")

README = [
    ["fgl", "--degree", "3", "--format", "json"],
    ["inverse", "--degree", "6"],
    ["commutator", "--word", "1", "--k", "1", "--degree", "6"],
    ["expand", "--assign", "x=-x", "--degree", "5"],
    ["steenrod", "--prime", "3", "--op", "P1", "--gen", "t2"],
    ["steenrod", "--prime", "2", "--op", "Sq1", "--word", "1,1,1", "--profile", "real"],
    ["certificate", "bp", "--prime", "3"],
    ["certificate", "hf2"],
    ["poincare", "--profile", "complex", "--degree", "8"],
    ["poincare", "--poly", "2,6", "--degree", "6"],
    ["split", "--prime", "2", "--degree", "12"],
    ["parity", "--prime", "2", "--degree", "20"],
    ["rational", "--degree", "40"],
    ["verify", "--degree", "6", "--seed", "0"],
]

# The commands of the benchmark's ``cli`` workload: the fixed ones, and per
# seed 1..10 its (commutator --word, --k, Sq1 word, verify --seed).
CLI_FIXED = [
    ["fgl", "--degree", "10"],
    ["inverse", "--degree", "12"],
    ["expand", "--assign", "x=x+y", "--degree", "6"],
    ["steenrod", "--prime", "3", "--op", "P1", "--gen", "t2"],
    ["certificate", "bp", "--prime", "3"],
    ["certificate", "hf2"],
    ["poincare", "--profile", "complex", "--degree", "16"],
    ["split", "--prime", "2", "--degree", "12"],
    ["parity", "--prime", "2", "--degree", "20"],
    ["rational", "--degree", "40"],
]
CLI_SEEDED = [
    ("3", "1", "2,1,2", "779"),
    ("1", "1", "2,1,3", "828"),
    ("3", "3", "1,2,3", "485"),
    ("2", "1", "3,2,2", "158"),
    ("3,2", "3", "3,3,3", "29"),
    ("2", "2", "1,1,1", "678"),
    ("1,2", "3", "1,1,3", "96"),
    ("2", "2", "1,1,3", "44"),
    ("3,2", "2", "1,1,3", "6"),
    ("2", "2", "3,1,1", "473"),
]
CLI_REFUSED = [
    ["fgl", "--degree", "0"],
    ["poincare", "--poly", "2,,4"],
    ["verify", "--samples", "-1"],
]

DEFAULTS = [
    ["fgl"],
    ["inverse"],
    ["commutator"],
    ["expand"],
    ["steenrod", "--op", "Sq1", "--gen", "xi1"],
    ["certificate", "bp"],
    ["certificate", "hf2"],
    ["poincare"],
    ["split"],
    ["parity"],
    ["rational"],
    ["verify"],
]

MODES = [[], ["--mode", "rat"], ["--mode", "fp", "--prime", "3"]]

# One argv just above each row of ``ncfgl.cli.LIMITS``.
ABOVE_LIMITS = {
    "fgl --degree": ["fgl", "--degree", "17"],
    "inverse --degree": ["inverse", "--degree", "21"],
    "verify --degree": ["verify", "--degree", "13"],
    "commutator --degree": ["commutator", "--degree", "25"],
    "poincare --degree": ["poincare", "--degree", "4001"],
    "split --degree": ["split", "--degree", "4001"],
    "parity --degree": ["parity", "--degree", "4001"],
    "rational --degree": ["rational", "--degree", "4001"],
    "expand in 1 variable --degree": ["expand", "--assign", "x=-x", "--degree", "19"],
    "expand in 2 variables --degree": ["expand", "--assign", "x=x+y", "--degree", "17"],
    "expand in 3 variables --degree": ["expand", "--assign", "x=x+y+z", "--degree", "15"],
    "--assign coefficient": ["expand", "--assign", "x=10*x"],
    "commutator --k": ["commutator", "--k", "23"],
    "verify --samples": ["verify", "--samples", "1001"],
    "--word letters": ["commutator", "--word", ",".join(["1"] * 33)],
    "--poly entries": ["poincare", "--poly", ",".join(["2"] * 4097)],
    "--ext entries": ["poincare", "--ext", ",".join(["2"] * 4097)],
    "--gen index": ["steenrod", "--prime", "3", "--op", "P1", "--gen", "t18"],
    "--op index": ["steenrod", "--prime", "3", "--op", "P4097", "--gen", "t1"],
    # C(5 + 28 - 1, 28 - 1) = 201 376, the least count above 200 000
    "action terms": ["steenrod", "--op", "Sq5", "--word", ",".join(["1"] * 28), "--profile", "real"],
}


def _formats(argv):
    return [argv + ["--format", "json"], argv]


def corpus_argvs() -> list:
    """Every argv of the corpus, in corpus order, each once."""
    argvs = list(README)
    for argv in CLI_FIXED:
        argvs += _formats(argv)
    for word, k, sq_word, seed in CLI_SEEDED:
        argvs += _formats(["commutator", "--word", word, "--k", k, "--degree", "8"])
        argvs += _formats(["steenrod", "--prime", "2", "--op", "Sq1", "--word", sq_word, "--profile", "real"])
        argvs += _formats(["verify", "--degree", "6", "--seed", seed])
    argvs += CLI_REFUSED + DEFAULTS
    for command in ("fgl", "inverse"):
        for order in range(2, 11):
            for mode in MODES:
                argvs += _formats([command, "--degree", str(order), *mode])
    argvs += ABOVE_LIMITS.values()
    unique = []
    for argv in argvs:
        if argv not in unique:
            unique.append(argv)
    return unique


def _run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI run, at 80 columns,
    so that argparse wraps its usage lines the same on every terminal."""
    from ncfgl.cli import run

    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record(argv) -> dict:
    code, out, err = _run(argv)
    return {"argv": argv, "exit": code, "stdout": _sha256(out), "stderr": _sha256(err)}


def _python() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def _load() -> dict:
    with open(CORPUS, encoding="utf-8") as handle:
        return json.load(handle)


def test_corpus_lists_every_argv_in_order():
    assert [run["argv"] for run in _load()["runs"]] == corpus_argvs()


def test_every_limit_row_has_an_argv_above_it():
    from ncfgl.cli import LIMITS

    assert list(ABOVE_LIMITS) == list(LIMITS)
    for row, argv in ABOVE_LIMITS.items():
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {row} ") and "above the budget" in err, err


def test_cli_output_matches_the_corpus():
    corpus = _load()
    same_python = corpus["python"] == _python()
    differ = []
    for expected in corpus["runs"]:
        got = _record(expected["argv"])
        keys = ("exit", "stdout", "stderr") if same_python else ("exit", "stdout")
        if any(got[key] != expected[key] for key in keys):
            differ.append(" ".join(expected["argv"])[:120])
    assert not differ, f"{len(differ)} argvs differ from the corpus: {differ}"


def write_corpus() -> None:
    """Replay every argv and write the corpus, one run per line."""
    runs = [json.dumps(_record(argv)) for argv in corpus_argvs()]
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8") as handle:
        handle.write(f'{{"python": "{_python()}", "runs": [\n' + ",\n".join(runs) + "\n]}\n")
    print(f"wrote {len(runs)} runs to {CORPUS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_corpus()
