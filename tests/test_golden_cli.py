"""Golden CLI corpus: every argv below, with its exit code and the sha256 of
its stdout and of its stderr, is pinned in ``tests/golden/cli.json``.  The
first argvs are the ``ncfgl`` lines of README's "Command line" block, read by
:func:`readme_commands`, which CI also uses.

The corpus is replayed in-process through :func:`ncfgl.cli.run`, so a change
that alters any byte of output, any error message or any exit code of these
commands fails here.  The heavier ``fgl``, ``inverse`` and ``verify`` orders
and the slower ``LIMITS`` values of :func:`heavy_argvs` are pinned the same
way in ``tests/golden/cli_heavy.json``; their 35 argvs take about 20 s and a
peak RSS of about 520 MiB on a 2-core machine with Python 3.11, so the tests
here check only that the file lists them, and CI replays them with

    PYTHONPATH=src python tests/test_golden_cli.py --check-heavy

Regenerating both files is a reviewed act of changing the CLI's output:

    PYTHONPATH=src python tests/test_golden_cli.py --write

argparse words its own usage errors and help texts differently across Python
versions, so stderr digests, and the stdout digests of ``--help`` runs, are
compared only under the Python version that wrote the corpus; exit codes and
the other stdout digests are compared under every version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CORPUS = os.path.join(GOLDEN, "cli.json")
HEAVY_CORPUS = os.path.join(GOLDEN, "cli_heavy.json")

README_MD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_commands() -> list:
    """(argv, documented exit code) of each ``ncfgl`` line of README's
    "Command line" block, in order: the words after ``ncfgl`` by
    ``shlex.split(line, comments=True)``, and the N of an ``exit N`` in the
    line's comment, 0 without one."""
    with open(README_MD, encoding="utf-8") as handle:
        block = handle.read().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("ncfgl "):
            documented = re.search(r"#.*\bexit (\d+)", line)
            commands.append(
                (shlex.split(line, comments=True)[1:], int(documented.group(1)) if documented else 0)
            )
    return commands


README = [argv for argv, _ in readme_commands()]

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
# Runs that reach a negative verdict: INCONCLUSIVE parity checks, exit 1.
NEGATIVE = [
    ["parity", "--prime", "2", "--degree", "8"],
    ["parity", "--prime", "3", "--degree", "18"],
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

# The tables of the benchmark's ``table`` workload over the two other rings.
TABLE_RINGS = [
    ["fgl", "--degree", "14", "--mode", "fp", "--prime", "3"],
    ["fgl", "--degree", "11", "--mode", "rat"],
]

# Empty --poly text: the series of the algebra on no generators.
EMPTY_POLY = [["poincare", "--poly", "", "--degree", "4", "--format", "json"]]

# The axiom checks and a commutator series over Q.
RATIONAL = [
    ["verify", "--degree", "6", "--mode", "rat"],
    ["commutator", "--word", "1,2", "--k", "2", "--degree", "8", "--mode", "rat"],
]

# A free-algebra action at an odd prime near the "action terms" limit:
# C(104 + 4 - 1, 4 - 1) = 198 485 possible terms, and about 8 300 formed.
ODD_ACTION = [["steenrod", "--prime", "3", "--op", "P104", "--word", "200,200,200,200"]]

# The real profile where no list above reaches it: a series whose
# generators pass letter 255, and the refusal of an odd prime.
REAL_PROFILE = [["poincare", "--profile", "real", "--degree", "600"]]
REAL_REFUSED = [["steenrod", "--prime", "3", "--op", "P1", "--word", "1", "--profile", "real"]]

# The heavy tables over the two other rings: a table over Q and an inverse
# over F_3.
HEAVY_RINGS = [
    ["fgl", "--degree", "13", "--mode", "rat"],
    ["inverse", "--degree", "16", "--mode", "fp", "--prime", "3"],
]

# The axiom checks at their degree budget, over ZZ and F_3 and on the real
# profile.
HEAVY_VERIFY = [
    ["verify", "--degree", "12"],
    ["verify", "--degree", "12", "--mode", "fp", "--prime", "3"],
    ["verify", "--degree", "12", "--profile", "real"],
]

# The real profile's series at its degree budget.
HEAVY_REAL = [["poincare", "--profile", "real", "--degree", "4000"]]

# What argparse itself writes: the help of the top level and of every
# subcommand, and the refusals of a missing or unknown command, of an option
# before the command, of an unknown option and of an extra argument.
ARGPARSE = [
    ["--help"],
    *([command, "--help"] for command in (
        "fgl", "inverse", "commutator", "expand", "steenrod", "certificate", "poincare",
        "split", "parity", "rational", "verify",
    )),
    [],
    ["nosuch"],
    ["--format", "json", "fgl"],
    ["fgl", "--bogus"],
    ["fgl", "--degree", "3", "extra"],
]

# The JSON tables at their degree budgets, the largest outputs the CLI
# accepts to write.
HEAVY_LIMITS = [
    ["fgl", "--degree", "16", "--format", "json"],
    ["inverse", "--degree", "20", "--format", "json"],
]

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
    # C(5 + 28 - 1, 28 - 1) = 201 376 possible terms, above 199 396
    "action terms": ["steenrod", "--op", "Sq5", "--word", ",".join(["1"] * 28), "--profile", "real"],
}

# One argv at the value of each row of ``ncfgl.cli.LIMITS`` that the lists
# above do not reach; each sits just before its row's argv of ABOVE_LIMITS.
# The rows whose argv takes over 0.5 s in-process are in HEAVY_AT_LIMITS, and
# the fgl, inverse and verify degrees in HEAVY_LIMITS and HEAVY_VERIFY.
AT_LIMITS = {
    "commutator --degree": ["commutator", "--degree", "24"],
    "parity --degree": ["parity", "--prime", "2", "--degree", "4000"],
    "rational --degree": ["rational", "--degree", "4000"],
    "--assign coefficient": ["expand", "--assign", "x=9*x"],
    # --k 22 needs order k + 2 to see the bound
    "commutator --k": ["commutator", "--k", "22", "--degree", "24"],
    "verify --samples": ["verify", "--samples", "1000"],
    "--word letters": ["commutator", "--word", ",".join(["1"] * 32)],
    "--poly entries": ["poincare", "--poly", ",".join(["2"] * 4096), "--degree", "4"],
    "--ext entries": ["poincare", "--ext", ",".join(["2"] * 4096), "--degree", "4"],
    "--op index": ["steenrod", "--prime", "3", "--op", "P4096", "--gen", "t1"],
    # C(630 + 3 - 1, 3 - 1) = 199 396 possible terms, an action that sends
    # every word to 0
    "action terms": ["steenrod", "--prime", "3", "--op", "P630", "--word", "1,1,1"],
}
HEAVY_AT_LIMITS = {
    "poincare --degree": ["poincare", "--degree", "4000"],
    "split --degree": ["split", "--prime", "2", "--degree", "4000"],
    "expand in 1 variable --degree": ["expand", "--assign", "x=-x", "--degree", "18"],
    "expand in 2 variables --degree": ["expand", "--assign", "x=x+y", "--degree", "16"],
    "expand in 3 variables --degree": ["expand", "--assign", "x=x+y+z", "--degree", "14"],
    "--gen index": ["steenrod", "--prime", "3", "--op", "P1", "--gen", "t17"],
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
    for argv in NEGATIVE:
        argvs += _formats(argv)
    argvs += CLI_REFUSED + DEFAULTS
    for command in ("fgl", "inverse"):
        for order in range(2, 11):
            for mode in MODES:
                argvs += _formats([command, "--degree", str(order), *mode])
    for row, argv in ABOVE_LIMITS.items():
        if row in AT_LIMITS:
            argvs.append(AT_LIMITS[row])
        argvs.append(argv)
    for argv in TABLE_RINGS:
        argvs += _formats(argv)
    argvs += EMPTY_POLY
    for argv in RATIONAL + REAL_PROFILE:
        argvs += _formats(argv)
    argvs += ODD_ACTION + REAL_REFUSED + ARGPARSE
    unique = []
    for argv in argvs:
        if argv not in unique:
            unique.append(argv)
    return unique


def heavy_argvs() -> list:
    """The argvs of the heavy corpus, in both formats: ``fgl`` at orders
    11-14 and ``inverse`` at 13-16 over ZZ, then ``fgl`` at order 13 over QQ
    and ``inverse`` at order 16 over GF(3), then ``verify`` at order 12 over
    ZZ, over GF(3) and on the real profile; then, in JSON only, ``fgl`` at
    order 16 and ``inverse`` at order 20 over ZZ, their ``LIMITS`` values;
    then, as text, the argvs of HEAVY_AT_LIMITS; last, as text, the real
    profile's ``poincare`` at its degree budget."""
    argvs = []
    for command, orders in (("fgl", range(11, 15)), ("inverse", range(13, 17))):
        for order in orders:
            argvs += _formats([command, "--degree", str(order)])
    for argv in HEAVY_RINGS + HEAVY_VERIFY:
        argvs += _formats(argv)
    return argvs + HEAVY_LIMITS + list(HEAVY_AT_LIMITS.values()) + HEAVY_REAL


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


def _load(path=CORPUS) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _differing(corpus) -> list:
    """The argvs whose replay differs from ``corpus`` in exit code, stdout
    digest or, under the Python version that wrote it, stderr digest; the
    stdout of a ``--help`` run, which argparse words, counts as stderr."""
    writer = corpus["python"] == _python()
    differ = []
    for expected in corpus["runs"]:
        if writer:
            keys = ("exit", "stdout", "stderr")
        else:
            keys = ("exit",) if "--help" in expected["argv"] else ("exit", "stdout")
        got = _record(expected["argv"])
        if any(got[key] != expected[key] for key in keys):
            differ.append(" ".join(expected["argv"])[:120])
    return differ


def test_corpus_lists_every_argv_in_order():
    assert [run["argv"] for run in _load()["runs"]] == corpus_argvs()


def test_readme_commands_exit_as_documented():
    exits = {tuple(run["argv"]): run["exit"] for run in _load()["runs"]}
    commands = readme_commands()
    assert commands, "no ncfgl command in README's Command line block"
    assert [(argv, exits[tuple(argv)]) for argv, _ in commands] == commands


def test_every_limit_row_has_an_argv_above_it():
    from ncfgl.cli import LIMITS

    assert list(ABOVE_LIMITS) == list(LIMITS)
    for row, argv in ABOVE_LIMITS.items():
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {row} ") and "above the budget" in err, err


def test_every_limit_row_has_an_argv_at_its_value():
    from ncfgl.cli import LIMITS

    elsewhere = {
        "fgl --degree": HEAVY_LIMITS[0],
        "inverse --degree": HEAVY_LIMITS[1],
        "verify --degree": HEAVY_VERIFY[0],
    }
    rows = [*AT_LIMITS, *HEAVY_AT_LIMITS, *elsewhere]
    assert sorted(rows) == sorted(LIMITS)
    assert all(argv in heavy_argvs() for argv in elsewhere.values())
    exits = {tuple(run["argv"]): run["exit"] for run in _load()["runs"]}
    assert all(exits[tuple(argv)] == 0 for argv in AT_LIMITS.values())
    assert not set(map(tuple, HEAVY_AT_LIMITS.values())) & set(exits)


def test_heavy_corpus_lists_every_argv_in_order():
    heavy = _load(HEAVY_CORPUS)
    assert heavy["python"] == _load()["python"]
    assert [run["argv"] for run in heavy["runs"]] == heavy_argvs()
    assert all(run["exit"] == 0 for run in heavy["runs"])


def test_cli_output_matches_the_corpus():
    differ = _differing(_load())
    assert not differ, f"{len(differ)} argvs differ from the corpus: {differ}"


def write_corpus(path, argvs) -> None:
    """Replay every argv and write a corpus, one run per line."""
    runs = [json.dumps(_record(argv)) for argv in argvs]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"python": "{_python()}", "runs": [\n' + ",\n".join(runs) + "\n]}\n")
    print(f"wrote {len(runs)} runs to {path}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_corpus(CORPUS, corpus_argvs())
        write_corpus(HEAVY_CORPUS, heavy_argvs())
    elif sys.argv[1:] == ["--check-heavy"]:
        differ = _differing(_load(HEAVY_CORPUS))
        print(f"{len(differ)} of {len(heavy_argvs())} heavy argvs differ from the corpus")
        sys.exit("\n".join(differ) if differ else 0)
    else:
        sys.exit(f"usage: {sys.argv[0]} --write | --check-heavy")
