"""Deterministic command line surface for every computation in the package.

Exit codes: 0 on success, 1 when a computation reaches a negative verdict
(an axiom check fails, a certificate finds solutions, a parity check is
inconclusive), 2 on usage errors.  Output is byte-identical across runs for
fixed arguments; randomized property runs take --seed and default to a fixed
seed.

Inputs whose cost is known to outgrow the machine are usage errors too, refused
before any work: ``--degree`` above :data:`DEGREE_BUDGET` or
:data:`EXPAND_DEGREE_BUDGET`, a ``commutator --k`` that the degree budget
cannot reach, an ``--assign`` coefficient above :data:`LINEAR_FORM_BOUND`,
``verify --samples`` above :data:`SAMPLES_BUDGET`, a ``--word`` longer than
:data:`WORD_LENGTH_BUDGET`, a ``poincare --poly``/``--ext`` list longer than
:data:`LIST_LENGTH_BUDGET`, a ``steenrod --gen`` index above
:data:`GEN_INDEX_BUDGET` or ``--op`` index above :data:`OP_INDEX_BUDGET`, a
``steenrod --word`` action with more than :data:`ACTION_TERM_BUDGET` possible
terms, and ``certificate bp`` primes above the library's dense word budget.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import comb

from .errors import ConsistencyError, ParameterError, ToolkitError
from .fgl import (
    commutator_filtration,
    fgl_table,
    filtration_property_run,
    inverse_table,
    orientation_series,
    verify_axioms,
)
from .freealg import COMPLEX, REAL, FreeAlgebra
from .gradebook import (
    parity_check_ku,
    profile_degrees,
    rational_mu_series_check,
    series_free_assoc,
    series_graded_algebra,
    splitting_multiplicities,
)
from .scalars import GF, QQ, ZZ
from .series import VarSet, left_expand
from .steenrod import (
    MilnorOp,
    bp_homology,
    bp_obstruction_certificate,
    dual_steenrod,
    hf2_obstruction_certificate,
    right_action,
)

_OP_RE = re.compile(r"(P|Sq)\^?(\d+)")
_GEN_RE = re.compile(r"(t|xi)(\d+)")
_TERM_RE = re.compile(r"\s*([+-]?)\s*(?:(\d+)\s*\*\s*)?([A-Za-z_]\w*)\s*")

# Largest accepted --degree by command, checked in run() before any handler,
# and for expand by the number of variables of the assignment, whose
# coefficients may be at most LINEAR_FORM_BOUND in absolute value; commutator
# --k may reach its degree budget less 2, and verify runs at most
# SAMPLES_BUDGET samples.  At these limits every mode and format finished in
# under 30 s and 800 MiB on a 2-core machine with Python 3.11 (the slowest:
# inverse --degree 20 --mode rat --format json, and verify --degree 12 --mode
# rat --samples 1000 in 26 s); one more order roughly doubles both, and
# commutator, costliest near k = degree / 3, grows ~1.6-fold per degree.
DEGREE_BUDGET = {
    "fgl": 16,
    "inverse": 20,
    "verify": 12,
    "commutator": 24,
    "poincare": 4000,
    "split": 4000,
    "parity": 4000,
    "rational": 4000,
}
EXPAND_DEGREE_BUDGET = {1: 18, 2: 16, 3: 14}
LINEAR_FORM_BOUND = 9
SAMPLES_BUDGET = 1000

# Lengths and indices, checked before any work.  A --word (commutator,
# steenrod) has at most WORD_LENGTH_BUDGET letters and a poincare --poly or
# --ext list at most LIST_LENGTH_BUDGET entries.  steenrod --gen tN/xiN takes
# N <= GEN_INDEX_BUDGET: t_N costs ~2^N terms through the conjugate
# chi(xi_N); --op takes an index <= OP_INDEX_BUDGET.  On a word of L letters,
# P^k (or Sq^k) gives at most one term per split of k over the letters, so
# the action is refused when the C(k + L - 1, L - 1) splits number more than
# ACTION_TERM_BUDGET.  The slowest accepted inputs, sized on a 2-core machine with Python
# 3.11 at primes below 3.3e24: steenrod --gen t17 at the prime 3e24 + 7 in
# 6.9 s and 388 MiB (t18 took 16 s and 799 MiB); commutator with 32 letters
# at --k 8 --degree 24 --mode rat --format json in 8.4 s and 479 MiB; a
# 20-letter Sq^6 action (177 100 splits) in 7.4 s and 490 MiB; poincare with
# 4096-entry --poly and --ext lists at --degree 4000 in 13.6 s and 45 MiB.
WORD_LENGTH_BUDGET = 32
LIST_LENGTH_BUDGET = 4096
GEN_INDEX_BUDGET = 17
OP_INDEX_BUDGET = 4096
ACTION_TERM_BUDGET = 200_000


def _add_common(parser, degree_default=6):
    parser.add_argument("--degree", type=int, default=degree_default,
                        help="truncation order (default %(default)s)")
    parser.add_argument("--profile", choices=("complex", "real"), default="complex")
    parser.add_argument("--mode", choices=("int", "rat", "fp"), default="int")
    parser.add_argument("--prime", type=int, default=None)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write output to a file")


def _algebra(args) -> FreeAlgebra:
    profile = COMPLEX if args.profile == "complex" else REAL
    if args.mode == "int":
        ring = ZZ
    elif args.mode == "rat":
        ring = QQ
    else:
        if args.prime is None:
            raise ParameterError("--mode fp needs --prime")
        ring = GF(args.prime)
    return FreeAlgebra(profile, ring)


def _emit(args, payload, text) -> None:
    if args.format == "json":
        body = json.dumps(payload, indent=2) + "\n"
    else:
        body = text + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(body)
        except OSError as exc:
            raise ParameterError(f"cannot write {args.out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(body)


def _parse_word(text) -> tuple:
    parts = [part for part in text.split(",") if part.strip()]
    if len(parts) > WORD_LENGTH_BUDGET:
        raise ParameterError(
            f"word has {len(parts)} letters, above the budget of {WORD_LENGTH_BUDGET}"
        )
    try:
        word = tuple(int(part) for part in parts)
    except ValueError:
        raise ParameterError(f"cannot parse word {text!r}") from None
    if not word:
        raise ParameterError("word must list at least one generator index")
    return word


def _parse_degrees(text: str, flag: str) -> list:
    count = text.count(",") + 1
    if count > LIST_LENGTH_BUDGET:
        raise ParameterError(
            f"{flag} lists {count} degrees, above the budget of {LIST_LENGTH_BUDGET}"
        )
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ParameterError(f"cannot parse {flag} {text!r} (use e.g. 2,6,14)") from None


def _check_degree(degree: int, budget: int, label: str, flag: str = "--degree") -> None:
    if degree > budget:
        raise ParameterError(f"{label} {flag} {degree} is above the budget of {budget}")


def _parse_index(digits: str, budget: int, label: str) -> int:
    """The decimal index ``digits``, refused above ``budget`` before a long
    string is converted."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(budget)) or int(digits) > budget:
        shown = digits if len(digits) <= 12 else digits[:12] + "..."
        raise ParameterError(f"{label} {shown} is above the budget of {budget}")
    return int(digits)


def _parse_linear_form(expr: str) -> dict:
    form: dict = {}
    pos = 0
    while pos < len(expr):
        match = _TERM_RE.match(expr, pos)
        if not match or match.end() == pos:
            raise ParameterError(f"cannot parse linear form {expr!r}")
        sign, magnitude, name = match.groups()
        coeff = int(magnitude) if magnitude else 1
        if sign == "-":
            coeff = -coeff
        form[name] = form.get(name, 0) + coeff
        pos = match.end()
    if not form:
        raise ParameterError(f"empty linear form {expr!r}")
    if any(abs(c) > LINEAR_FORM_BOUND for c in form.values()):
        raise ParameterError(
            f"linear form coefficients must be at most {LINEAR_FORM_BOUND} in absolute value"
        )
    return form


def cmd_fgl(args) -> int:
    table = fgl_table(args.degree, _algebra(args))
    _emit(args, table.to_data(), str(table))
    return 0


def cmd_inverse(args) -> int:
    table = inverse_table(args.degree, _algebra(args))
    _emit(args, table.to_data(), str(table))
    return 0


def cmd_commutator(args) -> int:
    _check_degree(args.k, DEGREE_BUDGET["commutator"] - 2, "commutator", "--k")
    algebra = _algebra(args)
    u = algebra.monomial(_parse_word(args.word))
    result = commutator_filtration(u, args.k, args.degree)
    _emit(args, result.to_data(), str(result))
    return 0 if result.ok else 1


def cmd_expand(args) -> int:
    algebra = _algebra(args)
    source, _, expr = args.assign.partition("=")
    source = source.strip()
    if not source or not expr:
        raise ParameterError("--assign must look like 'x=x+y'")
    form = _parse_linear_form(expr)
    vardeg = algebra.profile.variable_degree
    target = VarSet(tuple(form), vardeg)
    label = f"expand in {', '.join(target.names)}"
    _check_degree(args.degree, EXPAND_DEGREE_BUDGET[len(target)], label)
    z = orientation_series(args.degree, algebra, VarSet((source,), vardeg))
    specialized = z.specialize({source: form}, target)
    basis = {
        name: orientation_series(args.degree, algebra, VarSet((name,), vardeg))
        for name in target.names
    }
    expansion = left_expand(specialized, basis)
    ordered = sorted(expansion, key=lambda index: (sum(index), index))
    payload = {
        "assignment": {source: form},
        "order": args.degree,
        "terms": [
            {"exponents": list(index), "element": expansion[index].to_data()}
            for index in ordered
        ],
    }
    lines = [f"expansion of the substituted series, order {args.degree}"]
    for index in ordered:
        lines.append(f"A{list(index)} = {expansion[index]}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_steenrod(args) -> int:
    prime = args.prime if args.prime is not None else 2
    match = _OP_RE.fullmatch(args.op)
    if not match:
        raise ParameterError(f"cannot parse operation {args.op!r} (use e.g. P1 or Sq2)")
    index = _parse_index(match.group(2), OP_INDEX_BUDGET, "steenrod --op index")
    op = MilnorOp(prime, match.group(1), index)
    if args.gen:
        gen_match = _GEN_RE.fullmatch(args.gen)
        if not gen_match:
            raise ParameterError(f"cannot parse generator {args.gen!r} (use e.g. t2, xi1)")
        family = gen_match.group(1)
        index = _parse_index(gen_match.group(2), GEN_INDEX_BUDGET, "steenrod --gen index")
        algebra = bp_homology(prime) if family == "t" else dual_steenrod(prime)
        element = algebra.gen(index)
    elif args.word:
        word = _parse_word(args.word)
        splits = comb(op.index + len(word) - 1, len(word) - 1)
        if splits > ACTION_TERM_BUDGET:
            raise ParameterError(
                f"{op} on a word of {len(word)} letters has {splits} possible terms, "
                f"above the budget of {ACTION_TERM_BUDGET}"
            )
        profile = COMPLEX if args.profile == "complex" else REAL
        element = FreeAlgebra(profile, GF(prime)).monomial(word)
    else:
        raise ParameterError("steenrod needs --gen or --word")
    result = right_action(element, op)
    payload = {
        "prime": prime,
        "op": str(op),
        "input": str(element),
        "result": result.to_data(),
    }
    _emit(args, payload, f"{op} . ({element}) = {result}")
    return 0


def cmd_certificate(args) -> int:
    if args.which == "bp":
        if args.prime is None:
            raise ParameterError("certificate bp needs --prime")
        certificate = bp_obstruction_certificate(args.prime)
    else:
        certificate = hf2_obstruction_certificate()
    _emit(args, certificate.to_data(), str(certificate))
    return 0 if certificate.infeasible else 1


def cmd_poincare(args) -> int:
    if args.poly or args.ext:
        poly = _parse_degrees(args.poly, "--poly") if args.poly else []
        ext = _parse_degrees(args.ext, "--ext") if args.ext else []
        series = series_graded_algebra(poly, ext, args.degree)
        label = f"graded algebra series, poly {poly}, exterior {ext}"
    else:
        profile = COMPLEX if args.profile == "complex" else REAL
        series = series_free_assoc(profile_degrees(profile, args.degree), args.degree)
        label = f"free associative series on the {args.profile} profile"
    _emit(args, series.to_data(), f"{label}, order {args.degree}\n{series}")
    return 0


def cmd_split(args) -> int:
    if args.prime is None:
        raise ParameterError("split needs --prime")
    try:
        series = splitting_multiplicities(args.prime, args.degree)
    except ConsistencyError as exc:
        print(f"splitting inconsistency: {exc}", file=sys.stderr)
        return 1
    _emit(args, series.to_data(), f"splitting multiplicities at p = {args.prime}\n{series}")
    return 0


def cmd_parity(args) -> int:
    if args.prime is None:
        raise ParameterError("parity needs --prime")
    report = parity_check_ku(args.prime, args.degree)
    _emit(args, report.to_data(), str(report))
    return 0 if report.verdict == "NOT-ISOMORPHIC" else 1


def cmd_rational(args) -> int:
    report = rational_mu_series_check(args.degree)
    _emit(args, report.to_data(), str(report))
    return 0 if report.match else 1


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ParameterError("--samples must be at least 1")
    _check_degree(args.samples, SAMPLES_BUDGET, "verify", "--samples")
    algebra = _algebra(args)
    report = verify_axioms(args.degree, algebra)
    filtration_order = max(args.degree, 4)
    filtration_ok, results = filtration_property_run(
        order=filtration_order,
        samples=args.samples,
        seed=args.seed,
        algebra=algebra,
        max_k=min(4, filtration_order - 2),
    )
    checks = [
        ("unit", report.unit_ok),
        ("commutativity", report.commutativity_ok),
        ("associativity", report.associativity_ok),
        ("inverse", report.inverse_ok),
        ("filtration", filtration_ok),
    ]
    lines = [f"verification at order {args.degree} (seed {args.seed})"]
    for name, ok in checks:
        lines.append(f"{name:>14}: {'PASS' if ok else 'FAIL'}")
    lines.append(f"filtration samples: {len(results)}")
    payload = {
        "order": args.degree,
        "seed": args.seed,
        "checks": {name: ok for name, ok in checks},
        "axioms": report.to_data(),
        "filtration_samples": len(results),
    }
    _emit(args, payload, "\n".join(lines))
    return 0 if all(ok for _, ok in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfgl",
        description="Exact computations with a noncommutative formal group law, "
        "dual Steenrod actions, and graded dimension series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fgl", help="formal group law coefficient table")
    _add_common(p)
    p.set_defaults(handler=cmd_fgl)

    p = sub.add_parser("inverse", help="formal inverse series coefficients")
    _add_common(p)
    p.set_defaults(handler=cmd_inverse)

    p = sub.add_parser("commutator", help="commutator with a power of the orientation series")
    _add_common(p)
    p.add_argument("--word", default="1", help="comma separated generator indices")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(handler=cmd_commutator)

    p = sub.add_parser("expand", help="left-basis expansion of a substituted orientation series")
    _add_common(p)
    p.add_argument("--assign", default="x=x+y", help="substitution, e.g. 'x=-x' or 'x=x+y'")
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("steenrod", help="right Steenrod action on a generator or word")
    _add_common(p)
    p.add_argument("--op", required=True, help="operation, e.g. P1 or Sq2")
    p.add_argument("--gen", default=None, help="polynomial generator, e.g. t2 or xi1")
    p.add_argument("--word", default=None, help="free-algebra word, e.g. 1,1")
    p.set_defaults(handler=cmd_steenrod)

    p = sub.add_parser("certificate", help="finite obstruction certificates")
    p.add_argument("which", choices=("bp", "hf2"))
    _add_common(p)
    p.set_defaults(handler=cmd_certificate)

    p = sub.add_parser("poincare", help="graded dimension series")
    _add_common(p, degree_default=12)
    p.add_argument("--poly", default=None, help="polynomial generator degrees, e.g. 2,6,14")
    p.add_argument("--ext", default=None, help="exterior generator degrees")
    p.set_defaults(handler=cmd_poincare)

    p = sub.add_parser("split", help="wedge splitting multiplicities at a prime")
    _add_common(p, degree_default=12)
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("parity", help="even/odd comparison against K-homology degrees")
    _add_common(p, degree_default=20)
    p.set_defaults(handler=cmd_parity)

    p = sub.add_parser("rational", help="polynomial algebra versus partition counts")
    _add_common(p, degree_default=40)
    p.set_defaults(handler=cmd_rational)

    p = sub.add_parser("verify", help="aggregate axiom and filtration checks")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(handler=cmd_verify)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command in DEGREE_BUDGET:
            _check_degree(args.degree, DEGREE_BUDGET[args.command], args.command)
        return args.handler(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
