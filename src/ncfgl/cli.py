"""Deterministic command line surface for every computation in the package.

Exit codes: 0 on success, 1 on a negative verdict (the result record's ``ok``
is false, by the one rule of :func:`_emit`, or ``split`` finds its splitting
inconsistent), 2 on usage errors.
Output is byte-identical across runs for fixed arguments; randomized property
runs take --seed and default to a fixed seed.

Every raw argument is parsed where argparse declares it, by a ``type=``
function, and inputs whose cost is known to outgrow the machine are usage
errors too, refused before any work: each measured input has one row in
:data:`LIMITS`, whose name is also the label of its error message.  Two rows
need two arguments and are checked by their handlers: ``expand``'s degree by
the number of variables of ``--assign``, and ``steenrod --word``'s possible
action terms.  ``certificate bp`` primes are bounded by the library's word
budget, and every ``--prime`` by the range where primality is exact.

Every subcommand declares the shared options (``--degree``, ``--profile``,
``--mode``, ``--prime``), and an option that the run would never read is a
usage error naming it: a shared option the subcommand's handler does not
read (declared hidden and untyped, so that its value is never parsed),
``--prime`` on a series command without ``--mode fp`` or on ``certificate
hf2``, and ``--profile`` on ``steenrod --gen`` or ``poincare
--poly``/``--ext``.

Only :mod:`ncfgl.errors` is imported with this module; each handler imports
its own layer, so that a call loads only what its subcommand needs, and an
argument refused by argparse loads no layer at all.  A call pays for no more
than it uses in three other ways too: :func:`build_parser` declares the
options of the invoked subcommand only; :mod:`fractions` (with
:mod:`decimal`) is imported only where a rational value is built or tested
(:func:`ncfgl.scalars.fraction_type`); and ``--format json`` is written by
:func:`_json`, byte for byte ``json.dumps(to_data(), indent=2)``, without the
pure-Python encoder that an indent selects and without :mod:`json` itself.
"""

from __future__ import annotations

import argparse
import re
import sys
from math import comb

from .errors import ConsistencyError, ParameterError, ToolkitError

_OP_RE = re.compile(r"(P|Sq)\^?(\d+)")
_GEN_RE = re.compile(r"(t|xi)(\d+)")
_TERM_RE = re.compile(r"\s*([+-]?)\s*(?:(\d+)\s*\*\s*)?([A-Za-z_]\w*)\s*")

# The largest accepted value of each measured input.  At these limits every
# mode and format finished in under 30 s and 800 MiB on a 2-core machine with
# Python 3.11 (verify --degree 12 --mode rat --samples 1000, in either
# format, in 0.9-1.6 s and 42 MiB; the slowest JSON, inverse --degree 20
# --mode rat --format json, in 6-8 s and 499 MiB, and fgl --degree 16
# --format json in 5-6 s and 386 MiB);
# one more order roughly doubles both, and commutator, costliest near k =
# degree / 3, grows ~1.6-fold per degree.  steenrod --gen tN costs ~2^N terms
# through the conjugate chi(xi_N).  On a word of L letters, P^k (or Sq^k)
# gives at most one term per split of k over the letters, so the action is
# refused when the C(k + L - 1, L - 1) splits number more than "action
# terms", 199 396 = C(632, 2) (P630 on 3 letters), the greatest count within
# 200 000 that an --op index and a --word length reach.  The slowest accepted
# inputs of the length and index rows, at primes below 3.3e24: steenrod
# --gen t17 at the prime 3e24 + 7 in 6.9 s and 388 MiB (t18 took 16 s and
# 799 MiB); commutator with 32 letters at --k 8 --degree 24 --mode rat
# --format json in 2.6-2.9 s and 318 MiB; a 20-letter Sq^6 action (177 100
# splits) in 7.4 s and 490 MiB; poincare with 4096-entry --poly and --ext
# lists at --degree 4000 in 13.6 s and 45 MiB.
LIMITS = {
    "fgl --degree": 16,
    "inverse --degree": 20,
    "verify --degree": 12,
    "commutator --degree": 24,
    "poincare --degree": 4000,
    "split --degree": 4000,
    "parity --degree": 4000,
    "rational --degree": 4000,
    "expand in 1 variable --degree": 18,
    "expand in 2 variables --degree": 16,
    "expand in 3 variables --degree": 14,
    "--assign coefficient": 9,
    "commutator --k": 22,
    "verify --samples": 1000,
    "--word letters": 32,
    "--poly entries": 4096,
    "--ext entries": 4096,
    "--gen index": 17,
    "--op index": 4096,
    "action terms": 199_396,
}


def _limit(name: str, value):
    """``value`` if it is at most ``LIMITS[name]``, else a ParameterError.

    A string of decimal digits is measured by its length first, so that one
    too long for the limit is refused without being converted.
    """
    limit = LIMITS[name]
    if isinstance(value, str):
        value = value.lstrip("0") or "0"
        if len(value) <= len(str(limit)):
            value = int(value)
        elif len(value) > 12:
            value = value[:12] + "..."
    if isinstance(value, str) or value > limit:
        raise ParameterError(f"{name} {value} is above the budget of {limit}")
    return value


def _at_most(name: str):
    """An argparse type: a decimal integer within ``LIMITS[name]``."""

    def integer(text: str) -> int:
        return _limit(name, int(text))

    return integer


def _samples(text: str) -> int:
    samples = _limit("verify --samples", int(text))
    if samples < 1:
        raise ParameterError("--samples must be at least 1")
    return samples


def _word(text: str) -> tuple:
    parts = [part for part in text.split(",") if part.strip()]
    _limit("--word letters", len(parts))
    try:
        word = tuple(int(part) for part in parts)
    except ValueError:
        raise ParameterError(f"cannot parse word {text!r}") from None
    if not word:
        raise ParameterError("word must list at least one generator index")
    return word


def _degrees(flag: str):
    """An argparse type: a comma separated list of degrees; empty text is the
    empty list."""

    def degrees(text: str) -> list:
        if not text:
            return []
        _limit(f"{flag} entries", text.count(",") + 1)
        try:
            return [int(part) for part in text.split(",")]
        except ValueError:
            raise ParameterError(f"cannot parse {flag} {text!r} (use e.g. 2,6,14)") from None

    return degrees


def _indexed(pattern, flag: str, what: str, example: str):
    """An argparse type: a name followed by a decimal index, as (name, index)."""

    def parse(text: str) -> tuple:
        match = pattern.fullmatch(text)
        if not match:
            raise ParameterError(f"cannot parse {what} {text!r} (use e.g. {example})")
        return match.group(1), _limit(f"{flag} index", match.group(2))

    return parse


def _assignment(text: str) -> tuple:
    """``source=linear form`` as (source, {variable: coefficient})."""
    source, _, expr = text.partition("=")
    source = source.strip()
    if not source or not expr:
        raise ParameterError("--assign must look like 'x=x+y'")
    form: dict = {}
    pos = 0
    while pos < len(expr):
        match = _TERM_RE.match(expr, pos)
        if not match or match.end() == pos:
            raise ParameterError(f"cannot parse linear form {expr!r}")
        sign, magnitude, name = match.groups()
        coeff = _limit("--assign coefficient", magnitude) if magnitude else 1
        form[name] = form.get(name, 0) + (-coeff if sign == "-" else coeff)
        pos = match.end()
    for coeff in form.values():
        _limit("--assign coefficient", abs(coeff))
    return source, form


# The options that several subcommands share; each declares them all.
SHARED = ("degree", "profile", "mode", "prime")


class _Unread(argparse.Action):
    """A shared option the subcommand never reads: its name is kept, in
    command-line order, for :func:`run` to refuse."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.unread += (self.dest,)


def _add_common(parser, command: str, reads, degree_default: int = 6):
    parser.set_defaults(unread=())
    for option in SHARED:
        if option not in reads:
            parser.add_argument(f"--{option}", action=_Unread, help=argparse.SUPPRESS)
    if "degree" in reads:
        name = f"{command} --degree"
        parser.add_argument("--degree", type=_at_most(name) if name in LIMITS else int,
                            default=degree_default, help="truncation order (default %(default)s)")
    if "profile" in reads:
        parser.add_argument("--profile", choices=("complex", "real"), default=None,
                            help="grading profile (default complex)")
    if "mode" in reads:
        parser.add_argument("--mode", choices=("int", "rat", "fp"), default="int")
    if "prime" in reads:
        parser.add_argument("--prime", type=int, default=None)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write output to a file")


def _profile(args):
    from .freealg import COMPLEX, REAL

    return REAL if args.profile == "real" else COMPLEX


def _refuse(args, option: str, reader: str) -> None:
    """A ParameterError for a --option given to a run that would never read it."""
    if getattr(args, option) is not None:
        raise ParameterError(f"--{option} is not read by {reader}")


def _prime(args, reader: str) -> int:
    """The --prime that ``reader`` needs; a ParameterError without one."""
    if args.prime is None:
        raise ParameterError(f"{reader} needs --prime")
    return args.prime


def _algebra(args):
    from .freealg import FreeAlgebra
    from .scalars import GF, QQ, ZZ

    if args.mode == "fp":
        ring = GF(_prime(args, "--mode fp"))
    else:
        _refuse(args, "prime", f"{args.command} without --mode fp")
        ring = ZZ if args.mode == "int" else QQ
    return FreeAlgebra(_profile(args), ring)


def _json_string(text: str) -> str:
    """``text`` as a JSON string literal, with every character outside
    printable ASCII escaped, as :mod:`json` writes it by default; a dict key
    that is not a str is refused by ``str.isascii`` with TypeError."""
    if str.isascii(text) and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _json_value(value, newline: str) -> str:
    """``value`` in the JSON text of :func:`_json`, its first line starting
    after an indented key or item and its later lines after ``newline``."""
    cls = value.__class__
    if cls is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_json_string(key) + ": " + _json_value(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if cls is list or cls is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        if set(map(type, value)) == {int}:  # a word, in one join
            items = map(int.__repr__, value)
        else:
            items = [_json_value(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if cls is str:
        return _json_string(value)
    if cls is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if cls is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _json(data) -> str:
    """``json.dumps(data, indent=2)``, byte for byte, for the values that
    ``to_data`` returns: dict with str keys, list, tuple, str, int, bool and
    None.  Any other value or key raises TypeError.

    With an indent, :mod:`json` runs its pure-Python encoder, chunk by
    chunk; this writer joins each list and dict once, writes a list of ints,
    which every word is, in one join, and quotes a printable-ASCII string
    without ``"`` or ``\\`` as it is, so that no record needs ``import
    json``.
    """
    return _json_value(data, "\n")


def _emit(args, result, title=None) -> int:
    """Write ``result`` in the form --format selects; return the exit code.

    JSON is ``result.to_data()``, written by :func:`_json`; text is
    ``str(result)``, below a ``title`` line when one is given.  Only the
    selected form is built.  This is the one place where a verdict becomes
    an exit code: 1 when ``result.ok`` is false, else 0, also for a result
    that carries no verdict.
    """
    if args.format == "json":
        body = _json(result.to_data()) + "\n"
    else:
        body = (str(result) if title is None else f"{title}\n{result}") + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(body)
        except OSError as exc:
            raise ParameterError(f"cannot write {args.out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(body)
    return 0 if getattr(result, "ok", True) else 1


def cmd_fgl(args) -> int:
    from .fgl import fgl_table

    return _emit(args, fgl_table(args.degree, _algebra(args)))


def cmd_inverse(args) -> int:
    from .fgl import inverse_table

    return _emit(args, inverse_table(args.degree, _algebra(args)))


def cmd_commutator(args) -> int:
    from .fgl import commutator_filtration

    u = _algebra(args).monomial(args.word)
    return _emit(args, commutator_filtration(u, args.k, args.degree))


def cmd_expand(args) -> int:
    from .fgl import Expansion, _expand_after
    from .series import VarSet

    algebra = _algebra(args)
    source, form = args.assign
    target = VarSet(tuple(form))
    _limit(f"expand in {len(target)} variable{'s' * (len(target) > 1)} --degree", args.degree)
    terms = [
        {"exponents": list(index), "element": element}
        for index, element in _expand_after(args.degree, algebra, source, form).items()
    ]
    return _emit(args, Expansion({source: form}, args.degree, terms))


def cmd_steenrod(args) -> int:
    from .steenrod import Action, MilnorOp, bp_homology, dual_steenrod, right_action

    prime = args.prime if args.prime is not None else 2
    op = MilnorOp(prime, *args.op)
    if args.gen:
        _refuse(args, "profile", "steenrod --gen")
        family, index = args.gen
        algebra = bp_homology(prime) if family == "t" else dual_steenrod(prime)
        element = algebra.gen(index)
    else:
        from .freealg import FreeAlgebra
        from .scalars import GF

        word = args.word
        _limit("action terms", comb(op.index + len(word) - 1, len(word) - 1))
        element = FreeAlgebra(_profile(args), GF(prime)).monomial(word)
    return _emit(args, Action(prime, str(op), str(element), right_action(element, op)))


def cmd_certificate(args) -> int:
    from .steenrod import bp_obstruction_certificate, hf2_obstruction_certificate

    if args.which == "bp":
        return _emit(args, bp_obstruction_certificate(_prime(args, "certificate bp")))
    _refuse(args, "prime", "certificate hf2")
    return _emit(args, hf2_obstruction_certificate())


def cmd_poincare(args) -> int:
    from .gradebook import profile_degrees, series_free_assoc, series_graded_algebra

    if args.poly is not None or args.ext is not None:  # empty text: no generators
        _refuse(args, "profile", "poincare --poly or --ext")
        poly, ext = args.poly or [], args.ext or []
        series = series_graded_algebra(poly, ext, args.degree)
        label = f"graded algebra series, poly {poly}, exterior {ext}"
    else:
        series = series_free_assoc(profile_degrees(_profile(args), args.degree), args.degree)
        label = f"free associative series on the {_profile(args).kind} profile"
    return _emit(args, series, f"{label}, order {args.degree}")


def cmd_split(args) -> int:
    prime = _prime(args, "split")
    from .gradebook import splitting_multiplicities

    try:
        series = splitting_multiplicities(prime, args.degree)
    except ConsistencyError as exc:
        print(f"splitting inconsistency: {exc}", file=sys.stderr)
        return 1
    return _emit(args, series, f"splitting multiplicities at p = {prime}")


def cmd_parity(args) -> int:
    prime = _prime(args, "parity")
    from .gradebook import parity_check_ku

    return _emit(args, parity_check_ku(prime, args.degree))


def cmd_rational(args) -> int:
    from .gradebook import rational_mu_series_check

    return _emit(args, rational_mu_series_check(args.degree))


def cmd_verify(args) -> int:
    from .fgl import Verification, check_results, filtration_property_run, verify_axioms

    algebra = _algebra(args)
    report = verify_axioms(args.degree, algebra)
    filtration_ok, results = filtration_property_run(
        order=max(args.degree, 4), samples=args.samples, seed=args.seed, algebra=algebra
    )
    checks = check_results(report) + [("filtration", filtration_ok)]
    return _emit(args, Verification(args.degree, args.seed, checks, report, len(results)))


def _commutator_options(p):
    p.add_argument("--word", type=_word, default="1", help="comma separated generator indices")
    p.add_argument("--k", type=_at_most("commutator --k"), default=1)


def _expand_options(p):
    p.add_argument("--assign", type=_assignment, default="x=x+y",
                   help="substitution, e.g. 'x=-x' or 'x=x+y'")


def _steenrod_options(p):
    p.add_argument("--op", type=_indexed(_OP_RE, "--op", "operation", "P1 or Sq2"),
                   required=True, help="operation, e.g. P1 or Sq2")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--gen", type=_indexed(_GEN_RE, "--gen", "generator", "t2, xi1"),
                        help="polynomial generator, e.g. t2 or xi1")
    source.add_argument("--word", type=_word, help="free-algebra word, e.g. 1,1")


def _certificate_options(p):
    p.add_argument("which", choices=("bp", "hf2"))


def _poincare_options(p):
    p.add_argument("--poly", type=_degrees("--poly"), default=None,
                   help="polynomial generator degrees, e.g. 2,6,14")
    p.add_argument("--ext", type=_degrees("--ext"), default=None, help="exterior generator degrees")


def _verify_options(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_samples, default=50)


# Every subcommand, in help order: (name, handler, help line, the shared
# options its handler reads, the default --degree, and the function that
# declares its own options, after the shared ones).
COMMANDS = (
    ("fgl", cmd_fgl, "formal group law coefficient table", SHARED, 6, None),
    ("inverse", cmd_inverse, "formal inverse series coefficients", SHARED, 6, None),
    ("commutator", cmd_commutator, "commutator with a power of the orientation series",
     SHARED, 6, _commutator_options),
    ("expand", cmd_expand, "left-basis expansion of a substituted orientation series",
     SHARED, 6, _expand_options),
    ("steenrod", cmd_steenrod, "right Steenrod action on a generator or word",
     ("profile", "prime"), 6, _steenrod_options),
    ("certificate", cmd_certificate, "finite obstruction certificates", ("prime",), 6,
     _certificate_options),
    ("poincare", cmd_poincare, "graded dimension series", ("degree", "profile"), 12,
     _poincare_options),
    ("split", cmd_split, "wedge splitting multiplicities at a prime", ("degree", "prime"), 12,
     None),
    ("parity", cmd_parity, "even/odd comparison against K-homology degrees",
     ("degree", "prime"), 20, None),
    ("rational", cmd_rational, "polynomial algebra versus partition counts", ("degree",), 40,
     None),
    ("verify", cmd_verify, "aggregate axiom and filtration checks", SHARED, 6, _verify_options),
)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of ``argv``.  Every subcommand is registered with its help
    line, so that the top-level help, the choices and every usage line keep
    their bytes; only the one that ``argv`` names declares its options.  The
    top level has no option that takes a value, so that one is named by the
    first argument that does not start with ``-``."""
    parser = argparse.ArgumentParser(
        prog="ncfgl",
        description="Exact computations with a noncommutative formal group law, "
        "dual Steenrod actions, and graded dimension series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, handler, summary, reads, degree_default, options in COMMANDS:
        p = sub.add_parser(name, help=summary)
        if name == named:
            _add_common(p, name, reads, degree_default)
            if options is not None:
                options(p)
            p.set_defaults(handler=handler)
    return parser


def run(argv) -> int:
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if args.unread:
            raise ParameterError(f"--{args.unread[0]} is not read by {args.command}")
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ToolkitError as exc:  # from a handler, or from an argument's type
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
