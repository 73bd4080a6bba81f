"""The four workloads: their inputs, their round, and how rounds are compared.

A round is a fixed list of operations, always run whole and in the same
order.  ``prepare(seed)`` builds the inputs once; ``run_round(inputs, cut)``
returns the outputs and the number of operations that failed, and calls
``cut()`` between groups of operations, where the benchmark runs its
calibration loop (calibrate.py), so that no timed piece is longer than ~1 s;
``fingerprint(outputs)`` digests the outputs, so that rounds can be compared
without keeping an earlier round's objects alive during later ones.  Each round
builds fresh ``FreeAlgebra`` objects, while module-level caches of the
program (``_PSI_CACHE``, ``_CHI_CACHE``) persist from round to round, as in a
long session.

ncfgl functions are looked up on the package at call time (``ncfgl.fgl_table``
and not a name bound at import), so that the tracer's patches are seen.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A usage error exits 2, a negative verdict 1, success 0 (README "Command line").
USAGE = 2
CLI_TIMEOUT_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _no_cut():
    pass


class Workload:
    name = ""
    imports_ncfgl = True

    def prepare(self, seed: int):
        return None

    def run_round(self, inputs, cut=_no_cut):
        raise NotImplementedError

    def ops_per_round(self, inputs) -> int:
        raise NotImplementedError

    def fingerprint(self, outputs) -> str:
        return _digest(self.canonical(outputs))

    def canonical(self, outputs):
        return outputs


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _element(element):
    return element.terms()


def _series(series):
    return [(index, series.coefficient(index).terms()) for index in series.support()]


# -- table ---------------------------------------------------------------------


class Table(Workload):
    """Coefficient tables over three scalar rings and the inverse table.

    left_expand is ~95 % of this work; the three rings expose a change in
    freealg or scalars that helps one ring and hurts another.  The inputs
    are fixed orders, so every run times identical rounds; the seed is unused.
    """

    name = "table"

    def run_round(self, inputs, cut=_no_cut):
        import ncfgl

        complex_ = ncfgl.COMPLEX
        out = {"zz": ncfgl.fgl_table(14, ncfgl.FreeAlgebra(complex_, ncfgl.ZZ))}
        cut()
        out["gf3"] = ncfgl.fgl_table(14, ncfgl.FreeAlgebra(complex_, ncfgl.GF(3)))
        cut()
        out["qq"] = ncfgl.fgl_table(11, ncfgl.FreeAlgebra(complex_, ncfgl.QQ))
        cut()
        out["inverse"] = ncfgl.inverse_table(16, ncfgl.FreeAlgebra(complex_, ncfgl.ZZ))
        return out, 0

    def ops_per_round(self, inputs):
        return 4

    def canonical(self, outputs):
        # Sorting 73 000 terms per round through terms() takes ~0.6 s, so the
        # table digest uses the elements' hashes, which are stable within the
        # one process that compares them.
        return [
            (key, [(index, len(e), hash(e)) for index, e in outputs[key].items()])
            for key in sorted(outputs)
        ]


# -- verify --------------------------------------------------------------------


class Verify(Workload):
    """Axiom checks on a table built in set-up, reversion and a filtration run.

    CentralSeries products, sums, specialize and left_substitute do the work;
    left_expand runs only in set-up.
    """

    name = "verify"
    AXIOM_ORDER = 9
    REVERT_ORDER = 13
    FILTRATION = {"order": 10, "samples": 100, "max_degree": 8, "max_k": 4}

    def prepare(self, seed):
        import ncfgl

        table = ncfgl.fgl_table(self.AXIOM_ORDER, ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.ZZ))
        return {"table": table, "filtration_seed": random.Random(seed).randrange(2 ** 31)}

    def run_round(self, inputs, cut=_no_cut):
        import ncfgl

        algebra = ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.ZZ)
        report = ncfgl.verify_axioms(self.AXIOM_ORDER, algebra, table=inputs["table"])
        cut()
        reverted = ncfgl.revert(ncfgl.orientation_series(self.REVERT_ORDER, algebra))
        cut()
        filtration = ncfgl.filtration_property_run(
            seed=inputs["filtration_seed"], algebra=algebra, **self.FILTRATION
        )
        return {"axioms": report, "revert": reverted, "filtration": filtration}, 0

    def ops_per_round(self, inputs):
        return 3

    def canonical(self, outputs):
        ok, results = outputs["filtration"]
        return (
            outputs["axioms"].to_data(),
            _series(outputs["revert"]),
            ok,
            [(r.k, r.order, r.valuation, r.required, _series(r.series)) for r in results],
        )


# -- certificate ---------------------------------------------------------------


class Certificate(Workload):
    """Both obstruction certificates, centralizers over Z and F_3, and actions.

    The only workload where linalg, steenrod and commalg do the work.  The
    F_3 eliminations (certificates, F_3 centralizers) and the rational ones
    (Z centralizers) take comparable shares of a round.
    """

    name = "certificate"
    PRIME = 3
    # (generator word of w as a sum of words with coefficients, degrees)
    ZZ_CENTRALIZERS = (
        ({(1,): 1}, (2, 4, 6, 8, 10, 12, 14, 16)),
        ({(2,): 1}, (8, 12, 16)),
        ({(2,): 1, (1, 1): -1}, (8, 12, 14)),
    )
    GF3_CENTRALIZERS = (
        ({(2,): -1, (1, 1): 1}, (8, 12, 16, 18)),
        ({(1,): 1}, (14, 16, 18)),
        ({(3,): 1, (1, 2): 1}, (12, 18)),
    )
    WORD_ACTIONS = 24
    POLY_ACTIONS = 12

    def prepare(self, seed):
        # Shapes are fixed and only the letters and exponents drawn, so that
        # every seed gives rounds of about the same cost.
        rng = random.Random(seed)
        words = []
        for _ in range(self.WORD_ACTIONS // 3):
            u = tuple(rng.randint(1, 5) for _ in range(2))
            v = tuple(rng.randint(1, 5) for _ in range(2))
            words += [u, v, u + v]
        t_monos = [self._mono(rng, (rng.randint(0, 4), rng.randint(0, 4), 1)) for _ in range(self.POLY_ACTIONS)]
        xi_monos = [self._mono(rng, (rng.randint(1, 4), rng.randint(1, 4))) for _ in range(self.POLY_ACTIONS)]
        ops = [1 + n % 3 for n in range(2 * self.POLY_ACTIONS)]
        return {"words": words, "t": t_monos, "xi": xi_monos, "ops": ops}

    @staticmethod
    def _mono(rng, exponents):
        return tuple((i + 1, e) for i, e in enumerate(exponents) if e)

    def run_round(self, inputs, cut=_no_cut):
        import ncfgl

        p = self.PRIME
        out = {
            "bp": ncfgl.bp_obstruction_certificate(p),
            "hf2": ncfgl.hf2_obstruction_certificate(),
        }
        cut()
        zz = ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.ZZ)
        fp = ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.GF(p))
        centralizers = []
        for algebra, specs in ((zz, self.ZZ_CENTRALIZERS), (fp, self.GF3_CENTRALIZERS)):
            for terms, degrees in specs:
                w = algebra.element(terms)
                for d in degrees:
                    centralizers.append((w, d, ncfgl.centralizer_basis(w, d)))
        out["centralizers"] = centralizers
        cut()
        p1 = ncfgl.MilnorOp(p, "P", 1)
        out["words"] = [ncfgl.right_action(fp.monomial(word), p1) for word in inputs["words"]]
        t_alg, xi_alg = ncfgl.bp_homology(p), ncfgl.dual_steenrod(p)
        monos = [t_alg.monomial(m) for m in inputs["t"]] + [xi_alg.monomial(m) for m in inputs["xi"]]
        out["polys"] = [
            ncfgl.right_action(m, ncfgl.MilnorOp(p, "P", k)) for m, k in zip(monos, inputs["ops"])
        ]
        return out, 0

    def ops_per_round(self, inputs):
        cent = sum(len(d) for _, d in self.ZZ_CENTRALIZERS + self.GF3_CENTRALIZERS)
        return 2 + cent + len(inputs["words"]) + len(inputs["ops"])

    def canonical(self, outputs):
        return (
            outputs["bp"].to_data(),
            outputs["hf2"].to_data(),
            [(_element(w), d, [_element(b) for b in basis]) for w, d, basis in outputs["centralizers"]],
            [_element(x) for x in outputs["words"]],
            [_element(x) for x in outputs["polys"]],
        )


# -- cli -----------------------------------------------------------------------


class Cli(Workload):
    """One fresh ``python -m ncfgl.cli`` per command, one command at a time.

    Every subcommand runs once in text and once in JSON; interpreter start,
    import and rendering dominate.  Two commands break the documented exit
    code contract and are counted failed on every run.
    """

    name = "cli"
    imports_ncfgl = False

    def prepare(self, seed):
        rng = random.Random(seed)
        word = ",".join(str(rng.randint(1, 3)) for _ in range(rng.randint(1, 2)))
        k = str(rng.randint(1, 3))
        steenrod_word = ",".join(str(rng.randint(1, 3)) for _ in range(3))
        verify_seed = str(rng.randrange(1000))
        per_format = [
            (["fgl", "--degree", "10"], 0),
            (["inverse", "--degree", "12"], 0),
            (["commutator", "--word", word, "--k", k, "--degree", "8"], 0),
            (["expand", "--assign", "x=x+y", "--degree", "6"], 0),
            (["steenrod", "--prime", "3", "--op", "P1", "--gen", "t2"], 0),
            (["steenrod", "--prime", "2", "--op", "Sq1", "--word", steenrod_word, "--profile", "real"], 0),
            (["certificate", "bp", "--prime", "3"], 0),
            (["certificate", "hf2"], 0),
            (["poincare", "--profile", "complex", "--degree", "16"], 0),
            (["split", "--prime", "2", "--degree", "12"], 0),
            (["parity", "--prime", "2", "--degree", "20"], 0),
            (["rational", "--degree", "40"], 0),
            (["verify", "--degree", "6", "--seed", verify_seed], 0),
        ]
        commands = []
        for argv, code in per_format:
            commands.append((argv + ["--format", "json"], code, False))
            commands.append((argv, code, False))
        commands += [
            (["fgl", "--degree", "0"], USAGE, False),
            # Known faults, kept as operations that fail on every run: a
            # ValueError traceback with exit 1, and PASS on zero samples.
            (["poincare", "--poly", "2,,4"], USAGE, True),
            (["verify", "--samples", "-1"], USAGE, True),
        ]
        return {"commands": commands}

    def ops_per_round(self, inputs):
        return len(inputs["commands"])

    def run_round(self, inputs, cut=_no_cut, record_dir=None):
        """Run every command; with ``record_dir``, through cli_traced.py."""
        env = child_env()
        results = []
        walls = []
        failed = 0
        for n, (argv, expected, _) in enumerate(inputs["commands"]):
            if n:
                cut()
            if record_dir is None:
                cmd = [sys.executable, "-m", "ncfgl.cli"] + argv
            else:
                record = os.path.join(record_dir, f"cmd{n}.json")
                cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), record] + argv
            begin = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, env=env, timeout=CLI_TIMEOUT_S)
            walls.append(time.perf_counter() - begin)
            results.append((proc.returncode, proc.stdout))
            if proc.returncode != expected:
                failed += 1
        self.last_walls = walls
        return results, failed


WORKLOADS = {w.name: w for w in (Table(), Verify(), Certificate(), Cli())}
