"""The three benchmark workloads: inputs built from a seed, one timed
round of public calls, and the known-answer checks on its outputs.

The cli workload hands its seed to ``suite --seed`` as a user would.
The other two separate *support* from *values*: which monomials,
coordinates, ranks and base spaces appear is fixed (drawn once from a
constant structural seed), so every seed asks for the same amount of
work, and ``--seed`` draws the coefficients.  Each call is labelled
"primary" or "secondary"; run.py reports the two groups' totals as
primary_s and secondary_s.  A round calls the library
through ``Timer.call``, which times each call, and records every
verified outcome through ``Timer.check``.  Calls go through module
attributes, so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from structbundle import chern_simons, cli, holonomy
from structbundle.chern_simons import ConnectionPath
from structbundle.connections import Connection, GaugeTransform, gauge_apply
from structbundle.forms import MatrixForm
from structbundle.functions import BaseSpace, ChartFunction
from structbundle.randgen import Bounds, RandomGen
from structbundle.scalars import GaussRational, TauScalar

import pins

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# the ROADMAP's dense straight-path recipe draws its support from this seed
SUPPORT_SEED = 11
DENSE_BOUNDS = Bounds(max_poly_degree=1, max_fourier=1, max_tau_exp=0)
CORPUS_REPEATS = 3


class Timer:
    """Times the calls of one round and counts verified outcomes.

    Each call's time excludes the time ``sampler`` (a speed.SpeedSampler)
    spent sampling during it, and is also reported normalised by the
    machine speed the sampler saw while the call ran.  A check that
    calls the library is passed as a callable and runs inside ``quiet``,
    which a traced run sets to pause its tracer.
    """

    def __init__(self, sampler, quiet=contextlib.nullcontext):
        self.sampler = sampler
        self.calls: list[tuple[str, str, float, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.quiet = quiet

    def call(self, group: str, label: str, fn, *args):
        spent = self.sampler.spent
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.calls.append((group, label, t0, t1, t1 - t0 - (self.sampler.spent - spent)))
        return out

    def times(self) -> list[tuple[str, str, float, float]]:
        """(group, label, seconds, normalised seconds) of each call."""
        return [(group, label, secs, secs / self.sampler.slowdown(t0, t1))
                for group, label, t0, t1, secs in self.calls]

    def check(self, ok, what: str):
        if callable(ok):
            with self.quiet():
                ok = ok()
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _capture(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _gauss(rng: random.Random) -> GaussRational:
    """A nonzero Gaussian rational in the range RandomGen draws from."""
    while True:
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if re or im:
            return GaussRational(re, im)


def _phase(rng: random.Random, magnitude: Fraction,
           imaginary: bool = False) -> TauScalar:
    """magnitude times one of 1, -1, i, -i (or of i, -i): the size is
    fixed, the phase seeded."""
    re, im = rng.choice(((0, 1), (0, -1)) if imaginary
                        else ((1, 0), (-1, 0), (0, 1), (0, -1)))
    return TauScalar({0: GaussRational(magnitude * re, magnitude * im)})


# ---------------------------------------------------------------------
# cli: the scenario corpus and the seeded battery, through cli.main


class CliWorkload:
    """``cli.main(["run", f])`` on scenarios 01-11 in text and json, then
    ``cli.main(["suite", "--seed", S])``."""

    default_seed = 42
    seed_reason = "the seed of the README and test_13; its suite report is pinned"
    aliases = {"primary_s": "suite_s", "secondary_s": "corpus_s"}

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        files = sorted(p for p in SCENARIOS.glob("*.sb") if "suite" not in p.name)
        if tiny:
            files = files[:2]
        self.files = [str(p) for p in files]

    def warmup(self):
        for f in self.files:
            _capture(["run", f])

    def round(self, t: Timer):
        # the corpus calls are short, so each runs CORPUS_REPEATS times and
        # counts with its median
        for _ in range(CORPUS_REPEATS):
            for fmt in ("text", "json"):
                for f in self.files:
                    name = Path(f).name
                    code, out = t.call("secondary", f"run {fmt} {name}", _capture,
                                       ["--format", fmt, "run", f])
                    t.check(code == (1 if "fail" in name else 0),
                            f"exit code {code} for {name}")
                    t.check(sha256(out) == pins.CORPUS[fmt][name],
                            f"{fmt} report of {name} differs from its pin")
        argv = ["suite", "--seed", str(self.seed)]
        if self.tiny:
            argv += ["--scale", "0.01"]
        code, out = t.call("primary", "suite", _capture, argv)
        t.check(code == 0, f"suite exit code {code}")
        verdicts = [line.split()[0] for line in out.splitlines()
                    if line.startswith("      ")]
        t.check(len(verdicts) > 0, "suite listed no checks")
        for v in verdicts:
            t.check(v == "pass", "battery check failed")
        pinned = pins.SUITE_TEXT.get(self.seed)
        if pinned is not None and not self.tiny:
            t.check(sha256(out) == pinned, f"suite report for seed {self.seed} "
                                           "differs from its pin")


# ---------------------------------------------------------------------
# transgress: dense straight paths, cs_path and chern_character


def dense_connection(support: RandomGen, values: random.Random,
                     base: BaseSpace, rank: int) -> Connection:
    """One chart_function(base, 2) per (row, col, coordinate), drawn from
    the structural generator, with every coefficient redrawn from values."""
    entries = {}
    for r in range(rank):
        for c in range(rank):
            for k in range(base.dim):
                f = support.chart_function(base, 2)
                terms = {key: TauScalar({0: _gauss(values)}) for key in sorted(f.terms)}
                entries[(r, c, (k,))] = ChartFunction(base, terms)
    return Connection(base, rank, MatrixForm(base, rank, rank, entries))


class TransgressWorkload:
    """cs_path on R^2xT^2 and R^3xT^1 (rank 2), and chern_character on
    every endpoint plus one rank-3 connection on R^2xT^2."""

    default_seed = 11
    seed_reason = "the seed of the ROADMAP baseline, whose support every seed shares"
    aliases = {"primary_s": "cs_s", "secondary_s": "ch_s"}

    def __init__(self, seed: int, tiny: bool = False):
        support = RandomGen(SUPPORT_SEED, DENSE_BOUNDS)
        values = random.Random(seed)
        if tiny:
            shapes, big = [(BaseSpace(1, 1), 1)], (BaseSpace(1, 1), 2)
        else:
            shapes, big = [(BaseSpace(2, 2), 2), (BaseSpace(3, 1), 2)], (BaseSpace(2, 2), 3)
        self.pairs = []
        for base, n in shapes:
            c0 = dense_connection(support, values, base, n)
            c1 = dense_connection(support, values, base, n)
            self.pairs.append((c0, c1, ConnectionPath.straight(c0, c1)))
        self.big = dense_connection(support, values, *big)

    def warmup(self):
        pass

    def round(self, t: Timer):
        for c0, c1, path in self.pairs:
            tag = f"R^{c0.base.chart_dim}xT^{c0.base.torus_dim}"
            cs = t.call("primary", f"cs_path {tag}", chern_simons.cs_path, path)
            ch0 = t.call("secondary", f"ch {tag} start", Connection.chern_character, c0)
            ch1 = t.call("secondary", f"ch {tag} end", Connection.chern_character, c1)
            t.check(lambda: cs.d() == ch1 - ch0, f"d cs != ch(c1) - ch(c0) on {tag}")
            t.check(lambda: _is_chern_character(ch0, c0.rank), f"ch on {tag}")
            t.check(lambda: _is_chern_character(ch1, c1.rank), f"ch on {tag}")
        ch = t.call("secondary", "ch rank 3", Connection.chern_character, self.big)
        t.check(lambda: _is_chern_character(ch, self.big.rank), "ch rank 3")


def _is_chern_character(ch: MatrixForm, rank: int) -> bool:
    """ch is a closed even 1x1 form whose degree-0 part is the rank."""
    rank_fn = ChartFunction.constant(ch.base, TauScalar.rational(rank))
    return (ch.rows == ch.cols == 1 and not ch.d() and not ch.odd_part()
            and ch.coefficient(()) == rank_fn)


# ---------------------------------------------------------------------
# holonomy: holonomy_defect on connections with known and unknown answers

# (kind, chart_dim, torus_dim, magnitude); kinds with a known answer come
# first.  The magnitudes were chosen so that each slot's step doubling
# stopped at the same level on every seed tried (0-9): seeds change the
# answers, not the work.
HOLONOMY_SLOTS = [
    ("gauge-flat", 0, 1, Fraction(1, 2)),
    ("gauge-flat", 1, 1, Fraction(1, 4)),
    ("integer-winding", 0, 1, Fraction(1)),
    ("integer-winding", 1, 2, Fraction(1)),
    ("half-winding", 0, 2, Fraction(1, 2)),
    ("half-winding", 1, 1, Fraction(1, 2)),
    ("skew-hermitian", 0, 1, Fraction(1, 4)),
    ("skew-hermitian", 1, 1, Fraction(1, 4)),
    ("skew-hermitian", 0, 2, Fraction(1, 2)),
    ("skew-hermitian", 1, 2, Fraction(1, 2)),
    ("skew-hermitian", 0, 1, Fraction(2, 3)),
]


def _support_monomial(support: random.Random, base: BaseSpace):
    alpha = tuple(support.randint(0, 1) for _ in range(base.chart_dim))
    k = tuple(support.choice((-1, 0, 1)) for _ in range(base.torus_dim))
    return alpha, k


def holonomy_connection(kind: str, base: BaseSpace, magnitude: Fraction,
                        support: random.Random, values: random.Random):
    """A connection of the given kind and its known verdict (True for
    trivial holonomy, False for nontrivial, None when unknown)."""
    a, b = base.chart_dim, base.torus_dim
    if kind == "gauge-flat":
        alpha, k = _support_monomial(support, base)
        M = MatrixForm.from_function_matrix(base, 2, 2, {
            (0, 1): ChartFunction.monomial(base, alpha, k, _phase(values, magnitude))})
        ks = (values.choice((-1, 1)), values.choice((-1, 1)))
        g = GaugeTransform.unipotent(base, M).compose(
            GaugeTransform.fourier(base, ks, support.randrange(b)))
        return gauge_apply(g, Connection.flat(base, 2)), True
    if kind in ("integer-winding", "half-winding"):
        w = magnitude * values.choice((-1, 1))
        A = MatrixForm.scalar(base, ChartFunction.one(base).scale(
            TauScalar.rational(0, w)), (a + support.randrange(b),))
        return Connection(base, 1, A), kind == "integer-winding"
    # B is upper triangular, so no two terms of B - B^* can merge; an
    # imaginary diagonal keeps the diagonal of B - B^* from cancelling
    entries = {}
    for r, c in ((0, 0), (0, 1), (1, 1)):
        coord = a + support.randrange(b)
        alpha, k = _support_monomial(support, base)
        entries[(r, c, (coord,))] = ChartFunction.monomial(
            base, alpha, k, _phase(values, magnitude, imaginary=r == c))
    B = MatrixForm(base, 2, 2, entries)
    return Connection(base, 2, B - B.conj_transpose(), hermitian=True), None


class HolonomyWorkload:
    """holonomy_defect on gauge-flat connections, integer and
    half-integer line windings, and random skew-Hermitian connections."""

    default_seed = 42
    seed_reason = "the README's seed; every seed gives the same slots and sizes"
    aliases = {"primary_s": "unknown-answer calls", "secondary_s": "known-answer calls"}

    def __init__(self, seed: int, tiny: bool = False):
        support = random.Random(SUPPORT_SEED)
        values = random.Random(seed)
        slots = [HOLONOMY_SLOTS[i] for i in (2, 4, 6)] if tiny else HOLONOMY_SLOTS
        self.conns = []
        for kind, a, b, magnitude in slots:
            conn, known = holonomy_connection(kind, BaseSpace(a, b), magnitude,
                                              support, values)
            self.conns.append((kind, conn, known))

    def warmup(self):
        pass

    def round(self, t: Timer):
        for i, (kind, conn, known) in enumerate(self.conns):
            group = "secondary" if known is not None else "primary"
            defect = t.call(group, f"{i:02d} {kind}", holonomy.holonomy_defect, conn)
            if known is None:
                # transport of a skew-Hermitian connection is unitary
                t.check(math.isfinite(defect) and 0.0 <= defect <= 2.0 + 1e-6,
                        f"defect {defect} of {kind} outside [0, 2]")
            else:
                t.check((defect <= holonomy.DEFAULT_TOL) == known,
                        f"{kind} verdict wrong (defect {defect:.3e})")


WORKLOADS = {
    "cli": CliWorkload,
    "transgress": TransgressWorkload,
    "holonomy": HolonomyWorkload,
}
