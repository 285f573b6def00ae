"""The five workloads: seeded operation blocks, one run per operation, and
the check of every answer against a reference.

Blocks have a fixed composition and order; the seed only draws the
coefficients, so runs of different seeds do the same mix of work.  Checks
that need the program itself (normal forms, twisted scenes, in-process CLI
output) run after the timed phase, so they neither count as set-up nor
warm sympy's cache for a timed input.

Check statuses: ``ok``, ``rejected`` (an independent reference confirms
the refusal, or a malformed CLI input ended in exit 1 with an ``error:``
line) and ``unstabilized`` (the oracle ladder gave no answer) are not
failures.  ``wrong`` is a wrong answer to a well-formed input: an exact
value against its closed form, a spectral law, an audit breach or twist
dependence, a CLI process against in-process ``cli.main`` or against a
reference; it makes the run incorrect.  Every other status is a counted
failure: a refusal no reference confirms (``rejected_valid``), an answer
where the reference rejects the input, an oracle count that disagrees with
a verified exact answer, a traceback, an unexpected exception, a malformed
CLI input that was coerced or crashed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from itertools import chain, zip_longest

import numpy as np

import calib
import gen

TWO_PI = 2 * np.pi
EPSILON_LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
RADIUS_LADDER = (0.3, 0.15, 0.08, 0.04)
CLI_TIMEOUT_S = 120


def _interleave(*lists):
    return [op for op in chain.from_iterable(zip_longest(*lists)) if op is not None]


def pkg(name):
    return importlib.import_module(f"siefring_kit.{name}")


def op_inputs(op):
    """JSON text of an op's inputs; CLI file arguments by their content."""
    if "argv" not in op:
        return json.dumps(op["in"], sort_keys=True)
    texts = []
    for arg in op["argv"]:
        if arg.endswith(".json") and os.path.exists(arg):
            with open(arg, encoding="utf-8") as fh:
                arg = fh.read()
        texts.append(arg)
    return json.dumps(texts)


class Workload:
    """Base: ``block(rng)`` returns the next list of ``BLOCK_OPS`` op dicts,
    ``run(op)`` does the work (raising on refusal), ``check(op, outcome)``
    returns ``(status, detail)``.  ``OPS_PER_S`` is the rate of a 2-core
    x86-64 cloud VM shared with other tenants, which sizes a run (see
    ``run.py``)."""

    BLOCK_OPS = 1
    OPS_PER_S = 1.0
    # ops run in this process and are timed on its CPU clock, which leaves
    # out the time the hypervisor gives this machine's CPU to other tenants
    CLOCK = staticmethod(time.process_time)
    CALIBRATE_EVERY_S = 0.2
    REFERENCE_S = calib.REFERENCE_S

    def calibration_samples(self):
        """Times of the reference work that scales this workload's op times
        (see ``calib.py``), on the ops' clock."""
        return [calib.sample(self.CLOCK) for _ in range(3)]

    def __init__(self, tracer, root):
        self.t = tracer
        self.root = root

    def setup(self):
        pass

    def prepare(self, op):
        """Turn an op's JSON inputs into package objects (outside timing)."""

    def key(self, op):
        """Identity of an op's inputs, used to keep timed inputs distinct."""
        return op_inputs(op)

    def warm_ops(self, ops):
        """The first op of each kind in a warm-up block."""
        return list({op["kind"]: op for op in reversed(ops)}.values())


# -- independent references ---------------------------------------------------


DOMAIN_REFUSAL = "germ domain too large"
RADIUS_REFUSAL = "radius too large"


def _gaussian(c):
    import sympy

    return sympy.Rational(c[0], c[1]) + sympy.I * sympy.Rational(c[2], c[3])


def domain_refused(germ, cover=1):
    """True if gcd(p, q) of a JSON germ precomposed with z -> z^cover has a
    root besides 0, the case ``local_intersection`` refuses for its second
    germ; computed from the JSON with sympy alone."""
    import sympy

    z = sympy.Symbol("z")
    p, q = (
        sympy.Poly(sum(_gaussian(c) * z ** (cover * e) for e, c in enumerate(germ[key])), z, domain="QQ_I")
        for key in ("p", "q")
    )
    return len(sympy.gcd(p, q).terms()) > 1


def reference_delta(u):
    """delta of a simple germ from its normal form's branch orders, or None
    if the normal form refuses it."""
    germs = pkg("germs")
    try:
        return germs.delta_from_normal_form(germs.normal_form(u))
    except germs.InputError:
        return None


def scene_star(scene, u_id, v_id):
    """star(u, v) of a JSON scene: the pairing entry minus the winding-bound
    term of every same-sign pair of punctures on covers of one orbit."""
    covers = {o["id"]: o["covers"] for o in scene["orbits"]}
    curves = {c["id"]: c for c in scene["curves"]}
    total = next(e["bullet"] for e in scene["pairing"] if {e["u"], e["v"]} == {u_id, v_id})
    for pu in curves[u_id]["punctures"]:
        for pv in curves[v_id]["punctures"]:
            if pu["sign"] != pv["sign"] or pu["orbit"] != pv["orbit"]:
                continue
            cov = covers[pu["orbit"]]
            k, m = pu["multiplicity"], pv["multiplicity"]
            if pu["sign"] == "+":
                a_k, a_m = cov[str(k)]["alpha_minus"], cov[str(m)]["alpha_minus"]
                total -= min(-k * a_m, -m * a_k)
            else:
                a_k, a_m = cov[str(k)]["alpha_plus"], cov[str(m)]["alpha_plus"]
                total -= min(k * a_m, m * a_k)
    return total


def adjunction_numerator(scene, cid):
    """2 (delta + delta_inf) of a JSON scene's curve: star(u, u) - c_N -
    (sigma_bar total - #punctures); odd or negative means inconsistent."""
    covers = {o["id"]: o["covers"] for o in scene["orbits"]}
    curve = next(c for c in scene["curves"] if c["id"] == cid)
    punctures = curve["punctures"]
    c_n = curve["rel_c1"] - (2 - 2 * curve["genus"] - len(punctures))
    sigma = 0
    for p in punctures:
        k = p["multiplicity"]
        cov = covers[p["orbit"]][str(k)]
        a = cov["alpha_minus"] if p["sign"] == "+" else cov["alpha_plus"]
        c_n += a if p["sign"] == "+" else -a
        sigma += math.gcd(k, a) if a else k
    return scene_star(scene, cid, cid) - c_n - (sigma - len(punctures))


# -- germs --------------------------------------------------------------------


# Nonzero higher terms (tangent, other) of an axis germ, one entry per pair
# of a block.  The seed draws only their places and coefficients, so every
# block has the same cost mix and the same share of refusals: the counts
# follow the odds of ``gen.axis_germ`` (extra=2), which gives about one
# second germ in seven the form (0, z^kv (1 + ...)), the domain refusal.
# Here that is the first and the seventh entry.
_TERMS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 1), (2, 2), (2, 0), (0, 2), (1, 2), (1, 1), (0, 1), (1, 2), (1, 2))

# (k, m, ku, kv): covers u^k, v^m of an axis pair of orders ku, kv
COVER_CASES = ((2, 1, 1, 2), (1, 2, 2, 1), (2, 2, 1, 2), (2, 2, 2, 1))
EXACT_ORDERS = tuple((ku, kv) for ku in range(1, 4) for kv in range(1, 4)) + tuple(c[2:] for c in COVER_CASES)
# (k, nonzero higher terms of q), within the range of ``gen.simple_germ``
EXACT_SINGLES = ((2, 4), (3, 4), (4, 2), (4, 3))


class GermExact(Workload):
    """Transverse axis-germ pairs, their branched covers, simple germs."""

    BLOCK_OPS = len(EXACT_ORDERS) + len(EXACT_SINGLES)
    OPS_PER_S = 19.0

    def setup(self):
        self.germs = pkg("germs")

    def _germ(self, data):
        return self.germs.germ_from_dict(data)

    def block(self, rng):
        # orders up to 3 and two higher terms: a fourth-order pair with three
        # costs up to 100x a small one, and so few fit in a run that neither
        # the rate nor the median settles from one seed to the next.  The
        # simple germs cost about as much as the middle pairs, so that the
        # median falls inside that group, not on the step below it
        pairs, covers, deltas = [], [], []
        for i, (ku, kv) in enumerate(EXACT_ORDERS):
            u = gen.axis_germ_with(rng, ku, 0, *_TERMS[i - 5])
            v = gen.axis_germ_with(rng, kv, 1, *_TERMS[i])
            if i < 9:
                pairs.append({"kind": "pair", "in": [u, v], "expect": ku * kv})
            else:
                k, m = COVER_CASES[i - 9][:2]
                covers.append({"kind": "cover", "in": [u, v, k, m], "expect": k * m * ku * kv})
        for k, terms in EXACT_SINGLES:
            deltas.append({"kind": "delta", "in": [gen.simple_germ_with(rng, k, terms)]})
        return _interleave(pairs, covers, deltas)

    def prepare(self, op):
        op["germs"] = [self._germ(d) for d in op["in"] if isinstance(d, dict)]

    def run(self, op):
        g = self.germs
        if op["kind"] == "pair":
            return g.local_intersection(*op["germs"])
        if op["kind"] == "cover":
            u, v = op["germs"]
            k, m = op["in"][2], op["in"][3]
            return g.local_intersection(g.branched_cover(u, k), g.branched_cover(v, m))
        return g.delta_local(op["germs"][0])

    def check(self, op, outcome):
        kind, value = outcome
        if kind == "error":
            return "exception", value
        if op["kind"] == "delta":
            ref = reference_delta(op["germs"][0])
            if kind == "reject":
                return ("rejected", value) if ref is None else ("rejected_valid", value)
            if ref is None:
                return "answered_rejected", f"delta {value} where the normal form rejects"
            return ("ok", None) if value == ref else ("wrong", f"delta {value} != {ref}")
        if kind == "reject":
            # only the domain refusal has a reason to happen on these pairs:
            # the second germ meets the origin's fiber away from 0
            cover = op["in"][3] if op["kind"] == "cover" else 1
            if value.split(": ", 1)[-1].startswith(DOMAIN_REFUSAL) and domain_refused(op["in"][1], cover):
                return "rejected", value
            return "rejected_valid", value
        if value != op["expect"]:
            return "wrong", f"iota {value} != {op['expect']}"
        return "ok", None


# ((ku, kv), term counts of u, term counts of v) as in ``_TERMS``; the two
# domain refusals are the known defect when the oracle answers them anyway.
# Pairs are three ops in four, so the median falls among them.
ORACLE_PAIRS = tuple(zip(((1, 2), (1, 1), (2, 1), (1, 1)) * 3, _TERMS[5:12] + _TERMS[:5], _TERMS[:12]))
ORACLE_SINGLES = ((2, 4), (3, 2), (4, 1), (4, 3))


class GermOracle(GermExact):
    """One op is one cross-check: the exact answer or refusal, then the
    oracle count stabilized over the (radius, epsilon) ladder."""

    BLOCK_OPS = len(ORACLE_PAIRS) + len(ORACLE_SINGLES)
    OPS_PER_S = 10.0

    def block(self, rng):
        pairs, singles = [], []
        for (ku, kv), u_terms, v_terms in ORACLE_PAIRS:
            u, v = gen.axis_germ_with(rng, ku, 0, *u_terms), gen.axis_germ_with(rng, kv, 1, *v_terms)
            pairs.append({"kind": "pair", "in": [u, v], "expect": ku * kv})
        for k, terms in ORACLE_SINGLES:
            singles.append({"kind": "delta", "in": [gen.simple_germ_with(rng, k, terms)]})
        return _interleave(pairs[::3], pairs[1::3], pairs[2::3], singles)

    def _ladder(self, oracle, seed):
        """The count at the first radius whose two smallest epsilons agree.
        The oracle's radius pre-check does not depend on epsilon, so a
        radius it refuses is left after one cell."""
        cells = 0
        for radius in RADIUS_LADDER:
            values = []
            for eps in EPSILON_LADDER:
                cells += 1
                try:
                    values.append(oracle(epsilon=eps, radius=radius, seed=seed))
                except self.germs.InputError as exc:
                    if str(exc).startswith(RADIUS_REFUSAL):
                        break
                    values.append(None)
            if len(values) == len(EPSILON_LADDER) and values[-1] is not None and values[-2] == values[-1]:
                return values[-1], cells
        return None, cells

    def run(self, op):
        g = self.germs
        if op["kind"] == "pair":
            u, v = op["germs"]
            exact_fn, oracle = g.local_intersection, g.numeric_intersection_oracle
            args = (u, v)
        else:
            u = op["germs"][0]
            exact_fn, oracle = g.delta_local, g.numeric_double_point_oracle
            args = (u,)
        try:
            exact = ("value", exact_fn(*args))
        except g.InputError as exc:
            exact = ("reject", f"{type(exc).__name__}: {exc}")
        value, cells = self._ladder(lambda **kw: oracle(*args, **kw), op["index"])
        self.t.count("germs.oracle.items")
        self.t.count("germs.oracle.cells", cells)
        if value is not None:
            self.t.count("germs.oracle.answers")
            if exact != ("value", value):
                self.t.count("germs.oracle.disagreements")
        return exact, value

    def check(self, op, outcome):
        kind, value = outcome
        if kind != "value":
            return "exception", value
        exact, oracle = value
        status, detail = super().check(op, exact)
        if status == "rejected":
            if oracle is not None:
                return "answered_rejected", f"oracle answered {oracle} where the exact path rejects"
            return status, detail
        if status != "ok":
            return status, detail
        if oracle is None:
            return "unstabilized", None
        if oracle != exact[1]:
            # the exact answer matched its closed form: the cross-check failed
            return "oracle_wrong", f"oracle {oracle} != exact {exact[1]}"
        return "ok", None


# -- spectrum -----------------------------------------------------------------


ORBIT_CUTOFF = 8
COVER_BASE_CUTOFF = 8
# by cost: five ops from 0.1x to 0.6x of an orbit over covers 1..4, then
# two reports and a constant loop near 0.8x and four such orbits, so the
# median and the 75th percentile fall inside that group of seven
SPECTRUM_BLOCK = (
    ("orbit", 4), ("report", None), ("orbit", 3), ("cover", 3), ("orbit", 4), ("const", None),
    ("orbit", 2), ("report", None), ("decay", None), ("orbit", 4), ("cover", 2), ("orbit", 4),
)
REPORT_CUTOFF = 32
REPORT_WINDOW = 10.0


class Spectrum(Workload):
    """Orbits over covers 1..K, reports, cover spectra, constant loops and
    a minority of ODE decay fits."""

    BLOCK_OPS = len(SPECTRUM_BLOCK)
    OPS_PER_S = 5.5

    def setup(self):
        self.sp = pkg("spectrum")

    def block(self, rng):
        def loop(lo=1, hi=3):
            return gen.random_loop(rng, int(rng.integers(lo, hi + 1)))

        ops = []
        for kind, arg in SPECTRUM_BLOCK:
            if kind in ("orbit", "report"):
                ops.append({"kind": kind, "in": [loop(), arg]})
            elif kind == "cover":
                ops.append({"kind": kind, "in": [loop(1, 2), arg]})
            elif kind == "const":
                c = float(rng.choice([-1, 1]) * rng.uniform(0.5, 3.0))
                ops.append({"kind": kind, "in": [c]})
            else:
                ops.append({"kind": kind, "in": [gen.decay_problem(rng)]})
        return ops

    def prepare(self, op):
        if op["kind"] in ("orbit", "report", "cover"):
            op["loop"] = self.sp.loop_from_dict(op["in"][0])

    def run(self, op):
        sp, kind = self.sp, op["kind"]
        if kind == "orbit":
            orbit = sp.orbit_from_loop("o", op["loop"], range(1, op["in"][1] + 1), ORBIT_CUTOFF)
            return {k: (c.alpha_minus, c.alpha_plus) for k, c in orbit.cover_table.items()}
        if kind == "report":
            return sp.spectrum_report(op["loop"], REPORT_CUTOFF, -REPORT_WINDOW, REPORT_WINDOW)
        if kind == "cover":
            k = op["in"][1]
            base = sp.eigen_window(sp.assemble(op["loop"], COVER_BASE_CUTOFF), -5.0, 5.0)
            cover_op = sp.assemble(sp.cover_operator(op["loop"], k), COVER_BASE_CUTOFF * k + 4)
            pairs = sp.eigen_window(cover_op, -5.0 * k - 1.0, 5.0 * k + 1.0)
            rec = sp.alphas_from_spectrum(cover_op)
            neg = [q for q in pairs if q.eigenvalue < 0]
            pos = [q for q in pairs if q.eigenvalue > 0]
            extremal = [
                (q.winding, sp.covering_multiplicity(q, k))
                for q in (neg[-1], pos[0])
                if q.multiplicity == 1
            ]
            return {
                "base": [(p.eigenvalue, p.winding) for p in base],
                "cover": [(q.eigenvalue, q.winding) for q in pairs],
                "parity": rec.parity,
                "extremal": extremal,
            }
        if kind == "const":
            c = op["in"][0]
            op_ = sp.assemble(sp.constant_loop(c * np.eye(2)), REPORT_CUTOFF)
            pairs = sp.eigen_window(op_, -3 * TWO_PI, 3 * TWO_PI)
            rec = sp.alphas_from_spectrum(op_)
            return {
                "pairs": [(p.eigenvalue, p.winding, p.multiplicity) for p in pairs],
                "alphas": (rec.alpha_minus, rec.alpha_plus, rec.parity, rec.cz),
            }
        prob = op["in"][0]
        S, B = np.array(prob["S"]), np.array(prob["B"])
        traj = sp.integrate_linear_ode(lambda s: S + np.exp(-s) * B, prob["v0"], 0.0, 20.0, 4000)
        fit = sp.fit_decay(traj)
        return fit.lambda_fit, fit.direction_fit.tolist()

    def check(self, op, outcome):
        kind, value = outcome
        if kind == "error":
            return "exception", value
        if kind == "reject":
            return "rejected_valid", value
        problem = getattr(self, f"_check_{op['kind']}")(op, value)
        return ("wrong", problem) if problem else ("ok", None)

    @staticmethod
    def _windings_law(windings):
        if windings != sorted(windings):
            return "windings not monotone in the eigenvalue"
        counts = {w: windings.count(w) for w in windings}
        bad = [w for w in counts if min(windings) < w < max(windings) and counts[w] != 2]
        return f"interior windings {bad} not doubled" if bad else None

    def _check_orbit(self, op, table):
        am1, ap1 = table[1]
        for k, (am, ap) in table.items():
            if ap - am not in (0, 1):
                return f"cover {k}: parity {ap - am}"
            if am < k * am1 or ap > k * ap1:
                return f"cover {k}: ({am}, {ap}) misses the k-fold base pairs ({am1}, {ap1})"
        return None

    def _check_report(self, op, rep):
        problem = self._windings_law(rep["windings"])
        if problem:
            return problem
        neg = [w for lam, w in zip(rep["eigenvalues"], rep["windings"]) if lam < 0]
        pos = [w for lam, w in zip(rep["eigenvalues"], rep["windings"]) if lam > 0]
        if neg and neg[-1] != rep["alpha_minus"] or pos and pos[0] != rep["alpha_plus"]:
            return "extremal windings disagree with the listed spectrum"
        if rep["cz"] != 2 * rep["alpha_minus"] + rep["parity"]:
            return "cz != 2 alpha_minus + parity"
        return None

    def _check_cover(self, op, res):
        k = op["in"][1]
        for lam, w in res["base"]:
            matches = [cw for cl, cw in res["cover"] if abs(cl - k * lam) < 1e-6]
            if k * w not in matches:
                return f"base eigenpair ({lam}, {w}) has no k-fold image on the {k}-cover"
        for w, cov in res["extremal"]:
            expected = math.gcd(k, w) if w else k
            if cov != expected:
                return f"covering multiplicity {cov} != {expected} for winding {w}"
        if res["parity"] not in (0, 1):
            return "parity not 0 or 1"
        return self._windings_law([w for _, w in res["cover"]])

    def _check_const(self, op, res):
        c = op["in"][0]
        lo, hi = -3 * TWO_PI, 3 * TWO_PI
        expected = sorted(
            TWO_PI * n - c for n in range(-5, 6) for _ in (0, 1) if lo <= TWO_PI * n - c <= hi
        )
        if len(res["pairs"]) != len(expected):
            return f"{len(res['pairs'])} eigenvalues, expected {len(expected)}"
        for (lam, w, mult), ref in zip(res["pairs"], expected):
            if abs(lam - ref) >= 1e-8 * max(1.0, abs(ref)) or mult != 2:
                return f"eigenvalue {lam} (x{mult}) != 2 pi n - c = {ref}"
            if w != round((ref + c) / TWO_PI):
                return f"winding {w} for eigenvalue {ref}"
        n_plus = math.floor(c / TWO_PI) + 1
        if tuple(res["alphas"]) != (n_plus - 1, n_plus, 1, 2 * n_plus - 1):
            return f"alphas {res['alphas']} != closed form"
        return None

    def _check_decay(self, op, res):
        prob = op["in"][0]
        rate, direction = res
        if abs(rate - prob["rate"]) >= 1e-3:
            return f"rate error {rate - prob['rate']}"
        d, ref = np.array(direction), np.array(prob["direction"])
        if min(np.linalg.norm(d - ref), np.linalg.norm(d + ref)) >= 1e-2:
            return "direction error above 1e-2"
        return None


# -- scenes -------------------------------------------------------------------


SCENE_SIZES = ((3, 4, 4), (4, 5, 5), (5, 6, 5), (6, 8, 6))
AUDIT_SHIFTS = 24


class Scenes(Workload):
    """Build, audit, and report every curve and curve pair of a scene."""

    BLOCK_OPS = len(SCENE_SIZES)
    OPS_PER_S = 34.0

    def setup(self):
        self.core = pkg("core")
        self.xn = pkg("intersection")
        self.audit = pkg("audit")
        self.errors = pkg("errors")

    def block(self, rng):
        ops = []
        for n_orbits, n_curves, max_punctures in SCENE_SIZES:
            scene = gen.random_scene(rng, n_orbits, n_curves, max_punctures)
            ops.append(
                {
                    "kind": f"scene{n_curves}",
                    "in": [scene, int(rng.integers(0, 2**31))],
                    "twist": gen.random_twist(rng, scene),
                }
            )
        return ops

    def _answers(self, scene):
        xn = self.xn
        ids = [c.id for c in scene.curves]
        reports = {}
        for cid in ids:
            try:
                reports[cid] = xn.curve_report(scene, cid)
            except self.errors.InconsistencyError as exc:
                self.t.count("intersection.inconsistent")
                reports[cid] = f"inconsistent: {exc}"
        stars = {f"{u},{v}": xn.star(scene, u, v) for i, u in enumerate(ids) for v in ids[i:]}
        text = json.dumps([reports, stars], sort_keys=True)
        return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()

    def run(self, op):
        scene = self.core.scene_from_dict(op["in"][0])
        report = self.audit.audit_scene(scene, shifts=AUDIT_SHIFTS, seed=op["in"][1])
        self.t.count("audit.breaches", len(report["breaches"]))
        return len(report["breaches"]), self._answers(scene)

    def check(self, op, outcome):
        kind, value = outcome
        if kind == "error":
            return "exception", value
        if kind == "reject":
            return "rejected_valid", value
        breaches, answers = value
        if breaches:
            return "wrong", f"{breaches} invariance breaches"
        scene = self.core.scene_from_dict(op["in"][0])
        twisted = self.core.shift_scene(scene, self.core.TrivializationShift(op["twist"]))
        if self._answers(twisted) != answers:
            return "wrong", "curve reports or star pairings change under a twist"
        return "ok", None


# -- cli ----------------------------------------------------------------------


CLI_GROUPS = ("closed", "curve", "star", "audit", "spectrum", "germ_iota", "germ_delta", "germ_oracle")
MALFORMED = ("scene_missing_id", "alpha_float", "rel_c1_float", "germ_float", "loop_nan")


class CliInputs:
    """Small generated inputs for every subcommand, written as files."""

    def __init__(self, workdir, prefix):
        self.workdir = workdir
        self.prefix = prefix
        self.n = 0

    def write(self, payload):
        path = os.path.join(self.workdir, f"{self.prefix}{self.n}.json")
        self.n += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def small_scene(self, rng):
        return gen.random_scene(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), 3)

    def wellformed(self, rng, name):
        """(group, argv, expectation) for one subcommand; the expectation
        names the reference (see ``cli_expected``) and carries its data."""
        if name == "closed_cp2":
            d = int(rng.integers(1, 51))
            return "closed", ["closed", "cp2", "--degree", str(d)], ("cp2", (d - 1) * (d - 2) // 2)
        if name == "closed_nodal":
            a = int(rng.integers(0, 3))
            return "closed", ["closed", "nodal-split", "--components", str(a), str(2 - a)], ("nodal", a)
        if name in ("curve", "star", "audit"):
            scene = self.small_scene(rng)
            ids = [c["id"] for c in scene["curves"]]
            path = self.write(scene)
            if name == "curve":
                cid = str(rng.choice(ids))
                return "curve", ["curve", path, cid], ("curve", scene, cid)
            if name == "star":
                u, v = str(rng.choice(ids)), str(rng.choice(ids))
                return "star", ["star", path, u, v], ("star", scene, u, v)
            return "audit", ["audit", path, "--shifts", "20", "--seed", str(int(rng.integers(0, 1000)))], ("audit",)
        if name == "spectrum":
            path = self.write(gen.random_loop(rng, int(rng.integers(1, 4))))
            return "spectrum", ["spectrum", path, "--cutoff", "16", "--window", "-6", "6"], ("spectrum",)
        if name == "germ_delta":
            germ = gen.simple_germ(rng, int(rng.integers(2, 4)))
            return "germ_delta", ["germ", "delta", self.write(germ)], ("delta", germ)
        ku, kv = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        u, v = gen.axis_germ(rng, ku, 0, extra=2), gen.axis_germ(rng, kv, 1, extra=2)
        a, b = self.write(u), self.write(v)
        if name == "germ_iota":
            return "germ_iota", ["germ", "iota", a, b], ("iota", ku * kv, v)
        return "germ_oracle", ["germ", "oracle", a, b], ("oracle",)

    def malformed(self, rng, defect):
        """Inputs from the known defect list; each must end in exit 1 with
        an ``error:`` line."""
        if defect in ("scene_missing_id", "alpha_float", "rel_c1_float"):
            scene = self.small_scene(rng)
            cid = scene["curves"][0]["id"]
            # a fraction with the value's sign, so that int() would silently
            # truncate it back to the original integer
            if defect == "scene_missing_id":
                del scene["curves"][-1]["id"]
            elif defect == "alpha_float":
                cover = scene["orbits"][0]["covers"]["1"]
                cover["alpha_minus"] += math.copysign(0.7, cover["alpha_minus"])
            else:
                curve = scene["curves"][0]
                curve["rel_c1"] += math.copysign(0.9, curve["rel_c1"])
            return "malformed", ["curve", self.write(scene), cid], None
        if defect == "germ_float":
            germ = gen.simple_germ(rng, int(rng.integers(2, 4)))
            germ["q"][-1] = [1.9, 1, 0, 1]
            return "malformed", ["germ", "delta", self.write(germ)], None
        loop = gen.random_loop(rng, 1)
        loop["modes"][0]["cos"][0][0] = float("nan")
        return "malformed", ["spectrum", self.write(loop)], None


def run_cli(root, argv):
    """One fresh ``siefring-kit`` process: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "siefring_kit.cli", *argv],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main_in_process(argv):
    """``cli.main`` in this process with captured streams."""
    cli = pkg("cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_expected(expect, code, out, err):
    """Check a well-formed input's exit code and output against its
    reference.  Exit 0 must give the reference's value where there is one;
    exit 1 or 2 counts as a refusal only where the reference confirms it."""
    what = expect[0]
    if code == 3:
        return "wrong", f"{what}: exit 3, {err.strip()[:100]}"
    if what == "curve":
        n = adjunction_numerator(expect[1], expect[2])
        inconsistent = n % 2 or n < 0
        if code == 2 and inconsistent:
            return "rejected", None
        if code == 0 and not inconsistent:
            got = json.loads(out)["adjunction_defect"]
            return ("ok", None) if got == n // 2 else ("wrong", f"adjunction defect {got} != {n // 2}")
        if code == 0:
            return "wrong", f"exit 0 where the adjunction numerator {n} is inconsistent"
    elif code == 0:
        if what == "cp2":
            got, ref = json.loads(out)["delta"], expect[1]
        elif what == "nodal":
            if expect[1] != 1:
                return "wrong", f"nodal split ({expect[1]}, {2 - expect[1]}) accepted"
            got, ref = json.loads(out)["cross_pairing"], 1
        elif what == "star":
            got, ref = json.loads(out)["star"], scene_star(*expect[1:])
        elif what == "iota":
            got, ref = int(out), expect[1]
        elif what == "delta":
            got, ref = int(out), reference_delta(pkg("germs").germ_from_dict(expect[1]))
        else:
            return "ok", None
        return ("ok", None) if got == ref else ("wrong", f"{what} {got} != reference {ref}")
    elif code == 1 and what == "nodal" and expect[1] in (0, 2):
        return "rejected", None
    elif code == 1 and what == "iota" and DOMAIN_REFUSAL in err and domain_refused(expect[2]):
        return "rejected", None
    return "rejected_valid", f"{what}: exit {code}, {err.strip()[:100]}"


def check_cli(op, outcome, ref=None):
    """Compare one CLI process against in-process ``cli.main`` (``ref``,
    its (exit code, stdout), or run here) and against the reference."""
    kind, value = outcome
    if kind != "value":
        return "exception", value
    code, out, err = value
    if "Traceback" in err:
        return "traceback", err.strip().splitlines()[-1]
    if op["group"] == "malformed":
        if code == 0:
            return "coerced", f"{op['defect']}: exit 0 with output {out.strip()[:60]!r}"
        if code != 1 or not any(line.startswith("error:") for line in err.splitlines()):
            return "bad_exit", f"{op['defect']}: exit {code}"
        return "rejected", None
    ref = ref or main_in_process(op["argv"])[:2]
    if (code, out) != tuple(ref):
        return "wrong", f"{op['argv'][:2]}: process ({code}) differs from in-process main ({ref[0]})"
    return cli_expected(op["expect"], code, out, err)


# every subcommand and every defect of ``MALFORMED`` once per block
CLI_ORDER = (
    "closed_cp2", "curve", "scene_missing_id", "star", "audit", "alpha_float", "spectrum",
    "rel_c1_float", "germ_iota", "germ_delta", "germ_float", "germ_oracle", "loop_nan", "closed_nodal",
)
PROBE_ORDER = tuple(n for n in CLI_ORDER if n not in MALFORMED)


class Cli(Workload):
    """Every subcommand one after another as a fresh process, with seeded
    well-formed and malformed inputs."""

    BLOCK_OPS = len(CLI_ORDER)
    OPS_PER_S = 1.0
    CLOCK = staticmethod(time.perf_counter)
    CALIBRATE_EVERY_S = 3.0
    REFERENCE_S = calib.REFERENCE_PROCESS_S

    def calibration_samples(self):
        return [calib.process_sample()]

    def setup(self):
        self.inputs = CliInputs(self.workdir, "op")

    def warm_ops(self, ops):
        # one process compiles the bytecode; the timed processes stay cold
        return ops[:1]

    def block(self, rng):
        ops = []
        for name in CLI_ORDER:
            if name in MALFORMED:
                group, argv, _ = self.inputs.malformed(rng, name)
                ops.append({"kind": group, "group": group, "defect": name, "argv": argv})
            else:
                group, argv, expect = self.inputs.wellformed(rng, name)
                ops.append({"kind": group, "group": group, "argv": argv, "expect": expect})
        return ops

    def run(self, op):
        return self.t.span("cli.process", run_cli, self.root, op["argv"])

    def check(self, op, outcome):
        return check_cli(op, outcome)


WORKLOADS = {
    "germ-exact": GermExact,
    "germ-oracle": GermOracle,
    "spectrum": Spectrum,
    "scenes": Scenes,
    "cli": Cli,
}
