"""Seeded input generators of the benchmark.

They draw from the same families as the test-suite helpers (transverse
axis germs, monomial-normal-form simple germs, random Fourier loops of
bandwidth 1-3, random scenes), but live here so that an edit to the tests
cannot silently change what the benchmark measures.  Every generator
returns plain JSON-ready data: the package's own readers turn it into
objects, and the CLI workload writes the same data to files.
"""

from __future__ import annotations

import math

import numpy as np


def rand_coeff(rng, allow_imag=True):
    """Gaussian rational as [re_num, re_den, im_num, im_den]."""
    re_num, re_den = int(rng.integers(-3, 4)), int(rng.choice([1, 2, 3]))
    im_num, im_den = 0, 1
    if allow_imag and rng.random() < 0.4:
        im_num, im_den = int(rng.integers(-2, 3)), int(rng.choice([1, 2]))
    return [re_num, re_den, im_num, im_den]


ZERO = [0, 1, 0, 1]
ONE = [1, 1, 0, 1]


def _is_zero(c):
    return c[0] == 0 and c[2] == 0


def nonzero_coeff(rng):
    while True:
        c = rand_coeff(rng)
        if not _is_zero(c):
            return c


def _higher_terms(rng, places, count):
    """``places`` slots of which ``count``, at seeded places, hold nonzero
    coefficients."""
    chosen = set(rng.choice(places, size=count, replace=False).tolist()) if count else set()
    return [nonzero_coeff(rng) if i in chosen else ZERO for i in range(places)]


def axis_germ(rng, k, axis, extra=3) -> dict:
    """Germ of vanishing order k tangent to coordinate axis ``axis``."""
    lead = [ZERO] * k + [ONE] + [rand_coeff(rng) if rng.random() < 0.5 else ZERO for _ in range(extra)]
    other = [ZERO] * (k + 1) + [rand_coeff(rng) if rng.random() < 0.6 else ZERO for _ in range(extra)]
    return {"p": lead, "q": other} if axis == 0 else {"p": other, "q": lead}


def axis_germ_with(rng, k, axis, lead_terms, other_terms, extra=2) -> dict:
    """Germ of the ``axis_germ`` family with a given number of nonzero
    higher terms in the tangent and in the other component."""
    lead = [ZERO] * k + [ONE] + _higher_terms(rng, extra, lead_terms)
    other = [ZERO] * (k + 1) + _higher_terms(rng, extra, other_terms)
    return {"p": lead, "q": other} if axis == 0 else {"p": other, "q": lead}


def simple_germ_with(rng, k, terms) -> dict:
    """Germ (z^k, q) of the ``simple_germ`` family whose q has ``terms``
    nonzero terms, from z^(k+1) on; z^k and z^(k+1) make it simple."""
    return {"p": [ZERO] * k + [ONE], "q": [ZERO] * (k + 1) + [nonzero_coeff(rng) for _ in range(terms)]}


def simple_germ(rng, k) -> dict:
    """Monomial-normal-form germ (z^k, higher terms) that is not a cover.

    Redraws the higher terms until some exponent is coprime to the others,
    which is the definition of the family, not a filter on outcomes.
    """
    while True:
        deg_q = k + int(rng.integers(1, 5))
        q = [ZERO] * (k + 1) + [rand_coeff(rng) for _ in range(deg_q - k)]
        exponents = [k] + [e for e, c in enumerate(q) if not _is_zero(c)]
        if len(exponents) > 1 and math.gcd(*exponents) == 1:
            return {"p": [ZERO] * k + [ONE], "q": q}


def random_loop(rng, bandwidth, scale=1.0) -> dict:
    """Loop of symmetric 2x2 matrices with Fourier modes 0..bandwidth."""

    def sym():
        a = rng.normal(size=(2, 2)) * scale
        return ((a + a.T) / 2).tolist()

    zero = [[0.0, 0.0], [0.0, 0.0]]
    modes = [{"n": 0, "cos": sym(), "sin": zero}]
    modes += [{"n": n, "cos": sym(), "sin": sym()} for n in range(1, bandwidth + 1)]
    return {"modes": modes}


def decay_problem(rng) -> dict:
    """Linear ODE v' = (S + e^{-s} B) v with a known slowest rate/direction."""
    dim = int(rng.integers(2, 5))
    eigenvalues = [-0.5 - rng.uniform(0, 1.0)]
    for _ in range(dim - 1):
        eigenvalues.append(eigenvalues[-1] - rng.uniform(1.0, 1.5))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    b = rng.normal(size=(dim, dim))
    v0 = rng.normal(size=dim)
    if abs(v0 @ q[:, 0]) < 0.1:
        v0 += 0.5 * q[:, 0]  # keep the slow component genuinely present
    return {
        "S": (q @ np.diag(eigenvalues) @ q.T).tolist(),
        "B": ((b + b.T) / 2).tolist(),
        "v0": v0.tolist(),
        "rate": float(eigenvalues[0]),
        "direction": q[:, 0].tolist(),
    }


def random_scene(rng, n_orbits, n_curves, max_punctures) -> dict:
    """Scene JSON with a full pairing table over all curve pairs."""
    orbits = []
    for i in range(n_orbits):
        covers = {}
        for k in range(1, int(rng.integers(1, 4)) + 1):
            am = int(rng.integers(-4, 5))
            covers[str(k)] = {"alpha_minus": am, "alpha_plus": am + int(rng.integers(0, 2))}
        orbits.append({"id": f"orbit_{i}", "covers": covers})
    curves = []
    for i in range(n_curves):
        punctures = []
        for _ in range(int(rng.integers(0, max_punctures + 1))):
            orbit = orbits[int(rng.integers(0, len(orbits)))]
            k = int(rng.choice(sorted(int(c) for c in orbit["covers"])))
            sign = "+" if rng.random() < 0.5 else "-"
            punctures.append({"sign": sign, "orbit": orbit["id"], "multiplicity": k})
        curves.append(
            {
                "id": f"curve_{i}",
                "genus": int(rng.integers(0, 3)),
                "rel_c1": int(rng.integers(-5, 6)),
                "ambient_dim_half": 2,
                "punctures": punctures,
            }
        )
    pairing = [
        {"u": curves[a]["id"], "v": curves[b]["id"], "bullet": int(rng.integers(-6, 7))}
        for a in range(n_curves)
        for b in range(a, n_curves)
    ]
    return {"orbits": orbits, "curves": curves, "pairing": pairing}


def random_twist(rng, scene: dict, span=5) -> dict:
    return {o["id"]: int(rng.integers(-span, span + 1)) for o in scene["orbits"]}
