"""Trivialization-invariance audit.

Every quantity the theory declares trivialization-independent must be
exactly unchanged when a scene is re-expressed through random twists.
The audit recomputes them all after each random shift and reports any
discrepancy; one breach means either corrupt scene data or a bug in the
transformation law, and both are worth a hard stop.  Each invariant is
computed once per twist: one walk over each curve's ends gives its index,
c_N and spectral covering total, and each pairing entry's star is computed
once, star(u,u) serving the adjunction defect as well.  The twists come
from the standard library's generator, so the audit runs no numpy.
"""

from __future__ import annotations

import random

from . import intersection as xn
from .core import Scene, TrivializationShift, euler_char, shift_scene
from .errors import InconsistencyError, InputError
from .jsonio import read_seed, typed

SHIFT_RANGE = 5
# the golden scenes take 0.55-1.85 s at this many trials (one 2-core Xeon VM)
MAX_SHIFTS = 10_000


def _defect_outcome(curve, star_self: int, c_n: int, sigma_total: int):
    """Adjunction defect value, or the inconsistency it raises; both must be
    stable under shifts."""
    try:
        defect = xn.defect_from(curve.id, star_self, c_n, sigma_total, len(curve.punctures))
        return ("value", defect)
    except InconsistencyError as exc:
        return ("inconsistent", str(exc))


def _snapshot(scene: Scene) -> dict:
    """Every invariant of the scene by its breach-report key, each computed once."""
    snap = {}
    for orbit in scene.orbits:
        for k, cover in orbit.cover_table.items():
            snap[f"parity[{orbit.id}^{k}]"] = cover.parity()
            snap[f"sigma_bar-[{orbit.id}^{k}]"] = cover.sigma_bar(k, -1)
            snap[f"sigma_bar+[{orbit.id}^{k}]"] = cover.sigma_bar(k, 1)
    stars = {(u, v): xn.star(scene, u, v) for (u, v) in scene.pairing.entries}
    for curve in scene.curves:
        cid = curve.id
        c_n, index, sigma_total = xn.end_sums(scene, curve)
        snap[f"chi[{cid}]"] = euler_char(curve)
        snap[f"index[{cid}]"] = index
        snap[f"c_N[{cid}]"] = c_n
        snap[f"sigma_bar_total[{cid}]"] = sigma_total
        if (cid, cid) in stars:
            snap[f"adjunction_defect[{cid}]"] = _defect_outcome(
                curve, stars[cid, cid], c_n, sigma_total
            )
    for (u, v), value in stars.items():
        snap[f"star[{u},{v}]"] = value
    return snap


def audit_scene(scene: Scene, shifts: int = 50, seed: int = 0) -> dict:
    """Apply random twists and verify all invariant quantities are fixed.

    Returns {"trials": n, "breaches": [...]}; an empty breach list is a
    pass.  Also checks that twisting by m and then -m restores the scene
    verbatim (the transformation law is a group action).  Each trial's
    twist draws ``random.Random(seed).randint(-SHIFT_RANGE, SHIFT_RANGE)``
    once per orbit, in orbit order.
    """
    shifts = typed(shifts, int, "number of shifts")
    if shifts < 0:
        raise InputError(f"number of shifts must be nonnegative, got {shifts}")
    if shifts > MAX_SHIFTS:
        raise InputError(f"number of shifts too large: need shifts <= {MAX_SHIFTS}, got {shifts}")
    rng = random.Random(read_seed(seed))
    baseline = _snapshot(scene)
    breaches = []
    for trial in range(shifts):
        twist = {o.id: rng.randint(-SHIFT_RANGE, SHIFT_RANGE) for o in scene.orbits}
        shifted = shift_scene(scene, TrivializationShift(twist))
        snap = _snapshot(shifted)
        if snap != baseline:  # one comparison; the report walks only a breach
            breaches += [
                {
                    "trial": trial,
                    "quantity": key,
                    "baseline": repr(value),
                    "shifted": repr(snap[key]),
                    "twist": twist,
                }
                for key, value in baseline.items()
                if snap[key] != value
            ]
        undone = shift_scene(shifted, TrivializationShift({k: -v for k, v in twist.items()}))
        if undone != scene:
            breaches.append(
                {
                    "trial": trial,
                    "quantity": "shift round-trip",
                    "baseline": "original scene",
                    "shifted": "scene differs after shifting by m then -m",
                    "twist": twist,
                }
            )
    return {"trials": shifts, "breaches": breaches}
