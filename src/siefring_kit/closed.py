"""Closed-curve intersection arithmetic.

Covers the compact case, where the homological pairing [u].[v] is already
homotopy invariant: virtual dimension, normal Chern number, the adjunction
formula, and the forced arithmetic of a sphere with trivial normal bundle
degenerating into a pair of exceptional spheres.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

from .errors import InconsistencyError, InputError
from .jsonio import typed


def _counts(**named) -> list:
    """The named count arguments, each read through ``typed``."""
    return [typed(value, int, name) for name, value in named.items()]


def vdim_closed(n: int, g: int, c1A: int) -> int:
    """Virtual dimension (n-3)(2-2g) + 2 c1(A) of a genus-g moduli space."""
    n, g, c1A = _counts(n=n, g=g, c1A=c1A)
    if n < 2:
        raise InputError(f"ambient half-dimension must be >= 2, got {n}")
    if g < 0:
        raise InputError(f"genus must be >= 0, got {g}")
    return (n - 3) * (2 - 2 * g) + 2 * c1A


def cn_closed(c1A: int, genus: int) -> int:
    """Normal Chern number c1(A) - chi of a closed genus-g curve."""
    c1A, genus = _counts(c1A=c1A, genus=genus)
    if genus < 0:
        raise InputError(f"genus must be >= 0, got {genus}")
    return c1A - (2 - 2 * genus)


def delta_closed(self_pairing: int, c1A: int, genus: int) -> int:
    """Double-point count of a simple closed curve from the adjunction
    formula [u].[u] = 2 delta + c_N; zero exactly for embedded curves.

    An odd or negative right-hand side cannot occur for holomorphic curves
    and is raised as an inconsistency.
    """
    numerator = typed(self_pairing, int, "self_pairing") - cn_closed(c1A, genus)
    if numerator % 2 != 0 or numerator < 0:
        raise InconsistencyError(
            "inconsistent with a simple J-holomorphic curve: "
            f"[u].[u] - c_N = {numerator} must be an even nonnegative integer"
        )
    return numerator // 2


class Disjointness(Enum):
    DISJOINT_OR_IDENTICAL = "disjoint-or-identical"
    INTERSECTING = "intersecting"


def disjointness_verdict(pairing: int) -> Disjointness:
    """Positivity of intersections for curves with non-identical images:
    zero pairing forces disjointness, positive forces intersections,
    negative is impossible."""
    pairing = typed(pairing, int, "pairing")
    if pairing < 0:
        raise InconsistencyError(
            f"negative homological pairing {pairing} violates positivity of intersections"
        )
    if pairing == 0:
        return Disjointness.DISJOINT_OR_IDENTICAL
    return Disjointness.INTERSECTING


@dataclass(frozen=True)
class NodalSplitResult:
    """Forced invariants of a two-component degeneration of a square-zero,
    c1 = 2 sphere; an impossible split is refused, so ``possible`` is true."""

    possible: bool
    delta_plus: int
    delta_minus: int
    cross_pairing: int
    self_pairing_plus: int
    self_pairing_minus: int
    verdict: str

    def as_dict(self) -> dict:
        return asdict(self)


def analyze_nodal_split(component_c1: tuple[int, int] = (1, 1)) -> NodalSplitResult:
    """Deduce the component invariants when a sphere of self-intersection 0
    and c1 = 2 breaks into two sphere components.

    Bubbling components always have positive first Chern number, so the
    only split whose Chern numbers sum to 2 is (1, 1); for it, expanding
    0 = (v+ + v-).(v+ + v-) with the adjunction formula forces
    delta(v+-) = 0, v+.v- = 1 and v+-.v+- = -1: a pair of exceptional
    spheres meeting once, transversely.
    """
    a, b = (typed(c, int, "component_c1 entry") for c in component_c1)
    if a + b != 2:
        raise InputError(f"component Chern numbers {component_c1} do not sum to 2")
    if a < 1 or b < 1:
        raise InputError("bubbling components must have positive first Chern numbers")
    # c_N(v+-) = 1 - 2 = -1; expansion of 0 = [S].[S] gives
    # 2 delta(v+) + 2 delta(v-) + 2(v+.v- - 1) = 0 with every term >= 0.
    cross = 1
    delta_each = 0
    self_each = delta_closed_inverse(delta_each, 1, 0)
    return NodalSplitResult(
        possible=True,
        delta_plus=delta_each,
        delta_minus=delta_each,
        cross_pairing=cross,
        self_pairing_plus=self_each,
        self_pairing_minus=self_each,
        verdict="pair of exceptional spheres meeting once, transversely",
    )


def delta_closed_inverse(delta: int, c1A: int, genus: int) -> int:
    """Self-pairing forced by the adjunction formula: 2 delta + c_N."""
    return 2 * typed(delta, int, "delta") + cn_closed(c1A, genus)


def adjunction_record(self_pairing: int, c1A: int, genus: int) -> dict:
    """Adjunction data of a simple closed genus-g curve, as the ``closed``
    commands print it: [u].[u], c1, c_N, delta and whether it is embedded.
    Refused as ``delta_closed`` refuses, and in its order."""
    delta = delta_closed(self_pairing, c1A, genus)
    self_pairing, c1A = _counts(self_pairing=self_pairing, c1A=c1A)
    return {
        "self_pairing": self_pairing,
        "c1": c1A,
        "c_N": cn_closed(c1A, genus),
        "delta": delta,
        "embedded": delta == 0,
    }


def cp2_degree_table(degree: int) -> dict:
    """Adjunction data of a degree-d sphere in the projective plane:
    [u].[u] = d^2, c1 = 3d, delta = (d-1)(d-2)/2, embedded iff d <= 2."""
    d = typed(degree, int, "degree")
    if d < 1:
        raise InputError(f"degree must be >= 1, got {d}")
    return {"degree": d, **adjunction_record(d * d, 3 * d, 0)}
