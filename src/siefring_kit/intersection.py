"""Intersection bookkeeping for punctured curves in a four-manifold scene.

All operations consume a Scene (see siefring_kit.core) and return exact
integers.  The leading quantity is the star-pairing: the relative
intersection number corrected by winding-bound terms at shared asymptotic
orbits, which makes it independent of the trivializations used to record
the scene's data.  On top of it sit the normal Chern number, the Fredholm
index, spectral covering totals, and the adjunction bookkeeping that
decides when scene data is compatible with simple or embedded curves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SIGNS, CurveClass, Scene, euler_char, sign_factor
from .errors import InconsistencyError, InputError
from .jsonio import typed


def _omega(s: int, k: int, bound_k: int, m: int, bound_m: int) -> int:
    """min{-s k a(m), -s m a(k)} for ends of factor s on covers k, m of one
    simple orbit, a(k) and a(m) their end bounds."""
    return min(-s * k * bound_m, -s * m * bound_k)


def omega_pair(scene: Scene, orbit_a: tuple[str, int], orbit_b: tuple[str, int], sign: str) -> int:
    """Winding-bound term for a pair of punctures of the given sign.

    Zero when the punctures sit on distinct simple orbits; for covers k, m
    of the same simple orbit it is min{-s k a(m), -s m a(k)} with s = +-1
    and a = alpha_-+ the end bound of the sign.
    """
    (id_a, k), (id_b, m) = orbit_a, orbit_b
    cover_k, s = scene.orbit(id_a).cover(k), sign_factor(sign)
    cover_m = scene.orbit(id_b).cover(m)
    if id_a != id_b:
        return 0
    return _omega(s, k, cover_k.end_bound(s), m, cover_m.end_bound(s))


def omega_self(scene: Scene, orbit_ref: tuple[str, int], sign: str) -> int:
    """Winding-bound term for one multiply-covered puncture against its own
    reparametrizations: -+(k-1) alpha_-+ plus (sigma_bar_-+ - 1)."""
    orbit_id, k = orbit_ref
    cover, s = scene.orbit(orbit_id).cover(k), sign_factor(sign)
    return -s * (k - 1) * cover.end_bound(s) + (cover.sigma_bar(k, -s) - 1)


def star(scene: Scene, u_id: str, v_id: str) -> int:
    """The trivialization-independent intersection pairing of two curves.

    Subtracts from the recorded relative intersection number the
    omega_pair term of every same-sign pair of punctures (ordered pairs,
    including coincident ones when u = v): one term per pair of covers
    (k, m) of an end group the two curves share, weighted by the product
    of their counts.
    """
    u = scene.curve(u_id)
    v = scene.curve(v_id)
    total = scene.pairing.get(u_id, v_id)
    for (sign, orbit_id), u_covers in u.ends.items():
        v_covers = v.ends.get((sign, orbit_id))
        if v_covers is None:
            continue
        # the keys of ends hold valid signs and a scene holds every cover its
        # curves' ends name, so each bound is read off the cover table
        s, table = SIGNS[sign], scene.orbit(orbit_id).cover_table
        for k, count_k in u_covers.items():
            bound_k = table[k].end_bound(s)
            for m, count_m in v_covers.items():
                total -= count_k * count_m * _omega(s, k, bound_k, m, table[m].end_bound(s))
    return total


def iota_infinity(scene: Scene, u_id: str, v_id: str, geometric_count: int) -> int:
    """Hidden intersections at infinity: star(u,v) minus the actual count.

    A negative result means the supplied data cannot come from holomorphic
    curves with non-identical images, and is reported as an inconsistency.
    """
    geometric_count = typed(geometric_count, int, "geometric intersection count")
    if geometric_count < 0:
        raise InputError("geometric intersection count must be >= 0")
    hidden = star(scene, u_id, v_id) - geometric_count
    if hidden < 0:
        raise InconsistencyError(
            f"inconsistent: negative hidden count {hidden} for ({u_id!r}, {v_id!r})"
        )
    return hidden


def end_sums(scene: Scene, u: CurveClass) -> tuple[int, int, int]:
    """(c_N, index, sigma_bar total) of a curve from one walk over its ends.

    c_N = rel_c1 - chi + sum of s * bound, index = (n-3) chi + 2 rel_c1 +
    sum of s * CZ, sigma_bar total = sum of gcd(k, bound), where s is the
    factor of an end's sign and bound its end bound on the k-fold cover;
    each distinct cover's term is weighted by its count of ends.
    """
    bounds = cz_ends = sigma_total = 0
    for (sign, orbit_id), covers in u.ends.items():
        # as in star, the sign is valid and the scene holds the cover
        s, table = SIGNS[sign], scene.orbit(orbit_id).cover_table
        for k, count in covers.items():
            cover = table[k]
            bounds += count * s * cover.end_bound(s)
            cz_ends += count * s * cover.cz_index()
            sigma_total += count * cover.sigma_bar(k, -s)
    chi = euler_char(u)
    c_n = u.rel_c1 - chi + bounds
    index = (u.ambient_dim_half - 3) * chi + 2 * u.rel_c1 + cz_ends
    return c_n, index, sigma_total


def normal_chern(scene: Scene, u_id: str) -> int:
    """Normal Chern number: rel_c1 - chi + winding corrections at the ends."""
    return end_sums(scene, scene.curve(u_id))[0]


def fredholm_index(scene: Scene, u_id: str) -> int:
    """Index of the curve class: (n-3) chi + 2 rel_c1 + signed index sums."""
    return end_sums(scene, scene.curve(u_id))[1]


@dataclass(frozen=True)
class CnIndexReport:
    """Both sides of the dimension-four relation 2 c_N = ind - 2 + 2g + #even."""

    two_cn: int
    index_side: int

    @property
    def holds(self) -> bool:
        return self.two_cn == self.index_side


def check_cn_index_relation(scene: Scene, u_id: str) -> CnIndexReport:
    """Verify 2*normal_chern = index - 2 + 2*genus + #even punctures."""
    u = scene.curve(u_id)
    if u.ambient_dim_half != 2:
        raise InputError("relation specific to dimension four (ambient_dim_half = 2)")
    even = sum(1 for p in u.punctures if scene.orbit(p.orbit).cover(p.multiplicity).parity() == 0)
    c_n, index, _ = end_sums(scene, u)
    return CnIndexReport(2 * c_n, index - 2 + 2 * u.genus + even)


def spectral_covering_total(scene: Scene, u_id: str) -> int:
    """Total spectral covering number: sum of sigma_bar_- over positive ends
    and sigma_bar_+ over negative ends; always at least #punctures."""
    return end_sums(scene, scene.curve(u_id))[2]


def defect_from(u_id: str, star_self: int, c_n: int, sigma_total: int, n_punctures: int) -> int:
    """delta + delta_inf of curve u_id from star(u,u), c_N, the sigma_bar
    total and the number of punctures; an odd or negative numerator means
    the scene cannot describe a simple curve."""
    numerator = star_self - c_n - (sigma_total - n_punctures)
    if numerator % 2 != 0:
        raise InconsistencyError(f"inconsistent scene (parity): curve {u_id!r}")
    if numerator < 0:
        raise InconsistencyError(
            f"inconsistent scene (positivity): data cannot represent a simple curve {u_id!r}"
        )
    return numerator // 2


def adjunction_defect(scene: Scene, u_id: str) -> int:
    """Homotopy-invariant double-point count delta + delta_infinity.

    Solved from star(u,u) = 2(delta + delta_inf) + c_N + (sigma_bar - #punctures)
    for a curve the user declares simple (see ``defect_from``).
    """
    u = scene.curve(u_id)
    star_self = star(scene, u_id, u_id)
    c_n, _, sigma_total = end_sums(scene, u)
    return defect_from(u_id, star_self, c_n, sigma_total, len(u.punctures))


@dataclass(frozen=True)
class RelAdjunctionReport:
    lhs_bullet: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs_bullet == self.rhs


def relative_adjunction_check(
    scene: Scene, u_id: str, delta: int, iota_tau_infty: int
) -> RelAdjunctionReport:
    """Check u .tau u = 2 delta + rel_c1 - chi + iota_tau_infty exactly."""
    delta = typed(delta, int, "delta")
    iota_tau_infty = typed(iota_tau_infty, int, "iota_tau_infty")
    u = scene.curve(u_id)
    lhs = scene.pairing.get(u_id, u_id)
    rhs = 2 * delta + u.rel_c1 - euler_char(u) + iota_tau_infty
    return RelAdjunctionReport(lhs, rhs)


def asymptotic_defect(entries) -> int:
    """Count of zeroes pushed to infinity by non-extremal end windings.

    ``entries`` is an iterable of (sign, alpha_bound, wind) where the bound
    is alpha_- for a positive end (winding must be <= it) and alpha_+ for a
    negative end (winding must be >= it).
    """
    total = 0
    for sign, alpha_bound, wind in entries:
        s = sign_factor(sign)
        alpha_bound = typed(alpha_bound, int, "alpha bound")
        wind = typed(wind, int, "winding")
        if s * (alpha_bound - wind) < 0:
            relation, end = (">", "positive") if s > 0 else ("<", "negative")
            raise InputError(
                f"winding exceeds a priori bound: {wind} {relation} {alpha_bound} at a {end} end"
            )
        total += s * (alpha_bound - wind)
    return total


@dataclass(frozen=True)
class TransversalityReport:
    index: int
    normal_chern: int

    @property
    def automatic(self) -> bool:
        return self.index > self.normal_chern


def automatic_transversality(scene: Scene, u_id: str) -> TransversalityReport:
    """Regularity criterion for immersed curves in dimension four:
    automatic whenever ind > c_N."""
    u = scene.curve(u_id)
    if u.ambient_dim_half != 2:
        raise InputError("criterion specific to dimension four (ambient_dim_half = 2)")
    c_n, index, _ = end_sums(scene, u)
    return TransversalityReport(index, c_n)


@dataclass(frozen=True)
class FoliationReport:
    """Clause-by-clause evaluation of the local-foliation criteria."""

    index_is_two: bool
    genus_zero: bool
    all_odd: bool
    distinct_simple_orbits: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.index_is_two
            and self.genus_zero
            and self.all_odd
            and self.distinct_simple_orbits
        )

    def as_dict(self) -> dict:
        return {
            "index_is_two": self.index_is_two,
            "genus_zero": self.genus_zero,
            "all_odd": self.all_odd,
            "distinct_simple_orbits": self.distinct_simple_orbits,
            "all_pass": self.all_pass,
        }


def foliation_criteria(scene: Scene, u_id: str) -> FoliationReport:
    """Evaluate the four hypotheses under which index-2 embedded curves
    foliate a neighborhood: index 2, genus 0, all asymptotic orbits odd,
    punctures at pairwise-distinct simply covered orbits."""
    return _foliation(scene, scene.curve(u_id), fredholm_index(scene, u_id))


def _foliation(scene: Scene, u: CurveClass, index: int) -> FoliationReport:
    """The foliation criteria of a curve whose index is already known."""
    orbits_seen = [p.orbit for p in u.punctures]
    return FoliationReport(
        index_is_two=index == 2,
        genus_zero=u.genus == 0,
        all_odd=all(scene.orbit(p.orbit).cover(p.multiplicity).parity() == 1 for p in u.punctures),
        distinct_simple_orbits=(
            len(set(orbits_seen)) == len(orbits_seen)
            and all(p.multiplicity == 1 for p in u.punctures)
        ),
    )


def _puncture_multiset(curve: CurveClass):
    return sorted((p.sign, p.orbit, p.multiplicity) for p in curve.punctures)


@dataclass(frozen=True)
class NodalExpansionReport:
    total_star: int
    component_sum: int

    @property
    def holds(self) -> bool:
        return self.total_star == self.component_sum


def nodal_star_expansion(
    scene: Scene, components: tuple[str, str], total_id: str
) -> NodalExpansionReport:
    """Check star(u,u) = star(v+,v+) + star(v-,v-) + 2 star(v+,v-) for a
    curve degenerating into two components whose punctures partition u's."""
    vp_id, vm_id = components
    u = scene.curve(total_id)
    vp = scene.curve(vp_id)
    vm = scene.curve(vm_id)
    if _puncture_multiset(u) != sorted(_puncture_multiset(vp) + _puncture_multiset(vm)):
        raise InputError(
            f"components do not decompose {total_id!r}: puncture multisets differ"
        )
    lhs = star(scene, total_id, total_id)
    rhs = (
        star(scene, vp_id, vp_id)
        + star(scene, vm_id, vm_id)
        + 2 * star(scene, vp_id, vm_id)
    )
    return NodalExpansionReport(lhs, rhs)


def curve_report(scene: Scene, u_id: str) -> dict:
    """JSON-ready report of every invariant of one curve in the scene.

    Raises InconsistencyError if the adjunction bookkeeping rejects the
    scene; all other fields are total.
    """
    u = scene.curve(u_id)
    c_n, index, sigma_total = end_sums(scene, u)
    report = {
        "curve": u_id,
        "chi": euler_char(u),
        "index": index,
        "c_N": c_n,
        "sigma_bar_total": sigma_total,
        "foliation": _foliation(scene, u, index).as_dict(),
    }
    if u.ambient_dim_half == 2:
        report["automatic_transversality"] = TransversalityReport(index, c_n).automatic
    if scene.pairing.has(u_id, u_id):
        star_self = star(scene, u_id, u_id)
        report["star_self"] = star_self
        report["adjunction_defect"] = defect_from(
            u_id, star_self, c_n, sigma_total, len(u.punctures)
        )
    return report
