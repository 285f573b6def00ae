import contextlib
import json
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
import sympy

from siefring_kit import germs, winding
from siefring_kit.errors import InputError, InvarianceError
from siefring_kit.germs import (
    GermNormalForm,
    branched_cover,
    change_coordinates,
    cover_index,
    critical_order,
    delta_from_normal_form,
    delta_local,
    gaussian,
    germ,
    germ_from_dict,
    germ_to_dict,
    is_simple,
    local_intersection,
    monomial_germ,
    normal_form,
    numeric_double_point_oracle,
    numeric_intersection_oracle,
    reparametrize,
)

from germgen import (
    EPSILON_LADDER,
    RADIUS_LADDER,
    axis_germ,
    rand_coeff,
    random_simple_germ,
    stabilized_delta_oracle,
    stabilized_pair_oracle,
)

CUSP23 = germ([0, 0, 1], [0, 0, 0, 1])
CUSP35 = monomial_germ(3, 5)
QUARTIC46 = monomial_germ(4, 6)
# the companion-root rule that counted before the certified winding, kept by
# the reference bodies (_reference_double_point_oracle and its pair twin): a
# root within ROOT_EDGE_TOL / radius of the circle was redrawn, and a draw
# with a root trimmed to 0 was stuck
ROOT_EDGE_TOL = 1e-6
STUCK = "perturbed intersection parameters stuck at the origin"
# and the redraw rule before one draw per cell: a failed draw was redrawn with
# epsilon turned by a seeded random phase, REFERENCE_DRAWS draws in all
REFERENCE_DRAWS = 10
ROUCHE = "oracle failed: epsilon too large for the disk (Rouche's test); shrink epsilon"
ON_A_ROOT = "oracle failed: radius on a root; change the radius"
# a = 10^-20: epsilon dwarfs these germs on every circle of the ladders
TINY = Fraction(1, 10**20)
TINY_PAIR = (germ([0, TINY], [0, 0, TINY]), germ([0, 0, TINY], [0, TINY]))
TINY_CUSP = germ([0, 0, TINY], [0, 0, 0, TINY])
# a draw read off a disk's expansion against the per-sample determinant,
# relative to the largest coefficient.  c_1 is a sum of (d-1)-minors of K,
# whose roundoff scales with |det A| |K|^(d-1), and that can exceed |R| by
# orders where R_0's zeros cluster in a small disk: the worst of the 2,387
# steady cells of TestExpansion reads 4.5e-11 (a pair at radius 0.04,
# epsilon 1e-4), where a 60-digit determinant puts all of it on the
# expansion and leaves the loop within 4e-16; the median cell reads 4e-16
EXPANSION_TOL = 1e-9
# a plan with a polynomial free of w, whose determinants of diagonal copies
# are sampled and transformed like any other, against the reference's closed
# form f^(deg g), relative to the largest coefficient: roundoff, 8.9e-16 at
# worst over the w-free plans of TestStackedDeterminants' ladders (a
# coefficient that the closed form gives as an exact 0 reads -3.7e-17)
W_FREE_TOL = 1e-14
# (z^9, z^10 + (1 + 2i)/3 z^18): its double-point disk has d = 8 moving rows
DEGREE_NINE = germ([0] * 9 + [1], [0] * 10 + [1] + [0] * 7 + [gaussian(1, 2) / 3])


class TestGermConstruction:
    def test_nonvanishing_rejected(self):
        with pytest.raises(InputError, match="vanish at 0"):
            germ([1, 1], [0, 1])

    def test_constant_rejected(self):
        with pytest.raises(InputError, match="constant"):
            germ([0], [0, 0])

    def test_irrational_rejected(self):
        with pytest.raises(InputError, match="Gaussian rational"):
            germ([0, sympy.sqrt(2)], [0, 1])

    # sympy.sqrt(2) is in test_irrational_rejected
    @pytest.mark.parametrize("bad", [0.5, 1 + 2j, "1/2", sympy.I], ids=repr)
    def test_inexact_or_unparsed_coefficient_rejected(self, bad):
        with pytest.raises(InputError, match="Gaussian rational"):
            germ([0, bad], [0, 1])

    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, 3),
            (Fraction(-2, 4), Fraction(-1, 2)),
            (sympy.Rational(5, 7), Fraction(5, 7)),
            (gaussian(1, Fraction(2, 3)), gaussian(1, Fraction(2, 3))),
        ],
        ids=repr,
    )
    def test_rational_coefficients_accepted(self, value, expected):
        (c,) = germ([0, value], [0, 1]).p[1:]
        assert c == expected and hash(c) == hash(expected)
        assert isinstance(c.re, Fraction) and type(c.re.numerator) is int

    def test_coefficient_arithmetic_is_exact(self):
        a, b = gaussian(1, Fraction(-2, 3)), gaussian(Fraction(1, 2), 3)
        assert a * b == gaussian(Fraction(5, 2), Fraction(8, 3))
        assert (a / b) * b == a and 1 / (1 / a) == a and a**-2 * a**3 == a
        assert 2 - a == -(a - 2) == gaussian(1, Fraction(2, 3))
        assert a + Fraction(1, 2) - gaussian(0, -1) == gaussian(Fraction(3, 2), Fraction(1, 3))
        assert complex(a) == complex(1, -2 / 3) and not gaussian(0) and gaussian(0, 1)
        with pytest.raises(ZeroDivisionError):
            a / 0

    def test_fraction_coefficients_accepted(self):
        u = germ([0, Fraction(1, 2)], [0, 0, gaussian(1, Fraction(-2, 3))])
        assert u.p[1] == Fraction(1, 2)

    def test_one_zero_coordinate_allowed(self):
        u = germ([0, 1], [])
        assert u.q == ()


class TestCriticalOrder:
    def test_immersed(self):
        k, tangent = critical_order(germ([0, 1], [0, 0, 1]))
        assert k == 1 and tangent == (1, 0)

    def test_cusp35(self):
        k, tangent = critical_order(CUSP35)
        assert k == 3 and tangent == (1, 0)

    def test_diagonal_tangent(self):
        k, tangent = critical_order(germ([0, 0, 1], [0, 0, 1]))
        assert k == 2 and tangent == (1, 1)

    def test_vertical_tangent(self):
        k, tangent = critical_order(germ([0, 0, 0, 1], [0, 0, 1]))
        assert k == 2 and tangent == (0, 1)

    def test_critical_iff_k_at_least_two(self):
        assert critical_order(germ([0, 1], [0]))[0] == 1
        assert critical_order(germ([0, 0, 1], [0, 0, 0, 1]))[0] == 2


class TestCoverDetection:
    def test_simple(self):
        assert is_simple(CUSP23)
        assert cover_index(CUSP23) == 1

    def test_double_cover(self):
        assert cover_index(monomial_germ(4, 6)) == 2
        assert not is_simple(monomial_germ(4, 6))

    def test_cover_of_branched_cover(self):
        assert cover_index(branched_cover(CUSP23, 3)) == 3

    def test_exponents_computed_once_as_a_tuple(self):
        u = germ([0, 0, 1], [0, 0, 0, 1, 0, gaussian(0, 1)])
        assert u.exponents == (2, 3, 5) and u.exponents is u.exponents
        assert critical_order(u)[0] == 2 and cover_index(u) == 1


class TestLocalIntersection:
    def test_transverse_axes(self):
        assert local_intersection(germ([0, 1], [0]), germ([0], [0, 1])) == 1

    def test_famous_eighteen(self):
        assert local_intersection(CUSP35, QUARTIC46) == 18

    def test_transverse_tangent_product(self):
        assert local_intersection(monomial_germ(2, 3), monomial_germ(3, 2)) == 4

    def test_positivity(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            u = axis_germ(rng, int(rng.integers(1, 4)), 0)
            v = axis_germ(rng, int(rng.integers(1, 4)), 1)
            try:
                assert local_intersection(u, v) >= 1
            except InputError:
                pass

    def test_identical_images_detected(self):
        u = germ([0, 1], [0, 0, 1])
        with pytest.raises(InputError, match="identical images"):
            local_intersection(u, u)

    def test_far_fiber_root_detected(self):
        # second germ returns to the value 0 at w = 1
        v = germ([0, -1, 1], [0, -1, 1])  # p = q = w(w-1)
        with pytest.raises(InputError, match="rescale"):
            local_intersection(germ([0, 1], [0]), v)

    def test_randomized_transverse_formula(self):
        rng = np.random.default_rng(100)
        checked = 0
        while checked < 60:
            ku, kv = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            u, v = axis_germ(rng, ku, 0), axis_germ(rng, kv, 1)
            try:
                assert local_intersection(u, v) == ku * kv
            except InputError:
                continue
            checked += 1

    def test_randomized_tangency_excess(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 60:
            ku, kv = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            u, v = axis_germ(rng, ku, 0), axis_germ(rng, kv, 0)
            try:
                assert local_intersection(u, v) > ku * kv
            except InputError:
                continue
            checked += 1

    def test_invariant_under_common_coordinate_change(self):
        rng = np.random.default_rng(102)
        u, v = axis_germ(rng, 2, 0), axis_germ(rng, 3, 1)
        base = local_intersection(u, v)
        matrix = ((1, Fraction(1, 2)), (gaussian(0, 1), 1))
        assert local_intersection(
            change_coordinates(u, matrix), change_coordinates(v, matrix)
        ) == base

    def test_singular_coordinate_change_refused(self):
        with pytest.raises(InputError) as refusal:
            change_coordinates(CUSP23, ((1, 2), (gaussian(0, 1), gaussian(0, 2))))
        assert str(refusal.value) == "coordinate change matrix is singular"

    def test_zero_reparametrization_refused(self):
        with pytest.raises(InputError) as refusal:
            reparametrize(CUSP23, 0)
        assert str(refusal.value) == "reparametrization scalar must be nonzero"


class TestDeltaLocal:
    def test_immersed(self):
        assert delta_local(germ([0, 1], [0, 0, 0, 0, 0, 0, 0, 1])) == 0

    def test_cusp23(self):
        assert delta_local(CUSP23) == 1

    def test_cusp35(self):
        assert delta_local(CUSP35) == 4

    def test_multiple_cover_rejected(self):
        with pytest.raises(InputError, match="not simple"):
            delta_local(monomial_germ(4, 6))

    def test_lower_bound(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            u = random_simple_germ(rng)
            k, _ = critical_order(u)
            assert delta_local(u) >= k * (k - 1) // 2

    def test_zero_iff_immersed(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            u = random_simple_germ(rng)
            k, _ = critical_order(u)
            assert (delta_local(u) == 0) == (k == 1)

    def test_invariance_under_target_changes(self):
        rng = np.random.default_rng(17)
        unitary = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
        shear = ((1, 0), (Fraction(1, 2), 1))
        for _ in range(10):
            u = random_simple_germ(rng, max_k=3)
            base = delta_local(u)
            assert delta_local(change_coordinates(u, unitary)) == base
            assert delta_local(change_coordinates(u, shear)) == base

    def test_invariance_under_reparametrization(self):
        rng = np.random.default_rng(18)
        for scale in (2, Fraction(1, 3), gaussian(0, 1), gaussian(1, 1)):
            for _ in range(5):
                u = random_simple_germ(rng, max_k=3)
                assert delta_local(reparametrize(u, scale)) == delta_local(u)


class TestNormalForm:
    def test_cusp35(self):
        nf = normal_form(CUSP35)
        assert nf.k == 3
        assert nf.tangent == (1, 0)
        assert nf.branch_orders == (2, 2)
        assert delta_from_normal_form(nf) == 4

    def test_cusp23(self):
        nf = normal_form(CUSP23)
        assert nf.branch_orders == (1,)
        assert delta_from_normal_form(nf) == 1

    def test_matches_resultant_on_random_normal_forms(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            u = random_simple_germ(rng)
            nf = normal_form(u)
            assert delta_from_normal_form(nf) == delta_local(u)

    def test_identical_branch_marks_cover(self):
        nf = normal_form(monomial_germ(4, 6))
        assert None in nf.branch_orders
        with pytest.raises(InputError, match="not simple"):
            delta_from_normal_form(nf)

    def test_aligned_tangent_required_to_be_monomial(self):
        # excess z^3 + z^4 is not proportional to the second coordinate z^3
        with pytest.raises(InputError, match="monomial normal form"):
            normal_form(germ([0, 0, 1, 1, 1], [0, 0, 0, 1]))

    def test_shear_ratio_compared_exactly(self):
        # every -excess/hat ratio is (-1 + 3i)/10; sympy's simplify wrote
        # i/(3 - i) as i(3 + i)/10, a second set element, and the germ was
        # refused as not in monomial normal form
        u = germ(
            [0, 0, 1, gaussian(0, -1), gaussian(Fraction(1, 10), Fraction(-3, 10))],
            [0, 0, 0, gaussian(3, -1), 1],
        )
        nf = normal_form(u)
        assert (nf.k, nf.branch_orders) == (2, (1,))
        assert delta_from_normal_form(nf) == delta_local(u) == 1

    def test_tangent_alignment_with_general_tangent(self):
        # (z^2 + z^3, z^2) has tangent [1:1]; aligning turns it into
        # (z^2, -z^3) up to the change, still monomial in the first slot
        u = germ([0, 0, 1, 1], [0, 0, 1])
        nf = normal_form(u)
        assert nf.k == 2 and nf.branch_orders == (1,)


class TestBranchedCover:
    def test_identity(self):
        assert branched_cover(CUSP23, 1) is CUSP23

    def test_doubling(self):
        doubled = branched_cover(CUSP23, 2)
        assert doubled.p == monomial_germ(4, 6).p
        assert doubled.q == monomial_germ(4, 6).q

    def test_multiplicativity_exact(self):
        rng = np.random.default_rng(20)
        checked = 0
        while checked < 30:
            u = axis_germ(rng, int(rng.integers(1, 3)), 0, extra=2)
            v = axis_germ(rng, int(rng.integers(1, 3)), 1, extra=2)
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            try:
                base = local_intersection(u, v)
                covered = local_intersection(branched_cover(u, k), branched_cover(v, m))
            except InputError:
                continue
            assert covered == k * m * base
            checked += 1


class TestNumericOracles:
    def test_cusp23_default_parameters(self):
        assert numeric_double_point_oracle(CUSP23, 1e-3, 0.3) == 1

    def test_cusp35_default_parameters(self):
        assert numeric_double_point_oracle(CUSP35, 1e-3, 0.3) == 4

    def test_immersed_zero(self):
        assert numeric_double_point_oracle(germ([0, 1], [0, 0, 1]), 1e-3, 0.3) == 0

    def test_pair_famous_eighteen(self):
        assert numeric_intersection_oracle(CUSP35, QUARTIC46, 1e-3, 0.3) == 18

    def test_pair_axes(self):
        assert numeric_intersection_oracle(germ([0, 1], [0]), germ([0], [0, 1])) == 1

    def test_delta_agreement_randomized(self):
        rng = np.random.default_rng(200)
        agreed = 0
        for trial in range(40):
            u = random_simple_germ(rng)
            value = stabilized_delta_oracle(u, seed=trial)
            assert value is not None, "oracle failed to stabilize"
            assert value == delta_local(u)
            agreed += 1
        assert agreed == 40

    def test_pair_agreement_randomized(self):
        rng = np.random.default_rng(201)
        agreed = skipped = 0
        for trial in range(40):
            ku, kv = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            u, v = axis_germ(rng, ku, 0), axis_germ(rng, kv, 1)
            try:
                exact = local_intersection(u, v)
            except InputError:
                skipped += 1
                continue
            value = stabilized_pair_oracle(u, v, seed=trial)
            if value is None:
                skipped += 1
                continue
            assert value == exact
            agreed += 1
        assert agreed >= 30  # the vast majority must stabilize and agree

    def test_radius_too_large_rejected(self):
        # (z^2, z^3 + z^5) has genuine double-point parameters at |z| = 1
        u = germ([0, 0, 1], [0, 0, 0, 1, 0, 1])
        with pytest.raises(InputError, match="radius"):
            numeric_double_point_oracle(u, 1e-3, radius=2.5)

    def test_multiple_cover_rejected(self):
        with pytest.raises(InputError, match="not simple"):
            numeric_double_point_oracle(monomial_germ(4, 6), 1e-3, 0.3)

    def test_identical_images_rejected(self):
        u = germ([0, 1], [0, 0, 1])
        with pytest.raises(InputError, match="identical images"):
            numeric_intersection_oracle(u, u, 1e-3, 0.3)

    def test_resultant_that_underflows_is_refused(self):
        # coefficients 10^-150 and epsilon 1e-200: every sample of the
        # perturbed resultant underflows to 0, which the oracles refuse
        # rather than count; the exact orders are 1 and 1
        a = Fraction(1, 10**150)
        u, v, single = germ([0, a], [0, 0, a]), germ([0, 0, a], [0, a]), germ([0, 0, a], [0, 0, 0, a])
        assert (local_intersection(u, v), delta_local(single)) == (1, 1)
        with pytest.raises(InputError, match="^oracle resultant vanished identically$"):
            numeric_intersection_oracle(u, v, epsilon=1e-200)
        with pytest.raises(InputError, match="^oracle resultant vanished identically$"):
            numeric_double_point_oracle(single, epsilon=1e-200)


def _reference_degree(b, axis):
    scale = np.abs(b).max()
    if scale == 0:
        return -1
    lines = np.flatnonzero(np.abs(b).max(axis=1 - axis) > germs.COEFF_TRIM_TOL * scale)
    return int(lines[-1]) if len(lines) else -1


def _reference_sylvester(fc, gc):
    d1, d2 = len(fc) - 1, len(gc) - 1
    m = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    for r in range(d2):
        m[r, r : r + d1 + 1] = fc[::-1]
    for r in range(d1):
        m[d2 + r, r : r + d2 + 1] = gc[::-1]
    return m


@np.errstate(over="ignore", invalid="ignore")
def _reference_resultant_w(bf, bg, circle):
    """``_ResultantPlan.resultant`` as one Sylvester matrix and one det call per sample."""
    df, dg = _reference_degree(bf, 1), _reference_degree(bg, 1)
    dfz, dgz = _reference_degree(bf, 0), _reference_degree(bg, 0)
    if df < 0 or dg < 0:
        return np.zeros(1, dtype=complex)
    if df == 0 and dg == 0:
        return np.ones(1, dtype=complex)
    if df == 0 or dg == 0:
        base, power = (bf[:, 0], dg) if df == 0 else (bg[:, 0], df)
        scaled = base * circle ** np.arange(len(base))
        out = np.polynomial.polynomial.polypow(scaled, power) if power > 0 else np.ones(1)
        return np.asarray(out, dtype=complex)
    samples = dfz * dg + dgz * df + 1
    zs = circle * np.exp(2j * np.pi * np.arange(samples) / samples)
    f_rows = np.vander(zs, dfz + 1, increasing=True) @ bf[: dfz + 1, : df + 1]
    g_rows = np.vander(zs, dgz + 1, increasing=True) @ bg[: dgz + 1, : dg + 1]
    values = np.empty(samples, dtype=complex)
    for s in range(samples):
        values[s] = np.linalg.det(_reference_sylvester(f_rows[s], g_rows[s]))
    return np.fft.fft(values) / samples


def _perturbed(plan, epsilon):
    """The plan's arrays with epsilon added at the second one's z^0 w^0."""
    arrays = [a.copy() for a in plan.arrays]
    arrays[1][0, 0] += epsilon
    return arrays


class TestStackedDeterminants:
    """The stacked determinant against one det call per sample."""

    @staticmethod
    def _record(monkeypatch):
        """(bf, bg, circle, out) of every plan evaluation: each draw with
        epsilon added to its moving array, each pre-check and each plan a
        draw off the plan's degrees builds afresh."""
        calls = []
        evaluate = germs._ResultantPlan.resultant

        def recording(plan, epsilon=None):
            out = evaluate(plan, epsilon)
            arrays = plan.arrays if epsilon is None else _perturbed(plan, epsilon)
            calls.append((*arrays, plan.circle, out))
            return out

        monkeypatch.setattr(germs._ResultantPlan, "resultant", recording)
        return calls

    @staticmethod
    def _record_expansion(monkeypatch):
        """(bf, bg, circle, R_0 + sum eps^k c_k) of every cell whose draw the
        disk's expansion gives, the arrays with epsilon added."""
        covered = []
        terms = germs._ResultantPlan.terms

        def recording(plan, epsilon):
            out = terms(plan, epsilon)
            if out:
                eps, c, _ = out
                draw = plan.base[0] + sum(eps**k * row for k, row in enumerate(c, 1))
                covered.append((*_perturbed(plan, eps), plan.circle, draw))
            return out

        monkeypatch.setattr(germs._ResultantPlan, "terms", recording)
        return covered

    @staticmethod
    def _count_det(monkeypatch):
        stacks = []
        det = np.linalg.det

        def counting(a):
            stacks.append(a.shape)
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counting)
        return stacks

    def test_oracle_ladders_match_the_per_sample_loop(self, monkeypatch):
        # every plan evaluation (each disk's R_0, each draw planned afresh)
        # equals the loop, and every draw read off a disk's expansion is
        # within EXPANSION_TOL of it
        calls = self._record(monkeypatch)
        covered = self._record_expansion(monkeypatch)
        rng = np.random.default_rng(300)
        orders = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)] * 2
        pairs = [(axis_germ(rng, ku, 0), axis_germ(rng, kv, 1)) for ku, kv in orders]
        pairs.append((germ([0, 1], [0]), germ([0], [0, 0, 0, 2])))  # w-free difference of p
        singles = [random_simple_germ(rng) for _ in range(8)] + [CUSP35]
        # more pairs, drawn after the rest: the count below asks for over 300
        # cells read off an expansion, of the 396 the ladders visit
        pairs += [(axis_germ(rng, ku, 0), axis_germ(rng, kv, 1)) for ku, kv in orders]
        for radius in RADIUS_LADDER:
            # a redraw turns epsilon by a phase, as the complex one here does
            for epsilon in (1e-2, 1e-5 * np.exp(2j), 1e-8):
                for seed, (u, v) in enumerate(pairs):
                    with contextlib.suppress(InputError):
                        numeric_intersection_oracle(u, v, epsilon, radius, seed)
                for seed, u in enumerate(singles):
                    with contextlib.suppress(InputError):
                        numeric_double_point_oracle(u, epsilon, radius, seed)
        assert {circle for _, _, circle, _ in calls} == set(RADIUS_LADDER)
        w_free = 0
        for bf, bg, circle, out in calls:
            ref = _reference_resultant_w(bf, bg, circle)
            if min(germs._degrees(bf)[1], germs._degrees(bg)[1]) == 0:
                # the plan's stack against the reference's closed form
                assert np.abs(out - ref).max() <= W_FREE_TOL * np.abs(ref).max()
                w_free += 1
            else:
                assert np.array_equal(out, ref, equal_nan=True)
        for bf, bg, circle, out in covered:
            ref = _reference_resultant_w(bf, bg, circle)
            assert np.abs(out - ref).max() <= EXPANSION_TOL * np.abs(ref).max()
        # a pair's perturbed difference of p, its second array, carries epsilon at z^0 w^0
        turned = sum(bg[0, 0].imag != 0 for _, bg, *_ in covered)
        assert w_free and turned and len(covered) > 300

    @pytest.mark.parametrize(
        "bf, bg",
        [
            ([[0, 0], [0, 0]], [[0, 1], [1, 0]]),  # a zero polynomial
            ([[0], [1]], [[0], [0], [1]]),  # both free of w
            ([[0, -1, 1e-14], [1, 0, 0]], [[0, 1], [0, 0], [1, 0]]),  # w^2 below the trim
            ([[0, -1], [1, 0], [0, 1e-13j]], [[0, 1, 1], [1, 0, 0]]),  # z^2 w below the trim
        ],
        ids=["zero", "w-free", "trimmed-w", "trimmed-z"],
    )
    def test_closed_forms_and_trimmed_terms(self, bf, bg):
        bf, bg = np.array(bf, dtype=complex), np.array(bg, dtype=complex)
        for circle in RADIUS_LADDER:
            out = germs._ResultantPlan(bf, bg, circle).resultant()
            assert np.array_equal(out, _reference_resultant_w(bf, bg, circle))

    def test_benchmark_sized_pair_takes_one_call(self, monkeypatch):
        rng = np.random.default_rng(301)
        u, v = axis_germ(rng, 2, 0), axis_germ(rng, 1, 1)
        b1 = germs._numeric_difference(u.numeric[0], v.numeric[0])
        b2 = germs._numeric_difference(u.numeric[1], v.numeric[1])
        stacks = self._count_det(monkeypatch)
        out = germs._ResultantPlan(b1, b2, 0.3).resultant()
        ((samples, n, _),) = stacks
        assert samples == len(out) > 1

    def test_high_degree_stack_takes_one_call(self, monkeypatch):
        # an 801 x 40 x 40 stack, 1.28 million complex cells: the plan keeps
        # its whole stack for the disk's expansion, and one det call takes it
        rng = np.random.default_rng(302)
        def tail(n):
            return [rand_coeff(rng) for _ in range(n)]

        u = germ([0, 1] + tail(19), [0, 0, 1] + tail(18))
        v = germ([0, 0, 1] + tail(18), [0, 1] + tail(19))
        b1 = germs._numeric_difference(u.numeric[0], v.numeric[0])
        b2 = germs._numeric_difference(u.numeric[1], v.numeric[1])
        stacks = self._count_det(monkeypatch)
        out = germs._ResultantPlan(b1, b2, 0.3).resultant()
        monkeypatch.undo()
        assert stacks == [(len(out), 40, 40)] and len(out) == 801
        assert np.array_equal(out, _reference_resultant_w(b1, b2, 0.3), equal_nan=True)


class TestResultantPlan:
    """A disk's plan does the epsilon-free work once; a steady draw is read
    off the disk's expansion, and any other is planned afresh.  Counted in
    calls."""

    @staticmethod
    def _disks():
        rng = np.random.default_rng(303)
        quartic = germ([0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1, gaussian(1, 2), Fraction(-1, 3)])
        # a benchmark-sized axis pair (p moves) and a k = 4 simple germ (q moves)
        return [(axis_germ(rng, 2, 0), axis_germ(rng, 1, 1)), (quartic, None)]

    @pytest.mark.parametrize("disk", [0, 1], ids=["pair", "k4-single"])
    def test_draws_reuse_the_plan(self, monkeypatch, disk):
        # after a steady disk's R_0, its seven-epsilon ladder reads the disk's
        # expansion: no vander, degrees, determinant or draw, and no seeded
        # generator or eigensolve
        u, v = self._disks()[disk]
        oracle, germ_args = (numeric_double_point_oracle, (u,)) if v is None else (numeric_intersection_oracle, (u, v))
        germs._disk_plan.cache_clear()
        calls, degrees, drawn = Counter(), [], []
        for owner, name in ((np, "vander"), (np.linalg, "det"), (np.random, "default_rng"), (np.linalg, "eigvals")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _f=original, _n=name, **k: calls.update([_n]) or _f(*a, **k))
        degrees_of, evaluate = germs._degrees, germs._ResultantPlan.resultant
        monkeypatch.setattr(germs, "_degrees", lambda b: degrees.append(b) or degrees_of(b))
        monkeypatch.setattr(germs._ResultantPlan, "resultant", lambda plan, eps=None: drawn.append(eps) or evaluate(plan, eps))
        plan = germs._disk_plan(u, v, 0.15)
        assert calls == {"vander": 2, "det": 1} and len(degrees) == 2 and drawn == [None] and plan.steady
        fixed = plan.arrays[0]
        calls.clear()
        degrees.clear()
        outcomes = [_outcome(oracle, *germ_args, epsilon, 0.15) for epsilon in EPSILON_LADDER]
        assert outcomes == self.LADDER_OUTCOMES[disk]
        assert calls == {} and degrees == [] and drawn == [None]
        # too large an epsilon sets the trim scale: the draw is planned afresh,
        # and leaves bg, the array epsilon moves, a constant; its power
        # overflows in the stack as in the loop's closed form, and both are
        # refused as not finite
        out = plan.resultant(1e300)
        assert len(degrees) == 2 and degrees[0] is fixed
        assert degrees_of(degrees[1]) == (0, 0)
        monkeypatch.undo()
        for draw in (out, _reference_resultant_w(*_perturbed(plan, 1e300), 0.15)):
            with pytest.raises(InputError, match="^oracle resultant is not finite"):
                germs._finite(draw)

    def test_a_dominant_b00_plans_every_draw_afresh(self):
        # b00 = 2 sets the trim scale and drops the 1.5e-11 w^2 term, which
        # the draw at epsilon = -1.5 keeps: the draws cannot use these degrees
        bf = np.array([[0, -1], [1, 0], [0, 1]], dtype=complex)
        bg = np.array([[2, 0, 1.5e-11], [0, 1, 0], [1, 0, 0]], dtype=complex)
        plan = germs._ResultantPlan(bf, bg, 0.3)
        assert not plan.steady and plan.degrees[1] == (2, 1)
        for epsilon in (-1.5, 1e-3):
            out = plan.resultant(epsilon)
            assert np.array_equal(out, _reference_resultant_w(*_perturbed(plan, epsilon), 0.3))

    def test_an_int_circle_reads_as_its_float(self):
        # (z^45, z) against (0, z^2): p's difference is free of w, so the
        # resultant is a closed form whose 3**45 wrapped int64 at circle 3
        u, v = germ([0] * 45 + [1], [0, 1]), germ([0], [0, 0, 1])
        closed = [germs._numeric_difference(a, b) for a, b in zip(u.numeric, v.numeric)]
        sampled = [germs._numeric_divided_difference(c) for c in CUSP35.numeric]
        for arrays, circle in ((closed, 3), (sampled, 1)):
            out = germs._ResultantPlan(*arrays, circle).resultant()
            assert np.array_equal(out, germs._ResultantPlan(*arrays, float(circle)).resultant())
            plan, twin = germs._ResultantPlan(*arrays, circle), germs._ResultantPlan(*arrays, float(circle))
            assert type(plan.circle) is float
            assert np.array_equal(plan.resultant(1e-3), twin.resultant(1e-3))
        assert np.abs(germs._ResultantPlan(*closed, 3).resultant()).max() > 1e42

    # per cell of EPSILON_LADDER at radius 0.15; the k = 4 germ's six double
    # points leave the disk at epsilon 1e-2 and 1e-3, where Rouche's test
    # refuses the cells (the companion rule counted 0), and its winding counts
    # them from 1e-4 on, at 1e-7 and 1e-8 too, where the companion rule found
    # them stuck at the origin
    LADDER_OUTCOMES = [
        [("value", 2)] * 7,
        [("refused", ROUCHE)] * 2 + [("value", 6)] * 5,
    ]

    @pytest.mark.parametrize("disk", [0, 1], ids=["pair", "k4-single"])
    def test_the_disk_check_reads_the_plan(self, monkeypatch, disk):
        u, v = self._disks()[disk]
        if v is None:
            germ_args, oracle, reference = (u,), numeric_double_point_oracle, _reference_double_point_oracle
            exact = _outcome(delta_local, u)
        else:
            germ_args, oracle, reference = (u, v), numeric_intersection_oracle, _reference_intersection_oracle
            exact = _outcome(local_intersection, u, v)
        germs._disk_plan.cache_clear()
        built = []
        plan_class = germs._ResultantPlan
        monkeypatch.setattr(germs, "_ResultantPlan", lambda *a: built.append(a) or plan_class(*a))
        outcomes = [_outcome(oracle, *germ_args, epsilon, 0.15) for epsilon in EPSILON_LADDER]
        # one plan for the disk's check and all seven cells, with epsilon on
        # its second array: p's difference, or q's divided difference
        if v is None:
            moved = germs._numeric_divided_difference(u.numeric[1])
        else:
            moved = germs._numeric_difference(u.numeric[0], v.numeric[0])
        ((_, bg, circle),) = built
        assert np.array_equal(bg, moved) and circle == 0.15
        assert germs._disk_plan.cache_info().maxsize == 32
        assert outcomes == self.LADDER_OUTCOMES[disk]
        monkeypatch.undo()
        refs = [_outcome(reference, *germ_args, epsilon, 0.15, 0) for epsilon in EPSILON_LADDER]
        moves = [_against_the_reference(ours, ref, exact) for ours, ref in zip(outcomes, refs)]
        assert moves == [["same"] * 7, ["refused by Rouche"] * 2 + ["same"] * 3 + ["answered"] * 2][disk]


class TestExpansion:
    """A steady draw read off the disk's expansion R_0 + sum eps^k c_k:
    against the per-sample determinant, against Rouche's sample test, and
    its cost in batched calls.  Counted, with no clock."""

    @staticmethod
    def _steady_cells(monkeypatch) -> list:
        """(plan, terms) of every cell of ``TestCachedDisks.cells()`` over
        RADIUS_LADDER and EPSILON_LADDER whose draw its disk's expansion
        gives, as the oracles read them."""
        cells, terms = [], germs._ResultantPlan.terms

        def recording(plan, epsilon):
            out = terms(plan, epsilon)
            if out:
                cells.append((plan, out))
            return out

        germs._disk_plan.cache_clear()
        monkeypatch.setattr(germs._ResultantPlan, "terms", recording)
        for oracle, germ_args, seed in TestCachedDisks.cells():
            for radius in RADIUS_LADDER:
                for epsilon in EPSILON_LADDER:
                    _outcome(oracle, *germ_args, epsilon, radius, seed)
        monkeypatch.undo()
        return cells

    def test_steady_draws_match_the_per_sample_loop(self, monkeypatch):
        errors = []
        for plan, (epsilon, c, _) in self._steady_cells(monkeypatch):
            draw = plan.base[0] + sum(epsilon**k * row for k, row in enumerate(c, 1))
            ref = _reference_resultant_w(*_perturbed(plan, epsilon), plan.circle)
            errors.append(np.abs(draw - ref).max() / np.abs(ref).max())
        assert len(errors) > 2000 and max(errors) <= EXPANSION_TOL and np.median(errors) < 1e-14

    def test_the_bound_covers_delta_and_its_reach(self, monkeypatch):
        # sum nu_k |eps|^k >= |Delta| + reach at every sample of the first
        # count, Delta = sum eps^k c_k, to the last bits of the sums
        empty = 0
        for plan, (epsilon, c, bound) in self._steady_cells(monkeypatch):
            # c is empty where f is free of w: Delta = 0 and the bound is 0
            delta = sum((epsilon**k * row for k, row in enumerate(c, 1)), np.zeros_like(plan.base[0]))
            empty += not len(c)
            (values,), (reach,) = germs._arcs(delta[None], 1 << (2 * len(delta) - 1).bit_length())
            assert (np.abs(values) + reach).max() <= bound * (1 + 1e-12)
        assert empty

    def test_a_bound_answer_passes_the_sample_test(self, monkeypatch):
        # where sum nu_k |eps|^k < min(|R_0| - reach) at the first sample
        # count, Rouche's sample test on the same Delta passes too (an
        # infinite bound makes _rouche run it)
        answered = tested = 0
        for plan, (epsilon, c, bound) in self._steady_cells(monkeypatch):
            base_coeffs, arcs = plan.base  # the cell's test has kept R_0's arcs
            if bound < arcs[1 << (2 * len(base_coeffs) - 1).bit_length()][1].min():
                assert germs._rouche(None, plan.base, (epsilon, c, math.inf)) is None
                answered += 1
            else:
                tested += 1
        assert answered > 1000 and tested > 100

    # (germ arguments, epsilon, radius, outcome): a pair and a double point
    # answered, a pair whose p difference is free of w, a stuck cell and two
    # refused by Rouche's test, as the expansion and the draw both give them
    WITHOUT_EXPANSION = [
        ((CUSP35,), 1e-3, 0.3, ("value", 4)),
        ((CUSP35, QUARTIC46), 1e-3, 0.3, ("value", 18)),
        ((germ([0, 0, 0, 1], [0, 1]), germ([0], [0, 0, 1])), 1e-3, 0.3, ("value", 6)),
        ((CUSP35,), 1e-8, 0.15, ("value", 4)),
        ((TINY_CUSP,), 1e-3, 0.3, ("refused", ROUCHE)),
        ((germ([0, 0, 0, 1, 1], [0, 0, 0, 0, 1, 2]),), 1e-2, 0.15, ("refused", ROUCHE)),
    ]

    @pytest.mark.parametrize("branch", ["singular", "not finite"])
    def test_a_disk_without_an_expansion_plans_its_draws_afresh(self, monkeypatch, branch):
        # an oracle disk's A has f's constant leading w-coefficient on its
        # diagonal, and no oracle input here makes the c_k overflow where R_0
        # is finite, so the solve's LinAlgError and a c that is not finite
        # are patched in; each cell then draws once, afresh, at epsilon
        if branch == "singular":

            def singular(*args):
                raise np.linalg.LinAlgError("Singular matrix")

            monkeypatch.setattr(np.linalg, "solve", singular)
        else:
            characteristic = germs._characteristic
            monkeypatch.setattr(germs, "_characteristic", lambda m: characteristic(m) * np.inf)
        germs._disk_plan.cache_clear()
        made, epsilons = TestRedrawTurns._count(monkeypatch)
        read = TestRedrawTurns._read(monkeypatch)
        for germ_args, epsilon, radius, outcome in self.WITHOUT_EXPANSION:
            oracle = numeric_double_point_oracle if len(germ_args) == 1 else numeric_intersection_oracle
            epsilons.clear()
            assert _outcome(oracle, *germ_args, epsilon, radius) == outcome, germ_args
            assert [e for e in epsilons if e is not None] == [epsilon]
            assert germs._disk_plan(*germ_args, *([None] * (2 - len(germ_args))), radius).expansion is None
        assert made == [] and len(read) == len(self.WITHOUT_EXPANSION)
        monkeypatch.undo()
        germs._disk_plan.cache_clear()
        for germ_args, epsilon, radius, outcome in self.WITHOUT_EXPANSION:
            oracle = numeric_double_point_oracle if len(germ_args) == 1 else numeric_intersection_oracle
            assert _outcome(oracle, *germ_args, epsilon, radius) == outcome, germ_args

    def test_a_leading_coefficient_zero_at_a_sample_has_no_expansion(self):
        # f = 1 + (z - 0.3) w: at circle 0.3 its leading w-coefficient is an
        # exact 0 at the sample z = 0.3, A is singular there, and the draw is
        # planned afresh, equal to the loop
        bf = np.array([[1, -0.3], [0, 1]], dtype=complex)
        bg = np.array([[0.5, 1], [1, 0]], dtype=complex)
        plan = germs._ResultantPlan(bf, bg, 0.3)
        assert plan.steady and np.any(plan.base[0])
        assert plan.expansion is None and plan.terms(1e-3) is None
        assert np.array_equal(plan.resultant(1e-3), _reference_resultant_w(*_perturbed(plan, 1e-3), 0.3))

    @staticmethod
    def _charpoly_errors(matrices) -> list:
        """max_k |ours_k - sympy's_k| / max(|m|_2, 1)^(d - k) over each
        matrix's characteristic polynomial det(t I - m), sympy's taken
        exactly on the entries as binary rationals."""
        t = sympy.Symbol("t")
        errors = []
        for m, ours in zip(matrices, germs._characteristic(matrices).T):
            exact = sympy.Matrix([[sympy.Rational(x.real) + sympy.I * sympy.Rational(x.imag) for x in row] for row in m.tolist()])
            coeffs = [complex(c) for c in exact.charpoly(t).all_coeffs()[::-1]]  # ascending
            scale, d = max(np.linalg.norm(m, 2), 1.0), len(m)
            errors.append(max(abs(ours[k] - coeffs[k]) / scale ** (d - k) for k in range(d + 1)))
        return errors

    @pytest.mark.parametrize("d", range(1, 9))
    def test_characteristic_polynomial_matches_sympy(self, d):
        rng = np.random.default_rng(4400 + d)
        matrices = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        assert max(self._charpoly_errors(matrices)) < 1e-14

    def test_graded_characteristic_polynomial_matches_sympy(self):
        # eigenvalues 1, 1e-6 and 1e-12 under a random unitary similarity
        rng = np.random.default_rng(4409)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        graded = q @ np.diag([1, 1e-6, 1e-12]) @ q.conj().T
        assert max(self._charpoly_errors(graded[None])) < 1e-14

    def test_the_expansion_takes_a_fixed_number_of_batched_calls(self, monkeypatch):
        # one solve of the other polynomial's triangular block and one
        # characteristic polynomial, each a stack of one matrix per sample no
        # wider than the Sylvester side: no stack of 2^d determinants
        germs._disk_plan.cache_clear()
        plan = germs._disk_plan(DEGREE_NINE, None, 0.3)
        calls = []
        for name in ("solve", "det", "inv", "eig", "eigvals"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name: calls.append((_n, *(x.shape for x in a))) or _f(*a))
        characteristic = germs._characteristic
        monkeypatch.setattr(germs, "_characteristic", lambda m: calls.append(("_characteristic", m.shape)) or characteristic(m))
        assert plan.expansion is not None
        (_, df), (_, dg) = plan.degrees
        samples, n = plan.samples, plan.stack.shape[1]
        # q moves: deg f = 8 rows of its divided difference, beside deg g = 17 of p's
        assert (df, dg, n) == (8, 17, 25) and calls == [
            ("solve", (samples, dg, dg), (samples, dg, df)),
            ("_characteristic", (samples, df, df)),
        ]


class TestRedrawTurns:
    """A cell makes at most one draw, at epsilon itself, and no oracle call
    makes a seeded generator: the phase turns of earlier versions are gone.
    A cell whose draw the disk's expansion gives makes none."""

    @staticmethod
    def _count(monkeypatch):
        made, epsilons = [], []
        default_rng, evaluate = np.random.default_rng, germs._ResultantPlan.resultant
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or default_rng(seed))
        monkeypatch.setattr(
            germs._ResultantPlan, "resultant", lambda plan, eps=None: epsilons.append(eps) or evaluate(plan, eps)
        )
        return made, epsilons

    @staticmethod
    def _read(monkeypatch):
        """The epsilon of every call of ``_ResultantPlan.terms``."""
        read = []
        terms = germs._ResultantPlan.terms
        monkeypatch.setattr(germs._ResultantPlan, "terms", lambda plan, eps: read.append(eps) or terms(plan, eps))
        return read

    def test_a_first_draw_answer_makes_no_generator(self, monkeypatch):
        # both cells are answered from their disks' expansions, with no draw
        made, epsilons = self._count(monkeypatch)
        read = self._read(monkeypatch)
        assert numeric_double_point_oracle(CUSP35, 1e-3, 0.3, seed=3) == 4
        assert numeric_intersection_oracle(CUSP35, QUARTIC46, 1e-3, 0.3, seed=3) == 18
        assert made == [] and [e for e in epsilons if e is not None] == [] and read == [1e-3, 1e-3]

    def test_a_stuck_cell_makes_no_draw_and_no_generator(self, monkeypatch):
        # the companion rule refused this cell as stuck at the origin; the
        # disk's expansion answers it
        made, epsilons = self._count(monkeypatch)
        read = self._read(monkeypatch)
        assert numeric_double_point_oracle(CUSP35, 1e-8, 0.3, seed=5) == 4
        assert made == [] and [e for e in epsilons if e is not None] == [] and read == [1e-8]

    @pytest.mark.parametrize("oracle", ["double-point", "intersection"])
    def test_a_rouche_refusal_makes_one_draw_and_no_generator(self, monkeypatch, oracle):
        made, epsilons = self._count(monkeypatch)
        with pytest.raises(InputError) as info:
            if oracle == "double-point":
                numeric_double_point_oracle(TINY_CUSP, 1e-3, 0.3, seed=5)
            else:
                numeric_intersection_oracle(*TINY_PAIR, 1e-3, 0.3, seed=5)
        assert str(info.value) == ROUCHE
        assert made == [] and [e for e in epsilons if e is not None] == [1e-3]

    def test_every_cell_makes_at_most_one_draw_and_no_generator(self, monkeypatch):
        # over the cached-disk cells: a cell whose disk passes its check reads
        # the expansion's terms at epsilon once, and evaluates the perturbed
        # resultant once where they do not give its draw; any other cell
        # does neither
        cells = TestCachedDisks.cells()  # drawn before default_rng is counted
        made, epsilons = self._count(monkeypatch)
        disks, disk_plan = [], germs._disk_plan
        monkeypatch.setattr(germs, "_disk_plan", lambda *a: disks.append(disk_plan(*a)) or disks[-1])
        read, terms = [], germs._ResultantPlan.terms
        monkeypatch.setattr(germs._ResultantPlan, "terms", lambda plan, eps: read.append(terms(plan, eps)) or read[-1])
        draws = Counter()
        for oracle, germ_args, seed in cells:
            for radius in TestCachedDisks.RADII:
                for epsilon in TestCachedDisks.EPSILONS:
                    disks.clear()
                    epsilons.clear()
                    read.clear()
                    outcome = _outcome(oracle, *germ_args, epsilon, radius, seed)
                    drawn = [e for e in epsilons if e is not None]
                    assert len(read) == len(disks), (germ_args, radius, epsilon, outcome)
                    assert drawn == [complex(epsilon) for out in read if not out], (germ_args, radius, epsilon, outcome)
                    draws[len(drawn), outcome[0]] += 1
        assert made == []
        # the cells that draw: draws off the plan's degrees and disks whose R_0
        # vanished; a disk with a polynomial free of w reads its expansion
        # like any other, so 120 answered cells draw, where 1,080 did while
        # such disks took a closed form (1,941 refused and 3,295 answered
        # without a draw, 1,124 refused with one)
        assert draws[0, "value"] > 3000 and draws[0, "refused"] > 1000 and draws[1, "refused"] > 1000
        assert 0 < draws[1, "value"] < 200


class TestStuckCellsStayStuck:
    """Cells that the companion rule refused as stuck at the origin: at
    z = 0 the resultant is about epsilon**(a-1) times a product, so no turn
    of epsilon's phase that the earlier redraw rule tried
    (``_reference_turns``) lifts its low coefficients above the trim.  The
    winding does not trim, and the one draw answers each such cell with
    delta_local.  Counted in cells, with no clock."""

    def test_every_turned_phase_of_a_stuck_cell_is_stuck(self):
        rng = np.random.default_rng(2426)
        stuck = turned = 0
        for seed in range(200):
            u = random_simple_germ(rng, max_k=5)
            for radius in RADIUS_LADDER:
                try:
                    plan = germs._disk_plan(u, None, radius)
                except InputError:
                    continue  # the radius pre-check refuses before any draw
                for epsilon in EPSILON_LADDER:
                    first, *turns = _reference_turns(complex(epsilon), seed)
                    if not _reference_unit_roots(plan.resultant(first), 0)[0]:
                        continue
                    stuck += 1
                    for eps in turns:
                        assert _reference_unit_roots(plan.resultant(eps), 0)[0], (u, radius, epsilon, eps)
                    turned += len(turns)
                    assert numeric_double_point_oracle(u, epsilon, radius, seed) == delta_local(u)
        assert stuck > 300 and turned == 9 * stuck


class TestOracleArguments:
    """A bool or a value that is no number is refused, not read as one."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"epsilon": True}, "epsilon must be a complex number, got True"),
            ({"epsilon": None}, "epsilon must be a complex number, got None"),
            ({"radius": True}, "radius must be a real number, got True"),
            ({"radius": "0.3"}, "radius must be a real number, got '0.3'"),
        ],
        ids=["epsilon-bool", "epsilon-none", "radius-bool", "radius-string"],
    )
    @pytest.mark.parametrize("oracle", ["double-point", "intersection"])
    def test_refused(self, kwargs, message, oracle):
        if oracle == "double-point":
            call = lambda: numeric_double_point_oracle(germ([0, 0, 1], [0, 0, 0, 1, 0, 1]), **kwargs)
        else:
            call = lambda: numeric_intersection_oracle(CUSP35, QUARTIC46, **kwargs)
        with pytest.raises(InputError, match=f"^{message}$"):
            call()

    def test_numbers_still_read(self):
        u = germ([0, 0, 1], [0, 0, 0, 1, 0, 1])
        assert numeric_double_point_oracle(u, np.complex64(1e-3), np.float32(0.3)) == 1
        assert numeric_intersection_oracle(CUSP35, QUARTIC46, 1e-3 + 0j, np.float64(0.3)) == 18

    ORACLES = {
        "double-point": lambda **kwargs: numeric_double_point_oracle(CUSP35, **kwargs),
        "intersection": lambda **kwargs: numeric_intersection_oracle(CUSP35, QUARTIC46, **kwargs),
    }

    @pytest.mark.parametrize(
        "kwargs, floats",
        [
            ({"radius": Fraction(3, 10)}, {"radius": 0.3}),
            ({"epsilon": Fraction(1, 1000)}, {"epsilon": 1e-3}),
            ({"epsilon": 2**70}, {"epsilon": 2.0**70}),
        ],
        ids=["radius-fraction", "epsilon-fraction", "epsilon-int-past-int64"],
    )
    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_exact_numbers_read_as_floats(self, kwargs, floats, oracle):
        # these raised numpy's UFuncTypeError or a bare TypeError
        call = self.ORACLES[oracle]
        assert _outcome(lambda: call(**kwargs)) == _outcome(lambda: call(**floats))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"radius": 10**400}, f"radius must be positive and finite, got {10**400}"),
            ({"radius": -(10**400)}, f"radius must be positive and finite, got {-(10**400)}"),
            ({"epsilon": 10**400}, f"epsilon must be finite, got {10**400}"),
            ({"radius": Fraction(10**400, 3)}, f"radius must be positive and finite, got {Fraction(10**400, 3)!r}"),
            ({"radius": 10**5000}, "radius must be positive and finite, got int of more than 4300 digits"),
            ({"epsilon": -(10**5000)}, "epsilon must be finite, got int of more than 4300 digits"),
        ],
        ids=["radius-int", "radius-negative-int", "epsilon-int", "radius-fraction", "radius-long-int", "epsilon-long-int"],
    )
    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_past_the_float_range_refused(self, kwargs, message, oracle):
        # a bare OverflowError, or a ValueError from formatting an int past
        # str's 4300-digit limit in the message
        with pytest.raises(InputError) as info:
            self.ORACLES[oracle](**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"radius": Fraction(1, 10**400)}, f"radius must be positive as a float, got {Fraction(1, 10**400)!r}"),
            ({"epsilon": Fraction(1, 10**400)}, f"epsilon must be nonzero as a float, got {Fraction(1, 10**400)!r}"),
            ({"radius": Fraction(-1, 10**400)}, f"radius must be positive and finite, got {Fraction(-1, 10**400)!r}"),
        ],
        ids=["radius", "epsilon", "negative-radius"],
    )
    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_a_nonzero_number_that_underflows_is_refused_as_such(self, kwargs, message, oracle):
        with pytest.raises(InputError) as info:
            self.ORACLES[oracle](**kwargs)
        assert str(info.value) == message

    def test_an_int_radius_reads_as_its_float(self, monkeypatch):
        # p_u - p_v = z^45 is free of w, so the disk's R_0 is (3^45 zeta^45)^2
        # at radius 3, where a closed form in powers of an int radius wrapped
        # int64; the cell reads the disk's expansion, the same at 3 and 3.0
        u, v = germ([0] * 45 + [1], [0, 1]), germ([0], [0, 0, 1])
        runs, read = [], []
        evaluate, terms = germs._ResultantPlan.resultant, germs._ResultantPlan.terms
        monkeypatch.setattr(
            germs._ResultantPlan, "resultant", lambda plan, eps=None: runs[-1].append(evaluate(plan, eps)) or runs[-1][-1]
        )
        monkeypatch.setattr(germs._ResultantPlan, "terms", lambda plan, eps: read.append(terms(plan, eps)) or read[-1])
        counts = []
        for radius in (3, 3.0):
            germs._disk_plan.cache_clear()
            runs.append([])
            counts.append(numeric_intersection_oracle(u, v, 1e-3, radius))
        assert counts[0] == counts[1] and len(runs[0]) == len(runs[1]) == 1
        assert all(np.array_equal(a, b) for a, b in zip(*runs))
        assert np.abs(runs[0][0]).max() > 1e42
        (eps, c, bound), (eps_f, c_f, bound_f) = read
        assert eps == eps_f and np.array_equal(c, c_f) and bound == bound_f


def _reference_unit_roots(coeffs, edge_tol):
    """(multiplicity at 0, np.roots of the kept coefficients, hit_edge)."""
    scale = np.abs(coeffs).max()
    if not np.isfinite(scale):
        raise InputError("oracle resultant is not finite; shrink the radius or epsilon")
    if scale == 0:
        raise InputError("oracle resultant vanished identically")
    keep = np.flatnonzero(np.abs(coeffs) > germs.COEFF_TRIM_TOL * scale)
    first, last = int(keep[0]), int(keep[-1])
    roots = np.roots(coeffs[first : last + 1][::-1])
    return first, roots, bool(np.any(np.abs(np.abs(roots) - 1.0) < edge_tol))


def _reference_turns(epsilon, seed):
    """epsilon, then epsilon turned by seeded random phases, REFERENCE_DRAWS
    in all: the draws of the earlier redraw rule."""
    yield epsilon
    rng = np.random.default_rng(seed)
    for _ in range(REFERENCE_DRAWS - 1):
        yield epsilon * np.exp(2j * np.pi * rng.random())


def _reference_redraw(draw, epsilon, seed):
    """The companion rule's redraw loop: a stuck draw ended the cell at once."""
    for draws, eps in enumerate(_reference_turns(epsilon, seed), 1):
        result = draw(eps)
        if not isinstance(result, str):
            return result
        if result == STUCK:
            raise InputError(f"oracle failed: {result} at draw {draws}; a turn of epsilon's phase cannot move them")
    raise InputError(f"oracle failed: {result} after {REFERENCE_DRAWS} draws")


def _reference_radius_check(res0, edge_tol, what):
    if not np.any(res0):
        return
    _, roots, _ = _reference_unit_roots(res0, edge_tol)
    if len(roots) and np.min(np.abs(roots)) <= 1.0 + edge_tol:
        raise InputError(f"radius too large: {what} within the chosen disk; shrink the radius")


def _reference_check_perturbation(epsilon, radius):
    if not (0 < radius < np.inf):
        raise InputError(f"radius must be positive and finite, got {radius!r}")
    if not np.isfinite(epsilon):
        raise InputError(f"epsilon must be finite, got {epsilon!r}")


def _reference_double_point_oracle(u, epsilon, radius, seed):
    """The companion rule of numeric_double_point_oracle, with res0, the pre-check and np.roots in every cell."""
    _reference_check_perturbation(epsilon, radius)
    delta = germs._double_point_refusals(u)
    if delta is not None:
        return delta
    germs._require_small_domain(u, germs._SELF_DOMAIN)
    edge_tol = ROOT_EDGE_TOL / radius
    pdd, qdd = (germs._numeric_divided_difference(c) for c in u.numeric)
    res0 = germs._ResultantPlan(pdd, qdd, radius).resultant()
    _reference_radius_check(res0, edge_tol, "germ has self-intersections")

    def draw(eps):
        q_pert = qdd.copy()
        q_pert[0, 0] += eps
        res = germs._ResultantPlan(pdd, q_pert, radius).resultant()
        zero_mult, roots, hit_edge = _reference_unit_roots(res, edge_tol)
        if zero_mult:
            return STUCK
        if hit_edge:
            return "radius on a root, retry"
        count = int(np.sum(np.abs(roots) < 1.0))
        if count % 2 != 0:
            return "unpaired intersection parameter (partner escaped the disk)"
        return count // 2

    return _reference_redraw(draw, epsilon, seed)


def _reference_intersection_oracle(u, v, epsilon, radius, seed):
    """The companion rule of numeric_intersection_oracle, with res0, the pre-check and np.roots in every cell."""
    _reference_check_perturbation(epsilon, radius)
    germs._pair_resultant(u, v)
    edge_tol = ROOT_EDGE_TOL / radius
    b1 = germs._numeric_difference(u.numeric[0], v.numeric[0])
    b2 = germs._numeric_difference(u.numeric[1], v.numeric[1])
    res0 = germs._ResultantPlan(b1, b2, radius).resultant()
    _reference_radius_check(res0, edge_tol, "germs intersect away from the origin but")

    def draw(eps):
        b1e = b1.copy()
        b1e[0, 0] += eps
        res_z = germs._ResultantPlan(b1e, b2, radius).resultant()
        zero_mult, roots, hit_edge = _reference_unit_roots(res_z, edge_tol)
        if hit_edge:
            return "radius on a root, retry"
        return zero_mult + int(np.sum(np.abs(roots) < 1.0))

    return _reference_redraw(draw, epsilon, seed)


def _outcome(oracle, *args):
    try:
        return "value", oracle(*args)
    except InputError as exc:
        return "refused", str(exc)


def _against_the_reference(ours, ref, exact):
    """How a cell of the winding rule stands to the companion reference:
    "same", or the move a named change allows.  A count only the winding
    gives is the exact answer, and Rouche's test refuses a cell that the
    reference answers or whose draws all failed there, at a sample or on a
    root; any other difference fails."""
    if ours == ref:
        return "same"
    if ours[0] == "value":
        assert ours == exact and ref[0] == "refused", (ours, ref, exact)
        return "answered"
    assert ref[0] == "value" or ref[1].startswith("oracle failed: "), (ours, ref)
    moves = {("refused", ROUCHE): "refused by Rouche", ("refused", ON_A_ROOT): "refused on a root"}
    assert ours in moves, (ours, ref)
    return moves[ours]


class TestCachedDisks:
    """The oracles with a cached disk per (germs, radius), its winding
    checked once and Rouche's test for each draw, against the per-cell
    reference bodies."""

    RADII = (*RADIUS_LADDER, 5.0, 1e-300)
    EPSILONS = (*EPSILON_LADDER, 1e-5 * np.exp(2j), 1e300)

    @staticmethod
    def cells() -> list:
        """(oracle, germ arguments, seed): 60 simple germs and 60 axis pairs."""
        rng = np.random.default_rng(400)
        singles = [random_simple_germ(rng) for _ in range(60)]
        pairs = [
            (axis_germ(rng, int(rng.integers(1, 4)), 0), axis_germ(rng, int(rng.integers(1, 4)), 1))
            for _ in range(60)
        ]
        return [(numeric_double_point_oracle, (u,), seed) for seed, u in enumerate(singles)] + [
            (numeric_intersection_oracle, (u, v), seed) for seed, (u, v) in enumerate(pairs)
        ]

    @staticmethod
    def _clear_disks():
        germs._disk_plan.cache_clear()

    def test_every_cell_matches_the_reference(self, monkeypatch):
        # every resultant that passes Rouche's test, a draw planned afresh or
        # R_0 + sum eps^k c_k from the disk's expansion, has np.roots's count
        # of the same coefficients, their roots trimmed to 0 included, as its
        # answer (twice the answer for double points)
        self._clear_disks()
        checked_counts, passed = [], []
        rouche = germs._rouche

        def compared(coeffs, base, terms=None):
            rouche(coeffs, base, terms)
            if terms:
                epsilon, c, _ = terms
                coeffs = base[0] + sum(epsilon**k * row for k, row in enumerate(c, 1))
            first, roots, _ = _reference_unit_roots(coeffs, 0)
            passed.append(first + np.sum(np.abs(roots) < 1))

        monkeypatch.setattr(germs, "_rouche", compared)
        references = {numeric_double_point_oracle: _reference_double_point_oracle}
        references[numeric_intersection_oracle] = _reference_intersection_oracle
        kinds, moves = set(), Counter()
        for oracle, germ_args, seed in self.cells():
            reference = references[oracle]
            exact = _outcome(delta_local if oracle is numeric_double_point_oracle else local_intersection, *germ_args)
            for radius in self.RADII:
                for epsilon in self.EPSILONS:
                    args = (*germ_args, epsilon, radius, seed)
                    passed.clear()
                    ours, ref = _outcome(oracle, *args), _outcome(reference, *args)
                    if passed:
                        assert ours[0] == "value" and passed == [ours[1] * (3 - len(germ_args))], args
                        checked_counts += passed
                    moves[_against_the_reference(ours, ref, exact)] += 1
                    assert type(ours[1]) is type(ref[1]) or ours[0] != ref[0], args
                    kind = ours[1].split(":")[0].split(";")[0] if ours[0] == "refused" else "value"
                    kinds.add(kind)
        # answers, radius refusals, overflow refusals and failed draws all occur
        assert {"value", "radius too large", "oracle resultant is not finite", "oracle failed"} <= kinds
        # stuck cells are answered, cells that epsilon dwarfs are refused, and
        # one cell with a root of its draw within roundoff of the circle
        # (single 12 at radius 0.15, epsilon 1e-4) is refused on that root
        assert moves["answered"] > 100 and moves["refused by Rouche"] > 1000 and moves["same"] > 4000
        assert moves["refused on a root"] == 1
        assert len(checked_counts) > 1000 and 0 in checked_counts

    def test_the_seed_has_no_effect(self):
        # a cell makes one draw at epsilon itself, so every outcome is the
        # same at seeds 0 and 7
        for oracle, germ_args, _ in self.cells():
            for radius in self.RADII:
                for epsilon in self.EPSILONS:
                    seeds = [_outcome(oracle, *germ_args, epsilon, radius, seed) for seed in (0, 7)]
                    assert seeds[0] == seeds[1], (germ_args, radius, epsilon, seeds)

    def test_one_radius_check_per_disk(self, monkeypatch):
        # the pre-check is the one winding, of the disk's R_0
        self._clear_disks()
        checks = []
        winding = germs._winding
        monkeypatch.setattr(germs, "_winding", lambda c, arcs: checks.append(len(c)) or winding(c, arcs))
        for radius in (0.3, 0.15):
            for epsilon in EPSILON_LADDER:
                with contextlib.suppress(InputError):
                    numeric_intersection_oracle(CUSP35, QUARTIC46, epsilon, radius)
                with contextlib.suppress(InputError):
                    numeric_double_point_oracle(CUSP35, epsilon, radius)
        # two radii of each disk, the pair's R_0 and the single's of their own lengths
        assert len(checks) == 4 and len(set(checks)) == 2
        # a refusal is not cached: the refused radius is checked again
        u = germ([0, 0, 1], [0, 0, 0, 1, 0, 1])
        for _ in range(2):
            with pytest.raises(InputError, match="radius too large"):
                numeric_double_point_oracle(u, 1e-3, radius=2.5)
        assert len(checks) == 6

    def test_r0_is_sampled_once_per_count(self, monkeypatch):
        # the disk's winding leaves R_0's samples at every count it tries in
        # the plan's base, and Rouche's test of each cell reads them there:
        # over the ladders, no arcs call, by the winding module or by
        # Rouche's test, takes a passed disk's R_0 at a count twice, and the
        # first count is the winding's
        self._clear_disks()
        taken, disks = [], []
        arcs, disk_plan = winding.arcs, germs._disk_plan

        def recorded(rows, n, low=0):
            taken.append((rows[0].tobytes(), n) if len(rows) == 1 else None)
            return arcs(rows, n, low)

        monkeypatch.setattr(winding, "arcs", recorded)
        monkeypatch.setattr(germs, "_arcs", recorded)
        monkeypatch.setattr(germs, "_disk_plan", lambda *a: disks.append(disk_plan(*a)) or disks[-1])
        for oracle, germ_args, seed in self.cells()[::4]:
            for radius in RADIUS_LADDER:
                for epsilon in EPSILON_LADDER:
                    _outcome(oracle, *germ_args, epsilon, radius, seed)
        plans = {id(plan): plan for plan in disks if np.any(plan.base[0])}
        # a disk that the cache let go and planned again samples its R_0 anew
        expected = Counter((base.tobytes(), n) for base, memo in (p.base for p in plans.values()) for n in memo)
        bases = {base for base, _ in expected}
        assert len(plans) > 30 and Counter(key for key in taken if key and key[0] in bases) == expected
        for plan in plans.values():
            base, memo = plan.base
            assert 1 << (2 * len(base) - 1).bit_length() in memo

    def test_stuck_draws_find_no_roots(self, monkeypatch):
        # a draw whose double points stay at 0 to the companion rule's trim,
        # by the expansion and by the per-sample loop alike, is answered from
        # the disk's expansion with no draw, and no eigensolve runs anywhere
        germs._disk_plan.cache_clear()
        calls, evaluated = [], []
        eigvals, evaluate = np.linalg.eigvals, germs._ResultantPlan.resultant
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        monkeypatch.setattr(
            germs._ResultantPlan,
            "resultant",
            lambda plan, eps=None: evaluated.append(evaluate(plan, eps)) or evaluated[-1],
        )
        assert numeric_double_point_oracle(CUSP35, 1e-8, 0.3) == delta_local(CUSP35) == 4
        (base,) = evaluated  # the disk's R_0 alone
        plan = germs._disk_plan(CUSP35, None, 0.3)
        epsilon, c, _ = plan.terms(1e-8)
        draw = base + sum(epsilon**k * row for k, row in enumerate(c, 1))
        reference = _reference_resultant_w(*_perturbed(plan, epsilon), 0.3)
        assert _reference_unit_roots(draw, 0)[0] == _reference_unit_roots(reference, 0)[0] > 0
        assert numeric_double_point_oracle(CUSP35, 1e-3, 0.3) == 4 and calls == []

    def test_disk_arrays_are_read_only(self):
        disks = germs._disk_plan(CUSP35, QUARTIC46, 0.3).arrays, germs._disk_plan(CUSP35, None, 0.3).arrays
        for a in (a for disk in disks for a in disk):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1

    def test_germ_hash_is_cached_and_consistent(self):
        u = germ([0, 0, 1], [0, 0, 0, gaussian(1, 2)])
        twin = germ([0, 0, Fraction(3, 3), 0], [gaussian(0, 0), 0, 0, gaussian(Fraction(2, 2), 2)])
        assert u is not twin and u == twin
        assert "_hash" not in vars(u)
        assert hash(u) == hash(twin) == hash((u.p, u.q))
        assert vars(u)["_hash"] == hash(u)  # the first hash stored it
        assert len({u, twin, CUSP23}) == 2

    @pytest.mark.parametrize("epsilon", [0, 0.0, -0.0, 0j])
    def test_zero_epsilon_refused(self, epsilon):
        for oracle, germ_args in (
            (numeric_double_point_oracle, (CUSP35,)),
            (numeric_double_point_oracle, (germ([0, 1], [0]),)),  # answered before any draw
            (numeric_intersection_oracle, (CUSP35, QUARTIC46)),
        ):
            with pytest.raises(InputError, match="^epsilon must be nonzero$"):
                oracle(*germ_args, epsilon, 0.3)


class TestRedrawBranches:
    """Cells whose first draw puts a root on the counting circle: the radius
    is |z| for a root z of that draw's resultant on the disk of radius 0.3.
    The ids say what the earlier redraw rule did: a turn of epsilon's phase
    moved the roots, and a later draw answered (rescued) or every draw
    failed (exhausted).  Each cell now ends at its one draw.  A root of
    R_eps on the circle is a point where |R_eps - R_0| = |R_0|, so Rouche's
    test refuses three of them at a sample; the cusp's double points stay
    on the circle, and no sample count passes the test.  The draws are
    counted by patching ``_rouche``."""

    EPSILON = 1e-3

    @staticmethod
    def _draws(monkeypatch) -> list:
        """What each draw of the oracles ends in, in order: "passed" or the
        refusal that Rouche's test raised."""
        draws = []
        rouche = germs._rouche

        def logged(coeffs, base, terms=None):
            try:
                rouche(coeffs, base, terms)
            except InputError as exc:
                draws.append(str(exc))
                raise
            draws.append("passed")

        monkeypatch.setattr(germs, "_rouche", logged)
        return draws

    def _radius_on_a_root(self, u, v, index) -> float:
        """|z| for the index-th smallest root z of the first draw's resultant."""
        _, roots, _ = _reference_unit_roots(germs._disk_plan(u, v, 0.3).resultant(self.EPSILON), 0)
        return 0.3 * float(np.sort(np.abs(roots))[index])

    @pytest.mark.parametrize(
        "u, v, index, refusal",
        [
            # the companion rule answered by the last draw, after eight unpaired parameters
            (germ([0, 0, 0, 1, 1], [0, 0, 0, 0, 1, 2]), None, 4, ROUCHE),
            # (z^2, z^3 + eps z) has its double points at z^2 = -eps, on the
            # circle |z| = |eps|^(1/2) whatever the phase
            (CUSP23, None, 0, ON_A_ROOT),
            (germ([0, 1, 1], [0, 0, 0, 1]), germ([0, 0, 1], [0, 1, 1]), 0, ROUCHE),
            (germ([0, 1], [0, 0, 1]), germ([0, 0, 1], [0, 1, 0, 1]), 0, ROUCHE),
        ],
        ids=["double-point-rescued", "double-point-exhausted", "pair-rescued", "pair-exhausted"],
    )
    def test_redrawn_cell(self, monkeypatch, u, v, index, refusal):
        radius = self._radius_on_a_root(u, v, index)
        if v is None:
            oracle, reference, args = numeric_double_point_oracle, _reference_double_point_oracle, (u,)
        else:
            oracle, reference, args = numeric_intersection_oracle, _reference_intersection_oracle, (u, v)
        log = self._draws(monkeypatch)
        ours = _outcome(oracle, *args, self.EPSILON, radius, 0)
        assert log == [refusal] and ours == ("refused", refusal)
        monkeypatch.undo()
        exact = _outcome(delta_local if v is None else local_intersection, *args)
        ref = _outcome(reference, *args, self.EPSILON, radius, 0)
        moved = {ROUCHE: "refused by Rouche", ON_A_ROOT: "refused on a root"}[refusal]
        assert _against_the_reference(ours, ref, exact) == moved


class TestWinding:
    """The certified count of zeros in the unit disk, against np.roots."""

    def test_random_polynomials_match_np_roots(self):
        # degree 1 to 10, one root within 10^-3 to 10^-1.5 of the circle and
        # the rest anywhere with modulus 0.05 to 1.95, none within 10^-3 of it
        rng = np.random.default_rng(41)
        counts = Counter()
        for _ in range(1000):
            d = int(rng.integers(1, 11))
            moduli = rng.uniform(0.05, 1.95, d)
            moduli[np.abs(moduli - 1) < 1e-3] += 2e-3
            moduli[0] = 1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-3, -1.5)
            coeffs = np.poly(moduli * np.exp(2j * np.pi * rng.random(d)))[::-1] * complex(*rng.normal(size=2))
            count = germs._winding(coeffs, {})
            assert count == np.sum(np.abs(np.roots(coeffs[::-1])) < 1), coeffs
            counts[count] += 1
        assert set(counts) == set(range(10))

    @pytest.mark.parametrize("angle", [0.0, 1.0, np.pi])
    def test_a_root_on_the_circle_certifies_nothing(self, angle):
        coeffs = np.poly([np.exp(1j * angle), 0.5, 2j])[::-1]
        assert germs._winding(coeffs, {}) is None

    def test_the_slope_term_certifies_a_flat_minimum(self):
        # ((zeta + 1) / 2)^8 + 10^-4: |f| is 10^-4 and f' is ~0 at zeta = -1,
        # so the reach |f'| h + L2 h^2 / 2 certifies at some sample count,
        # where the Lipschitz bound h L, L = 2 pi sum m |c_m|, fails at every
        # sample count the helper tries
        coeffs = np.array([math.comb(8, m) for m in range(9)], dtype=complex) / 2**8
        coeffs[0] += 1e-4
        assert germs._winding(coeffs, {}) == np.sum(np.abs(np.roots(coeffs[::-1])) < 1) == 4
        lipschitz = 2 * np.pi * np.dot(np.arange(9), np.abs(coeffs))
        for n in (1 << k for k in range(5, 15)):
            values = np.fft.ifft(coeffs, n) * n
            assert (np.abs(values) <= lipschitz / (2 * n)).any(), n

    def test_a_resultant_that_is_not_finite_or_zero_is_refused_first(self):
        # before any count, and before Rouche's test too
        base = (np.ones(3, complex), {})
        for coeffs, message in (
            (np.array([1, np.inf, 0], dtype=complex), "oracle resultant is not finite"),
            (np.array([1, np.nan, 0], dtype=complex), "oracle resultant is not finite"),
            (np.zeros(3, complex), "oracle resultant vanished identically"),
        ):
            for test in (lambda c: germs._winding(c, {}), lambda c: germs._rouche(c, base)):
                with pytest.raises(InputError, match=f"^{message}"):
                    test(coeffs)

    def test_rouche_keeps_the_base_count_and_refuses_a_dwarfing_move(self):
        base_coeffs = np.poly([0.1, -0.2j, 3.0])[::-1]  # two zeros in the disk
        base = (base_coeffs, {})
        # lengths may differ; np.roots counts the base's two zeros in each draw that passes
        for coeffs in (base_coeffs + 1e-3, np.pad(base_coeffs, (0, 2)) + 1e-3):
            assert germs._rouche(coeffs, base) is None
            assert np.sum(np.abs(np.roots(coeffs[::-1])) < 1) == 2
        with pytest.raises(InputError) as info:
            germs._rouche(base_coeffs + [10.0, 0, 0, 0], base)
        assert str(info.value) == ROUCHE
        # the base keeps its samples by count for the next draw
        assert base[1] and all(len(values) == n for n, (values, _) in base[1].items())


class TestEpsilonDwarfsTheGerm:
    """Where epsilon moves the resultant by as much as its size somewhere on
    the counting circle, Rouche's test refuses the cell: with a = 10^-20 the
    companion rule counted 0 in these cells, where the exact answer is 1."""

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_pair_cells_refused(self, epsilon):
        assert local_intersection(*TINY_PAIR) == 1
        with pytest.raises(InputError) as info:
            numeric_intersection_oracle(*TINY_PAIR, epsilon, 0.3)
        assert str(info.value) == ROUCHE

    def test_double_point_cell_refused(self):
        assert delta_local(TINY_CUSP) == 1
        with pytest.raises(InputError) as info:
            numeric_double_point_oracle(TINY_CUSP, 1e-3, 0.3)
        assert str(info.value) == ROUCHE

    def test_an_unperturbed_resultant_that_underflows_is_refused(self):
        # at a = 10^-160 the disk's R_0 underflows to zero, so the pre-check
        # has nothing to wind; every draw is refused by Rouche's test
        a = Fraction(1, 10**160)
        u, v = germ([0, a], [0, 0, a]), germ([0, 0, a], [0, a])
        cusp = germ([0, 0, a], [0, 0, 0, a])
        assert not np.any(germs._disk_plan(u, v, 0.3).base[0])
        assert not np.any(germs._disk_plan(cusp, None, 0.3).base[0])
        for call in (lambda: numeric_intersection_oracle(u, v, 1e-3, 0.3), lambda: numeric_double_point_oracle(cusp)):
            with pytest.raises(InputError) as info:
                call()
            assert str(info.value) == ROUCHE


class TestGermFiles:
    def test_round_trip(self):
        u = germ([0, Fraction(1, 2), gaussian(0, Fraction(2, 3))], [0, 0, 1])
        data = germ_to_dict(u)
        again = germ_from_dict(json.loads(json.dumps(data)))
        assert again == u

    def test_format_shape(self):
        data = germ_to_dict(CUSP23)
        assert data["p"] == [[0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="'r'"):
            germ_from_dict({"p": [], "q": [], "r": []})

    def test_malformed_coefficient(self):
        with pytest.raises(InputError, match="re_num"):
            germ_from_dict({"p": [[0, 1]], "q": []})


class TestOracleDomainRefusal:
    """The oracles refuse the germs their exact counterparts refuse as a
    too large domain, with the same message, on every ladder cell."""

    LADDER = [(r, e) for r in (0.3, 0.15, 0.08, 0.04) for e in (1e-2, 1e-5, 1e-8)]

    def test_pair_refused_like_local_intersection(self):
        # v returns to the origin at w = 1 (p_v = 0, q_v = w^2 (1 - w - 2i w^2)
        # vanishes there too); the oracle used to answer 12 where ku*kv = 6
        u = germ([0, 0, 0, 1], [0, 0, 0, 0, 1])
        v = germ([0], [0, 0, 1, -1, gaussian(0, -2)])
        with pytest.raises(InputError) as exact:
            local_intersection(u, v)
        assert str(exact.value).startswith("germ domain too large")
        for radius, eps in self.LADDER:
            with pytest.raises(InputError) as oracle:
                numeric_intersection_oracle(u, v, epsilon=eps, radius=radius)
            assert str(oracle.value) == str(exact.value)

    def test_single_refused_like_delta_local(self):
        # p and q share the zero z = 1; the cusp at 0 has delta 1, and the
        # oracle used to answer 2
        u = germ([0, 0, 1, -1], [0, 0, 0, 1, -1])
        with pytest.raises(InputError) as exact:
            delta_local(u)
        assert str(exact.value).startswith("germ domain too large")
        for radius, eps in self.LADDER:
            with pytest.raises(InputError) as oracle:
                numeric_double_point_oracle(u, epsilon=eps, radius=radius)
            assert str(oracle.value) == str(exact.value)

    def test_cover_of_a_far_zero_germ_refused_as_not_simple(self):
        # both paths refuse a multiple cover before they check its domain:
        # the double cover of a germ whose p and q share z = 1
        u = branched_cover(germ([0, 0, 1, -1], [0, 0, 0, 1, -1]), 2)
        with pytest.raises(InputError) as exact:
            delta_local(u)
        assert str(exact.value) == "not simple: germ is a multiple cover"
        for radius, eps in self.LADDER:
            with pytest.raises(InputError) as oracle:
                numeric_double_point_oracle(u, epsilon=eps, radius=radius)
            assert str(oracle.value) == str(exact.value)

    def test_zero_coordinate_not_refused(self):
        # delta_local skips the domain check when a coordinate vanishes
        u = germ([0, 1], [0])
        assert delta_local(u) == 0
        assert numeric_double_point_oracle(u, 1e-3, 0.3) == 0

    def test_constant_coordinate_immersed_on_either_axis(self):
        # the oracle used to refuse (0, z) while answering its mirror (z, 0)
        for u in (germ([0], [0, 1]), germ([0, 1], [0])):
            assert delta_local(u) == 0
            for radius, eps in self.LADDER:
                assert numeric_double_point_oracle(u, epsilon=eps, radius=radius) == 0

    def test_constant_coordinate_non_isolated_refused(self):
        # (z^2 + z^3, 0) is 2:1 onto the p-axis near 0; the oracle used to
        # answer 0
        for u in (germ([0, 0, 1, 1], [0]), germ([0], [0, 0, 1, 1])):
            with pytest.raises(InputError) as exact:
                delta_local(u)
            assert str(exact.value) == "non-isolated double points: a coordinate is constant"
            for radius, eps in self.LADDER:
                with pytest.raises(InputError) as oracle:
                    numeric_double_point_oracle(u, epsilon=eps, radius=radius)
                assert str(oracle.value) == str(exact.value)

    def test_identical_images_refused_like_local_intersection(self):
        u = germ([0, 1], [0, 0, 1])
        for v in (u, reparametrize(u, 2), branched_cover(u, 2)):
            with pytest.raises(InputError, match="identical images") as exact:
                local_intersection(u, v)
            for radius, eps in self.LADDER:
                with pytest.raises(InputError) as oracle:
                    numeric_intersection_oracle(u, v, epsilon=eps, radius=radius)
                assert str(oracle.value) == str(exact.value)

    def test_identical_images_proved_once_per_ladder(self, monkeypatch):
        # the zero resultant is cached like an order, and the refusal raised
        # outside the cache: the whole radius x epsilon ladder takes one call
        # of Fulton's algorithm
        u = germ([0, 1, 0, 2], [0, 0, 1, 0, 3])
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        germs._oracle_order.cache_clear()
        for radius in RADIUS_LADDER:
            for eps in EPSILON_LADDER:
                with pytest.raises(InputError, match="identical images"):
                    numeric_intersection_oracle(u, reparametrize(u, 1), epsilon=eps, radius=radius)
        assert calls == [None]


class TestOracleRangeRefusal:
    """The pair oracle reads both germs as complex128 before any exact
    resultant, so a coefficient out of range is refused at once."""

    HUGE = germ([0, 0, 1], [0, 0, 0, Fraction(10**401, 3)])
    TINY = germ([0, 0, 1], [0, 0, 0, gaussian(0, Fraction(3, 10**401))])

    @pytest.mark.parametrize("name", ["HUGE", "TINY"])
    def test_refused_before_any_exact_resultant(self, monkeypatch, name):
        def no_exact_work(*args):
            raise AssertionError("exact resultant computed before the range refusal")

        germs._oracle_order.cache_clear()
        monkeypatch.setattr(germs, "_resultant", no_exact_work)
        u = getattr(self, name)
        for pair in ((u, QUARTIC46), (QUARTIC46, u)):
            with pytest.raises(InputError, match="out of the range of complex128"):
                numeric_intersection_oracle(*pair)

    def test_both_refusals_give_the_range_message(self):
        # identical images, which local_intersection refuses, and a
        # coefficient complex128 cannot hold: the range refusal comes first
        u = germ([0, 1], [0, 0, 10**400])
        with pytest.raises(InputError, match="identical images"):
            local_intersection(u, u)
        with pytest.raises(InputError, match="germ coefficient of z\\^2 in q is out of the range"):
            numeric_intersection_oracle(u, u)


class TestExactInvariantGuards:
    """Checks on computed results raise InvarianceError, also under -O."""

    def test_odd_branch_total_refused(self):
        nf = GermNormalForm(2, (1, 0), (2,))  # (2 + 2 - 1) is odd
        with pytest.raises(InputError, match="odd double-point total 3"):
            delta_from_normal_form(nf)

    def test_broken_intersection_order(self, monkeypatch):
        monkeypatch.setattr(germs, "_pair_resultant", lambda u, v: 0)
        with pytest.raises(InvarianceError, match="intersection order 0"):
            local_intersection(germ([0, 1], [0]), germ([0], [0, 1]))

    def test_broken_double_point_order(self, monkeypatch):
        monkeypatch.setattr(germs, "_resultant", lambda f, g, domain=None: 3)
        with pytest.raises(InvarianceError, match="odd double-point order 3"):
            delta_local(CUSP23)

    def test_shared_component_of_a_simple_germ(self, monkeypatch):
        # a simple germ that passes the domain check has divided differences
        # with no shared component, so a zero resultant is a broken invariant
        monkeypatch.setattr(germs, "_resultant", lambda f, g, domain=None: None)
        message = "exact germ invariant broken: divided differences share a component"
        with pytest.raises(InvarianceError, match=f"^{message}$"):
            delta_local(CUSP23)

    def test_broken_delta_bounds(self, monkeypatch):
        monkeypatch.setattr(germs, "_resultant", lambda f, g, domain=None: 0)
        with pytest.raises(InvarianceError, match="delta 0 at vanishing order 2"):
            delta_local(CUSP23)


def _sympy_number(c):
    """A GaussianRational as a sympy number, built from its parts."""
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def _sympy_coeffs(coeffs) -> list:
    return [_sympy_number(c) for c in coeffs]


def _sympy_matrix(matrix) -> tuple:
    return tuple(tuple(map(_sympy_number, row)) for row in matrix)


def _sympy_strip(coeffs) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _sympy_coeff(coeffs, i):
    return coeffs[i] if i < len(coeffs) else sympy.Integer(0)


def _sympy_change_coordinates(p, q, matrix):
    (m00, m01), (m10, m11) = (tuple(map(sympy.sympify, row)) for row in matrix)
    pq = [(_sympy_coeff(p, i), _sympy_coeff(q, i)) for i in range(max(len(p), len(q)))]
    return (
        _sympy_strip([sympy.expand_complex(m00 * pc + m01 * qc) for pc, qc in pq]),
        _sympy_strip([sympy.expand_complex(m10 * pc + m11 * qc) for pc, qc in pq]),
    )


def _sympy_critical_order(p, q):
    k = min(e for f in (p, q) for e, c in enumerate(f) if c != 0)
    a, b = _sympy_coeff(p, k), _sympy_coeff(q, k)
    if a == 0:
        return k, (sympy.Integer(0), sympy.Integer(1))
    return k, (sympy.Integer(1), sympy.expand_complex(b / a))


def _sympy_normal_form(p, q):
    """(k, tangent, branch orders) on sympy numbers, or None where the
    normal form is undefined; the algorithm of ``normal_form``."""
    k, _ = _sympy_critical_order(p, q)
    a, b = _sympy_coeff(p, k), _sympy_coeff(q, k)
    p2, q2 = _sympy_change_coordinates(p, q, ((1 / a, 0), (-b / a, 1)) if a != 0 else ((0, 1 / b), (1, 0)))
    mono = [0] * k + [1]
    if p2 != mono:
        degrees = range(max(len(p2), len(q2)))
        excess = [_sympy_coeff(p2, i) - _sympy_coeff(mono, i) for i in degrees]
        hat = [_sympy_coeff(q2, i) for i in degrees]
        # expand_complex writes a number as re + i im, so equal ratios are one
        # set element; simplify may write one number in two forms
        ratios = {sympy.expand_complex(-e / h) for e, h in zip(excess, hat) if h != 0}
        if all(e == 0 for e, h in zip(excess, hat) if h == 0) and len(ratios) == 1:
            p2, q2 = _sympy_change_coordinates(p2, q2, ((1, ratios.pop()), (0, 1)))
        if p2 != mono:
            return None
    exponents = [e for e, c in enumerate(q2) if c != 0]
    orders = []
    for j in range(1, k):
        separating = [e for e in exponents if (j * e) % k != 0]
        orders.append(min(separating) - k if separating else None)
    return k, (a, b), tuple(orders)


def _same(ours, ref) -> bool:
    """A coefficient has the parts of a sympy number."""
    return (ours.re, ours.im) == sympy.expand_complex(ref).as_real_imag()


def _same_list(ours, ref) -> bool:
    return len(ours) == len(ref) and all(_same(x, y) for x, y in zip(ours, ref))


@pytest.fixture(scope="module")
def sympy_cross_cases():
    """200 seeded germs (simple normal forms and axis germs), each with an
    invertible matrix and a nonzero scalar drawn from the same rng."""
    rng = np.random.default_rng(2026)
    cases = []
    for i in range(200):
        if i % 2:
            u = axis_germ(rng, int(rng.integers(1, 4)), int(rng.integers(0, 2)))
        else:
            u = random_simple_germ(rng)
        while True:
            matrix = tuple(tuple(rand_coeff(rng) for _ in range(2)) for _ in range(2))
            if matrix[0][0] * matrix[1][1] != matrix[0][1] * matrix[1][0]:
                break
        scalar = rand_coeff(rng)
        while not scalar:
            scalar = rand_coeff(rng)
        cases.append((u, matrix, scalar))
    return cases


class TestSympyCrossCheck:
    """Every coefficient operation of ``germs`` against the same computation
    on sympy numbers, over seeded germs."""

    def test_change_coordinates_matches_sympy(self, sympy_cross_cases):
        for u, matrix, _ in sympy_cross_cases:
            moved = change_coordinates(u, matrix)
            p, q = _sympy_change_coordinates(_sympy_coeffs(u.p), _sympy_coeffs(u.q), _sympy_matrix(matrix))
            assert _same_list(moved.p, p) and _same_list(moved.q, q)

    def test_reparametrize_matches_sympy(self, sympy_cross_cases):
        for u, _, scalar in sympy_cross_cases:
            moved = reparametrize(u, scalar)
            a = _sympy_number(scalar)
            for ours, coeffs in ((moved.p, u.p), (moved.q, u.q)):
                ref = [sympy.expand_complex(c * a**e) for e, c in enumerate(_sympy_coeffs(coeffs))]
                assert _same_list(ours, _sympy_strip(ref))

    def test_critical_order_and_normal_form_match_sympy(self, sympy_cross_cases):
        refused = 0
        for u, matrix, _ in sympy_cross_cases:
            for x in (u, change_coordinates(u, matrix)):
                p, q = _sympy_coeffs(x.p), _sympy_coeffs(x.q)
                k, tangent = critical_order(x)
                ref_k, ref_tangent = _sympy_critical_order(p, q)
                assert k == ref_k and _same_list(tangent, ref_tangent)
                ref = _sympy_normal_form(p, q)
                if ref is None:
                    refused += 1
                    with pytest.raises(InputError, match="monomial normal form"):
                        normal_form(x)
                    continue
                nf = normal_form(x)
                assert (nf.k, nf.branch_orders) == (ref[0], ref[2]) and _same_list(nf.tangent, ref[1])
        assert 0 < refused < len(sympy_cross_cases)

    def test_germ_to_dict_matches_sympy(self, sympy_cross_cases):
        for u, _, _ in sympy_cross_cases:
            ref = {}
            for key, coeffs in (("p", u.p), ("q", u.q)):
                parts = (sympy.Rational(x) for c in _sympy_coeffs(coeffs) for x in c.as_real_imag())
                flat = [int(n) for r in parts for n in (r.p, r.q)]
                ref[key] = [flat[i : i + 4] for i in range(0, len(flat), 4)]
            assert germ_to_dict(u) == ref
            assert germ_from_dict(json.loads(json.dumps(ref))) == u

    def test_numeric_is_bit_identical_to_sympy(self, sympy_cross_cases):
        for u, matrix, scalar in sympy_cross_cases:
            for x in (u, change_coordinates(u, matrix), reparametrize(u, scalar)):
                for ours, coeffs in zip(x.numeric, (x.p, x.q)):
                    ref = np.array([complex(c) for c in _sympy_coeffs(coeffs)], dtype=complex)
                    assert ours.tobytes() == ref.tobytes()


def _sympy_poly(terms, *gens):
    """A QQ_I Poly from {exponents: coefficient}; the test oracle's builder."""
    return sympy.Poly.from_dict(terms, *gens, domain="QQ_I")


def _sympy_pair_resultant(u, v):
    w, z = sympy.symbols("w z")

    def difference(cu, cv):
        terms = {(0, i): c for i, c in enumerate(cu)}
        terms.update({(j, 0): -c for j, c in enumerate(cv) if j})
        return _sympy_poly(terms, w, z)

    return difference(u.p, v.p).resultant(difference(u.q, v.q))


def _sympy_delta_resultant(u):
    w, z = sympy.symbols("w z")

    def divided(coeffs):
        return _sympy_poly({(e - 1 - i, i): c for e, c in enumerate(coeffs) for i in range(e)}, w, z)

    return divided(u.p).resultant(divided(u.q))


def _sympy_far_zero_free(u):
    z = sympy.Symbol("z")
    p, q = (_sympy_poly({(e,): c for e, c in enumerate(f)}, z) for f in (u.p, u.q))
    return len(sympy.gcd(p, q).terms()) <= 1


def _engine_cases():
    """Seeded (kind, germs) cases: axis pairs and their branched covers,
    tangent pairs, simple germs, second germs with a zero coordinate (w-free
    resultants), identical images and far-fiber domain refusals."""
    rng = np.random.default_rng(2024)
    cases = []
    for ku in range(1, 4):
        for kv in range(1, 4):
            cases.append(("pair", axis_germ(rng, ku, 0, extra=3), axis_germ(rng, kv, 1, extra=3)))
    for k, m in ((1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3)):
        u, v = axis_germ(rng, 1, 0, extra=3), axis_germ(rng, 1 + (k * m < 6), 1, extra=3)
        cases.append(("pair", branched_cover(u, k), branched_cover(v, m)))
    for _ in range(8):
        cases.append(("pair", axis_germ(rng, 2, 0, extra=3), axis_germ(rng, 1, 0, extra=3)))
    for _ in range(20):
        cases.append(("delta", random_simple_germ(rng)))
    for _ in range(8):
        u, k = axis_germ(rng, int(rng.integers(1, 3)), 0, extra=3), int(rng.integers(1, 4))
        cases.append(("pair", u, germ([0] * k + [1], [0]) if rng.random() < 0.5 else germ([0], [0] * k + [1])))
    for _ in range(4):
        u = axis_germ(rng, 1, 0, extra=3)
        cases += [("pair", u, u), ("pair", u, branched_cover(u, 2))]
    for r in (1, 2, -1, gaussian(0, 1)):
        # p and q share the zero z = r besides 0
        far = germ([0, -r, 1], [0, 0, -r, 1])
        cases += [("pair", axis_germ(rng, 1, 0, extra=3), far), ("delta", far)]
    return cases


@pytest.fixture(scope="module")
def engine_cases():
    """The cases with sympy's resultant of each, computed once."""
    return [
        (kind, gs, _sympy_pair_resultant(*gs) if kind == "pair" else _sympy_delta_resultant(*gs))
        for kind, *gs in _engine_cases()
    ]


class TestModularResultantEngine:
    """The exact resultant orders and the far-zero check against sympy's
    resultant and gcd."""

    def test_orders_and_zero_tests_match_sympy(self, engine_cases):
        # every row through _resultant, and every row of positive w-degrees
        # through Fulton's algorithm itself, whether the edges certify it or not
        assert len(engine_cases) >= 60
        zero = fulton = 0
        for kind, gs, ref in engine_cases:
            terms = _terms_of(kind, gs)
            expected = None if ref.is_zero else min(m[0] for m in ref.monoms())
            zero += expected is None
            assert germs._resultant(*terms) == expected
            if all(h and max(h)[0] for h in terms):
                fulton += 1
                assert germs._fiber_order(*terms) == expected
            for x in gs:
                assert x._far_zero_free == _sympy_far_zero_free(x)
        assert zero >= 8 and fulton >= 45

    def test_refusals_match_sympy(self, engine_cases):
        for kind, gs, ref in engine_cases:
            if kind != "pair":
                continue
            u, v = gs
            if not _sympy_far_zero_free(v):
                expected = "germ domain too large"
            elif ref.is_zero:
                expected = "identical images"
            else:
                assert local_intersection(u, v) >= 1
                continue
            with pytest.raises(InputError, match=expected):
                local_intersection(u, v)

    @pytest.mark.parametrize(
        "u, expected",
        [
            (germ([0], [0, 0, 3]), True),  # a zero coordinate and a monomial
            (germ([0], [0, 1, 1]), False),  # the zero of z + z^2 at -1
            (germ([0, 0, 1], [0]), True),
            (germ([0, 0, 2], [0, 1, 1]), True),  # a monomial shares no zero
            (germ([0, 1, 1], [0, 0, 1, 1]), False),
        ],
    )
    def test_far_zero_rules(self, u, expected):
        assert u._far_zero_free is expected
        assert _sympy_far_zero_free(u) is expected

    def test_w_free_closed_form(self, monkeypatch):
        # Res_w(z, -w) = z and Res_w(z, -2w^3) = -8 z^3: a w-free f = z^k h
        # against g with a constant leading w-coefficient has order k deg_w g,
        # which Fulton's algorithm gives in one call
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        for u, v, order in (
            (germ([0, 1], [0]), germ([0], [0, 1]), 1),
            (germ([0, 1], [0]), germ([0], [0, 0, 0, 2]), 3),
            (germ([0, 0, 1], [0]), germ([0], [0, 0, 0, 2]), 6),
        ):
            germs._oracle_order.cache_clear()
            calls.clear()
            assert local_intersection(u, v) == order
            assert calls == [order]
            assert min(m[0] for m in _sympy_pair_resultant(u, v).monoms()) == order


def _reference_sylvester_layout(f, g):
    """Reference Sylvester layout in w as index arrays: (n, [(deg_w, rows,
    columns, w-exponents)] for f then g), each coefficient of w-exponent j
    at (rows, columns)."""
    dwf, dwg = max(f)[0], max(g)[0]
    layout = []
    for dw, copies, at in ((dwf, dwg, 0), (dwg, dwf, dwg)):
        shift, j = np.repeat(np.arange(copies), dw + 1), np.tile(np.arange(dw + 1), copies)
        layout.append((dw, at + shift, shift + dw - j, j))
    return dwf + dwg, layout


def _sylvester_pairs(count, seed):
    """Term pairs, both of positive w-degree, from seeded axis pairs, their
    branched covers and simple germs' divided differences."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        kind = len(pairs) % 3
        if kind == 0:
            u = axis_germ(rng, int(rng.integers(1, 4)), 0, extra=3)
            v = axis_germ(rng, int(rng.integers(1, 4)), 1, extra=3)
        elif kind == 1:
            u = branched_cover(axis_germ(rng, 1, 0, extra=3), int(rng.integers(1, 4)))
            v = branched_cover(axis_germ(rng, 1, int(rng.integers(0, 2)), extra=3), 2)
        if kind == 2:
            u = random_simple_germ(rng)
            terms = germs._divided_difference_terms(u.p), germs._divided_difference_terms(u.q)
        else:
            terms = germs._difference_terms(u.p, v.p), germs._difference_terms(u.q, v.q)
        f, g = terms
        if f and g and max(f)[0] and max(g)[0]:
            pairs.append((f, g))
    return pairs


class TestOneSylvesterBuilder:
    """The reference determinant ``_det_mod`` lays its int64 Sylvester
    matrices out through ``_sylvester_stack``, as the oracle does its complex
    ones."""

    def test_matches_the_index_array_layout(self):
        rng = np.random.default_rng(7)
        for f, g in _sylvester_pairs(300, seed=2026):
            n, ref_layout = _reference_sylvester_layout(f, g)
            # w-coefficient rows of f and g at 4 samples, residues below 2^31
            rows = [rng.integers(0, 2**31, size=(4, dw + 1)) for dw, *_ in ref_layout]
            expected = np.zeros((4, n, n), dtype=np.int64)
            for (_, row, col, j), values in zip(ref_layout, rows):
                expected[:, row, col] = values[:, j]
            stacked = germs._sylvester_stack(*rows)
            assert stacked.dtype == np.int64
            assert np.array_equal(stacked, expected)


def _reference_divided_difference(coeffs):
    """B[i, j] = c_(i+j+1) of (f(z) - f(w))/(z - w), term by term."""
    deg = len(coeffs) - 1
    out = np.zeros((deg, deg), dtype=complex)
    for e in range(1, deg + 1):
        for i in range(e):
            out[i, e - 1 - i] += coeffs[e]
    return out


class TestNumericDividedDifference:
    def test_hankel_matches_the_term_by_term_matrix(self):
        rng = np.random.default_rng(3801)
        singles = [random_simple_germ(rng, max_k=5) for _ in range(200)]
        singles += [axis_germ(rng, int(rng.integers(1, 5)), axis) for axis in (0, 1) for _ in range(50)]
        for u in singles:
            for c in (c for c in u.numeric if len(c)):  # a zero coordinate has none
                got, want = germs._numeric_divided_difference(c), _reference_divided_difference(c)
                assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


class TestModularCertification:
    """Cases where the edge check's prime alone gives a wrong answer."""

    P = germs.PRIME

    def test_first_prime_alone_reads_too_high_an_order(self, monkeypatch):
        # the edges of this pair are apart, which certifies its order
        # outright; modulo P the resultant is -z^4, of order 4.  With the
        # edge check refusing, Fulton's algorithm, which takes no prime,
        # reads the order 1
        u, v = germ([0, 1], [0, 0, 1]), germ([0, 0, 1], [0, self.P])
        z = sympy.Symbol("z")
        assert _sympy_pair_resultant(u, v).as_expr() in {self.P**2 * z - z**4, z**4 - self.P**2 * z}
        terms = germs._difference_terms(u.p, v.p), germs._difference_terms(u.q, v.q)
        assert germs._resultant(*terms) == 1
        monkeypatch.setattr(germs, "_edges_apart", lambda f, g: False)
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        assert germs._resultant(*terms) == 1 and len(calls) == 1
        germs._oracle_order.cache_clear()
        assert local_intersection(u, v) == 1

    def test_first_prime_alone_sees_a_zero_resultant(self):
        u, v = germ([0, 1], [0]), germ([0, 0, 1], [0, self.P])
        z = sympy.Symbol("z")
        assert _sympy_pair_resultant(u, v).as_expr() == self.P**2 * z
        assert local_intersection(u, v) == 1

    def test_a_denominator_the_prime_divides(self, monkeypatch):
        # 1/P has no residue modulo P, so the modular test answers False:
        # the edge check sends the pair to Fulton's algorithm, and the
        # far-zero check of v to Euclid
        u, v = germ([0, 1], [0, 1]), germ([0, Fraction(1, self.P)], [0, 2])
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        germs._oracle_order.cache_clear()
        assert local_intersection(u, v) == 1 and len(calls) == 1
        divisions = []
        remainder = germs._remainder
        monkeypatch.setattr(germs, "_remainder", lambda h, g, kept: divisions.append(kept) or remainder(h, g, kept))
        assert germs.Germ(v.p, v.q)._far_zero_free and divisions == [1]
        assert _sympy_far_zero_free(v)

    def test_the_edge_prime(self):
        # a prime p = 1 mod 4 below 2^31, and a square root of -1 for i
        assert sympy.isprime(self.P) and self.P < 2**31 and self.P % 4 == 1
        assert germs.IOTA**2 % self.P == self.P - 1


def _terms_of(kind, gs):
    """The two w-polynomials whose resultant local_intersection (kind
    "pair") or delta_local (kind "delta") reads."""
    if kind == "pair":
        u, v = gs
        return germs._difference_terms(u.p, v.p), germs._difference_terms(u.q, v.q)
    (u,) = gs
    return germs._divided_difference_terms(u.p), germs._divided_difference_terms(u.q)


def _sampled_resultants(count_each):
    """(f, g) term pairs, both of positive w-degree, of seeded simple germs
    (rng 2424, k <= 5) and axis pairs, tangent or transverse (rng 2425),
    ``count_each`` germs or pairs of each."""
    rng, rng2 = np.random.default_rng(2424), np.random.default_rng(2425)
    cases = [("delta", (random_simple_germ(rng, max_k=5),)) for _ in range(count_each)]
    for _ in range(count_each):
        u = axis_germ(rng2, int(rng2.integers(1, 4)), 0)
        cases.append(("pair", (u, axis_germ(rng2, int(rng2.integers(1, 4)), int(rng2.integers(0, 2))))))
    out = []
    for kind, gs in cases:
        f, g = _terms_of(kind, gs)
        if f and g and max(f)[0] and max(g)[0]:
            out.append((f, g))
    return out


def _bound(f, g):
    """``_order_bound`` of terms f and g, from their Newton polygons."""
    return germs._order_bound(germs._lower_hull(f), germs._lower_hull(g))


def _apart(f, g):
    """``_edges_apart`` of terms f and g, from their Newton polygons."""
    return germs._edges_apart(germs._lower_hull(f), germs._lower_hull(g))


class TestNewtonPolygonBound:
    """The Newton-polygon lower bound on ord_z Res_w, and the resultants
    that it certifies where the edges are apart."""

    @staticmethod
    def _counted(monkeypatch):
        """The list of the orders ``_fiber_order`` returns, one per call."""
        calls = []
        real = germs._fiber_order

        def counted(f, g):
            calls.append(real(f, g))
            return calls[-1]

        monkeypatch.setattr(germs, "_fiber_order", counted)
        return calls

    def test_never_above_sympys_order(self, engine_cases):
        checked = 0
        for kind, gs, ref in engine_cases:
            f, g = _terms_of(kind, gs)
            if not (f and g):
                continue
            bound = _bound(f, g)
            if ref.is_zero:
                continue
            checked += 1
            assert bound is not None and bound <= min(m[0] for m in ref.monoms())
        assert checked >= 50

    def test_never_above_the_full_certification(self):
        # the order from Fulton's algorithm, refereed by sympy wherever the
        # edges do not certify it (TestEdgeCertificate referees the rest)
        cases = _sampled_resultants(300)
        assert len(cases) >= 500
        equal = refereed = 0
        for f, g in cases:
            if _certified(f, g):
                exact = _bound(f, g)
            else:
                refereed += 1
                exact = germs._fiber_order(f, g)
                assert exact == _sympy_resultant_order(f, g)
            assert germs._resultant(f, g) == exact
            if exact is None:
                continue
            bound = _bound(f, g)
            assert bound <= exact
            equal += bound == exact
        assert equal >= 0.9 * len(cases) and refereed >= 5

    def test_newton_polygon_slopes(self):
        # (hull, (width, z-drop) of each edge, valuations d / m in lowest
        # terms): an edge of width m and z-drop d stands for m roots of
        # valuation d / m, the first j counts the roots at w = 0 and the last
        # i is the order of the leading w-coefficient
        def polygon(h):
            lowest, hull = germs._lower_hull(h)
            edges = [(j1 - j0, i0 - i1) for (j0, i0), (j1, i1) in zip(hull, hull[1:])]
            return hull, edges, set(germs._edge_polynomials((lowest, hull)))

        # z^4 w + z w^3 + w^4: hull (1, 4), (3, 1), (4, 0); one root at w = 0,
        # two of valuation 3/2 and one of valuation 1
        assert polygon({(1, 4): 1, (3, 1): 1, (4, 0): 1}) == (
            [(1, 4), (3, 1), (4, 0)], [(2, 3), (1, 1)], {(3, 2), (1, 1)}
        )
        # z^4 + z^2 w^2 + w^3: (2, 2) lies above the chord, three roots of valuation 4/3
        assert polygon({(0, 4): 1, (2, 2): 1, (3, 0): 1}) == ([(0, 4), (3, 0)], [(3, 4)], {(4, 3)})
        # z w - 1: a root 1/z of valuation -1, leading coefficient of order 1
        assert polygon({(1, 1): 1, (0, 0): 1}) == ([(0, 0), (1, 1)], [(1, -1)], {(-1, 1)})

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_polynomial_with_roots_at_w_zero(self, monkeypatch, k):
        # with u = (0, z^k), p_u(z) - p_v(w) = -p_v(w) has ord p_v roots at w = 0
        u = germ([0], [0] * k + [1])
        calls = self._counted(monkeypatch)
        for a in (1, 2, 3):
            v = germ([0] * a + [1, 2], [0] * (a + 1) + [3])
            f, g = _terms_of("pair", (u, v))
            assert germs._lower_hull(f)[1][0][0] == a  # the first j: a roots at w = 0
            calls.clear()
            assert germs._resultant(f, g) == _bound(f, g) == a * k
            assert calls == []
            ref = _sympy_pair_resultant(u, v)
            assert min(m[0] for m in ref.monoms()) == a * k
            assert local_intersection(u, v) == local_intersection(v, u) == a * k

    def test_shared_roots_at_w_zero_give_no_bound(self, monkeypatch):
        # f = w z + w and g = w^2 + 3 w z^2 share the root w = 0: Res_w = 0
        f, g = {(1, 1): (1, 0), (1, 0): (1, 0)}, {(2, 0): (1, 0), (1, 2): (3, 0)}
        assert _bound(f, g) is None
        calls = self._counted(monkeypatch)
        assert germs._resultant(f, g) is None
        assert calls == [None]  # Fulton's algorithm finds the shared component
        w, z = sympy.symbols("w z")
        fs, gs = (_sympy_poly({e: sympy.Integer(c[0]) for e, c in h.items()}, w, z) for h in (f, g))
        assert fs.resultant(gs).is_zero

    def test_one_pass_per_resultant(self, monkeypatch):
        # transverse axis pairs and their branched covers, shaped as the
        # germ-exact benchmark's, are certified by their Newton-polygon
        # edges with no call of Fulton's algorithm; a simple germ's divided
        # differences take none where the edges are apart and one where they
        # are not
        rng = np.random.default_rng(2426)
        calls = self._counted(monkeypatch)
        for ku in range(1, 4):
            for kv in range(1, 4):
                for k, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
                    u = branched_cover(axis_germ(rng, ku, 0), k)
                    v = axis_germ(rng, kv, 1)
                    while not v._far_zero_free:  # a far zero adds to the order
                        v = axis_germ(rng, kv, 1)
                    calls.clear()
                    res = germs._resultant(*_terms_of("pair", (u, branched_cover(v, m))))
                    assert (res, calls) == (k * m * ku * kv, [])
        singles = certified = 0
        while singles < 60:
            f, g = _terms_of("delta", (random_simple_germ(rng),))
            if not (max(f)[0] and max(g)[0]):
                continue  # w-free: no certificate
            singles += 1
            calls.clear()
            res = germs._resultant(f, g)
            if _apart(f, g):
                assert (res, calls) == (_bound(f, g), [])
                certified += 1
            else:
                assert calls == [res] == [_sympy_resultant_order(f, g)]
        assert 50 <= certified < singles

    def test_big_coefficients_take_no_pass(self, monkeypatch):
        # 10^200 coefficients that share no integer factor and an 18 x 18
        # Sylvester matrix: certified by the edges, with no call of Fulton's
        # algorithm
        big = 10**200
        u = germ([0, 1, big + 1], [0, 0, big + 3])
        v = germ([0, 0] + [big + 7 * j for j in range(1, 9)], [0, 0, 0] + [big - 11 * j for j in range(1, 8)])
        f, g = _terms_of("pair", (u, v))
        assert max(f)[0] + max(g)[0] == 18
        germs._oracle_order.cache_clear()
        calls = self._counted(monkeypatch)
        # v's far-zero test and the pair are both certified by their edges
        assert local_intersection(u, v) == 3
        assert calls == []
        assert min(m[0] for m in _sympy_pair_resultant(u, v).monoms()) == 3


def _sympy_resultant_order(f, g):
    """sympy's z-order of Res_w of terms f and g, or None where the
    resultant is 0."""
    w, z = sympy.symbols("w z")
    fs, gs = (
        _sympy_poly({e: sympy.Rational(re) + sympy.I * sympy.Rational(im) for e, (re, im) in h.items()}, w, z)
        for h in (f, g)
    )
    ref = fs.resultant(gs)
    return None if ref.is_zero else min(m[0] for m in ref.monoms())


class TestEdgeCertificate:
    """Orders certified by the Newton-polygon edges, ``_edges_apart``: exact
    wherever the edges are apart, and taken from one call of Fulton's
    algorithm wherever they are not."""

    def test_certified_orders_are_exact(self):
        # two exact paths that share no code: the edge bound and Fulton's
        # algorithm
        cases = _sampled_resultants(300)
        certified = 0
        for f, g in cases:
            bound = _bound(f, g)
            if bound is not None and _apart(f, g):
                certified += 1
                assert bound == germs._fiber_order(f, g)
                assert germs._resultant(f, g) == bound
        assert certified >= 0.95 * len(cases)

    @pytest.mark.parametrize(
        "u, bound, order",
        [
            (germ([0, 0, 1], [0, 0, 0, 0, gaussian(Fraction(2, 3), 1), gaussian(Fraction(-1, 2), -2)]), 3, 4),
            (germ([0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, -3, Fraction(-2, 3), 1]), 15, 16),
        ],
    )
    def test_roots_agreeing_beyond_the_leading_term_fall_back(self, monkeypatch, u, bound, order):
        # the divided differences have roots that agree in valuation and
        # leading coefficient, so the order exceeds the Newton-polygon bound
        f, g = _terms_of("delta", (u,))
        assert _bound(f, g) == bound and not _apart(f, g)
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        res = germs._resultant(f, g)
        assert calls == [res] == [_sympy_resultant_order(f, g)] == [order]
        assert delta_local(u) == order // 2

    def test_an_identically_zero_resultant(self, monkeypatch):
        # w^2 - 1 against 1 - w^2: each is its own edge polynomial, and the
        # two share both roots
        f, g = {(2, 0): (1, 0), (0, 0): (-1, 0)}, {(2, 0): (-1, 0), (0, 0): (1, 0)}
        assert _bound(f, g) == 0 and not _apart(f, g)
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        assert germs._resultant(f, g) is None
        assert calls == [None]
        assert _sympy_resultant_order(f, g) is None

    @pytest.mark.parametrize(
        "g, apart",
        [
            ({(2, 0): (1, 0), (0, 1): (-4, 0)}, True),  # w^2 - 4 z: +-2 against +-1
            ({(2, 0): (1, 0), (0, 1): (1, 0)}, True),  # w^2 + z: +-i against +-1
            ({(2, 0): (1, 0), (0, 1): (-1, 0), (0, 2): (1, 0)}, False),  # w^2 - z + z^2: +-1, order 4
            ({(4, 0): (1, 0), (0, 2): (-1, 0)}, False),  # w^4 - z^2 = (w^2 - z)(w^2 + z): Res_w = 0
        ],
    )
    def test_half_integer_valuations_in_pairs(self, monkeypatch, g, apart):
        # w^2 - z has the roots +-z^(1/2): an edge of slope -1/2 whose edge
        # polynomial c^2 - 1 gives the leading coefficients +-1
        f = {(2, 0): (1, 0), (0, 1): (-1, 0)}
        assert germs._edge_polynomials(germs._lower_hull(f)) == {(1, 2): [(-1, 0), (0, 0), (1, 0)]}
        assert _apart(f, g) == apart
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        res = germs._resultant(f, g)
        ref = _sympy_resultant_order(f, g)
        if apart:
            assert (res, calls) == (_bound(f, g), []) == (ref, [])
        else:
            assert calls == [res] == [ref]

    def test_structured_germs_match_sympy(self):
        # (z^k, z^e (c0 + c1 z)): the simple ones whose edges are apart give
        # the bound, and the 28 others, roots of unity outside Q(i) among
        # their shared edge roots, sympy's order
        refereed = 0
        for k in range(2, 9):
            for e in (2 * k, 2 * k + 1, 3 * k):
                for c0, c1 in ((1, 0), (1, 1), (0, 1), (2, -1)):
                    u = germ([0] * k + [1], [0] * e + [c0, c1])
                    if not is_simple(u):
                        continue
                    f, g = _terms_of("delta", (u,))
                    order = germs._fiber_order(f, g)
                    if _certified(f, g):
                        assert order == _bound(f, g)
                    else:
                        refereed += 1
                        assert order == _sympy_resultant_order(f, g)
                    assert delta_local(u) == order // 2
        assert refereed == 28

    def test_shared_edge_roots_outside_q_i(self, monkeypatch):
        # the divided differences of (z^3, z^6 + z^7) have edges whose
        # polynomials share the roots of c^2 + c + 1, which lie outside Q(i)
        u = germ([0, 0, 0, 1], [0] * 6 + [1, 1])
        f, g = _terms_of("delta", (u,))
        assert not _apart(f, g)
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        assert delta_local(u) == 6
        assert calls == [12] == [_sympy_resultant_order(f, g)]


def _times(*factors) -> list:
    """The product of polynomials given as ascending coefficient lists."""
    out = [1]
    for f in factors:
        out = [
            sum((out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f)), start=0)
            for k in range(len(out) + len(f) - 1)
        ]
    return out


def _compose(f, inner) -> list:
    """f(inner(z)), ascending coefficients, by Horner's rule."""
    out = [0]
    for c in reversed(f):
        out = _times(out, inner)
        out[0] += c
    return out


def _unit_polynomial(rng, degree) -> list:
    """Random coefficients of the given degree with a nonzero constant term
    and a nonzero leading one."""
    coeffs = [rand_coeff(rng) for _ in range(degree + 1)]
    for i in (0, degree):
        while not coeffs[i]:
            coeffs[i] = rand_coeff(rng)
    return coeffs


SHARED_FACTORS = ([-1, 1], [-2, 1], [1, 1], [gaussian(0, -1), 1], [Fraction(-1, 2), 1], [1, 0, 1], [-2, 0, 1])


def _far_zero_germ(rng):
    """(z^a f(z) s(z), z^b f(z) t(z)) for a shared factor f: z - c with c in
    {1, 2, -1, i, 1/2}, z^2 + 1 or z^2 - 2 (zeros outside Q(i)), so that p
    and q share a zero besides 0."""
    shared = SHARED_FACTORS[int(rng.integers(len(SHARED_FACTORS)))]
    a, b = (int(x) for x in rng.integers(1, 4, size=2))
    s, t = (_unit_polynomial(rng, int(rng.integers(0, 3))) for _ in range(2))
    return germ([0] * a + _times(shared, s), [0] * b + _times(shared, t))


def _domain_cases(count):
    """Seeded germs, a quarter of each kind: far-zero germs, axis germs,
    simple germs, and germs whose coordinates have a factor besides z^k or
    vanish (a zero coordinate beside a monomial or not)."""
    rng = np.random.default_rng(2433)
    cases = []
    while len(cases) < count:
        kind = len(cases) % 4
        if kind == 0:
            cases.append(_far_zero_germ(rng))
        elif kind == 1:
            cases.append(axis_germ(rng, int(rng.integers(1, 4)), int(rng.integers(0, 2))))
        elif kind == 2:
            cases.append(random_simple_germ(rng))
        else:
            k = int(rng.integers(1, 4))
            f = [0] * k + _unit_polynomial(rng, int(rng.integers(0, 3)))
            g = [0] * int(rng.integers(1, 4)) + _unit_polynomial(rng, int(rng.integers(0, 3)))
            cases.append(germ(f, g) if rng.random() < 0.5 else germ(f, [0]) if rng.random() < 0.5 else germ([0], f))
    return cases


class TestFarZeroByEuclid:
    """``Germ._far_zero_free`` reads the coordinates with their powers of z
    stripped: a resultant modulo one prime, else a gcd over Q(i) by Euclid.
    It takes no ``_resultant``, no call of Fulton's algorithm and no numpy."""

    @pytest.mark.parametrize("modular", [True, False])
    def test_matches_sympys_gcd(self, engine_cases, monkeypatch, modular):
        # with the modular resultant held at 0, Euclid decides every germ
        if not modular:
            monkeypatch.setattr(germs, "_scalar_resultant_mod", lambda f, g, p: 0)
        germs_seen = [x for _, gs, _ in engine_cases for x in gs] + _domain_cases(300)
        verdicts = [germs.Germ(x.p, x.q)._far_zero_free for x in germs_seen]
        assert verdicts == [_sympy_far_zero_free(x) for x in germs_seen]
        assert 60 <= verdicts.count(False) <= len(verdicts) - 100

    def test_a_refused_germ_takes_no_prime(self, monkeypatch):
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        rng = np.random.default_rng(2434)
        u = germ([0, 1], [0, 0, 1])
        for _ in range(40):
            far = _far_zero_germ(rng)
            assert not _sympy_far_zero_free(far)
            germs._oracle_order.cache_clear()
            with pytest.raises(InputError, match="germ domain too large"):
                local_intersection(u, far)
            if is_simple(far):
                with pytest.raises(InputError, match="germ domain too large"):
                    delta_local(far)
        assert calls == []

    def test_shared_zeros_outside_q_i(self):
        # z^2 - 2 and z^2 + 1 have no root in Q(i) or none in Q; z^2 - 2
        # times z - 1 against z^2 - 2 times z + 1 share the irrational zeros
        assert not germ([0, -2, 0, 1], [0, 0, -2, 0, 1])._far_zero_free
        assert not germ(_times([0, -2, 0, 1], [-1, 1]), _times([0, 0, -2, 0, 1], [1, 1]))._far_zero_free
        assert germ([0, -2, 0, 1], [0, 0, 2, 0, 1])._far_zero_free
        assert not germ([0, 1, 0, 1], [0, 0, 0, 1, 0, 1])._far_zero_free


def _logged(monkeypatch, names=("_require_small_domain", "_fiber_order")) -> list:
    """The names of the given germs functions in the order they are called."""
    log = []
    for name in names:
        real = getattr(germs, name)

        def logged(*args, _real=real, _name=name):
            log.append(_name)
            return _real(*args)

        monkeypatch.setattr(germs, name, logged)
    return log


def _certified(f, g) -> bool:
    """True if the Newton-polygon edges give the order of Res_w of f and g."""
    return bool(f and g and max(f)[0] and max(g)[0] and _bound(f, g) is not None and _apart(f, g))


def _newton_polygon_singles():
    """The 60 simple germs of ``TestNewtonPolygonBound.test_one_pass_per_resultant``,
    drawn from its generator after its axis pairs."""
    rng = np.random.default_rng(2426)
    for ku in range(1, 4):
        for kv in range(1, 4):
            for k, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
                axis_germ(rng, ku, 0)
                v = axis_germ(rng, kv, 1)
                while not v._far_zero_free:
                    v = axis_germ(rng, kv, 1)
    singles = []
    while len(singles) < 60:
        u = random_simple_germ(rng)
        f, g = _terms_of("delta", (u,))
        if max(f)[0] and max(g)[0]:
            singles.append(u)
    return singles


def _seeded_axis_pairs(count):
    """Axis pairs, tangent or transverse, and transverse branched covers."""
    rng = np.random.default_rng(2435)
    pairs = []
    for i in range(count):
        ku, kv = (int(x) for x in rng.integers(1, 4, size=2))
        if i % 3 == 2:
            k, m = (int(x) for x in rng.integers(1, 3, size=2))
            pairs.append((branched_cover(axis_germ(rng, ku, 0), k), branched_cover(axis_germ(rng, kv, 1), m)))
        else:
            pairs.append((axis_germ(rng, ku, 0), axis_germ(rng, kv, int(rng.integers(0, 2)))))
    return pairs


def _value_or_refusal(call):
    """The value of call(), or the (type, message) of the InputError or
    InvarianceError it raises."""
    try:
        return call()
    except (InputError, InvarianceError) as exc:
        return type(exc), str(exc)


def _domain_refusal(detail):
    return InputError, f"germ domain too large, rescale input: {detail}"


def _reference_intersection(u, v):
    """local_intersection with v's domain checked first, by sympy's gcd,
    and then the resultant."""
    if not _sympy_far_zero_free(v):
        return _domain_refusal(germs._PAIR_DOMAIN)
    res = germs._resultant(*_terms_of("pair", (u, v)))
    if res is None:
        return InputError, "identical images / common branch: resultant vanishes identically"
    return res


def _reference_delta(u):
    """delta_local with the refusals in their order: a multiple cover, a
    zero coordinate's closed form, the domain, then the resultant."""
    if not is_simple(u):
        return InputError, "not simple: germ is a multiple cover"
    if not (u.p and u.q):
        return 0 if (u.p or u.q)[1] else (InputError, "non-isolated double points: a coordinate is constant")
    if not _sympy_far_zero_free(u):
        return _domain_refusal(germs._SELF_DOMAIN)
    res = germs._resultant(*_terms_of("delta", (u,)))
    if res is None:
        return InputError, "non-isolated double points: divided differences share a component"
    return res // 2


def _outcome_cases():
    """Seeded pairs and single germs: axis pairs, far-zero germs built as
    z^a f(z) s(z), zero coordinates, shared components (equal images,
    reparametrized and branched covers, a germ composed with z + z^2) and
    germs that are not simple."""
    rng = np.random.default_rng(2436)
    pairs, singles = [], []
    for i in range(160):
        u = axis_germ(rng, int(rng.integers(1, 4)), 0)
        kind = i % 8
        if kind < 3:
            v = axis_germ(rng, int(rng.integers(1, 4)), int(rng.integers(0, 2)))
        elif kind == 3:
            v = _far_zero_germ(rng)
        elif kind == 4:
            k = int(rng.integers(1, 4))
            mono = [0] * k + [rand_coeff(rng) or 1]
            zero_other = rng.random() < 0.5
            v = germ([0], mono) if zero_other else germ(mono, [0])
            if rng.random() < 0.5:  # the nonzero coordinate with a second term
                v = germ(v.p + (1,), v.q) if v.p else germ(v.p, v.q + (1,))
            if rng.random() < 0.3:
                u = germ([0], u.q) if u.q else u
        elif kind == 5:
            v = (u, reparametrize(u, 2), branched_cover(u, 2))[int(rng.integers(3))]
        elif kind == 6:
            v = germ(*(_compose(f, [0, 1, 1]) for f in (u.p, u.q)))  # z + z^2 vanishes at -1 too
        else:
            v = _far_zero_germ(rng) if rng.random() < 0.5 else random_simple_germ(rng)
        pairs.append((u, v))
    for i in range(160):
        kind = i % 4
        if kind == 0:
            singles.append(_far_zero_germ(rng))
        elif kind == 1:
            singles.append(random_simple_germ(rng, max_k=5))
        elif kind == 2:
            k = int(rng.integers(1, 4))
            f = [0] * k + _unit_polynomial(rng, int(rng.integers(0, 3)))
            singles.append(germ(f, [0]) if rng.random() < 0.5 else germ([0], f))
        else:
            singles.append(branched_cover(random_simple_germ(rng), int(rng.integers(1, 3))))
    return pairs, singles


class TestDeferredDomainCheck:
    """An order the Newton-polygon edges certify runs no domain check and no
    Fulton's algorithm: a nonzero valuation-0 edge resultant proves the
    domain small.  Every other answer checks the domain first."""

    def test_certified_orders_check_nothing_else(self, monkeypatch):
        singles, pairs = _newton_polygon_singles(), _seeded_axis_pairs(300)
        assert len(singles) == 60
        terms = [("delta", (u,)) for u in singles] + [("pair", gs) for gs in pairs]
        certified = [_certified(*_terms_of(kind, gs)) for kind, gs in terms]
        log = _logged(monkeypatch)
        seen = {"certified": 0, "refused": 0, "passes": 0}
        for (kind, gs), sure in zip(terms, certified):
            germs._oracle_order.cache_clear()
            log.clear()
            answer = _value_or_refusal(lambda: local_intersection(*gs) if kind == "pair" else delta_local(*gs))
            if sure:
                seen["certified"] += 1
                assert isinstance(answer, int) and log == []
                continue
            assert log[0] == "_require_small_domain", (kind, gs, log)
            seen["refused"] += isinstance(answer, tuple)
            seen["passes"] += "_fiber_order" in log
        assert seen["certified"] >= 250 and seen["refused"] >= 20 and seen["passes"] >= 3, seen

    def test_the_oracles_refuse_a_domain_before_any_resultant(self, monkeypatch):
        # a refusal is not cached, so every cell of an oracle ladder checks
        # the domain again: up front, before any exact resultant
        log = _logged(monkeypatch, ("_resultant",))
        rng = np.random.default_rng(2437)
        u = germ([0, 1], [0, 0, 1])
        for _ in range(12):
            far = _far_zero_germ(rng)
            germs._oracle_order.cache_clear()
            for eps in (1e-3, 1e-4):
                with pytest.raises(InputError, match="germ domain too large"):
                    numeric_intersection_oracle(u, far, epsilon=eps)
                if is_simple(far):
                    with pytest.raises(InputError, match="germ domain too large"):
                        numeric_double_point_oracle(far, epsilon=eps)
        assert log == []

    def test_outcomes_match_the_domain_first_reference(self):
        pairs, singles = _outcome_cases()
        assert len(pairs) + len(singles) >= 300
        got = []
        for u, v in pairs:
            germs._oracle_order.cache_clear()
            got.append(_value_or_refusal(lambda: local_intersection(u, v)))
            assert got[-1] == _reference_intersection(u, v), (u, v)
        for u in singles:
            got.append(_value_or_refusal(lambda: delta_local(u)))
            assert got[-1] == _reference_delta(u), u
        # every refusal occurs, and a third of the inputs are answered
        refusals = {m.split(":")[0] for m in (x[1] for x in got if isinstance(x, tuple))}
        assert refusals == {
            "germ domain too large, rescale input",
            "identical images / common branch",
            "not simple",
            "non-isolated double points",
        }
        assert sum(isinstance(x, int) for x in got) >= 100


# the edge check's prime and the next prime below 2^31 that is 1 mod 2^12
PRIMES = [germs.PRIME, 2147377153]


def _det_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Reference determinants modulo p of the stacked matrices a[b] (entries
    in [0, p)).  Division-free elimination multiplies the rows below pivot k
    by it, which scales the determinant by pivot_k^(n-1-k); one batched
    Fermat inverse at the end removes that factor (and maps a singular
    matrix's zero factor to zero)."""
    batch, n, _ = a.shape
    det = np.ones(batch, dtype=np.int64)
    scale = np.ones(batch, dtype=np.int64)
    leading = np.ones(batch, dtype=np.int64)  # product of the pivots so far
    for k in range(n):
        first = np.argmax(a[:, k:, k] != 0, axis=1)
        swap = np.flatnonzero(first)
        if len(swap):
            src = k + first[swap]
            a[swap, k], a[swap, src] = a[swap, src], a[swap, k]
            det[swap] = p - det[swap]
        pivot = a[:, k, k]
        scale = scale * leading % p
        leading = leading * pivot % p
        det = det * pivot % p
        if k + 1 < n:
            a[:, k + 1 :, k:] = (
                a[:, k + 1 :, k:] * pivot[:, None, None] - a[:, k + 1 :, k : k + 1] * a[:, k : k + 1, k:]
            ) % p
    inverse = np.ones(batch, dtype=np.int64)
    for bit in f"{p - 2:b}":  # scale^(p-2), most significant bit first
        inverse = inverse * inverse % p
        if bit == "1":
            inverse = inverse * scale % p
    return det * inverse % p


def _det_mod_stacks(p, count, seed):
    """Stacks of 1 to 4 matrices with entries in [0, p), sizes 1x1 to 8x8,
    each matrix dense, sparse (zero pivots force row swaps), with a zero
    column, or singular (one row a multiple of another)."""
    rng = np.random.default_rng(seed)
    stacks = []
    for index in range(count):
        n = index % 8 + 1
        a = rng.integers(0, p, size=(int(rng.integers(1, 5)), n, n))
        for m in a:
            kind = rng.integers(4)
            if kind == 1:
                m[rng.random((n, n)) < 0.5] = 0
            elif kind == 2:
                m[:, rng.integers(n)] = 0
            elif kind == 3 and n > 1:
                i, j = rng.choice(n, size=2, replace=False)
                m[j] = m[i] * int(rng.integers(p)) % p
        stacks.append(a)
    return stacks


class TestModularDeterminant:
    """The reference ``_det_mod`` against sympy's exact determinant reduced
    modulo p."""

    @pytest.mark.parametrize("index", [0, 1])
    def test_matches_sympy(self, index):
        p = PRIMES[index]
        swaps = zero_columns = singular = 0
        for a in _det_mod_stacks(p, 150, seed=index):
            expected = [int(sympy.Matrix(m.tolist()).det()) % p for m in a]
            assert _det_mod(a.copy(), p).tolist() == expected
            swaps += int(np.sum((a[:, 0, 0] == 0) & a[:, :, 0].any(axis=1)))
            zero_columns += int(np.sum((~a.any(axis=1)).any(axis=1)))
            singular += expected.count(0)
        assert min(swaps, zero_columns, singular) >= 20


def _remainder_stacks(p, count, seed):
    """(f_rows, g_rows) pairs of 1 to 64 samples, ascending w-coefficients
    in [0, p) of formal degrees 1 to 8 each, so that m < n and m >= n both
    occur.  Each polynomial is dense, sparse, has its leading coefficient
    0 at every sample or at some, or is 0 at some samples."""
    rng = np.random.default_rng(seed)
    stacks = []
    for _ in range(count):
        samples = int(rng.integers(1, 65))
        pair = [rng.integers(0, p, size=(samples, int(rng.integers(2, 10)))) for _ in range(2)]
        for rows in pair:
            kind, some = rng.integers(5), rng.random(samples) < 0.5
            if kind == 1:
                rows[rng.random(rows.shape) < 0.5] = 0
            elif kind == 2:
                rows[:, -1] = 0
            elif kind == 3:
                rows[some, -1] = 0
            elif kind == 4:
                rows[some] = 0
        stacks.append(pair)
    return stacks


class TestRemainderSequence:
    """``_scalar_resultant_mod`` equals the determinant of the Sylvester
    matrix of the same formal degrees, taken by the batched reference
    ``_det_mod`` over each stack."""

    @staticmethod
    def _compare(primes, seed):
        """(pairs, swapped, drops, zero polynomials, zero resultants of two
        polynomials with nonzero leading coefficients) over 170 seeded stacks
        a prime, each sample's sequence checked against its stack's row of
        ``_det_mod``."""
        pairs = swapped = drops = zero_polys = singular = 0
        for index, p in enumerate(primes):
            for f, g in _remainder_stacks(p, 170, seed=seed + index):
                expected = _det_mod(germs._sylvester_stack(f, g), p)
                for fs, gs, value in zip(f.tolist(), g.tolist(), expected.tolist()):
                    assert germs._scalar_resultant_mod(fs, gs, p) == value
                    pairs += 1
                    swapped += len(fs) < len(gs)
                    drops += (gs if len(fs) >= len(gs) else fs)[-1] == 0
                    zero_polys += not (any(fs) and any(gs))
                    singular += value == 0 and fs[-1] != 0 and gs[-1] != 0
        return pairs, swapped, drops, zero_polys, singular

    def test_matches_the_sylvester_determinant(self):
        # the edge check's prime and the next: zero leading coefficients come
        # from the stacks' shapes, at the first step of the sequence
        pairs, *counts, _ = self._compare(PRIMES, seed=10)
        assert pairs >= 10_000 and min(counts) >= 1000, (pairs, counts)

    def test_scalar_sequence_matches_the_batched_one(self):
        # the small primes make zero leading coefficients common, so drops
        # come at every depth of the sequence, and common roots modulo p
        # make zero resultants of polynomials whose leads are nonzero
        pairs, *counts, singular = self._compare([7, 13], seed=12)
        assert pairs >= 10_000 and min(counts) >= 1000 and singular >= 200, (pairs, counts, singular)


class TestLargeInputs:
    def test_monomial_pair_closed_form(self):
        # iota((z^a, z^b), (z^c, z^d)) = min(a d, b c)
        assert local_intersection(monomial_germ(12, 13), monomial_germ(13, 12)) == 144

    def test_53_by_53_sylvester_pair(self):
        # min(24 * 27, 25 * 26) = 24^2 + 3 * 24
        u, v = monomial_germ(24, 25), monomial_germ(26, 27)
        f, g = _terms_of("pair", (u, v))
        assert max(f)[0] + max(g)[0] == 53
        assert local_intersection(u, v) == 648

    def test_degree_80_pair_takes_no_pass(self, monkeypatch):
        # f = z^80 - w^82 and g = z^81 - w^83 have edges of valuations 40/41
        # and 81/83 and no common one, so the edges certify 80 * 83 = 6640
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        germs._oracle_order.cache_clear()
        assert local_intersection(monomial_germ(80, 81), monomial_germ(82, 83)) == 6640
        assert calls == []

    def test_tangent_pair_takes_one_fiber_order(self, monkeypatch):
        # (z^a, z^(a+1)) against (z^a, z^(a+1) + z^(a+2)): the differences'
        # edges of valuation 1 share c = 1, so one call of Fulton's algorithm
        # gives the order a(a + 1) + 1
        a = 80
        u, v = germ([0] * a + [1], [0] * (a + 1) + [1]), germ([0] * a + [1], [0] * (a + 1) + [1, 1])
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        germs._oracle_order.cache_clear()
        assert local_intersection(u, v) == a * (a + 1) + 1 == 6481
        assert calls == [6481]

    def test_huge_gaussian_coefficients(self):
        big = 10**400
        u = germ([0, 1, big], [0, 0, gaussian(1, 3)])
        v = germ([0, 0, 1], [0, gaussian(big, 1)])
        ref = _sympy_pair_resultant(u, v)
        assert local_intersection(u, v) == min(m[0] for m in ref.monoms())


ORACLES = {
    "delta": lambda seed, radius=0.3: numeric_double_point_oracle(CUSP23, 1e-3, radius, seed),
    "pair": lambda seed, radius=0.3: numeric_intersection_oracle(
        germ([0, 1], [0]), germ([0], [0, 1]), 1e-3, radius, seed
    ),
}


class TestOracleSeed:
    """Both oracles read the seed by the integer rule before any other check,
    and refuse a negative one with the message of ``--seed``."""

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("seed", [1.5, True, "0"])
    def test_non_integer_seed_refused(self, name, seed):
        with pytest.raises(InputError) as err:
            ORACLES[name](seed)
        assert str(err.value) == f"seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_negative_seed_refused_before_the_radius(self, name):
        with pytest.raises(InputError) as err:
            ORACLES[name](-1, radius=-1.0)
        assert str(err.value) == "seed must be nonnegative, got -1"

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_numpy_integer_seed_is_the_int(self, name):
        assert ORACLES[name](np.int64(4)) == ORACLES[name](4) == {"delta": 1, "pair": 1}[name]


def _newton_bound_simple_germs():
    """The 60 simple germs that ``TestNewtonPolygonBound::
    test_one_pass_per_resultant`` checks: rng 2426 replayed through its
    axis pairs, then its simple germs of positive w-degrees."""
    rng = np.random.default_rng(2426)
    for ku in range(1, 4):
        for kv in range(1, 4):
            for _ in range(4):
                axis_germ(rng, ku, 0)
                v = axis_germ(rng, kv, 1)
                while not v._far_zero_free:
                    v = axis_germ(rng, kv, 1)
    singles = []
    while len(singles) < 60:
        u = random_simple_germ(rng)
        f, g = _terms_of("delta", (u,))
        if max(f)[0] and max(g)[0]:
            singles.append(u)
    return singles


def _counted_inverses(monkeypatch):
    """A one-element list counting calls of ``GaussianRational._inverse``,
    the one division of Q(i)."""
    calls = [0]
    real = germs.GaussianRational._inverse

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(germs.GaussianRational, "_inverse", counted)
    return calls


class TestNoDiscardedWork:
    """delta_local and normal_form read the vanishing order off the
    exponents and compute no tangent they would drop; branched_cover fills
    its gaps with the shared zero.  Counted, not timed."""

    @staticmethod
    def _simple_germs():
        rng = np.random.default_rng(3301)
        return _newton_bound_simple_germs() + [random_simple_germ(rng, max_k=5) for _ in range(100)]

    def test_delta_local_divides_nothing(self, monkeypatch):
        singles = self._simple_germs()
        # the values by a path of their own, the branch orders of the normal form
        expected = [delta_from_normal_form(normal_form(u)) for u in singles]
        calls = _counted_inverses(monkeypatch)
        assert [delta_local(u) for u in singles] == expected
        assert calls == [0]

    def test_normal_form_divides_only_for_its_shear(self, monkeypatch):
        # the shear ((1/a, 0), (-b/a, 1)) takes two inverses, and
        # ((0, 1/b), (1, 0)) one where the tangent is the second axis
        singles = self._simple_germs()
        swapped = [germ(u.q, u.p) for u in singles]
        expected = [(nf.k, nf.branch_orders) for nf in map(normal_form, singles)]
        calls = _counted_inverses(monkeypatch)
        for us, per_germ in ((singles, 2), (swapped, 1)):
            calls[0] = 0
            assert [(nf.k, nf.branch_orders) for nf in map(normal_form, us)] == expected
            assert calls == [per_germ * len(us)]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_branched_cover_builds_no_scalar(self, monkeypatch, k):
        rng = np.random.default_rng(3302 + k)
        bases = [random_simple_germ(rng, max_k=5) for _ in range(30)]
        bases += [axis_germ(rng, int(rng.integers(1, 4)), int(rng.integers(0, 2))) for _ in range(30)]

        def int_zero_stretch(coeffs):
            return [coeffs[e // k] if e % k == 0 else 0 for e in range(k * len(coeffs) - k + 1)]

        expected = [germ(int_zero_stretch(u.p), int_zero_stretch(u.q)) for u in bases]
        made = []
        real = germs.gaussian
        monkeypatch.setattr(germs, "gaussian", lambda *parts: made.append(parts) or real(*parts))
        covers = [branched_cover(u, k) for u in bases]
        assert made == []
        for cover, want in zip(covers, expected):
            assert cover == want and hash(cover) == hash(want)
            gaps = [c for f in (cover.p, cover.q) for e, c in enumerate(f) if e % k]
            assert gaps and all(c is germs._ZERO for c in gaps)


class TestExactPathHashesNothing:
    """The exact calculators cache nothing, so they hash no germ and no
    coefficient; the pair oracle's order memo and its disks hash each germ
    of a ladder, and ``Germ._hash`` computes that hash once per germ.
    Counted, not timed."""

    @staticmethod
    def _hashes(monkeypatch) -> list:
        """The class name of each Germ.__hash__ and GaussianRational.__hash__ call."""
        calls = []
        for cls in (germs.Germ, germs.GaussianRational):

            def counted(self, _real=cls.__hash__, _name=cls.__name__):
                calls.append(_name)
                return _real(self)

            monkeypatch.setattr(cls, "__hash__", counted)
        return calls

    @staticmethod
    def _fresh_pairs():
        """Axis pairs, built afresh, that the edges certify, that Fulton's
        algorithm answers (the tangent pair) and that the domain check
        refuses (far zeros in v, decided by Euclid)."""
        rng = np.random.default_rng(3304)
        pairs = [tuple(axis_germ(rng, int(rng.integers(1, 4)), axis) for axis in (0, 1)) for _ in range(20)]
        pairs.append((germ([0, 0, 0, 1], [0, 0, 0, 0, 1]), germ([0, 0, 0, 1], [0, 0, 0, 0, 1, 1])))
        pairs.append((germ([0, 1], [0, 0, 1]), germ([0, 1, 0, 1], [0, 0, 0, 1, 0, 1])))
        return pairs

    def test_pairs_and_covers_hash_nothing(self, monkeypatch):
        pairs = self._fresh_pairs()
        calls = self._hashes(monkeypatch)
        answers = [_value_or_refusal(lambda: local_intersection(u, v)) for u, v in pairs]
        answers += [
            _value_or_refusal(lambda: local_intersection(branched_cover(u, 2), branched_cover(v, 3))) for u, v in pairs
        ]
        assert calls == []
        assert 13 in answers and any(isinstance(a, tuple) and "germ domain too large" in a[1] for a in answers)

    def test_delta_hashes_nothing(self, monkeypatch):
        singles = TestNoDiscardedWork._simple_germs()
        calls = self._hashes(monkeypatch)
        assert all(delta_local(u) >= 0 for u in singles)
        assert calls == []

    def test_oracle_ladder_hashes_each_germ_once(self, monkeypatch):
        u, v = germ([0, 1, 2], [0, 0, 0, 3]), germ([0, 0, 5], [0, 7])
        computed = []
        real = germs.Germ.__dict__["_hash"].func

        def counted(self):
            computed.append(self)
            return real(self)

        hashed = cached_property(counted)
        hashed.__set_name__(germs.Germ, "_hash")
        monkeypatch.setattr(germs.Germ, "_hash", hashed)
        germs._oracle_order.cache_clear()
        germs._disk_plan.cache_clear()
        for radius in RADIUS_LADDER:
            for eps in EPSILON_LADDER:
                assert numeric_intersection_oracle(u, v, epsilon=eps, radius=radius) == 1
        assert len(computed) == 2 and computed[0] is u and computed[1] is v


class TestGaussianHash:
    """GaussianRational hashes as its Fraction parts do: hash(re) for im = 0,
    else hash((re, im)), so it equals, and hashes like, an equal int or
    Fraction."""

    @staticmethod
    def _part(rng):
        kind = int(rng.integers(0, 5))
        n, d = int(rng.integers(-50, 51)), int(rng.integers(2, 30))
        big = 10**400 + int(rng.integers(0, 1000))
        return [
            Fraction(0),
            Fraction(n),  # integral, negative too
            Fraction(n, d),  # fractional
            Fraction(n or 1) * big,  # an integral part of size 10^400
            Fraction(n or 1, big),  # a denominator of size 10^400
        ][kind]

    def test_hash_is_the_fraction_parts_hash(self):
        rng = np.random.default_rng(3303)
        values = [gaussian(self._part(rng), self._part(rng)) for _ in range(600)]
        values += [gaussian(re, 0) for re in (0, 1, -1, -2, 2**61 - 1, 2**61, -(2**61))]
        for c in values:
            assert hash(c) == (hash(c.re) if c.im == 0 else hash((c.re, c.im))), c
        integral = sum(c.re.denominator == 1 and c.im.denominator == 1 for c in values)
        assert integral >= 100 and sum(c.im == 0 for c in values) >= 100
        assert any(abs(c.re) > 10**399 for c in values) and any(c.re.denominator > 10**399 for c in values)

    def test_mixed_type_lookups(self):
        assert {gaussian(2): 1}[2] == 1
        assert {Fraction(1, 3): 1}[gaussian(Fraction(1, 3))] == 1
        assert gaussian(2) in {2}
        assert gaussian(-1) in {-1} and gaussian(Fraction(-5, 2)) in {Fraction(-5, 2)}
        assert {gaussian(3, 4): 1}.get(gaussian(Fraction(6, 2), Fraction(8, 2))) == 1


class TestGaussianPower:
    def test_integer_exponents(self):
        assert gaussian(0, 1) ** 2 == -1 and gaussian(1, 1) ** 0 == 1
        assert gaussian(1, 1) ** -1 == gaussian(Fraction(1, 2), Fraction(-1, 2))

    @pytest.mark.parametrize("exponent", [0.5, Fraction(1, 2)], ids=["float", "fraction"])
    def test_non_integer_exponent_refused(self, exponent):
        with pytest.raises(TypeError):
            gaussian(1, 1) ** exponent
