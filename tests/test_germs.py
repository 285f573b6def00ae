import contextlib
import json
from fractions import Fraction

import numpy as np
import pytest
import sympy

from siefring_kit import _modular, germs
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
    """numeric_resultant_w as one Sylvester matrix and one det call per sample."""
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
    """The plan's arrays with epsilon added at the moving one's z^0 w^0."""
    arrays = [a.copy() for a in plan.arrays]
    arrays[plan.moving][0, 0] += epsilon
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
    def _count_det(monkeypatch):
        stacks = []
        det = np.linalg.det

        def counting(a):
            stacks.append(a.shape)
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counting)
        return stacks

    def test_oracle_ladders_match_the_per_sample_loop(self, monkeypatch):
        calls = self._record(monkeypatch)
        rng = np.random.default_rng(300)
        orders = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)] * 2
        pairs = [(axis_germ(rng, ku, 0), axis_germ(rng, kv, 1)) for ku, kv in orders]
        pairs.append((germ([0, 1], [0]), germ([0], [0, 0, 0, 2])))  # w-free difference of p
        singles = [random_simple_germ(rng) for _ in range(8)] + [CUSP35]
        # more pairs, drawn after the rest: a stuck single makes one draw, and
        # the count below asks for over 400 evaluations
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
            assert np.array_equal(out, _reference_resultant_w(bf, bg, circle), equal_nan=True)
            w_free += min(germs._degrees(bf)[1], germs._degrees(bg)[1]) == 0
        # a pair's perturbed difference carries epsilon at z^0 w^0
        turned = sum(bf[0, 0].imag != 0 for bf, *_ in calls)
        assert w_free and turned and len(calls) - w_free > 400

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
            out = germs.numeric_resultant_w(bf, bg, circle)
            assert np.array_equal(out, _reference_resultant_w(bf, bg, circle))

    def test_benchmark_sized_pair_takes_one_call(self, monkeypatch):
        rng = np.random.default_rng(301)
        u, v = axis_germ(rng, 2, 0), axis_germ(rng, 1, 1)
        b1 = germs._numeric_difference(u.numeric[0], v.numeric[0])
        b2 = germs._numeric_difference(u.numeric[1], v.numeric[1])
        stacks = self._count_det(monkeypatch)
        out = germs.numeric_resultant_w(b1, b2, 0.3)
        ((samples, n, _),) = stacks
        assert samples == len(out) > 1 and samples * n * n <= germs._WORK_CELLS

    def test_high_degree_stack_is_chunked(self, monkeypatch):
        rng = np.random.default_rng(302)
        def tail(n):
            return [rand_coeff(rng) for _ in range(n)]

        u = germ([0, 1] + tail(19), [0, 0, 1] + tail(18))
        v = germ([0, 0, 1] + tail(18), [0, 1] + tail(19))
        b1 = germs._numeric_difference(u.numeric[0], v.numeric[0])
        b2 = germs._numeric_difference(u.numeric[1], v.numeric[1])
        stacks = self._count_det(monkeypatch)
        out = germs.numeric_resultant_w(b1, b2, 0.3)
        monkeypatch.undo()
        assert len(out) * stacks[0][1] ** 2 > germs._WORK_CELLS
        assert len(stacks) > 1 and sum(s for s, _, _ in stacks) == len(out)
        assert all(s * n * n <= germs._WORK_CELLS for s, n, _ in stacks)
        assert np.array_equal(out, _reference_resultant_w(b1, b2, 0.3), equal_nan=True)


class TestResultantPlan:
    """A disk's plan does the epsilon-free work once; a draw redoes only the
    perturbed rows, the determinants and the transform.  Counted in calls."""

    @staticmethod
    def _disks():
        rng = np.random.default_rng(303)
        quartic = germ([0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1, gaussian(1, 2), Fraction(-1, 3)])
        # a benchmark-sized axis pair (p moves) and a k = 4 simple germ (q moves)
        return [(axis_germ(rng, 2, 0), axis_germ(rng, 1, 1)), (quartic, None)]

    @pytest.mark.parametrize("disk", [0, 1], ids=["pair", "k4-single"])
    def test_draws_reuse_the_plan(self, monkeypatch, disk):
        u, v = self._disks()[disk]
        vanders, degrees = [], []
        vander, degrees_of = np.vander, germs._degrees
        monkeypatch.setattr(np, "vander", lambda *a, **k: vanders.append(a[1]) or vander(*a, **k))
        monkeypatch.setattr(germs, "_degrees", lambda b: degrees.append(b) or degrees_of(b))
        plan = germs._disk_plan.__wrapped__(u, v, 0.15)  # built afresh, not from the cache
        assert len(vanders) == 2 and len(degrees) == 2 and plan.steady
        fixed = plan.arrays[1 - plan.moving]
        vanders.clear()
        degrees.clear()
        outs = [plan.resultant(epsilon) for epsilon in EPSILON_LADDER]
        assert len(outs) == 7 and vanders == [] and degrees == []
        # too large an epsilon sets the trim scale: the draw is planned afresh,
        # and leaves the moving polynomial a constant
        outs.append(plan.resultant(1e300))
        assert len(degrees) == 2 and any(b is fixed for b in degrees)
        assert degrees_of(degrees[plan.moving]) == (0, 0)
        monkeypatch.undo()
        for epsilon, out in zip((*EPSILON_LADDER, 1e300), outs):
            ref = _reference_resultant_w(*_perturbed(plan, epsilon), 0.15)
            assert np.array_equal(out, ref, equal_nan=True)

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
            out = germs.numeric_resultant_w(*arrays, circle)
            assert np.array_equal(out, germs.numeric_resultant_w(*arrays, float(circle)))
            plan, twin = germs._ResultantPlan(*arrays, circle), germs._ResultantPlan(*arrays, float(circle))
            assert type(plan.circle) is float
            assert np.array_equal(plan.resultant(1e-3), twin.resultant(1e-3))
        assert np.abs(germs.numeric_resultant_w(*closed, 3)).max() > 1e42

    STUCK = (
        "oracle failed: perturbed intersection parameters stuck at the origin at draw 1;"
        " a turn of epsilon's phase cannot move them"
    )
    # per cell of EPSILON_LADDER at radius 0.15; the k = 4 germ's six double
    # points leave the disk at epsilon 1e-2 and 1e-3 and stay stuck at 1e-7 on
    LADDER_OUTCOMES = [
        [("value", 2)] * 7,
        [("value", 0)] * 2 + [("value", 6)] * 3 + [("refused", STUCK)] * 2,
    ]

    @pytest.mark.parametrize("disk", [0, 1], ids=["pair", "k4-single"])
    def test_the_disk_check_reads_the_plan(self, monkeypatch, disk):
        u, v = self._disks()[disk]
        if v is None:
            germ_args, oracle, reference = (u,), numeric_double_point_oracle, _reference_double_point_oracle
        else:
            germ_args, oracle, reference = (u, v), numeric_intersection_oracle, _reference_intersection_oracle
        germs._disk_plan.cache_clear()
        built = []
        plan_class = germs._ResultantPlan
        monkeypatch.setattr(germs, "_ResultantPlan", lambda *a: built.append(a[-1]) or plan_class(*a))
        outcomes = [_outcome(oracle, *germ_args, epsilon, 0.15) for epsilon in EPSILON_LADDER]
        # one plan for the disk's check and all seven cells, with p or q moving
        assert built == [0 if v is not None else 1]
        assert germs._disk_plan.cache_info().maxsize == 32
        assert outcomes == self.LADDER_OUTCOMES[disk]
        monkeypatch.undo()
        assert outcomes == [_outcome(reference, *germ_args, epsilon, 0.15, 0) for epsilon in EPSILON_LADDER]


class TestRedrawTurns:
    """The seeded generator of the redraw phases is made at the first redraw."""

    @staticmethod
    def _count(monkeypatch):
        made, epsilons = [], []
        default_rng, evaluate = np.random.default_rng, germs._ResultantPlan.resultant
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or default_rng(seed))
        monkeypatch.setattr(
            germs._ResultantPlan, "resultant", lambda plan, eps=None: epsilons.append(eps) or evaluate(plan, eps)
        )
        return made, epsilons

    def test_a_first_draw_answer_makes_no_generator(self, monkeypatch):
        made, epsilons = self._count(monkeypatch)
        assert numeric_double_point_oracle(CUSP35, 1e-3, 0.3, seed=3) == 4
        assert numeric_intersection_oracle(CUSP35, QUARTIC46, 1e-3, 0.3, seed=3) == 18
        assert made == [] and [e for e in epsilons if e is not None] == [1e-3, 1e-3]

    def test_a_stuck_cell_makes_one_draw_and_no_generator(self, monkeypatch):
        made, epsilons = self._count(monkeypatch)
        with pytest.raises(InputError, match="stuck at the origin at draw 1; a turn of epsilon's phase"):
            numeric_double_point_oracle(CUSP35, 1e-8, 0.3, seed=5)
        assert made == [] and [e for e in epsilons if e is not None] == [1e-8]


class TestStuckCellsStayStuck:
    """The premise of ending a stuck cell at its first draw: at z = 0 the
    resultant is about epsilon**(a-1) times a product, so no turn of
    epsilon's phase frees the cell.  Counted in cells, with no clock."""

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
                    first, *turns = germs._turns(complex(epsilon), seed)
                    if not germs._trimmed(plan.resultant(first))[0]:
                        continue
                    stuck += 1
                    for eps in turns:
                        assert germs._trimmed(plan.resultant(eps))[0], (u, radius, epsilon, eps)
                    turned += len(turns)
                    with pytest.raises(InputError, match="stuck at the origin at draw 1;"):
                        numeric_double_point_oracle(u, epsilon, radius, seed)
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
        # p_u - p_v = z^45 is free of w, so the disk's resultant is a closed
        # form of radius**k z^k, whose 3**45 overflowed int64 at radius 3
        u, v = germ([0] * 45 + [1], [0, 1]), germ([0], [0, 0, 1])
        runs = []
        evaluate = germs._ResultantPlan.resultant
        monkeypatch.setattr(
            germs._ResultantPlan, "resultant", lambda plan, eps=None: runs[-1].append(evaluate(plan, eps)) or runs[-1][-1]
        )
        counts = []
        for radius in (3, 3.0):
            germs._disk_plan.cache_clear()
            runs.append([])
            counts.append(numeric_intersection_oracle(u, v, 1e-3, radius))
        assert counts[0] == counts[1] and len(runs[0]) == len(runs[1]) > 1
        assert all(np.array_equal(a, b) for a, b in zip(*runs))
        assert np.abs(runs[0][0]).max() > 1e42


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
    """numeric_double_point_oracle with res0, the pre-check and np.roots in every cell."""
    _reference_check_perturbation(epsilon, radius)
    delta = germs._double_point_refusals(u)
    if delta is not None:
        return delta
    edge_tol = germs.ROOT_EDGE_TOL / radius
    pdd, qdd = (germs._numeric_divided_difference(c) for c in u.numeric)
    res0 = germs.numeric_resultant_w(pdd, qdd, circle=radius)
    _reference_radius_check(res0, edge_tol, "germ has self-intersections")

    def draw(eps):
        q_pert = qdd.copy()
        q_pert[0, 0] += eps
        res = germs.numeric_resultant_w(pdd, q_pert, circle=radius)
        zero_mult, roots, hit_edge = _reference_unit_roots(res, edge_tol)
        if zero_mult:
            return "perturbed intersection parameters stuck at the origin"
        if hit_edge:
            return "radius on a root, retry"
        count = int(np.sum(np.abs(roots) < 1.0))
        if count % 2 != 0:
            return "unpaired intersection parameter (partner escaped the disk)"
        return count // 2

    return germs._redraw(draw, epsilon, seed)


def _reference_intersection_oracle(u, v, epsilon, radius, seed):
    """numeric_intersection_oracle with res0, the pre-check and np.roots in every cell."""
    _reference_check_perturbation(epsilon, radius)
    germs._pair_resultant(u, v)
    edge_tol = germs.ROOT_EDGE_TOL / radius
    b1 = germs._numeric_difference(u.numeric[0], v.numeric[0])
    b2 = germs._numeric_difference(u.numeric[1], v.numeric[1])
    res0 = germs.numeric_resultant_w(b1, b2, circle=radius)
    _reference_radius_check(res0, edge_tol, "germs intersect away from the origin but")

    def draw(eps):
        b1e = b1.copy()
        b1e[0, 0] += eps
        res_z = germs.numeric_resultant_w(b1e, b2, circle=radius)
        zero_mult, roots, hit_edge = _reference_unit_roots(res_z, edge_tol)
        if hit_edge:
            return "radius on a root, retry"
        return zero_mult + int(np.sum(np.abs(roots) < 1.0))

    return germs._redraw(draw, epsilon, seed)


def _outcome(oracle, *args):
    try:
        return "value", oracle(*args)
    except InputError as exc:
        return "refused", str(exc)


class TestCachedDisks:
    """The oracles with a cached disk per (germs, radius) and roots only for
    the draws that read them, against the per-cell reference bodies."""

    RADII = (*RADIUS_LADDER, 5.0, 1e-300)
    EPSILONS = (*EPSILON_LADDER, 1e-5 * np.exp(2j), 1e300)

    @staticmethod
    def _clear_disks():
        germs._disk_plan.cache_clear()

    def test_every_cell_matches_the_reference(self, monkeypatch):
        self._clear_disks()
        checked_roots = []
        companion = germs._roots

        def compared(kept):
            out = companion(kept)
            assert np.array_equal(out, np.roots(kept[::-1]))
            checked_roots.append(len(out))
            return out

        monkeypatch.setattr(germs, "_roots", compared)
        rng = np.random.default_rng(400)
        singles = [random_simple_germ(rng) for _ in range(60)]
        pairs = [
            (axis_germ(rng, int(rng.integers(1, 4)), 0), axis_germ(rng, int(rng.integers(1, 4)), 1))
            for _ in range(60)
        ]
        cells = [
            (numeric_double_point_oracle, _reference_double_point_oracle, (u,), seed)
            for seed, u in enumerate(singles)
        ] + [
            (numeric_intersection_oracle, _reference_intersection_oracle, (u, v), seed)
            for seed, (u, v) in enumerate(pairs)
        ]
        kinds = set()
        for oracle, reference, germ_args, seed in cells:
            for radius in self.RADII:
                for epsilon in self.EPSILONS:
                    args = (*germ_args, epsilon, radius, seed)
                    ours, ref = _outcome(oracle, *args), _outcome(reference, *args)
                    assert ours == ref and type(ours[1]) is type(ref[1]), args
                    kind = ours[1].split(":")[0].split(";")[0] if ours[0] == "refused" else "value"
                    kinds.add(kind)
        # answers, radius refusals, overflow refusals and failed draws all occur
        assert {"value", "radius too large", "oracle resultant is not finite", "oracle failed"} <= kinds
        assert len(checked_roots) > 1000 and 0 in checked_roots

    def test_one_radius_check_per_disk(self, monkeypatch):
        self._clear_disks()
        checks = []
        check = germs._embedded_radius_check
        monkeypatch.setattr(germs, "_embedded_radius_check", lambda *a: checks.append(a[2]) or check(*a))
        for radius in (0.3, 0.15):
            for epsilon in EPSILON_LADDER:
                with contextlib.suppress(InputError):
                    numeric_intersection_oracle(CUSP35, QUARTIC46, epsilon, radius)
                with contextlib.suppress(InputError):
                    numeric_double_point_oracle(CUSP35, epsilon, radius)
        assert len(checks) == 4 and len(set(checks)) == 2
        # a refusal is not cached: the refused radius is checked again
        u = germ([0, 0, 1], [0, 0, 0, 1, 0, 1])
        for _ in range(2):
            with pytest.raises(InputError, match="radius too large"):
                numeric_double_point_oracle(u, 1e-3, radius=2.5)
        assert len(checks) == 6

    def test_stuck_draws_find_no_roots(self, monkeypatch):
        germs._disk_plan(CUSP35, None, 0.3)  # the pre-check finds its roots beforehand
        calls, trims = [], []
        eigvals, trimmed = np.linalg.eigvals, germs._trimmed
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        monkeypatch.setattr(germs, "_trimmed", lambda c: trims.append(trimmed(c)) or trims[-1])
        with pytest.raises(InputError, match="stuck at the origin at draw 1;"):
            numeric_double_point_oracle(CUSP35, 1e-8, 0.3)
        # the one draw kept a polynomial with roots to find, and found none
        ((first, kept),) = trims
        assert first and len(kept) > 1
        assert calls == []
        assert numeric_double_point_oracle(CUSP35, 1e-3, 0.3) == 4 and calls

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


class TestOracleRangeRefusal:
    """The pair oracle reads both germs as complex128 before any exact
    resultant, so a coefficient out of range is refused at once."""

    HUGE = germ([0, 0, 1], [0, 0, 0, Fraction(10**401, 3)])
    TINY = germ([0, 0, 1], [0, 0, 0, gaussian(0, Fraction(3, 10**401))])

    @pytest.mark.parametrize("name", ["HUGE", "TINY"])
    def test_refused_before_any_exact_resultant(self, monkeypatch, name):
        def no_exact_work(*args):
            raise AssertionError("exact resultant computed before the range refusal")

        germs._pair_resultant.cache_clear()
        monkeypatch.setattr(germs, "_order_modulo", no_exact_work)
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
        monkeypatch.setattr(germs, "_z_order", lambda res: 0)
        with pytest.raises(InvarianceError, match="intersection order 0"):
            local_intersection(germ([0, 1], [0]), germ([0], [0, 1]))

    def test_broken_double_point_order(self, monkeypatch):
        monkeypatch.setattr(germs, "_z_order", lambda res: 3)
        with pytest.raises(InvarianceError, match="odd double-point order 3"):
            delta_local(CUSP23)

    def test_broken_delta_bounds(self, monkeypatch):
        monkeypatch.setattr(germs, "_z_order", lambda res: 0)
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
    """The certified modular engine against sympy's resultant and gcd."""

    def test_orders_and_zero_tests_match_sympy(self, engine_cases):
        assert len(engine_cases) >= 60
        zero = 0
        for kind, gs, ref in engine_cases:
            if kind == "pair":
                u, v = gs
                terms = germs._difference_terms(u.p, v.p), germs._difference_terms(u.q, v.q)
            else:
                (u,) = gs
                terms = germs._divided_difference_terms(u.p), germs._divided_difference_terms(u.q)
            res = germs._resultant(*terms)
            if ref.is_zero:
                zero += 1
                assert res == ()
            else:
                assert germs._z_order(res) == min(m[0] for m in ref.monoms())
            for x in gs:
                assert x._far_zero_free == _sympy_far_zero_free(x)
        assert zero >= 8

    def test_batch_size_changes_no_answer(self, engine_cases, monkeypatch):
        # a few cells per batch splits the samples, the primes and the
        # transform into many batches
        terms = [
            (germs._difference_terms(u.p, v.p), germs._difference_terms(u.q, v.q))
            for kind, (u, v), _ in engine_cases[:9]
        ]
        expected = [germs._resultant(*t) for t in terms]
        monkeypatch.setattr(germs, "_WORK_CELLS", 40)
        assert [germs._resultant(*t) for t in terms] == expected

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

    def test_w_free_closed_form(self):
        # Res_w(z, -w) = z and Res_w(z, -2w^3) = -8 z^3
        assert local_intersection(germ([0, 1], [0]), germ([0], [0, 1])) == 1
        assert local_intersection(germ([0, 1], [0]), germ([0], [0, 0, 0, 2])) == 3
        assert local_intersection(germ([0, 0, 1], [0]), germ([0], [0, 0, 0, 2])) == 6
        # both free of w: Res_w = 1
        assert germs._resultant({(0, 1): (1, 0)}, {(0, 2): (1, 0)}) == (0,)
        w, z = sympy.symbols("w z")
        assert _sympy_poly({(0, 1): 1}, w, z).resultant(_sympy_poly({(0, 2): 1}, w, z)).as_expr() == 1


def _reference_sylvester_layout(f, g):
    """Reference Sylvester layout as index arrays: (n, [(terms, deg_w, deg_z,
    rows, columns, w-exponents)] for f then g, a bound on deg_z of the
    determinant), each coefficient of w-exponent j at (rows, columns)."""
    (dwf, dzf), (dwg, dzg) = (tuple(max(e) for e in zip(*h)) for h in (f, g))
    n = dwf + dwg
    layout, degree = [], np.full((n, n), -1)
    for h, dw, dz, copies, at in ((f, dwf, dzf, dwg, 0), (g, dwg, dzg, dwf, dwg)):
        shift, j = np.repeat(np.arange(copies), dw + 1), np.tile(np.arange(dw + 1), copies)
        layout.append((h, dw, dz, at + shift, shift + dw - j, j))
        zdeg = np.full(dw + 1, -1)
        for wexp, zexp in h:
            zdeg[wexp] = max(zdeg[wexp], zexp)
        degree[at + shift, shift + dw - j] = zdeg[j]
    return n, layout, int(min(degree.max(axis=a, initial=0).sum() for a in (0, 1)))


def _sylvester_pairs(count, seed):
    """Integral term pairs, both of positive w-degree, from seeded axis pairs,
    their branched covers and simple germs' divided differences."""
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
        f, g = (germs._integral(t) for t in terms)
        if f and g and max(f)[0] and max(g)[0]:
            pairs.append((f, g))
    return pairs


class TestOneSylvesterBuilder:
    """The exact engine's z-degree bound and the reference determinant
    ``_det_mod`` lay their int64 Sylvester matrices out through
    ``_sylvester_stack``, as the oracle does its complex ones."""

    def test_matches_the_index_array_layout(self):
        rng = np.random.default_rng(7)
        for f, g in _sylvester_pairs(300, seed=2026):
            n, layout, bound = germs._sylvester_layout(f, g)
            ref_n, ref_layout, ref_bound = _reference_sylvester_layout(f, g)
            assert (n, bound) == (ref_n, ref_bound)
            assert layout == [x[:3] for x in ref_layout]
            # w-coefficient rows of f and g at 4 samples, residues below 2^31
            rows = [rng.integers(0, 2**31, size=(4, dw + 1)) for _, dw, _ in layout]
            expected = np.zeros((4, n, n), dtype=np.int64)
            for (_, _, _, row, col, j), values in zip(ref_layout, rows):
                expected[:, row, col] = values[:, j]
            stacked = germs._sylvester_stack(*rows)
            assert stacked.dtype == np.int64
            assert np.array_equal(stacked, expected)


class TestModularCertification:
    """Cases where the first prime alone gives a wrong answer."""

    P = germs._nth_prime(germs._MIN_LOG_LENGTH, 0)[0]

    def test_first_prime_alone_reads_too_high_an_order(self, monkeypatch):
        # the edges of this pair are apart, which certifies its order
        # outright; with the edge check refusing, the Hadamard prime set
        # must correct the first prime's order
        u, v = germ([0, 1], [0, 0, 1]), germ([0, 0, 1], [0, self.P])
        z = sympy.Symbol("z")
        assert _sympy_pair_resultant(u, v).as_expr() in {self.P**2 * z - z**4, z**4 - self.P**2 * z}
        terms = germs._difference_terms(u.p, v.p), germs._difference_terms(u.q, v.q)
        assert germs._resultant(*terms) == (1,)
        monkeypatch.setattr(germs, "_edges_apart", lambda f, g: False)
        res = germs._resultant(*terms)
        assert res[0] == 4 and len(res) > 1
        germs._pair_resultant.cache_clear()
        assert local_intersection(u, v) == 1

    def test_first_prime_alone_sees_a_zero_resultant(self):
        u, v = germ([0, 1], [0]), germ([0, 0, 1], [0, self.P])
        z = sympy.Symbol("z")
        assert _sympy_pair_resultant(u, v).as_expr() == self.P**2 * z
        assert local_intersection(u, v) == 1

    @pytest.mark.parametrize("log_length", [12, 13, 16])
    def test_prime_table(self, log_length):
        for index in range(12):
            p, iota, root = germs._nth_prime(log_length, index)
            assert sympy.isprime(p) and p < 2**31
            assert p % 2**log_length == 1
            assert iota * iota % p == p - 1
            assert pow(root, 2 ** (log_length - 1), p) == p - 1  # order exactly 2^log_length
        assert len({germs._nth_prime(log_length, i)[0] for i in range(12)}) == 12

    def test_miller_rabin_matches_sympy(self):
        # strong pseudoprimes to some of the bases, Carmichael numbers, and
        # numbers near 2^31
        special = [2047, 3277, 4033, 4681, 8321, 561, 1105, 1729, 25326001, 3215031751]
        near = range(2**31 - 2000, 2**31)
        for n in [*range(3000), *special, *near]:
            assert _modular._is_prime(n) == sympy.isprime(n), n


def _terms_of(kind, gs):
    """The two w-polynomials whose resultant local_intersection (kind
    "pair") or delta_local (kind "delta") reads."""
    if kind == "pair":
        u, v = gs
        return germs._difference_terms(u.p, v.p), germs._difference_terms(u.q, v.q)
    (u,) = gs
    return germs._divided_difference_terms(u.p), germs._divided_difference_terms(u.q)


def _hadamard_primes(f, g):
    """(layout, transform log-length, every certifying prime) of integral f
    and g, as the full certification takes them."""
    (dwf, _), (dwg, _) = max(f), max(g)
    _, layout, degree = germs._sylvester_layout(f, g)
    log_length = degree.bit_length()
    bound = germs._row_norms(f) ** dwg * germs._row_norms(g) ** dwf
    return layout, log_length, germs._certifying_primes(log_length, bound)


def _full_certification(f, g):
    """The least order over every certifying prime, or None where the
    resultant is 0 modulo all of them: the answer without the bound."""
    layout, log_length, primes = _hadamard_primes(f, g)
    orders = [germs._order_modulo(p, layout, log_length) for p in primes]
    return min((o for o in orders if o is not None), default=None)


def _sampled_resultants(count_each):
    """Integral (f, g) pairs, both of positive w-degree, of seeded simple
    germs (rng 2424, k <= 5) and axis pairs, tangent or transverse (rng
    2425), ``count_each`` germs or pairs of each."""
    rng, rng2 = np.random.default_rng(2424), np.random.default_rng(2425)
    cases = [("delta", (random_simple_germ(rng, max_k=5),)) for _ in range(count_each)]
    for _ in range(count_each):
        u = axis_germ(rng2, int(rng2.integers(1, 4)), 0)
        cases.append(("pair", (u, axis_germ(rng2, int(rng2.integers(1, 4)), int(rng2.integers(0, 2))))))
    out = []
    for kind, gs in cases:
        f, g = (germs._integral(t) for t in _terms_of(kind, gs))
        if f and g and max(f)[0] and max(g)[0]:
            out.append((f, g))
    return out


def _bound(f, g):
    """``_order_bound`` of integral terms f and g, from their Newton polygons."""
    return germs._order_bound(germs._lower_hull(f), germs._lower_hull(g))


def _apart(f, g):
    """``_edges_apart`` of integral terms f and g, from their Newton polygons."""
    return germs._edges_apart(germs._lower_hull(f), germs._lower_hull(g))


class TestNewtonPolygonBound:
    """The Newton-polygon lower bound on ord_z Res_w, and the resultants
    that it certifies where the edges are apart."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = germs._order_modulo

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(germs, "_order_modulo", counted)
        return calls

    def test_never_above_sympys_order(self, engine_cases):
        checked = 0
        for kind, gs, ref in engine_cases:
            f, g = (germs._integral(t) for t in _terms_of(kind, gs))
            if not (f and g):
                continue
            bound = _bound(f, g)
            if ref.is_zero:
                continue
            checked += 1
            assert bound is not None and bound <= min(m[0] for m in ref.monoms())
        assert checked >= 50

    def test_never_above_the_full_certification(self):
        cases = _sampled_resultants(300)
        assert len(cases) >= 500
        equal = 0
        for f, g in cases:
            exact = _full_certification(f, g)
            res = germs._resultant(f, g)
            if exact is None:
                assert res == ()
                continue
            bound = _bound(f, g)
            assert bound <= exact
            assert germs._z_order(res) == exact
            equal += bound == exact
        assert equal >= 0.9 * len(cases)

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
            f, g = (germs._integral(t) for t in _terms_of("pair", (u, v)))
            assert germs._lower_hull(f)[1][0][0] == a  # the first j: a roots at w = 0
            calls.clear()
            assert germs._resultant(f, g) == (_bound(f, g),) == (a * k,)
            assert calls == []
            ref = _sympy_pair_resultant(u, v)
            assert min(m[0] for m in ref.monoms()) == a * k
            assert local_intersection(u, v) == local_intersection(v, u) == a * k

    def test_shared_roots_at_w_zero_give_no_bound(self, monkeypatch):
        # f = w z + w and g = w^2 + 3 w z^2 share the root w = 0: Res_w = 0
        f, g = {(1, 1): (1, 0), (1, 0): (1, 0)}, {(2, 0): (1, 0), (1, 2): (3, 0)}
        assert _bound(f, g) is None
        calls = self._counted(monkeypatch)
        assert germs._resultant(f, g) == ()
        assert calls == []
        w, z = sympy.symbols("w z")
        fs, gs = (_sympy_poly({e: sympy.Integer(c[0]) for e, c in h.items()}, w, z) for h in (f, g))
        assert fs.resultant(gs).is_zero

    def test_one_pass_per_resultant(self, monkeypatch):
        # transverse axis pairs and their branched covers, shaped as the
        # germ-exact benchmark's, are certified by their Newton-polygon
        # edges with no prime pass; a simple germ's divided differences take
        # no pass where the edges are apart and the whole Hadamard prime set
        # where they are not
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
                    assert (res, calls) == ((k * m * ku * kv,), [])
        singles = certified = 0
        while singles < 60:
            f, g = (germs._integral(t) for t in _terms_of("delta", (random_simple_germ(rng),)))
            if not (max(f)[0] and max(g)[0]):
                continue  # a closed form: no pass
            singles += 1
            calls.clear()
            res = germs._resultant(f, g)
            if _apart(f, g):
                assert (res, calls) == ((_bound(f, g),), [])
                certified += 1
            else:
                assert calls == _hadamard_primes(f, g)[2]
        assert certified >= 50

    def test_big_coefficients_take_no_pass(self, monkeypatch):
        # 10^200 coefficients that share no integer factor and an 18 x 18
        # Sylvester matrix: the Hadamard bound asks for more than 750 primes
        big = 10**200
        u = germ([0, 1, big + 1], [0, 0, big + 3])
        v = germ([0, 0] + [big + 7 * j for j in range(1, 9)], [0, 0, 0] + [big - 11 * j for j in range(1, 8)])
        f, g = (germs._integral(t) for t in _terms_of("pair", (u, v)))
        (dwf, _), (dwg, _) = max(f), max(g)
        assert germs._sylvester_layout(f, g)[0] == 18
        assert germs._row_norms(f) ** dwg * germs._row_norms(g) ** dwf > 2 ** (31 * 750)
        germs._pair_resultant.cache_clear()
        calls = self._counted(monkeypatch)
        # v's far-zero test and the pair are both certified by their edges
        assert local_intersection(u, v) == 3
        assert calls == []
        assert min(m[0] for m in _sympy_pair_resultant(u, v).monoms()) == 3


def _sympy_resultant_order(f, g):
    """sympy's z-order of Res_w of integral terms f and g, or None where
    the resultant is 0."""
    w, z = sympy.symbols("w z")
    fs, gs = (_sympy_poly({e: sympy.Integer(re) + sympy.I * im for e, (re, im) in h.items()}, w, z) for h in (f, g))
    ref = fs.resultant(gs)
    return None if ref.is_zero else min(m[0] for m in ref.monoms())


class TestEdgeCertificate:
    """Orders certified by the Newton-polygon edges, ``_edges_apart``: exact
    wherever the edges are apart, and taken from the whole Hadamard prime
    set wherever they are not."""

    def test_certified_orders_are_exact(self):
        cases = _sampled_resultants(300)
        certified = 0
        for f, g in cases:
            bound = _bound(f, g)
            if bound is not None and _apart(f, g):
                certified += 1
                assert bound == _full_certification(f, g)
                assert germs._resultant(f, g) == (bound,)
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
        f, g = (germs._integral(t) for t in _terms_of("delta", (u,)))
        assert _bound(f, g) == bound and not _apart(f, g)
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        res = germs._resultant(f, g)
        assert calls == _hadamard_primes(f, g)[2]
        assert germs._z_order(res) == _sympy_resultant_order(f, g) == order
        assert delta_local(u) == order // 2

    def test_an_identically_zero_resultant(self, monkeypatch):
        # w^2 - 1 against 1 - w^2: each is its own edge polynomial, and the
        # two share both roots
        f, g = {(2, 0): (1, 0), (0, 0): (-1, 0)}, {(2, 0): (-1, 0), (0, 0): (1, 0)}
        assert _bound(f, g) == 0 and not _apart(f, g)
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        assert germs._resultant(f, g) == ()
        assert calls == _hadamard_primes(f, g)[2]
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
            assert (res, calls) == ((_bound(f, g),), []) == ((ref,), [])
        else:
            assert calls == _hadamard_primes(f, g)[2]
            assert (germs._z_order(res) if res else None) == ref


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
        p = germs._nth_prime(germs._MIN_LOG_LENGTH, index)[0]
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
    """``_resultant_mod`` equals the determinant of the Sylvester matrix of
    the same formal degrees, taken by the reference ``_det_mod``."""

    PRIMES = [germs._nth_prime(germs._MIN_LOG_LENGTH, i)[0] for i in range(2)] + [7, 13]

    def test_matches_the_sylvester_determinant(self):
        swapped = drops = splits = zero_polys = 0
        for index, p in enumerate(self.PRIMES):
            for f, g in _remainder_stacks(p, 100, seed=index):
                expected = _det_mod(germs._sylvester_stack(f, g), p)
                assert np.array_equal(germs._resultant_mod(f, g, p), expected)
                # the first step: the divisor is the polynomial of the lower
                # formal degree, and its leading coefficient drops where it is
                # 0 at every sample, or splits the samples where only at some
                swapped += f.shape[1] < g.shape[1]
                lead = (g if f.shape[1] >= g.shape[1] else f)[:, -1] == 0
                drops += bool(lead.all())
                splits += bool(lead.any() and not lead.all())
                zero_polys += any((~h.any(axis=1)).any() for h in (f, g))
        assert min(swapped, drops, splits, zero_polys) >= 20

    def test_scalar_sequence_matches_the_batched_one(self):
        # the edge check's one-pair sequence in Python ints, on every sample
        # of further stacks: the small primes make zero leading coefficients
        # common, so drops come at every depth of the sequence
        pairs = swapped = drops = 0
        for index, p in enumerate(self.PRIMES):
            for f, g in _remainder_stacks(p, 170, seed=10 + index):
                expected = _det_mod(germs._sylvester_stack(f, g), p)
                assert np.array_equal(germs._resultant_mod(f, g, p), expected)
                for fs, gs, value in zip(f.tolist(), g.tolist(), expected.tolist()):
                    assert germs._scalar_resultant_mod(fs, gs, p) == value
                    pairs += 1
                    swapped += len(fs) < len(gs)
                    drops += (gs if len(fs) >= len(gs) else fs)[-1] == 0
        assert pairs >= 20_000 and min(swapped, drops) >= 1000, (pairs, swapped, drops)


class TestLargeInputs:
    def test_monomial_pair_closed_form(self):
        # iota((z^a, z^b), (z^c, z^d)) = min(a d, b c)
        assert local_intersection(monomial_germ(12, 13), monomial_germ(13, 12)) == 144

    def test_53_by_53_sylvester_pair(self):
        # min(24 * 27, 25 * 26) = 24^2 + 3 * 24
        u, v = monomial_germ(24, 25), monomial_germ(26, 27)
        n, _, _ = germs._sylvester_layout(
            germs._difference_terms(u.p, v.p), germs._difference_terms(u.q, v.q)
        )
        assert n == 53
        assert local_intersection(u, v) == 648

    def test_degree_80_pair_takes_no_pass(self, monkeypatch):
        # f = z^80 - w^82 and g = z^81 - w^83 have edges of valuations 40/41
        # and 81/83 and no common one, so the edges certify 80 * 83 = 6640
        calls = TestNewtonPolygonBound._counted(monkeypatch)
        germs._pair_resultant.cache_clear()
        assert local_intersection(monomial_germ(80, 81), monomial_germ(82, 83)) == 6640
        assert calls == []

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
