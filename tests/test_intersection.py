import numpy as np
import pytest

from siefring_kit import closed
from siefring_kit import intersection as xn
from siefring_kit.core import (
    CoverData,
    CurveClass,
    OrbitData,
    PunctureSpec,
    RelativePairing,
    Scene,
    shift_scene,
)
from siefring_kit.errors import InconsistencyError, InputError

from scenegen import random_scene, random_shift


def orbit_scene(covers, curves=(), pairing=None):
    orbits = tuple(OrbitData(oid, table) for oid, table in covers.items())
    return Scene(orbits, tuple(curves), RelativePairing(pairing or {}))


def cylinder(cid, orbit_id, k, rel_c1=0):
    return CurveClass(
        cid,
        0,
        (PunctureSpec("+", orbit_id, k), PunctureSpec("-", orbit_id, k)),
        rel_c1,
    )


def odd_orbit_scene(max_cover=3):
    """Odd simple orbit: every cover has alpha = (0, 1), as for the
    constant-coefficient model with S = Id."""
    table = {k: CoverData(0, 1) for k in range(1, max_cover + 1)}
    curves = [cylinder(f"cyl_{k}", "g", k) for k in range(1, max_cover + 1)]
    pairing = {(f"cyl_{k}", f"cyl_{k}"): 0 for k in range(1, max_cover + 1)}
    return orbit_scene({"g": table}, curves, pairing)


def even_orbit_scene(max_cover=3):
    table = {k: CoverData(0, 0) for k in range(1, max_cover + 1)}
    curves = [cylinder(f"cyl_{k}", "g", k) for k in range(1, max_cover + 1)]
    pairing = {(f"cyl_{k}", f"cyl_{k}"): 0 for k in range(1, max_cover + 1)}
    return orbit_scene({"g": table}, curves, pairing)


class TestOmegaTerms:
    def test_distinct_orbits_vanish(self):
        scene = orbit_scene(
            {"a": {1: CoverData(3, 4)}, "b": {1: CoverData(-2, -2)}}
        )
        assert xn.omega_pair(scene, ("a", 1), ("b", 1), "+") == 0
        assert xn.omega_pair(scene, ("a", 1), ("b", 1), "-") == 0

    def test_simple_pair_with_zero_winding(self):
        scene = orbit_scene({"g": {1: CoverData(0, 1)}})
        assert xn.omega_pair(scene, ("g", 1), ("g", 1), "+") == 0

    def test_mixed_covers(self):
        scene = orbit_scene({"g": {1: CoverData(0, 1), 2: CoverData(1, 2)}})
        # min{-1*alpha_-(g^2), -2*alpha_-(g^1)} = min{-1, 0}
        assert xn.omega_pair(scene, ("g", 1), ("g", 2), "+") == -1

    def test_missing_cover(self):
        scene = orbit_scene({"g": {1: CoverData(0, 1)}})
        with pytest.raises(InputError, match="unknown cover"):
            xn.omega_pair(scene, ("g", 1), ("g", 3), "+")

    def test_distinct_orbits_still_validated(self):
        scene = orbit_scene({"a": {1: CoverData(3, 4)}, "b": {1: CoverData(-2, -2)}})
        with pytest.raises(InputError, match="sign must be"):
            xn.omega_pair(scene, ("a", 1), ("b", 1), "x")
        with pytest.raises(InputError, match="unknown cover"):
            xn.omega_pair(scene, ("a", 1), ("b", 2), "+")

    def test_self_term_simple(self):
        scene = orbit_scene({"g": {1: CoverData(7, 8)}})
        assert xn.omega_self(scene, ("g", 1), "+") == 0
        assert xn.omega_self(scene, ("g", 1), "-") == 0

    def test_self_term_double_cover(self):
        scene = orbit_scene({"g": {2: CoverData(1, 2)}})
        # -(2-1)*1 + (gcd(2,1) - 1) = -1 + 0
        assert xn.omega_self(scene, ("g", 2), "+") == -1

    def test_self_term_gcd_with_zero(self):
        scene = orbit_scene({"g": {2: CoverData(0, 1)}})
        # 0 + (gcd(2,0) - 1) = 1
        assert xn.omega_self(scene, ("g", 2), "+") == 1

    def test_self_pair_sigma_identity(self):
        # omega_self - omega_pair -+ alpha_-+ = sigma_bar_-+ - 1 on any cover
        rng = np.random.default_rng(6)
        for _ in range(60):
            k = int(rng.integers(1, 6))
            am = int(rng.integers(-6, 7))
            scene = orbit_scene({"g": {k: CoverData(am, am + int(rng.integers(0, 2)))}})
            cover = scene.orbit("g").cover(k)
            lhs_plus = (
                xn.omega_self(scene, ("g", k), "+")
                - xn.omega_pair(scene, ("g", k), ("g", k), "+")
                - cover.alpha(-1)
            )
            assert lhs_plus == cover.sigma_bar(k, -1) - 1
            lhs_minus = (
                xn.omega_self(scene, ("g", k), "-")
                - xn.omega_pair(scene, ("g", k), ("g", k), "-")
                + cover.alpha(1)
            )
            assert lhs_minus == cover.sigma_bar(k, 1) - 1

    def test_pair_term_below_both_arguments(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            am = int(rng.integers(-4, 5))
            am2 = int(rng.integers(-4, 5))
            scene = orbit_scene(
                {"g": {1: CoverData(am, am + 1), 2: CoverData(am2, am2)}}
            )
            for sign, sgn in (("+", -1), ("-", 1)):
                value = xn.omega_pair(scene, ("g", 1), ("g", 2), sign)
                a1 = scene.orbit("g").cover(1)
                a2 = scene.orbit("g").cover(2)
                arg1 = sgn * 1 * (a2.alpha_minus if sign == "+" else a2.alpha_plus)
                arg2 = sgn * 2 * (a1.alpha_minus if sign == "+" else a1.alpha_plus)
                assert value <= arg1 and value <= arg2


class TestStar:
    def test_closed_pair_is_homological(self):
        curves = (CurveClass("u", 0, (), 2), CurveClass("v", 1, (), 0))
        scene = Scene((), curves, RelativePairing({("u", "v"): 5}))
        assert xn.star(scene, "u", "v") == 5

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_orbit_cylinder_self_star_odd(self, k):
        scene = odd_orbit_scene()
        assert xn.star(scene, f"cyl_{k}", f"cyl_{k}") == -k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_orbit_cylinder_self_star_even(self, k):
        scene = even_orbit_scene()
        assert xn.star(scene, f"cyl_{k}", f"cyl_{k}") == 0

    def test_page_against_binding_cylinder(self):
        table = {1: CoverData(0, 1)}
        page = CurveClass(
            "page",
            0,
            tuple(PunctureSpec("+", f"b{i}", 1) for i in range(3)),
            -1,
        )
        cyl = cylinder("cyl", "b0", 1)
        scene = orbit_scene(
            {f"b{i}": dict(table) for i in range(3)},
            (page, cyl),
            {("page", "cyl"): 0},
        )
        assert xn.star(scene, "page", "cyl") == 0

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            scene = random_scene(rng)
            ids = [c.id for c in scene.curves]
            for u in ids:
                for v in ids:
                    assert xn.star(scene, u, v) == xn.star(scene, v, u)

    def test_missing_pairing_entry(self):
        scene = odd_orbit_scene()
        with pytest.raises(InputError, match="missing pairing"):
            xn.star(scene, "cyl_1", "cyl_2")


class TestIotaInfinity:
    def test_zero_case(self):
        scene = odd_orbit_scene()
        # star(cyl_1, cyl_1) = -1 is not a valid pair count input; use a
        # disjoint closed pair for the clean zero case
        curves = (CurveClass("u", 0, (), 0), CurveClass("v", 0, (), 0))
        closed_scene = Scene((), curves, RelativePairing({("u", "v"): 0}))
        assert xn.iota_infinity(closed_scene, "u", "v", 0) == 0

    def test_subtraction(self):
        curves = (CurveClass("u", 0, (), 0), CurveClass("v", 0, (), 0))
        scene = Scene((), curves, RelativePairing({("u", "v"): 3}))
        assert xn.iota_infinity(scene, "u", "v", 1) == 2

    def test_negative_flagged(self):
        curves = (CurveClass("u", 0, (), 0), CurveClass("v", 0, (), 0))
        scene = Scene((), curves, RelativePairing({("u", "v"): 0}))
        with pytest.raises(InconsistencyError, match="negative hidden count"):
            xn.iota_infinity(scene, "u", "v", 1)

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_count_refuses_bool_and_float(self, bad):
        curves = (CurveClass("u", 0, (), 0), CurveClass("v", 0, (), 0))
        scene = Scene((), curves, RelativePairing({("u", "v"): 3}))
        with pytest.raises(InputError, match=rf"geometric intersection count must be an integer, got {bad!r}"):
            xn.iota_infinity(scene, "u", "v", bad)

    def test_numpy_count_is_the_int(self):
        curves = (CurveClass("u", 0, (), 0), CurveClass("v", 0, (), 0))
        scene = Scene((), curves, RelativePairing({("u", "v"): 3}))
        hidden = xn.iota_infinity(scene, "u", "v", np.int64(1))
        assert hidden == 2 and type(hidden) is int
        with pytest.raises(InputError, match="geometric intersection count must be >= 0"):
            xn.iota_infinity(scene, "u", "v", np.int64(-1))


class TestNormalChern:
    def test_closed_curve(self):
        scene = Scene((), (CurveClass("u", 1, (), 3),), RelativePairing({}))
        assert xn.normal_chern(scene, "u") == 3 - 0  # chi = 0 at genus 1

    @pytest.mark.parametrize("scene_fn,p", [(odd_orbit_scene, 1), (even_orbit_scene, 0)])
    def test_orbit_cylinder(self, scene_fn, p):
        scene = scene_fn()
        assert xn.normal_chern(scene, "cyl_1") == -p

    def test_index_two_genus_zero_curve_has_cn_zero(self):
        # genus 0, three simple odd punctures, rel_c1 chosen so ind = 2
        table = {1: CoverData(0, 1)}
        page = CurveClass(
            "page", 0, tuple(PunctureSpec("+", f"b{i}", 1) for i in range(3)), -1
        )
        scene = orbit_scene({f"b{i}": dict(table) for i in range(3)}, (page,))
        assert xn.fredholm_index(scene, "page") == 2
        assert xn.normal_chern(scene, "page") == 0


class TestFredholmIndex:
    def test_closed_matches_vdim(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = int(rng.integers(0, 4))
            c1 = int(rng.integers(-5, 6))
            scene = Scene((), (CurveClass("u", g, (), c1),), RelativePairing({}))
            assert xn.fredholm_index(scene, "u") == closed.vdim_closed(2, g, c1)

    def test_trivial_cylinder_index_zero(self):
        assert xn.fredholm_index(odd_orbit_scene(), "cyl_1") == 0

    def test_planar_page_index(self):
        table = {1: CoverData(0, 1)}
        page = CurveClass("page", 0, (PunctureSpec("+", "b", 1),), 1)
        scene = orbit_scene({"b": dict(table)}, (page,))
        # chi = 1: ind = -1 + 2*1 + 1 = 2
        assert xn.fredholm_index(scene, "page") == 2


class TestCnIndexRelation:
    def test_orbit_cylinders(self):
        for scene_fn in (odd_orbit_scene, even_orbit_scene):
            scene = scene_fn()
            for k in (1, 2, 3):
                report = xn.check_cn_index_relation(scene, f"cyl_{k}")
                assert report.holds

    def test_closed_sphere(self):
        scene = Scene((), (CurveClass("u", 0, (), 2),), RelativePairing({}))
        report = xn.check_cn_index_relation(scene, "u")
        assert report.holds and report.two_cn == 0

    def test_corrupted_rel_c1_reported(self):
        # breaking rel_c1 by an odd amount breaks the parity of the relation
        scene = Scene((), (CurveClass("u", 0, (), 3),), RelativePairing({}))
        report = xn.check_cn_index_relation(scene, "u")
        assert report.two_cn == 2 * (3 - 2)
        assert report.index_side == (-2 + 6) - 2
        assert report.holds  # closed case always holds; now corrupt via dim
        with pytest.raises(InputError, match="dimension four"):
            xn.check_cn_index_relation(
                Scene((), (CurveClass("u", 0, (), 3, ambient_dim_half=3),), RelativePairing({})),
                "u",
            )

    def test_randomized_consistency(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            scene = random_scene(rng)
            for c in scene.curves:
                assert xn.check_cn_index_relation(scene, c.id).holds


class TestSpectralCoveringTotal:
    def test_simply_covered_gives_puncture_count(self):
        scene = odd_orbit_scene()
        assert xn.spectral_covering_total(scene, "cyl_1") == 2

    def test_no_punctures(self):
        scene = Scene((), (CurveClass("u", 0, (), 0),), RelativePairing({}))
        assert xn.spectral_covering_total(scene, "u") == 0

    def test_double_cover_with_zero_winding(self):
        table = {2: CoverData(0, 1)}
        curve = CurveClass("u", 0, (PunctureSpec("+", "g", 2),), 0)
        scene = orbit_scene({"g": table}, (curve,))
        assert xn.spectral_covering_total(scene, "u") == 2

    def test_at_least_puncture_count(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            scene = random_scene(rng)
            for c in scene.curves:
                assert xn.spectral_covering_total(scene, c.id) >= len(c.punctures)


class TestAdjunctionDefect:
    def test_planar_page_embedded(self):
        table = {1: CoverData(0, 1)}
        page = CurveClass(
            "page", 0, tuple(PunctureSpec("+", f"b{i}", 1) for i in range(3)), -1
        )
        scene = orbit_scene(
            {f"b{i}": dict(table) for i in range(3)}, (page,), {("page", "page"): 0}
        )
        assert xn.adjunction_defect(scene, "page") == 0

    def test_simple_orbit_cylinder(self):
        for scene_fn in (odd_orbit_scene, even_orbit_scene):
            assert xn.adjunction_defect(scene_fn(), "cyl_1") == 0

    def test_multiple_cover_rejected(self):
        scene = odd_orbit_scene()
        with pytest.raises(InconsistencyError, match="positivity"):
            xn.adjunction_defect(scene, "cyl_2")

    def test_closed_degree_three_sphere(self):
        scene = Scene((), (CurveClass("u", 0, (), 9),), RelativePairing({("u", "u"): 9}))
        assert xn.adjunction_defect(scene, "u") == 1
        assert closed.delta_closed(9, 9, 0) == 1

    def test_odd_numerator_flagged(self):
        scene = Scene((), (CurveClass("u", 0, (), 1),), RelativePairing({("u", "u"): 0}))
        with pytest.raises(InconsistencyError, match="parity"):
            xn.adjunction_defect(scene, "u")


class TestRelativeAdjunction:
    def test_closed_embedded_sphere(self):
        # [u].[u] = 2*0 + c1 - 2 reduces to the closed adjunction formula
        scene = Scene((), (CurveClass("u", 0, (), 2),), RelativePairing({("u", "u"): 0}))
        assert xn.relative_adjunction_check(scene, "u", delta=0, iota_tau_infty=0).holds

    def test_orbit_cylinder_balance(self):
        scene = odd_orbit_scene()
        # bullet = 0, chi = 0, rel_c1 = 0: balance needs iota_tau_infty = -2 delta
        assert xn.relative_adjunction_check(scene, "cyl_1", delta=0, iota_tau_infty=0).holds

    def test_corrupted_delta(self):
        scene = Scene((), (CurveClass("u", 0, (), 2),), RelativePairing({("u", "u"): 0}))
        assert not xn.relative_adjunction_check(scene, "u", delta=3, iota_tau_infty=0).holds


class TestAsymptoticDefect:
    def test_extremal_windings_vanish(self):
        entries = [("+", 2, 2), ("-", -1, -1)]
        assert xn.asymptotic_defect(entries) == 0

    def test_positive_end_below_bound(self):
        assert xn.asymptotic_defect([("+", 0, -2)]) == 2

    def test_bound_violation(self):
        with pytest.raises(InputError, match="exceeds a priori bound"):
            xn.asymptotic_defect([("+", 0, 1)])
        with pytest.raises(InputError, match="exceeds a priori bound"):
            xn.asymptotic_defect([("-", 0, -1)])

    def test_invalid_sign(self):
        with pytest.raises(InputError, match="sign must be"):
            xn.asymptotic_defect([("x", 0, 0)])

    def test_total_zero_count_matches_normal_chern(self):
        # construct scenes where the zero count of a normal section splits as
        # Z + Z_infty = c_N with Z >= 0 chosen freely
        rng = np.random.default_rng(3)
        for _ in range(40):
            n_plus = int(rng.integers(1, 4))
            n_minus = int(rng.integers(0, 3))
            table = {}
            punctures = []
            entries = []
            z_infty = 0
            orbits = {}
            for i in range(n_plus + n_minus):
                am = int(rng.integers(-3, 4))
                p = int(rng.integers(0, 2))
                orbits[f"o{i}"] = {1: CoverData(am, am + p)}
                sign = "+" if i < n_plus else "-"
                punctures.append(PunctureSpec(sign, f"o{i}", 1))
                drop = int(rng.integers(0, 4))
                if sign == "+":
                    entries.append(("+", am, am - drop))
                else:
                    entries.append(("-", am + p, am + p + drop))
                z_infty += drop
            z_interior = int(rng.integers(0, 5))
            genus = int(rng.integers(0, 3))
            chi = 2 - 2 * genus - len(punctures)
            # solve rel_c1 so that c_N = z_interior + z_infty
            alpha_sum = sum(
                orbits[p.orbit][1].alpha_minus if p.sign == "+" else -orbits[p.orbit][1].alpha_plus
                for p in punctures
            )
            rel_c1 = z_interior + z_infty + chi - alpha_sum
            curve = CurveClass("u", genus, tuple(punctures), rel_c1)
            scene = orbit_scene(orbits, (curve,))
            assert xn.asymptotic_defect(entries) == z_infty
            assert z_interior + z_infty == xn.normal_chern(scene, "u")


class TestIntegerArguments:
    """Bounds, windings, delta and iota_tau_infty are read by the integer rule:
    a float, a bool or a NaN is refused, not computed with."""

    @pytest.mark.parametrize(
        "entry, message",
        [
            (("+", 1.5, 1), "alpha bound must be an integer, got 1.5"),
            (("+", True, 0), "alpha bound must be an integer, got True"),
            (("-", 0, float("nan")), "winding must be an integer, got nan"),
            (("+", 2, 1.0), "winding must be an integer, got 1.0"),
        ],
    )
    def test_asymptotic_defect_refuses(self, entry, message):
        with pytest.raises(InputError) as err:
            xn.asymptotic_defect([("+", 0, 0), entry])
        assert str(err.value) == message

    def test_asymptotic_defect_reads_numpy_integers(self):
        entries = [("+", np.int64(0), np.int32(-2)), ("-", np.int64(1), 3)]
        assert xn.asymptotic_defect(entries) == xn.asymptotic_defect([("+", 0, -2), ("-", 1, 3)]) == 4

    @pytest.mark.parametrize(
        "delta, iota, message",
        [
            (0.5, 1.5, "delta must be an integer, got 0.5"),
            (0, 1.5, "iota_tau_infty must be an integer, got 1.5"),
            (True, 0, "delta must be an integer, got True"),
            (0, False, "iota_tau_infty must be an integer, got False"),
        ],
    )
    def test_relative_adjunction_check_refuses(self, delta, iota, message):
        scene = Scene((), (CurveClass("u", 0, (), 2),), RelativePairing({("u", "u"): 0}))
        with pytest.raises(InputError) as err:
            xn.relative_adjunction_check(scene, "u", delta=delta, iota_tau_infty=iota)
        assert str(err.value) == message

    def test_relative_adjunction_check_reads_numpy_integers(self):
        scene = Scene((), (CurveClass("u", 0, (), 2),), RelativePairing({("u", "u"): 0}))
        report = xn.relative_adjunction_check(scene, "u", delta=np.int64(1), iota_tau_infty=np.int8(-2))
        assert report == xn.relative_adjunction_check(scene, "u", delta=1, iota_tau_infty=-2)
        assert (report.rhs, type(report.rhs)) == (0, int)


class TestAutomaticTransversality:
    def test_planar_page(self):
        table = {1: CoverData(0, 1)}
        page = CurveClass(
            "page", 0, tuple(PunctureSpec("+", f"b{i}", 1) for i in range(3)), -1
        )
        scene = orbit_scene({f"b{i}": dict(table) for i in range(3)}, (page,))
        report = xn.automatic_transversality(scene, "page")
        assert report.automatic and (report.index, report.normal_chern) == (2, 0)

    def test_odd_orbit_cylinder(self):
        report = xn.automatic_transversality(odd_orbit_scene(), "cyl_1")
        assert report.automatic and (report.index, report.normal_chern) == (0, -1)

    def test_genus_two_closed_failure(self):
        # ind = 0 and c_N = 1 from 2 c_N = ind - 2 + 2g
        scene = Scene((), (CurveClass("u", 2, (), -1),), RelativePairing({}))
        report = xn.automatic_transversality(scene, "u")
        assert (report.index, report.normal_chern) == (0, 1)
        assert not report.automatic

    def test_dimension_six_refused(self):
        scene = Scene((), (CurveClass("u", 0, (), 3, ambient_dim_half=3),), RelativePairing({}))
        with pytest.raises(InputError) as refusal:
            xn.automatic_transversality(scene, "u")
        assert str(refusal.value) == "criterion specific to dimension four (ambient_dim_half = 2)"


class TestFoliationCriteria:
    def planar_scene(self, multiplicity=1, repeat_orbit=False):
        table = {k: CoverData(0, 1) for k in (1, multiplicity)}
        ids = ["b0", "b0" if repeat_orbit else "b1", "b2"]
        punctures = [PunctureSpec("+", ids[0], multiplicity)]
        punctures += [PunctureSpec("+", oid, 1) for oid in ids[1:]]
        # rel_c1 keeps ind = 2 for the simple all-odd case
        page = CurveClass("page", 0, tuple(punctures), -1)
        covers = {oid: dict(table) for oid in set(ids)}
        return orbit_scene(covers, (page,))

    def test_all_pass(self):
        report = xn.foliation_criteria(self.planar_scene(), "page")
        assert report.all_pass

    def test_multiplicity_two_fails_clause_four(self):
        report = xn.foliation_criteria(self.planar_scene(multiplicity=2), "page")
        assert not report.distinct_simple_orbits
        assert not report.all_pass

    def test_repeated_orbit_fails_clause_four(self):
        report = xn.foliation_criteria(self.planar_scene(repeat_orbit=True), "page")
        assert not report.distinct_simple_orbits

    def test_index_zero_cylinder_fails_clause_one(self):
        report = xn.foliation_criteria(odd_orbit_scene(), "cyl_1")
        assert not report.index_is_two
        assert report.genus_zero and report.all_odd


class TestNodalStarExpansion:
    def nodal_scene(self):
        table = {1: CoverData(0, 1)}
        orbits = {f"b{i}": dict(table) for i in range(4)}
        total = CurveClass(
            "u", 0, tuple(PunctureSpec("+", f"b{i}", 1) for i in range(4)), -2
        )
        vp = CurveClass("vp", 0, tuple(PunctureSpec("+", f"b{i}", 1) for i in (0, 1)), -1)
        vm = CurveClass("vm", 0, tuple(PunctureSpec("+", f"b{i}", 1) for i in (2, 3)), -1)
        pairing = {
            ("u", "u"): 0,
            ("vp", "vp"): -1,
            ("vm", "vm"): -1,
            ("vm", "vp"): 1,
        }
        return orbit_scene(orbits, (total, vp, vm), pairing)

    def test_reference_scene(self):
        report = xn.nodal_star_expansion(self.nodal_scene(), ("vp", "vm"), "u")
        assert report.holds
        assert report.total_star == 0 and report.component_sum == -1 - 1 + 2

    def test_disjoint_union_zero(self):
        curves = (
            CurveClass("u", 0, (), 0),
            CurveClass("vp", 0, (), 0),
            CurveClass("vm", 0, (), 0),
        )
        pairing = {("u", "u"): 0, ("vp", "vp"): 0, ("vm", "vm"): 0, ("vm", "vp"): 0}
        scene = Scene((), curves, RelativePairing(pairing))
        assert xn.nodal_star_expansion(scene, ("vp", "vm"), "u").holds

    def test_puncture_mismatch_rejected(self):
        scene = self.nodal_scene()
        with pytest.raises(InputError, match="do not decompose"):
            xn.nodal_star_expansion(scene, ("vp", "vp"), "u")

    def test_randomized_additive_pairings(self):
        rng = np.random.default_rng(17)
        table = {1: CoverData(0, 1), 2: CoverData(1, 2)}
        for _ in range(25):
            n_orbits = int(rng.integers(1, 4))
            orbits = {f"o{i}": dict(table) for i in range(n_orbits)}

            def punctures():
                out = []
                for _ in range(int(rng.integers(0, 4))):
                    oid = f"o{rng.integers(0, n_orbits)}"
                    k = int(rng.choice([1, 2]))
                    out.append(PunctureSpec("+" if rng.random() < 0.5 else "-", oid, k))
                return tuple(out)

            vp_p, vm_p = punctures(), punctures()
            vp = CurveClass("vp", 0, vp_p, int(rng.integers(-3, 4)))
            vm = CurveClass("vm", 0, vm_p, int(rng.integers(-3, 4)))
            total = CurveClass("u", 0, vp_p + vm_p, vp.rel_c1 + vm.rel_c1)
            bullet_pp = int(rng.integers(-4, 5))
            bullet_mm = int(rng.integers(-4, 5))
            bullet_pm = int(rng.integers(-4, 5))
            pairing = {
                ("vp", "vp"): bullet_pp,
                ("vm", "vm"): bullet_mm,
                ("vm", "vp"): bullet_pm,
                ("u", "u"): bullet_pp + bullet_mm + 2 * bullet_pm,
            }
            scene = orbit_scene(orbits, (total, vp, vm), pairing)
            assert xn.nodal_star_expansion(scene, ("vp", "vm"), "u").holds


class TestTauInvariance:
    def test_all_quantities_invariant_under_random_shifts(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            scene = random_scene(rng)
            ids = [c.id for c in scene.curves]
            base = {
                "star": {(u, v): xn.star(scene, u, v) for u in ids for v in ids},
                "index": {u: xn.fredholm_index(scene, u) for u in ids},
                "c_N": {u: xn.normal_chern(scene, u) for u in ids},
                "sigma": {u: xn.spectral_covering_total(scene, u) for u in ids},
            }
            defects = {}
            for u in ids:
                try:
                    defects[u] = ("ok", xn.adjunction_defect(scene, u))
                except InconsistencyError as exc:
                    defects[u] = ("bad", str(exc))
            shifted = shift_scene(scene, random_shift(rng, scene))
            for u in ids:
                assert xn.fredholm_index(shifted, u) == base["index"][u]
                assert xn.normal_chern(shifted, u) == base["c_N"][u]
                assert xn.spectral_covering_total(shifted, u) == base["sigma"][u]
                try:
                    outcome = ("ok", xn.adjunction_defect(shifted, u))
                except InconsistencyError as exc:
                    outcome = ("bad", str(exc))
                assert outcome == defects[u]
                for v in ids:
                    assert xn.star(shifted, u, v) == base["star"][(u, v)]
            for o in shifted.orbits:
                for k in o.cover_table:
                    cover, original = o.cover(k), scene.orbit(o.id).cover(k)
                    assert cover.parity() == original.parity()
                    assert cover.sigma_bar(k, 1) == original.sigma_bar(k, 1)
                    assert cover.sigma_bar(k, -1) == original.sigma_bar(k, -1)


class TestClosedDegeneration:
    def test_matches_closed_module_on_puncture_free_scenes(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            genus = int(rng.integers(0, 3))
            c1 = int(rng.integers(-4, 5))
            delta = int(rng.integers(0, 4))
            self_pairing = 2 * delta + closed.cn_closed(c1, genus)
            curve = CurveClass("u", genus, (), c1)
            scene = Scene((), (curve,), RelativePairing({("u", "u"): self_pairing}))
            assert xn.star(scene, "u", "u") == self_pairing
            assert xn.normal_chern(scene, "u") == closed.cn_closed(c1, genus)
            assert xn.adjunction_defect(scene, "u") == delta
            assert closed.delta_closed(self_pairing, c1, genus) == delta
            assert xn.fredholm_index(scene, "u") == closed.vdim_closed(2, genus, c1)


class TestCurveReport:
    def test_report_fields(self):
        scene = odd_orbit_scene()
        report = xn.curve_report(scene, "cyl_1")
        assert report["index"] == 0
        assert report["c_N"] == -1
        assert report["star_self"] == -1
        assert report["adjunction_defect"] == 0
        assert report["chi"] == 0
        assert report["automatic_transversality"] is True

    def test_inconsistent_curve_raises(self):
        scene = odd_orbit_scene()
        with pytest.raises(InconsistencyError):
            xn.curve_report(scene, "cyl_2")

    def test_one_end_walk_per_report(self, monkeypatch):
        # the foliation clauses read the index the report already has
        scene = random_scene(np.random.default_rng(5), 4, 5, 5)
        walks = []
        real_sums = xn.end_sums

        def counted_sums(scene, curve):
            walks.append(curve.id)
            return real_sums(scene, curve)

        monkeypatch.setattr(xn, "end_sums", counted_sums)
        for curve in scene.curves:
            walks.clear()
            try:
                report = xn.curve_report(scene, curve.id)
            except InconsistencyError:
                report = None
            assert walks == [curve.id]
            if report is not None:
                criteria = xn.foliation_criteria(scene, curve.id)
                assert report["foliation"] == criteria.as_dict()
