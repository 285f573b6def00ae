"""Bridges between the spectral solver and the combinatorial scene layer.

Cover tables built from actual spectra must reproduce the arithmetic the
scene layer takes as input: parities, indices, spectral covering numbers
(the gcd law against honest numeric covering multiplicities), and the
orbit-cylinder identities.
"""

import math

import numpy as np
import pytest

from siefring_kit import intersection as xn
from siefring_kit.audit import audit_scene
from siefring_kit.cli import golden_scene
from siefring_kit.core import (
    CoverData,
    CurveClass,
    OrbitData,
    PunctureSpec,
    RelativePairing,
    Scene,
)
from siefring_kit.errors import InputError
from siefring_kit.germs import branched_cover, germ, monomial_germ
from siefring_kit.spectrum import (
    SpectralLoop,
    alphas_from_spectrum,
    assemble,
    constant_loop,
    cover_operator,
    covering_multiplicity,
    eigen_window,
    integrate_linear_ode,
    orbit_from_loop,
)


def random_loop(rng, bandwidth=1):
    def sym():
        a = rng.normal(size=(2, 2))
        return (a + a.T) / 2

    modes = [(0, sym(), np.zeros((2, 2)))]
    modes += [(n, sym(), sym()) for n in range(1, bandwidth + 1)]
    return SpectralLoop(tuple(modes))


class TestOrbitFromLoop:
    def test_identity_loop_covers(self):
        orbit = orbit_from_loop("g", constant_loop(np.eye(2)), covers=(1, 2, 3), mode_cutoff=16)
        # cover spectra are 2 pi n - k: extremal windings (0, 1) while k < 2 pi
        for k in (1, 2, 3):
            cov = orbit.cover(k)
            assert (cov.alpha_minus, cov.alpha_plus) == (0, 1)
            assert cov.parity() == 1
            assert cov.cz_index() == 1

    def test_even_loop_covers(self):
        orbit = orbit_from_loop(
            "g", constant_loop(np.diag([-1.0, 1.0])), covers=(1, 2, 3), mode_cutoff=16
        )
        for k in (1, 2, 3):
            assert orbit.cover(k).parity() == 0
            assert orbit.cover(k).cz_index() == 0

    def test_parity_and_cz_match_spectrum_record(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            loop = random_loop(rng)
            record = alphas_from_spectrum(assemble(loop, 16))
            orbit = orbit_from_loop("g", loop, covers=(1,), mode_cutoff=16)
            assert orbit.cover(1).parity() == record.parity
            assert orbit.cover(1).cz_index() == record.cz


class TestSigmaBarAgainstNumericCovering:
    def test_gcd_matches_extremal_eigenfunction_covering(self):
        rng = np.random.default_rng(43)
        for trial in range(6):
            loop = random_loop(rng)
            k = 2 + trial % 3
            orbit = orbit_from_loop("g", loop, covers=(k,), mode_cutoff=16)
            op = assemble(cover_operator(loop, k), 16 * k)
            pairs = eigen_window(op, -8.0 * k, 8.0 * k)
            negatives = [p for p in pairs if p.eigenvalue < 0]
            positives = [p for p in pairs if p.eigenvalue > 0]
            for s, extremal in ((-1, negatives[-1]), (1, positives[0])):
                if extremal.multiplicity != 1:
                    continue
                assert orbit.cover(k).sigma_bar(k, s) == covering_multiplicity(extremal, k)
                expected = math.gcd(k, extremal.winding) if extremal.winding else k
                assert orbit.cover(k).sigma_bar(k, s) == expected


class TestCylinderSceneFromSpectra:
    def test_orbit_cylinder_identities_from_computed_table(self):
        rng = np.random.default_rng(47)
        loop = random_loop(rng)
        covers = (1, 2, 3)
        orbit = orbit_from_loop("g", loop, covers=covers, mode_cutoff=16)
        curves = tuple(
            CurveClass(
                f"cyl_{k}",
                0,
                (PunctureSpec("+", "g", k), PunctureSpec("-", "g", k)),
                0,
            )
            for k in covers
        )
        pairing = RelativePairing({(f"cyl_{k}", f"cyl_{k}"): 0 for k in covers})
        scene = Scene((orbit,), curves, pairing)
        for k in covers:
            p = orbit.cover(k).parity()
            assert xn.normal_chern(scene, f"cyl_{k}") == -p
            assert xn.star(scene, f"cyl_{k}", f"cyl_{k}") == -k * p
            assert xn.fredholm_index(scene, f"cyl_{k}") == 0
            assert xn.check_cn_index_relation(scene, f"cyl_{k}").holds


def _loop_modes(loop):
    return [(n, c.tolist(), d.tolist()) for n, c, d in loop.modes]


_BASE_LOOP = random_loop(np.random.default_rng(5))

# every count argument: a valid count n and what the call with it gives,
# reduced to plain values where the result holds arrays
COUNT_ARGUMENTS = {
    "integration steps": (
        150,
        lambda n: integrate_linear_ode(np.array([[-1.0]]), [1.0], 0.0, 1.0, n).values.tolist(),
    ),
    "spectral cover k": (2, lambda n: _loop_modes(cover_operator(_BASE_LOOP, n))),
    "germ cover k": (2, lambda n: branched_cover(germ([0, 1], [0, 0, 1]), n)),
    "mode frequency": (1, lambda n: _loop_modes(SpectralLoop(((n, np.eye(2), np.eye(2)),)))),
    "orbit cover key": (2, lambda n: OrbitData("o", {n: CoverData(0, 1)})),
    "orbit_from_loop covers": (2, lambda n: orbit_from_loop("o", _BASE_LOOP, (1, n), 8)),
    "puncture multiplicity": (2, lambda n: PunctureSpec("+", "o", n)),
    "audit shifts": (3, lambda n: audit_scene(golden_scene("planar_page"), n)),
    "first monomial exponent": (2, lambda n: monomial_germ(n, 3)),
    "second monomial exponent": (3, lambda n: monomial_germ(2, n)),
}


class TestCountArguments:
    """One integer rule, ``jsonio.typed``, reads every count argument: a bool
    or a float is refused, a numpy integer counts as the int it equals."""

    @pytest.mark.parametrize("name", sorted(COUNT_ARGUMENTS))
    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_bool_and_float_refused(self, name, bad):
        _, call = COUNT_ARGUMENTS[name]
        with pytest.raises(InputError, match="must be an integer, got"):
            call(bad)

    @pytest.mark.parametrize("name", sorted(COUNT_ARGUMENTS))
    def test_numpy_integer_is_the_int(self, name):
        n, call = COUNT_ARGUMENTS[name]
        assert call(np.int64(n)) == call(n)

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_cover_lookup_refuses_bool_and_float(self, bad):
        # True and 1.0 equal the key 1, so a dict lookup alone answers them
        orbit = OrbitData("o", {1: CoverData(0, 1), 2: CoverData(1, 1)})
        with pytest.raises(InputError, match="cover multiplicity must be an integer, got"):
            orbit.cover(bad)
        assert orbit.cover(np.int64(2)) == orbit.cover(2) == CoverData(1, 1)

    def test_orbit_cover_keys_are_ints(self):
        covers = (np.int64(1), np.int32(2), np.uint8(3))
        orbit = orbit_from_loop("o", _BASE_LOOP, covers, 8)
        assert orbit == orbit_from_loop("o", _BASE_LOOP, (1, 2, 3), 8)
        assert [type(k) for k in orbit.cover_table] == [int, int, int]
        assert repr(orbit) == repr(orbit_from_loop("o", _BASE_LOOP, (1, 2, 3), 8))
        table = OrbitData("o", {np.int64(2): CoverData(0, 1)}).cover_table
        assert [type(k) for k in table] == [int]

    def test_range_messages_kept(self):
        with pytest.raises(InputError, match="cover multiplicity must be a positive integer, got 0"):
            cover_operator(_BASE_LOOP, 0)
        with pytest.raises(InputError, match="cover multiplicity must be a positive integer, got 0"):
            branched_cover(germ([0, 1], [0, 0, 1]), np.int64(0))
        with pytest.raises(InputError, match="cover multiplicity must be an integer, got 1.5"):
            branched_cover(germ([0, 1], [0, 0, 1]), 1.5)
        with pytest.raises(InputError, match="'o': cover multiplicity 0 invalid"):
            OrbitData("o", {0: CoverData(0, 1)})
        with pytest.raises(InputError, match="mode frequency must be a nonnegative integer, got -1"):
            SpectralLoop(((np.int64(-1), np.eye(2), np.eye(2)),))
        with pytest.raises(InputError, match="puncture multiplicity must be >= 1, got 0"):
            PunctureSpec("+", "o", 0)
        with pytest.raises(InputError, match="number of shifts must be nonnegative, got -1"):
            audit_scene(golden_scene("planar_page"), np.int64(-1))
        with pytest.raises(InputError, match="monomial exponents must be >= 1"):
            monomial_germ(0, 3)
        with pytest.raises(InputError, match="integration needs at least 100 steps, got 99"):
            integrate_linear_ode(np.array([[-1.0]]), [1.0], 0.0, 1.0, np.int64(99))
