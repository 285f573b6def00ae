import json
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from siefring_kit import cli, core, spectrum
from siefring_kit.winding import windings
from siefring_kit.errors import InputError
from siefring_kit.jsonio import canonical_dumps
from siefring_kit.spectrum import (
    CLUSTER_TOL,
    DEFAULT_CUTOFF,
    SpectralLoop,
    Trajectory,
    alphas_from_spectrum,
    assemble,
    constant_loop,
    cover_operator,
    covering_multiplicity,
    eigen_window,
    fit_decay,
    integrate_linear_ode,
    loop_from_dict,
    orbit_from_loop,
    spectrum_report,
    _ODE_BLOCK,
    _floquet_block,
    _multiplicities,
    _on_grid,
)

TWO_PI = 2 * np.pi
J0 = np.array([[0.0, -1.0], [1.0, 0.0]])  # the standard complex structure on R^2


def evaluate_coefficients(coeffs: np.ndarray, ts) -> np.ndarray:
    """Evaluate a coefficient block at parameters ts; returns complex x+iy.
    A direct sum over the modes: the reference for the package's one
    evaluator, the inverse real FFT of ``_on_grid``."""
    M = (coeffs.shape[0] - 1) // 2
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    ns = np.arange(-M, M + 1)
    phases = np.exp(2j * np.pi * np.outer(ns, ts))
    vals = np.tensordot(coeffs, phases, axes=(0, 0))  # (2, len(ts))
    return vals[0].real + 1j * vals[1].real


def random_loop(rng, bandwidth=2, scale=1.0):
    def sym():
        a = rng.normal(size=(2, 2)) * scale
        return (a + a.T) / 2

    modes = [(0, sym(), np.zeros((2, 2)))]
    modes += [(n, sym(), sym()) for n in range(1, bandwidth + 1)]
    return SpectralLoop(tuple(modes))


def loop_matrix_reference(loop, M):
    """The Galerkin matrix built one 2x2 block at a time: the reference for
    assemble's vectorized builder."""
    dim = 2 * (2 * M + 1)
    A = np.zeros((dim, dim), dtype=complex)
    for n in range(-M, M + 1):
        b = 2 * (n + M)
        A[b:b + 2, b:b + 2] += -2j * np.pi * n * J0
    s_hat = {}
    for n, c, d in loop.modes:
        if n == 0:
            s_hat[0] = s_hat.get(0, 0) + c.astype(complex)
        else:
            s_hat[n] = s_hat.get(n, 0) + (c - 1j * d) / 2
            s_hat[-n] = s_hat.get(-n, 0) + (c + 1j * d) / 2
    for nu, block in s_hat.items():
        for m in range(-M, M + 1):
            n2 = m + nu
            if -M <= n2 <= M:
                r, cidx = 2 * (n2 + M), 2 * (m + M)
                A[r:r + 2, cidx:cidx + 2] += -block
    return A


def full_cover_table(loop, covers, M):
    """Cover table from one ``assemble`` of each cover operator, which splits
    it by residue classes, or the refusal message."""
    try:
        table = {}
        for k in covers:
            rec = alphas_from_spectrum(assemble(cover_operator(loop, k), M * k))
            table[k] = (rec.alpha_minus, rec.alpha_plus)
        return table
    except InputError as exc:
        return str(exc)


def block_cover_table(loop, covers, M):
    try:
        orbit = orbit_from_loop("o", loop, covers, M)
        return {k: (c.alpha_minus, c.alpha_plus) for k, c in orbit.cover_table.items()}
    except InputError as exc:
        return str(exc)


class TestLoopValidation:
    def test_asymmetric_mode_rejected(self):
        with pytest.raises(InputError, match="asymmetric mode"):
            SpectralLoop(((0, [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),))

    def test_symmetric_within_the_tolerance_read_as_its_lower_entry(self):
        # |C01 - C10| = 8e-13 passes at cover 1; read as given, the cover 2C
        # would differ by 1.6e-12, past the tolerance, and refuse a mode the
        # user never gave
        z = np.zeros((2, 2))
        c = np.array([[1.0, 0.3 + 8e-13], [0.3, 2.0]])
        given = c.copy()
        loop = SpectralLoop(((0, np.diag([1.0, 2.0]), z), (1, c, z)))
        assert np.array_equal(c, given)  # the caller's matrix is not written
        read = loop.modes[1][1]
        assert read[0, 1] == read[1, 0] == 0.3 and read is not c
        table = orbit_from_loop("o", loop, [1, 2], 8).cover_table
        assert set(table) == {1, 2}
        for k in (1, 2):
            A = assemble(cover_operator(loop, k), 8 * k).matrix
            assert np.array_equal(A, A.conj().T)

    def test_symmetric_matrix_read_bit_for_bit(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-8, 9)
            c = (a + a.T) / 2
            loop = SpectralLoop(((1, c, c.T),))
            assert loop.modes[0][1].tobytes() == c.tobytes() == loop.modes[0][2].tobytes()

    def test_duplicate_frequency_rejected(self):
        z = np.zeros((2, 2))
        with pytest.raises(InputError, match="duplicate"):
            SpectralLoop(((1, z, z), (1, z, z)))

    def test_sin_at_zero_rejected(self):
        with pytest.raises(InputError, match="mode 0"):
            SpectralLoop(((0, np.eye(2), np.eye(2)),))

    def test_sampling(self):
        loop = SpectralLoop(((1, np.eye(2), np.zeros((2, 2))),))
        vals = loop([0.0, 0.25])
        assert np.allclose(vals[0], np.eye(2))
        assert np.allclose(vals[1], 0.0, atol=1e-15)

    def test_overflowing_loop_rejected(self, recwarn):
        big = 1e308
        modes = ((0, big * np.eye(2), np.zeros((2, 2))), (1, np.full((2, 2), big), np.diag([big, -big])))
        with pytest.raises(InputError, match="loop overflows"):
            SpectralLoop(modes)
        # each entry alone and their sum within range: accepted, but not its
        # double cover
        loop = SpectralLoop(((0, np.diag([big, 0.0]), np.zeros((2, 2))),))
        with pytest.raises(InputError, match="loop overflows"):
            orbit_from_loop("o", loop, (2,), 8)
        assert len(recwarn) == 0


class TestAssemble:
    def test_cutoff_too_small(self):
        loop = random_loop(np.random.default_rng(0), bandwidth=3)
        with pytest.raises(InputError, match="cutoff below loop bandwidth"):
            assemble(loop, 6)

    @pytest.mark.parametrize("cutoff", [8.9, 8.0, 8.5, True, "8", None])
    def test_non_integral_cutoff_refused(self, cutoff):
        loop = random_loop(np.random.default_rng(0), bandwidth=1)
        message = f"cutoff must be an integer, got {cutoff!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            assemble(loop, cutoff)
        with pytest.raises(InputError, match=re.escape(message)):
            orbit_from_loop("o", loop, (1, 2), cutoff)

    def test_numpy_integer_cutoff_accepted(self):
        loop = random_loop(np.random.default_rng(0), bandwidth=1)
        assert assemble(loop, np.int64(8)).mode_cutoff == 8
        table = orbit_from_loop("o", loop, (1, 2), np.int32(8)).cover_table
        assert table == orbit_from_loop("o", loop, (1, 2), 8).cover_table

    def test_full_operator_is_the_trivial_block(self):
        op = assemble(random_loop(np.random.default_rng(3)), 12)
        assert op.modes == range(-12, 13)
        assert op.eigh[1].shape == (2 * 25, 2 * 25)

    def test_matrix_is_hermitian(self):
        op = assemble(random_loop(np.random.default_rng(1)), 16)
        dev = np.max(np.abs(op.matrix - op.matrix.conj().T))
        assert dev < 1e-10 * max(1.0, np.max(np.abs(op.matrix)))

    def test_zero_loop_spectrum(self):
        # S == 0: eigenvalues 2 pi n, each double
        op = assemble(SpectralLoop(()), 4)
        pairs = eigen_window(op, -1.0, TWO_PI + 1.0)
        assert [round(p.eigenvalue, 9) for p in pairs] == pytest.approx(
            [0.0, 0.0, TWO_PI, TWO_PI], abs=1e-9
        )
        assert all(p.multiplicity == 2 for p in pairs)

    def test_matrix_equals_blockwise_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            loop = random_loop(rng, int(rng.integers(0, 4)), float(rng.uniform(0.1, 4.0)))
            k = int(rng.integers(1, 5))
            cover = cover_operator(loop, k)
            M = int(rng.integers(cover.bandwidth + 4, cover.bandwidth + 40))
            assert np.array_equal(assemble(cover, M).matrix, loop_matrix_reference(cover, M))

    def test_clusters_match_pairwise_scan(self):
        # reference: grow each cluster while the next gap is within tolerance
        def scan(lams, tol=CLUSTER_TOL):
            sizes, i = [], 0
            while i < len(lams):
                j = i
                while j + 1 < len(lams) and lams[j + 1] - lams[j] <= tol * (1 + abs(lams[j])):
                    j += 1
                sizes += [j - i + 1] * (j - i + 1)
                i = j + 1
            return sizes

        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(0, 10))
            base = rng.choice([-3.0, -1.0, 0.5, 2.0, 1e6], size=n)
            jitter = rng.choice([0.0, 1e-9, 5e-9, 2e-8, 1e-3], size=n) * rng.random(n)
            lams = np.sort(base + jitter)
            assert _multiplicities(lams) == scan(lams)


class TestConstantCoefficients:
    @pytest.mark.parametrize("c", [1.0, -1.0, 2.0, -2.0, np.pi - 3])
    def test_ground_truth(self, c):
        op = assemble(constant_loop(c * np.eye(2)), DEFAULT_CUTOFF)
        lo, hi = -3 * TWO_PI - 1, 3 * TWO_PI + 1
        pairs = eigen_window(op, lo, hi)
        expected = sorted(
            TWO_PI * n - c for n in range(-4, 5) for _ in (0, 1) if lo <= TWO_PI * n - c <= hi
        )
        assert len(pairs) == len(expected)
        for pair, lam in zip(pairs, expected):
            assert abs(pair.eigenvalue - lam) <= 1e-8 * max(1.0, abs(lam))
            assert pair.multiplicity == 2
            assert pair.winding == round((pair.eigenvalue + c) / TWO_PI)

    def test_alphas_identity(self):
        rec = alphas_from_spectrum(assemble(constant_loop(np.eye(2)), DEFAULT_CUTOFF))
        assert (rec.alpha_minus, rec.alpha_plus, rec.parity, rec.cz) == (0, 1, 1, 1)

    def test_alphas_minus_identity(self):
        rec = alphas_from_spectrum(assemble(constant_loop(-np.eye(2)), DEFAULT_CUTOFF))
        assert (rec.alpha_minus, rec.alpha_plus, rec.parity, rec.cz) == (-1, 0, 1, -1)

    def test_even_orbit_model(self):
        rec = alphas_from_spectrum(assemble(constant_loop(np.diag([-1.0, 1.0])), 24))
        assert (rec.alpha_minus, rec.alpha_plus, rec.parity, rec.cz) == (0, 0, 0, 0)

    def test_degenerate_rejected(self):
        op = assemble(constant_loop(TWO_PI * np.eye(2)), DEFAULT_CUTOFF)
        with pytest.raises(InputError, match="degenerate orbit"):
            alphas_from_spectrum(op)

    def test_cz_winding_relation(self):
        for c in (1.0, -2.5, 0.3):
            rec = alphas_from_spectrum(assemble(constant_loop(c * np.eye(2)), 24))
            assert 2 * rec.alpha_minus + rec.parity == rec.cz
            assert 2 * rec.alpha_plus - rec.parity == rec.cz
            assert rec.parity in (0, 1)


class TestWindowErrors:
    def test_lo_ge_hi(self):
        op = assemble(constant_loop(np.eye(2)), 8)
        with pytest.raises(InputError, match="lo < hi"):
            eigen_window(op, 2.0, -2.0)

    def test_window_exceeds_resolution(self):
        op = assemble(constant_loop(np.eye(2)), 8)
        with pytest.raises(InputError, match="window exceeds resolution"):
            eigen_window(op, -100.0, 100.0)

    def test_empty_window(self):
        op = assemble(constant_loop(np.eye(2)), 8)
        assert eigen_window(op, -0.5, -0.1) == []


class TestWinding:
    """Eigenfunction windings are read from Fourier coefficients, modes -M..M,
    by the one certified rule, ``winding.windings`` with low = -M."""

    M = 8

    def row(self, modes: dict) -> np.ndarray:
        """Coefficients of x + i y over the modes -M..M, from {mode: c}."""
        out = np.zeros(2 * self.M + 1, dtype=complex)
        for n, c in modes.items():
            out[n + self.M] = c
        return out

    def test_unit_circle(self):
        assert windings(self.row({1: 1.0})[None], low=-self.M) == [1]

    def test_constant(self):
        assert windings(self.row({0: 1.0 + 0.5j})[None], low=-self.M) == [0]

    def test_higher_winding(self):
        # e^(-6 pi i t) with a small mode-2 ripple
        assert windings(self.row({-3: 1.0, 2: 0.3j})[None], low=-self.M) == [-3]

    def test_near_zero_samples_rejected(self):
        # 1 + e^(2 pi i t) passes through 0 at t = 1/2; 1 + (1 - 1e-12) e^(...)
        # keeps 1e-12 from it, where no sample count up to the limit certifies
        rows = np.array([self.row({0: 1.0, 1: 1.0}), self.row({0: 1.0, 1: 1 - 1e-12}), self.row({0: 1.0})])
        assert windings(rows, low=-self.M) == [None, None, 0]

    def test_extremal_negative_of_identity_loop(self):
        op = assemble(constant_loop(np.eye(2)), 16)
        pairs = eigen_window(op, -2.0, 0.0)  # just the lambda = -1 pair
        assert [p.winding for p in pairs] == [0, 0]

    def test_nan_sample_refused(self):
        assert windings(np.array([self.row({1: np.nan}), self.row({1: 1.0})]), low=-self.M) == [None, 1]

    @pytest.mark.parametrize("scale", [1e-300, 1e-310])
    def test_a_tiny_row_winds_as_its_scaled_copy(self, scale):
        # the increments are differences of angles: a product with a
        # conjugate underflows at 1e-300, and a ratio of subnormal samples
        # overflows at 1e-310
        rows = np.array([self.row({-2: 1.0, 1: 0.5j}), self.row({0: 0.9, 3: 1.0}), self.row({-1: 1.0})])
        assert windings(rows * scale, low=-self.M) == windings(rows, low=-self.M) == [-2, 3, -1]

    def test_infinite_sample_reads_as_unresolved(self):
        with np.errstate(invalid="ignore"):
            assert windings(self.row({0: 1.0, 2: np.inf})[None], low=-self.M) == [None]


def roots_reference(row: np.ndarray, M: int) -> int:
    """The winding of sum c_n e^(2 pi i n t), n = -M..M: the zeros of the
    polynomial zeta^M sum c_n zeta^n in the unit disk, by np.roots, less M."""
    return int(np.sum(np.abs(np.roots(row[::-1])) < 1)) - M


def coefficient_stack(rng, M: int) -> np.ndarray:
    """1-6 rows of 2M + 1 coefficients, each the polynomial of 1..2M random
    roots of modulus 0.2 to 1.8, none within 1e-3 of the unit circle and
    the nearest within 1e-3 to 1e-1 of it, scaled by 10^-3..10^3."""
    stack = np.zeros((int(rng.integers(1, 7)), 2 * M + 1), dtype=complex)
    for row in stack:
        d = int(rng.integers(1, 2 * M + 1))
        moduli = rng.uniform(0.2, 1.8, d)
        moduli[np.abs(moduli - 1) < 1e-3] += 2e-3
        moduli[0] = 1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-3, -1)
        poly = np.poly(moduli * np.exp(2j * np.pi * rng.random(d)))[::-1]
        row[: d + 1] = poly * complex(*rng.normal(size=2)) * 10.0 ** int(rng.integers(-3, 4))
    return stack


class TestVectorizedWindings:
    """``windings`` reads a stack of rows as np.roots reads each row: the
    count of zeros in the unit disk, less M for rows over the modes -M..M,
    or None where no sample count certifies it, as for a root so near the
    circle that no arc of the finest count excludes 0."""

    def test_matches_the_per_row_reference(self):
        rng = np.random.default_rng(2204)
        seen, uncertified, rows = set(), 0, 0
        for _ in range(110):
            M = int(rng.integers(1, 9))
            stack = coefficient_stack(rng, M)
            expected = [roots_reference(row, M) for row in stack]
            got = windings(stack, low=-M)
            # the same rows over the modes 0..2M count zeros, M more each
            zeros = windings(stack)
            assert all(w in (e, None) for w, e in zip(got, expected))
            assert all(w in (e + M, None) for w, e in zip(zeros, expected))
            seen.update(got)
            uncertified += got.count(None) + zeros.count(None)
            rows += 2 * len(got)
        assert len(seen) >= 15 and uncertified <= rows // 100, (seen, uncertified, rows)


class TestWindingTheorem:
    def test_monotone_and_double(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            loop = random_loop(rng, bandwidth=3)
            op = assemble(loop, 24)
            pairs = eigen_window(op, -30.0, 30.0)
            winds = [p.winding for p in pairs]
            assert winds == sorted(winds)
            counts = {}
            for w in winds:
                counts[w] = counts.get(w, 0) + 1
            for w, count in counts.items():
                if min(winds) < w < max(winds):
                    assert count == 2, f"winding {w} appeared {count} times"

    def test_perturbation_stability(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            loop = random_loop(rng, bandwidth=2)
            op = assemble(loop, 24)
            pairs = eigen_window(op, -15.0, 15.0)
            evals = np.array([p.eigenvalue for p in pairs])
            gaps = np.diff(evals)
            gap = gaps[gaps > 1e-6].min()
            bump = random_loop(rng, bandwidth=2)
            norm = max(np.abs(m).max() for mode in bump.modes for m in mode[1:])
            eps = 0.09 * gap / max(norm, 1e-12)
            bumped = SpectralLoop(
                tuple(
                    (n, c + eps * bc, d + eps * bd)
                    for (n, c, d), (_, bc, bd) in zip(loop.modes, bump.modes)
                )
            )
            new_pairs = eigen_window(assemble(bumped, 24), -15.0, 15.0)
            for pair in pairs:
                if abs(pair.eigenvalue) > 10.0:
                    continue  # stay away from the window edges
                nearest = min(new_pairs, key=lambda q: abs(q.eigenvalue - pair.eigenvalue))
                assert abs(nearest.eigenvalue - pair.eigenvalue) < 0.5 * gap + 1e-9
                assert nearest.winding == pair.winding


class TestCoverOperator:
    def test_identity_cover(self):
        loop = random_loop(np.random.default_rng(3))
        assert cover_operator(loop, 1) is loop

    def test_constant_cover_spectrum(self):
        c = 0.7
        cov = cover_operator(constant_loop(c * np.eye(2)), 3)
        rec = alphas_from_spectrum(assemble(cov, 24))
        # eigenvalues 2 pi n - 3c: closest to zero are -2.1 (n=0) and 2 pi - 2.1
        assert (rec.alpha_minus, rec.alpha_plus) == (0, 1)

    def test_degeneracy_threshold_configurable(self):
        # an eigenvalue at 0.01 passes the default gate
        op = assemble(constant_loop((TWO_PI - 0.01) * np.eye(2)), DEFAULT_CUTOFF)
        assert alphas_from_spectrum(op).alpha_plus == 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cover_eigenpairs(self, k):
        rng = np.random.default_rng(11)
        loop = random_loop(rng, bandwidth=2)
        base_op = assemble(loop, 20)
        base_pairs = eigen_window(base_op, -6.0, 6.0)
        cover_op = assemble(cover_operator(loop, k), 20 * k + 8)
        cover_pairs = eigen_window(cover_op, -6.0 * k - 1.0, 6.0 * k + 1.0)
        for pair in base_pairs:
            target = k * pair.eigenvalue
            nearest = min(cover_pairs, key=lambda q: abs(q.eigenvalue - target))
            assert abs(nearest.eigenvalue - target) < 1e-6
            matches = [q for q in cover_pairs if abs(q.eigenvalue - target) < 1e-6]
            assert k * pair.winding in [q.winding for q in matches]

    def test_covering_multiplicity_of_simple_eigenvalues(self):
        rng = np.random.default_rng(13)
        loop = random_loop(rng, bandwidth=1)
        for k in (2, 3, 4):
            op = assemble(cover_operator(loop, k), 24 * k)
            pairs = eigen_window(op, -8.0 * k, 8.0 * k)
            for pair in pairs:
                if pair.multiplicity != 1:
                    continue
                import math

                expected = math.gcd(k, pair.winding) if pair.winding != 0 else k
                assert covering_multiplicity(pair, k) == expected


class TestEigenfunctionQuality:
    def test_residuals_and_nonvanishing(self):
        rng = np.random.default_rng(21)
        loop = random_loop(rng, bandwidth=2)
        pairs = eigen_window(assemble(loop, 32), -20.0, 20.0)
        for p in pairs:
            assert p.residual < 1e-8
            mags = np.abs(p.samples)
            assert mags.min() > 1e-8 * mags.max()

    def test_residuals_equal_einsum_reference(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            loop = random_loop(rng, int(rng.integers(1, 4)), float(rng.uniform(0.5, 3.0)))
            M = int(rng.choice([16, 24, 32]))
            op = assemble(loop, M)
            pairs = eigen_window(op, -30.0, 30.0)
            N = len(pairs[0].samples)
            coeffs = np.array([p.coeffs for p in pairs])
            f = _on_grid(coeffs, N)
            df = _on_grid(coeffs * (2j * np.pi * np.arange(-M, M + 1))[:, None], N)
            Af = -df @ J0.T - np.einsum("tij,ptj->pti", loop(np.arange(N) / N), f)
            lams = np.array([p.eigenvalue for p in pairs])
            residuals = np.abs(Af - lams[:, None, None] * f).max(axis=(1, 2))
            residuals /= np.maximum(np.abs(f).max(axis=(1, 2)), 1e-300)
            assert np.array_equal(residuals, [p.residual for p in pairs])

    def test_evaluate_matches_samples(self):
        loop = constant_loop(np.eye(2))
        pairs = eigen_window(assemble(loop, 8), 0.0, TWO_PI)
        p = pairs[0]
        n = len(p.samples)
        again = evaluate_coefficients(p.coeffs, np.arange(n) / n)
        assert np.allclose(again, p.samples)
        rng = np.random.default_rng(34)
        for _ in range(3):
            for p in eigen_window(assemble(random_loop(rng, bandwidth=2), 32), -20.0, 20.0):
                n = len(p.samples)
                again = evaluate_coefficients(p.coeffs, np.arange(n) / n)
                assert np.abs(again - p.samples).max() <= 1e-12 * np.abs(again).max()

    def test_shifted_evaluation_off_the_grid(self):
        # covering_multiplicity evaluates f(t + 1/d) on the sample grid from
        # the coefficients; for d = 3 the shift falls between grid points
        rng = np.random.default_rng(35)
        k = 3
        op = assemble(cover_operator(random_loop(rng, bandwidth=1), k), 24 * k)
        pairs = eigen_window(op, -8.0 * k, 8.0 * k)
        n = len(pairs[0].samples)
        assert n % k != 0
        ts = np.arange(n) / n
        M = op.mode_cutoff
        phase = np.exp(TWO_PI * 1j * np.arange(-M, M + 1) / k)[:, None]
        for p in pairs:
            reference = evaluate_coefficients(p.coeffs, ts + 1.0 / k)
            shifted = _on_grid(p.coeffs * phase, n)
            scale = np.abs(p.samples).max()
            assert np.abs(shifted[:, 0] + 1j * shifted[:, 1] - reference).max() <= 1e-12 * scale
            periodic = np.abs(reference - p.samples).max() < 1e-6 * scale
            assert covering_multiplicity(p, k) == (k if periodic else 1)


class TestIntegrator:
    def test_constant_zero(self):
        traj = integrate_linear_ode(np.zeros((2, 2)), [1.0, -2.0], 0.0, 5.0, 200)
        assert np.allclose(traj.values, traj.values[0])

    def test_scalar_exponential(self):
        traj = integrate_linear_ode(np.array([[1.0]]), [1.0], 0.0, 1.0, 1000)
        assert abs(traj.values[-1, 0] - np.e) < 1e-8

    def test_min_steps(self):
        with pytest.raises(InputError, match="at least 100"):
            integrate_linear_ode(np.zeros((1, 1)), [1.0], 0.0, 1.0, 50)

    def test_rk4_order(self):
        # halving the step should cut the error by about 2^4
        def err(steps):
            traj = integrate_linear_ode(np.array([[1.0]]), [1.0], 0.0, 1.0, steps)
            return abs(traj.values[-1, 0] - np.e)

        ratio = err(100) / err(200)
        assert 12.0 < ratio < 20.0


class TestFitDecay:
    def test_exact_exponential(self):
        s = np.linspace(0.0, 10.0, 60)
        vals = np.exp(-2.0 * s)[:, None] * np.array([1.0, 0.0])
        fit = fit_decay(Trajectory(s, vals))
        assert abs(fit.lambda_fit + 2.0) < 1e-9
        assert np.allclose(fit.direction_fit, [1.0, 0.0])
        assert fit.residual < 1e-9

    def test_symmetric_matrix_eigenvector(self):
        S = np.array([[-1.0, 0.3], [0.3, -2.0]])
        lams, vecs = np.linalg.eigh(S)
        v0 = vecs[:, 1]  # the slow stable eigenvector
        traj = integrate_linear_ode(S, v0, 0.0, 15.0, 3000)
        fit = fit_decay(traj)
        assert abs(fit.lambda_fit - lams[1]) < 1e-6
        direction_err = min(
            np.linalg.norm(fit.direction_fit - vecs[:, 1]),
            np.linalg.norm(fit.direction_fit + vecs[:, 1]),
        )
        assert direction_err < 1e-6

    def test_decaying_perturbation(self):
        # A(s) = diag(-1, -3) + e^{-s} off-diagonal: the slow rate wins
        def A(s):
            return np.diag([-1.0, -3.0]) + np.exp(-s) * np.array([[0.0, 0.4], [0.4, 0.0]])

        traj = integrate_linear_ode(A, [1.0, 0.7], 0.0, 18.0, 4000)
        fit = fit_decay(traj)
        assert abs(fit.lambda_fit + 1.0) < 1e-3
        assert np.linalg.norm(fit.direction_fit - np.array([1.0, 0.0])) < 1e-2

    def test_too_few_samples(self):
        s = np.linspace(0, 1, 10)
        with pytest.raises(InputError, match="trajectory unusable"):
            fit_decay(Trajectory(s, np.ones((10, 2))))

    def test_samples_whose_squares_overflow(self):
        # the largest sample is 3.8e210, finite, but its square is not
        s = np.linspace(0.0, 10.0, 40)
        vals = 1e-50 * np.exp(60.0 * s)[:, None] * np.ones(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_decay(Trajectory(s, vals))
        assert abs(fit.lambda_fit - 60.0) < 1e-9
        assert np.allclose(fit.direction_fit, np.ones(2) / math.sqrt(2.0))
        assert fit.residual < 1e-9

    def test_samples_whose_squares_underflow(self):
        # e^(-40 s) reaches 1.9e-174 at s = 10, finite and far above the
        # 1e-290 floor, but its square is 0.0
        traj = integrate_linear_ode(np.array([[-40.0]]), [1.0], 0.0, 10.0, 4000)
        assert traj.values.min() > 1e-174
        fit = fit_decay(traj)
        assert fit.lambda_fit == pytest.approx(-40.0, rel=1e-6)
        assert fit.direction_fit.tolist() == [1.0]
        # a two-entry sample below 1e-154 keeps the norm of its scaled copy
        s = np.linspace(0.0, 10.0, 40)
        vals = 1e-150 * np.exp(-30.0 * s)[:, None] * np.array([3.0, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_decay(Trajectory(s, vals))
        assert abs(fit.lambda_fit + 30.0) < 1e-9
        assert np.allclose(fit.direction_fit, [0.6, 0.8])
        assert fit.residual < 1e-9

    def test_small_samples_rescaled_alone(self):
        # a sample above the rescaling threshold keeps np.linalg.norm's norm
        # bit for bit, so the fit of a trajectory without small samples is
        # the plain least-squares fit of log np.linalg.norm
        s = np.linspace(0.0, 10.0, 40)
        vals = np.exp(-3.0 * s)[:, None] * np.array([0.3, -0.7])
        norms = np.linalg.norm(vals, axis=1)
        slope, _ = np.polyfit(s[20:], np.log(norms[20:]), 1)
        assert fit_decay(Trajectory(s, vals)).lambda_fit == float(slope)

    def test_zero_sample_still_refused(self):
        s = np.linspace(0.0, 5.0, 40)
        vals = np.exp(-s)[:, None] * np.ones(2)
        vals[30] = 0.0
        with pytest.raises(InputError, match="trajectory unusable: norm underflow"):
            fit_decay(Trajectory(s, vals))

    def test_norm_overflow_refused(self):
        s = np.linspace(0.0, 5.0, 40)
        vals = np.full((40, 2), 1.5e308)
        with pytest.raises(InputError, match="trajectory unusable: norm overflow"):
            fit_decay(Trajectory(s, vals))


def integrate_reference(A, v0, s0, s1, steps):
    """Classical RK4 one vector step at a time, four calls of A per step: the
    reference for integrate_linear_ode's step matrices."""
    if not callable(A):
        mat = np.asarray(A, dtype=float)
        A = lambda s: mat  # noqa: E731
    v = np.asarray(v0, dtype=float).copy()
    h = (s1 - s0) / steps
    ss = np.empty(steps + 1)
    out = np.empty((steps + 1, len(v)))
    ss[0] = s0
    out[0] = v
    for i in range(steps):
        s = s0 + i * h
        k1 = A(s) @ v
        k2 = A(s + h / 2) @ (v + h / 2 * k1)
        k3 = A(s + h / 2) @ (v + h / 2 * k2)
        k4 = A(s + h) @ (v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ss[i + 1] = s0 + (i + 1) * h
        out[i + 1] = v
    return Trajectory(ss, out)


def decay_problem(rng):
    """v' = (S + e^{-s} B) v with its slowest rate known, drawn as in
    acceptance criterion 14: (A, v0, rate)."""
    dim = int(rng.integers(2, 5))
    eigenvalues = [-0.5 - rng.uniform(0, 1.0)]
    for _ in range(dim - 1):
        eigenvalues.append(eigenvalues[-1] - rng.uniform(1.0, 1.5))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    S = q @ np.diag(eigenvalues) @ q.T
    B = rng.normal(size=(dim, dim))
    B = (B + B.T) / 2
    v0 = rng.normal(size=dim)
    if abs(v0 @ q[:, 0]) < 0.1:
        v0 += 0.5 * q[:, 0]
    return (lambda s: S + np.exp(-s) * B), v0, eigenvalues[0]


def assert_matches_reference(traj, ref):
    assert np.array_equal(traj.s, ref.s)
    scale = np.abs(ref.values).max(axis=1)
    assert (np.abs(traj.values - ref.values).max(axis=1) <= 1e-12 * scale).all()


class TestStepMatrices:
    def test_decay_problems_match_vector_reference(self):
        rng = np.random.default_rng(1313)
        for _ in range(300):
            A, v0, rate = decay_problem(rng)
            traj = integrate_linear_ode(A, v0, 0.0, 20.0, 400)
            ref = integrate_reference(A, v0, 0.0, 20.0, 400)
            assert_matches_reference(traj, ref)
            fit, fit_ref = fit_decay(traj), fit_decay(ref)
            assert abs(fit.lambda_fit - fit_ref.lambda_fit) <= 1e-12
            assert np.abs(fit.direction_fit - fit_ref.direction_fit).max() <= 1e-12
            assert abs(fit.lambda_fit - rate) < 1e-3

    @pytest.mark.parametrize("steps, s0, s1", [(100, 0.0, 3.0), (257, 0.0, 3.0), (257, 2.0, -1.0)])
    def test_constant_and_varying_match_reference(self, steps, s0, s1):
        S = np.array([[-1.0, 0.3, 0.0], [0.3, -2.0, 0.1], [0.0, 0.1, 0.5]])

        def A(s):
            return S + np.array([[np.sin(s), 0.0, 0.2], [0.0, np.cos(s), 0.0], [0.2, 0.0, 0.0]])

        v0 = [1.0, -0.5, 0.25]
        for field in (S, A):
            traj = integrate_linear_ode(field, v0, s0, s1, steps)
            assert_matches_reference(traj, integrate_reference(field, v0, s0, s1, steps))

    def test_calls_A_only_at_half_step_points(self):
        steps, s0, s1 = 3 * _ODE_BLOCK + 5, 0.5, 4.0
        calls = []

        def A(s):
            calls.append(s)
            return np.array([[-1.0, s], [0.0, -2.0]])

        integrate_linear_ode(A, [1.0, 1.0], s0, s1, steps)
        assert len(calls) <= 2 * steps + math.ceil(steps / _ODE_BLOCK)
        h = (s1 - s0) / steps
        grid = (s0 + np.arange(2 * steps + 1) * (h / 2)).tolist()
        assert sorted(set(calls)) == grid

    def test_transient_memory_is_bounded_by_the_block(self):
        mat = np.diag([-1.0, -1.0, -0.5, -0.2])
        mat[0, 1] = mat[1, 0] = 0.1
        steps, n = 200_000, 4
        tracemalloc.start()
        try:
            traj = integrate_linear_ode(lambda s: mat, np.ones(n), 0.0, 1.0, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.values.nbytes == (steps + 1) * n * 8
        assert peak < 2 * traj.values.nbytes


class TestIntegratorInputs:
    @pytest.mark.parametrize("steps", [150.0, True, "150", None])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(InputError, match="steps must be an integer"):
            integrate_linear_ode(np.zeros((1, 1)), [1.0], 0.0, 1.0, steps)

    def test_numpy_integer_steps(self):
        traj = integrate_linear_ode(np.zeros((1, 1)), [1.0], 0.0, 1.0, np.int64(150))
        assert traj.values.shape == (151, 1)

    @pytest.mark.parametrize(
        "s0, s1", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), ("0", 1.0), (-1e308, 1e308)]
    )
    def test_interval_ends_must_be_finite(self, s0, s1):
        with pytest.raises(InputError, match="interval ends must be finite"):
            integrate_linear_ode(np.zeros((1, 1)), [1.0], s0, s1, 100)

    @pytest.mark.parametrize("v0", [[np.nan, 1.0], [np.inf], [], [[1.0, 2.0]], 1.0, ["a"]])
    def test_v0_must_be_a_finite_vector(self, v0):
        with pytest.raises(InputError, match="v0 must be a finite, non-empty vector"):
            integrate_linear_ode(np.zeros((2, 2)), v0, 0.0, 1.0, 100)

    @pytest.mark.parametrize(
        "value",
        [np.zeros((3, 3)), np.zeros(2), 1.0, np.zeros((2, 2), dtype=complex), [["a", "b"], ["c", "d"]]],
    )
    def test_A_must_be_a_real_square_matrix(self, value):
        with pytest.raises(InputError, match="must be a real 2x2 matrix"):
            integrate_linear_ode(lambda s: value, [1.0, 0.0], 0.0, 1.0, 100)
        with pytest.raises(InputError, match="must be a real 2x2 matrix"):
            integrate_linear_ode(value, [1.0, 0.0], 0.0, 1.0, 100)

    def test_A_of_changing_shape(self):
        def A(s):
            return np.zeros((2, 2)) if s < 0.5 else np.zeros((3, 3))

        with pytest.raises(InputError, match="must be a real 2x2 matrix"):
            integrate_linear_ode(A, [1.0, 0.0], 0.0, 1.0, 100)

    def test_A_must_be_finite(self):
        def A(s):
            return np.diag([-1.0, np.nan if s > 3.0 else -2.0])

        with pytest.raises(InputError, match=r"A\(s\) is not finite at s = 3.0"):
            integrate_linear_ode(A, [1.0, 0.0], 0.0, 4.0, 1000)
        with pytest.raises(InputError, match=r"A\(s\) is not finite at s = 0.0"):
            integrate_linear_ode(np.diag([np.inf, 1.0]), [1.0, 0.0], 0.0, 1.0, 100)


class TestStepStability:
    def test_step_that_amplifies_a_decaying_mode_refused(self):
        # h = 0.1 puts h lam = -4 where |R| = 5: the steps would end at 7.9e69
        message = (
            "integration step unstable at s = 0.0: RK4 with h = 0.1 amplifies a decaying "
            "mode of A(s); 154 steps or more damp it"
        )
        with pytest.raises(InputError, match=re.escape(message)):
            integrate_linear_ode(np.array([[-40.0]]), [1.0], 0.0, 10.0, 100)
        traj = integrate_linear_ode(np.array([[-40.0]]), [1.0], 0.0, 10.0, 154)
        assert 0 < traj.values[-1, 0] < 1
        fit = fit_decay(integrate_linear_ode(np.array([[-40.0]]), [1.0], 0.0, 5.0, 2000))
        assert fit.lambda_fit == pytest.approx(-40.0, rel=1e-6)

    def test_refusal_names_the_first_unstable_point(self):
        def A(s):
            return np.diag([-1.0, -40.0 if s > 5.0 else -2.0])

        with pytest.raises(InputError, match=r"unstable at s = 5\.05.*154 steps or more"):
            integrate_linear_ode(A, [1.0, 1.0], 0.0, 10.0, 100)

    @pytest.mark.parametrize("rate", [40.0, 0.0])
    def test_growing_and_steady_fields_pass(self, rate):
        # no mode decays, so a large step amplifies nothing RK4 should damp
        traj = integrate_linear_ode(np.array([[rate, 0.0], [0.0, 0.0]]), [1.0, 1.0], 0.0, 10.0, 100)
        assert traj.values[-1, 1] == 1.0

    def test_rotation_in_a_decaying_field(self):
        # eigenvalues -30 +- 30i: |h lam| = 4.2 at 100 steps, 2.1 at 200
        A = np.array([[-30.0, 30.0], [-30.0, -30.0]])
        with pytest.raises(InputError, match="unstable at s = 0.0"):
            integrate_linear_ode(A, [1.0, 0.0], 0.0, 10.0, 100)
        traj = integrate_linear_ode(A, [1.0, 0.0], 0.0, 10.0, 240)
        assert np.abs(traj.values[-1]).max() < 1e-100


class TestFitDecayInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values(self, bad):
        s = np.linspace(0.0, 5.0, 40)
        vals = np.exp(-s)[:, None] * np.ones(2)
        vals[25, 1] = bad
        with pytest.raises(InputError, match="trajectory unusable: non-finite sample"):
            fit_decay(Trajectory(s, vals))

    def test_non_finite_grid_before_grid_check(self, capfd):
        s = np.linspace(0.0, 5.0, 40)
        s[30] = np.nan
        vals = np.exp(-s)[:, None] * np.ones(2)
        vals[30] = 1.0
        with pytest.raises(InputError, match="trajectory unusable: non-finite sample"):
            fit_decay(Trajectory(s, vals))
        assert capfd.readouterr().err == ""

    def test_grid_stepping_back(self):
        s = np.linspace(0.0, 5.0, 40)
        s[20] = s[19] - 0.01
        with pytest.raises(InputError, match=r"^trajectory unusable: s-grid must be increasing$"):
            fit_decay(Trajectory(s, np.exp(-s)[:, None] * np.ones(2)))


class TestLoopFiles:
    def test_round_trip_and_report(self):
        data = {"modes": [{"n": 0, "cos": [[1.0, 0.0], [0.0, 1.0]], "sin": [[0.0, 0.0], [0.0, 0.0]]}]}
        loop = loop_from_dict(data)
        report = spectrum_report(loop, 32, -2.0, 2.0)
        assert report["alpha_minus"] == 0
        assert report["cz"] == 1
        assert report["eigenvalues"] == pytest.approx([-1.0, -1.0], abs=1e-9)

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="'extra'"):
            loop_from_dict({"modes": [], "extra": 1})
        with pytest.raises(InputError, match="'bad'"):
            loop_from_dict({"modes": [{"n": 0, "cos": [[1, 0], [0, 1]], "bad": 2}]})


class TestOneDecomposition:
    """Each discretized operator is decomposed once, however many of
    eigen_window and alphas_from_spectrum read it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    def test_spectrum_report(self, calls):
        loop = random_loop(np.random.default_rng(7), bandwidth=1, scale=0.5)
        spectrum_report(loop, 16, -5.0, 5.0)
        assert calls == {"eigh": 1, "eigvalsh": 0}

    def test_orbit_from_loop_per_cover(self, calls):
        loop = random_loop(np.random.default_rng(7), bandwidth=1, scale=0.5)
        orbit_from_loop("o", loop, (1, 2, 3), 8)
        assert calls == {"eigh": 3, "eigvalsh": 0}


class TestOneWindowPerDiscretization:
    """The half-band window the alpha rule reads is computed once per
    discretization, however many alpha records read it: one call of the
    window helper that ``half_band_window`` shares with ``eigen_window``."""

    @pytest.fixture
    def windows(self, monkeypatch):
        calls = []
        real = spectrum._window

        def counted(op, lo, hi):
            calls.append((op.mode_cutoff, op.modes.step))
            return real(op, lo, hi)

        monkeypatch.setattr(spectrum, "_window", counted)
        return calls

    def test_alphas_from_spectrum_twice(self, windows):
        op = assemble(random_loop(np.random.default_rng(7), bandwidth=1, scale=0.5), 16)
        assert alphas_from_spectrum(op) == alphas_from_spectrum(op)
        assert windows == [(16, 1)]

    def test_orbit_from_loop_one_per_block(self, windows):
        loop = random_loop(np.random.default_rng(7), bandwidth=1, scale=0.5)
        orbit_from_loop("o", loop, range(1, 5), 8)
        # B(0, 1), B(1, 2), B(1, 3), B(1, 4)
        assert sorted(windows) == [(8, 1), (16, 2), (24, 3), (32, 4)]


class TestHalfBandWindow:
    """The alpha rule's window holds eigenvalues and windings only: it
    samples no loop, and each cover operator is built once per call."""

    def test_equals_eigen_window_on_the_same_window(self):
        rng = np.random.default_rng(2206)
        for _ in range(30):
            loop = random_loop(rng, int(rng.integers(1, 4)), float(rng.uniform(0.5, 4.0)))
            q = int(rng.integers(1, 5))
            op = _floquet_block(cover_operator(loop, q), int(rng.choice([8, 16])), int(rng.integers(q)), q)
            half = np.pi * op.mode_cutoff / 2
            pairs = eigen_window(op, -half, half)
            lams, winds = op.half_band_window
            assert np.array_equal(lams, [p.eigenvalue for p in pairs])
            assert winds.tolist() == [p.winding for p in pairs]

    def test_orbit_from_loop_samples_no_loop(self, monkeypatch):
        calls = []
        real = SpectralLoop.__call__

        def counted(self, ts):
            calls.append(len(ts))
            return real(self, ts)

        monkeypatch.setattr(SpectralLoop, "__call__", counted)
        loop = random_loop(np.random.default_rng(7), bandwidth=1, scale=0.5)
        orbit_from_loop("o", loop, range(1, 5), 8)
        assert calls == []
        eigen_window(assemble(loop, 8), -1.0, 1.0)  # the residual samples the loop
        assert calls == [8 * 17]

    def test_orbit_from_loop_builds_each_cover_once(self, monkeypatch):
        calls = []
        real = spectrum.cover_operator

        def counted(loop, k):
            calls.append(k)
            return real(loop, k)

        monkeypatch.setattr(spectrum, "cover_operator", counted)
        loop = random_loop(np.random.default_rng(7), bandwidth=1, scale=0.5)
        orbit_from_loop("o", loop, range(1, 5), 8)
        assert sorted(calls) == [1, 2, 3, 4]


class TestFloquetBlockCount:
    """orbit_from_loop decomposes one block per reduced twist r/q with
    r <= q/2, shared by every cover it serves."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        real = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @pytest.mark.parametrize(
        "covers, blocks", [(range(1, 5), 4), ((6,), 4), (range(1, 17), 41)]
    )
    def test_blocks_per_call(self, eigh_calls, covers, blocks):
        loop = random_loop(np.random.default_rng(7), bandwidth=1, scale=0.5)
        orbit_from_loop("o", loop, covers, 8)
        assert len(eigh_calls) == blocks
        assert max(eigh_calls) == 2 * (2 * 8 + 1)


class TestFloquetBlocks:
    # the largest |split - dense| / (1 + |lam|) over the 1,789 cover operators
    # of the 400-loop sweep and the two stress sets was 2.0e-13
    DENSE_TOL = 1e-12

    @staticmethod
    def dense_eigenvalues(cover, M):
        """The test-local dense reference: one eigh of the whole Galerkin
        matrix on -M..M, no split by residue classes."""
        return np.linalg.eigh(spectrum._galerkin(cover, range(-M, M + 1)))[0]

    def test_split_path_matches_the_dense_reference(self):
        rng = np.random.default_rng(606)
        tables = 0
        for _ in range(60):
            loop = random_loop(rng, int(rng.integers(1, 4)), float(rng.uniform(0.5, 4.0)))
            lo = int(rng.integers(1, 7))
            covers = tuple(range(lo, int(rng.integers(lo, 7)) + 1))
            M = int(rng.choice([8, 16]))
            for k in covers:
                cover = cover_operator(loop, k)
                op = assemble(cover, M * k)
                assert op.period == k
                dense = self.dense_eigenvalues(cover, M * k)
                assert np.all(np.abs(op.eigh[0] - dense) <= self.DENSE_TOL * (1 + np.abs(dense))), (covers, M, k)
            table = block_cover_table(loop, covers, M)
            if isinstance(table, dict):
                assert full_cover_table(loop, covers, M) == table, (covers, M)
            tables += isinstance(table, dict)
        assert tables >= 50

    def test_refusals_match_the_stated_messages(self):
        loop = random_loop(np.random.default_rng(9), bandwidth=3, scale=0.5)
        for covers, M, message in (
            ((1, 2), 6, "cutoff below loop bandwidth: need mode_cutoff >= 7, got 6"),
            ((4, 1), 5, "cutoff below loop bandwidth: need mode_cutoff >= 7, got 5"),
            ((2, 17), 32, "cutoff too large: need mode_cutoff <= 512, got 544"),
            ((3,), 171, "cutoff too large: need mode_cutoff <= 512, got 513"),
        ):
            assert block_cover_table(loop, covers, M) == full_cover_table(loop, covers, M) == message
        with pytest.raises(InputError, match="cover multiplicity must be a positive integer"):
            orbit_from_loop("o", loop, (1, 0), 8)

    def test_the_paths_agree_on_a_pure_row_refusal(self):
        # case 245 of the rng-607 stress loops: the dense matrix of cover 3 at
        # cutoff 24 answered (1, 2) with eigenvectors that mix the classes 1
        # and 2 mod 3, while the block B(1, 3) refuses; split, both refuse
        loop = loop_from_dict(self.STRESS_607_245)
        message = "eigenfunction not resolved: Re F and Im F of one eigenspace wind -1 and -2 times"
        assert block_cover_table(loop, (3,), 8) == full_cover_table(loop, (3,), 8) == message
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            alphas_from_spectrum(assemble(cover_operator(loop, 3), 24))
        dense = self.dense_eigenvalues(cover_operator(loop, 3), 24)
        assert np.all(np.abs(assemble(cover_operator(loop, 3), 24).eigh[0] - dense) <= self.DENSE_TOL * (1 + np.abs(dense)))
        # both paths answer from cutoff 10 on
        assert block_cover_table(loop, (3,), 10) == full_cover_table(loop, (3,), 10) == {3: (1, 2)}

    STRESS_607_245 = {
        "modes": [
            {"n": 0, "cos": [[0.3901146215318469, -1.3218752679019048], [-1.3218752679019048, 7.342001718098451]]},
            {
                "n": 1,
                "cos": [[-8.505027068411168, 1.0129951849364476], [1.0129951849364476, 16.142579750331656]],
                "sin": [[-3.9511830520474507, -5.5358251627473365], [-5.5358251627473365, 3.706368710800299]],
            },
            {
                "n": 2,
                "cos": [[14.040346501658236, -10.904040577919526], [-10.904040577919526, -1.419605731541324]],
                "sin": [[8.37385301255086, -10.314335103012569], [-10.314335103012569, -8.912074709163585]],
            },
        ]
    }

    def test_constant_loop_covers(self):
        for c in (np.eye(2), np.diag([-1.0, 1.0]), 2.5 * np.eye(2)):
            loop = constant_loop(c)
            covers = range(1, 7)
            assert block_cover_table(loop, covers, 8) == full_cover_table(loop, covers, 8)

    def test_large_covers(self):
        loop = random_loop(np.random.default_rng(16), bandwidth=2)
        start = time.perf_counter()
        orbit = orbit_from_loop("o", loop, range(1, 17), 32)
        elapsed = time.perf_counter() - start
        assert sorted(orbit.cover_table) == list(range(1, 17))
        assert elapsed < 20.0, f"covers 1..16 at cutoff 32 took {elapsed:.1f}s"
        assert block_cover_table(loop, (7, 8), 16) == full_cover_table(loop, (7, 8), 16)


class TestResidueSplit:
    """``assemble`` decomposes a loop whose frequencies share a factor g by
    residue classes mod g: classes R <= g/2 by one eigh per block size, the
    class -R read off R as its conjugate; a constant loop, one mode a
    block.  Where g = 1 the matrix is one block, decomposed whole."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_one_eigh_per_block_size(self, eigh_calls):
        loop = random_loop(np.random.default_rng(7), bandwidth=1, scale=0.5)
        assemble(loop, 16).eigh
        assemble(cover_operator(loop, 3), 28).eigh  # 19 modes in each class
        assemble(cover_operator(loop, 2), 20).eigh  # 21 even modes, 20 odd
        assemble(constant_loop(np.eye(2)), 32).eigh  # modes 0..32, one each
        assert eigh_calls == [(66, 66), (2, 38, 38), (1, 42, 42), (1, 40, 40), (33, 2, 2)]

    @pytest.mark.parametrize("k, M", [(2, 16), (3, 28), (4, 33), (6, 40)])
    def test_eigenvectors_over_all_modes(self, k, M):
        # each column is a unit eigenvector of the whole matrix, zero off one
        # residue class, and the columns are orthonormal
        loop = random_loop(np.random.default_rng(k), bandwidth=2, scale=2.0)
        op = assemble(cover_operator(loop, k), M)
        evals, evecs = op.eigh
        scale = np.abs(op.matrix).max()
        assert np.all(np.diff(evals) >= 0)
        assert np.abs(op.matrix @ evecs - evecs * evals).max() <= 1e-12 * scale
        assert np.abs(evecs.conj().T @ evecs - np.eye(len(evals))).max() <= 1e-12
        support = np.abs(evecs.reshape(2 * M + 1, 2, -1)).max(axis=1) > 0
        residues = [set((np.flatnonzero(col) - M) % k) for col in support.T]
        assert all(len(r) == 1 for r in residues)
        assert sorted(r.pop() for r in residues) == sorted(np.arange(-M, M + 1).repeat(2) % k)

    def test_the_conjugate_class_is_read_off(self):
        # the class -R holds R's eigenvalues bit for bit, and its
        # eigenvectors are C F: c_n -> conj(c_{-n})
        loop = random_loop(np.random.default_rng(31), bandwidth=3, scale=1.0)
        M = 25
        evals, evecs = assemble(cover_operator(loop, 5), M).eigh
        F = evecs.reshape(2 * M + 1, 2, -1)
        home = np.array([np.flatnonzero(np.abs(F[:, :, j]).max(axis=1))[0] for j in range(len(evals))]) % 5
        for R in (1, 2):
            mine, theirs = np.flatnonzero(home == R), np.flatnonzero(home == 5 - R)
            assert np.array_equal(evals[mine], evals[theirs])
            assert np.array_equal(F[::-1, :, theirs], F[:, :, mine].conj())

    @pytest.mark.parametrize("M", [16, 32])
    @pytest.mark.parametrize(
        "matrix", [np.eye(2), 1.5 * np.eye(2), 0.0 * np.eye(2), np.diag([0.3, -0.7])], ids=["identity", "1.5", "0", "diag"]
    )
    def test_constant_loop_prints_the_dense_bytes(self, tmp_path, capsys, matrix, M):
        # the spectrum subcommand on a constant loop prints what a dense
        # decomposition of the whole matrix gives: eigenvalues bit for bit,
        # windings, multiplicities and the alpha record
        data = {"modes": [{"n": 0, "cos": matrix.tolist()}]}
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code = cli.main(["spectrum", str(path), "--cutoff", str(M)])
        out, err = capsys.readouterr()
        loop = loop_from_dict(data)
        modes = range(-M, M + 1)
        dense = spectrum.OperatorDiscretization(loop, M, spectrum._galerkin(loop, modes), modes)
        assert assemble(loop, M).period == 2 * M + 1 and dense.period == 1
        assert np.array_equal(assemble(loop, M).eigh[0], np.linalg.eigh(dense.matrix)[0])
        try:
            pairs = eigen_window(dense, -10.0, 10.0)
            record = alphas_from_spectrum(dense)
        except InputError as exc:
            assert (code, out, err) == (1, "", f"error: {exc}\n")
            return
        expected = {
            "eigenvalues": [p.eigenvalue for p in pairs],
            "windings": [p.winding for p in pairs],
            "multiplicities": [p.multiplicity for p in pairs],
            "alpha_minus": record.alpha_minus,
            "alpha_plus": record.alpha_plus,
            "parity": record.parity,
            "cz": record.cz,
        }
        assert (code, err) == (0, "")
        assert out == canonical_dumps(expected)


class TestCertifiedWindings:
    """Every eigenfunction winding is certified from its coefficients
    (``winding.windings``).  A window that holds a winding no sample count
    certifies is refused, and so is a pure Floquet eigenspace whose Re F and
    Im F wind apart, where the sampled rule read a table."""

    # perfbench's random_loop at bandwidth 3, scale 8: covers 2 and 3 read
    # {2: (1, 1), 3: (1, 2)} at every cutoff from 10 to 48, and the sampled
    # rule read that table at cutoffs 8 and 9 too
    LOOP = {
        "modes": [
            {"n": 0, "cos": [[7.027422367889216, 0.10561696805760062], [0.10561696805760062, 3.3409085826661067]]},
            {
                "n": 1,
                "cos": [[-9.820598234417648, 3.0474283405833944], [3.0474283405833944, 4.53741749567238]],
                "sin": [[16.764807819027688, 0.8749284137091686], [0.8749284137091686, -11.710712915132547]],
            },
            {
                "n": 2,
                "cos": [[-2.811184586348543, 12.257104465627403], [12.257104465627403, -10.231871653347268]],
                "sin": [[6.744303418708508, 8.387538889712559], [8.387538889712559, 6.520288925920008]],
            },
            {
                "n": 3,
                "cos": [[1.0626855295071531, -6.783818120748378], [-6.783818120748378, -0.9385761642971115]],
                "sin": [[-4.46591047329515, 2.260076117386706], [2.260076117386706, 1.544852917078298]],
            },
        ]
    }

    def test_an_uncertified_winding_is_refused(self):
        loop = loop_from_dict(self.LOOP)
        message = "eigenfunction not resolved: no sample count up to 16384 certifies its winding"
        assert block_cover_table(loop, (2, 3), 8) == message
        assert block_cover_table(loop, (2, 3), 12) == {2: (1, 1), 3: (1, 2)}

    def test_pure_rows_must_wind_alike(self):
        loop = loop_from_dict(self.LOOP)
        message = "eigenfunction not resolved: Re F and Im F of one eigenspace wind 1 and 2 times"
        assert block_cover_table(loop, (2, 3), 9) == message
        # the block B(1, 3) holds the pair: its pairing vanishes on every column
        op = _floquet_block(cover_operator(loop, 3), 9, 1, 3)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            op.half_band_window
        _, pure, turned = spectrum._real_coefficients(op.eigh[1], op.mode_cutoff)
        assert len(pure) == len(turned) == len(op.eigh[0])


def reference_report(loop, M, lo, hi):
    """The spectrum report as ``eigen_window`` and ``alphas_from_spectrum``
    on one ``assemble`` compose it: the reference for ``spectrum_report``."""
    op = assemble(loop, M)
    pairs = eigen_window(op, lo, hi)
    record = alphas_from_spectrum(op)
    return {
        "eigenvalues": [p.eigenvalue for p in pairs],
        "windings": [p.winding for p in pairs],
        "multiplicities": [p.multiplicity for p in pairs],
        "alpha_minus": record.alpha_minus,
        "alpha_plus": record.alpha_plus,
        "parity": record.parity,
        "cz": record.cz,
    }


def report_outcome(report, loop, M, lo, hi):
    """The report's canonical JSON text, or its exception's type and message."""
    try:
        return canonical_dumps(report(loop, M, lo, hi))
    except Exception as exc:  # the type is compared too
        return type(exc), str(exc)


class TestReportMatchesTheReference:
    """``spectrum_report`` reads eigenvalues and windings from the kept
    verdicts, and answers or refuses as the composition of ``eigen_window``
    and ``alphas_from_spectrum`` does."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(4848)
        for M in (8, 16, 32):
            for _ in range(6):
                loop = random_loop(rng, int(rng.integers(1, 4)), float(rng.choice([0.5, 1, 2, 4, 8])))
                band = np.pi * M
                evals = assemble(loop, M).eigh[0]
                inner = evals[np.abs(evals) < band / 2]
                gap = int(np.argmax(np.diff(inner)))
                mid = (inner[gap] + inner[gap + 1]) / 2
                yield loop, M, -band / 4, band / 5  # inside the half band
                yield loop, M, -0.9 * band, 0.8 * band  # wider than it
                yield loop, M, mid - 1e-9, mid + 1e-9  # empty
                yield loop, M, -band - 1.0, 5.0  # past the band
        for c in (0.0, 2 * np.pi, 1.5):
            loop = constant_loop(c * np.eye(2))  # an eigenvalue at 0 unless c = 1.5
            for lo, hi in ((-10.0, 10.0), (1.0, 10.0), (5.0, 5.0)):
                yield loop, 16, lo, hi
        loop = loop_from_dict(TestCertifiedWindings.LOOP)
        for M in (14, 16, 17, 19, 22, 23):
            for lo, hi in ((-5.0, 5.0), (-1.0, 1.0)):
                yield cover_operator(loop, 3), M, lo, hi
        for M in (7, 8, 12):
            yield loop, M, -5.0, 5.0

    def test_every_case(self):
        outcomes = []
        for loop, M, lo, hi in self.cases():
            expected = report_outcome(reference_report, loop, M, lo, hi)
            assert report_outcome(spectrum_report, loop, M, lo, hi) == expected, (M, lo, hi)
            outcomes.append(expected)
        texts = [o for o in outcomes if isinstance(o, str)]
        messages = [o[1] for o in outcomes if not isinstance(o, str)]
        assert len(outcomes) >= 60 and len(texts) >= 30
        assert any('"eigenvalues": []' in t for t in texts)
        for fragment in (
            "window exceeds resolution",
            "window requires lo < hi",
            "degenerate orbit",
            "no sample count up to 16384 certifies its winding",
            "Re F and Im F of one eigenspace wind",
        ):
            assert any(fragment in m for m in messages), fragment


class TestOneCertificationPerEigenpair:
    """Each eigenpair's winding is certified once per discretization and
    its verdict kept: the report samples nothing, and ``eigen_window`` and
    the alpha rule read the same verdicts."""

    LOOP = staticmethod(lambda: random_loop(np.random.default_rng(7), bandwidth=2, scale=2.0))

    def test_report_samples_no_grid(self, monkeypatch):
        loop = self.LOOP()
        expected = reference_report(loop, 32, -10.0, 10.0)
        calls = []
        for owner, name in ((SpectralLoop, "__call__"), (spectrum, "_on_grid"), (spectrum, "EigenPair")):
            monkeypatch.setattr(owner, name, lambda *args, _name=name, **kwargs: calls.append(_name))
        assert spectrum_report(loop, 32, -10.0, 10.0) == expected
        assert calls == []

    @pytest.mark.parametrize("q, r", [(1, 0), (3, 1)])
    def test_each_row_certified_once(self, monkeypatch, q, r):
        op = _floquet_block(cover_operator(self.LOOP(), q), 8, r, q)
        rows = []
        real = spectrum.windings

        def counted(stack, low=0, memo=None):
            rows.extend(row.tobytes() for row in stack)
            return real(stack, low, memo)

        monkeypatch.setattr(spectrum, "windings", counted)
        first = eigen_window(op, -5.0, 5.0)
        if q == 1:
            alphas_from_spectrum(op)
        else:  # a block alone is no operator's spectrum: read its alpha window
            op.half_band_window
        again = eigen_window(op, -5.0, 5.0)
        wide = eigen_window(op, -0.9 * np.pi * op.mode_cutoff, 5.0)
        assert [p.winding for p in again] == [p.winding for p in first]
        evals, evecs = op.eigh
        certified = np.abs(evals) <= np.pi * op.mode_cutoff / 2
        certified |= (evals >= -0.9 * np.pi * op.mode_cutoff) & (evals <= 5.0)
        pure = spectrum._real_coefficients(evecs[:, certified], op.mode_cutoff)[1]
        assert len(rows) == len(set(rows)) == certified.sum() + len(pure)
        assert len(wide) > len(first) and (q == 1 or len(pure))

    @pytest.mark.parametrize("q, r", [(1, 0), (3, 1)])
    def test_rows_beyond_the_half_band_certified_once(self, monkeypatch, q, r):
        # a window beyond the half band certifies the rows in between too,
        # each once: the first window certifies the half band, the second
        # the rows from there to its own end
        op = _floquet_block(cover_operator(self.LOOP(), q), 8, r, q)
        rows = []
        real = spectrum.windings

        def counted(stack, low=0, memo=None):
            rows.extend(row.tobytes() for row in stack)
            return real(stack, low, memo)

        monkeypatch.setattr(spectrum, "windings", counted)
        evals, evecs = op.eigh
        band = np.pi * op.mode_cutoff
        for hi, window in ((band / 2, (-5.0, 5.0)), (0.9 * band, (0.6 * band, 0.9 * band))):
            assert len(eigen_window(op, *window))
            certified = (evals >= -band / 2) & (evals <= hi)
            pure = spectrum._real_coefficients(evecs[:, certified], op.mode_cutoff)[1]
            assert len(rows) == len(set(rows)) == certified.sum() + len(pure)
        # on B(0, 1) two rows lie between the half band and the window
        between = (evals > band / 2) & (evals < 0.6 * band)
        assert between.sum() == (2 if q == 1 else 0)

    def test_coefficients_do_not_depend_on_earlier_windows(self):
        # the window's columns, taken by index, give the coefficients bit for
        # bit, whichever windows were certified before
        loop = self.LOOP()
        fresh = eigen_window(assemble(loop, 16), -5.0, 5.0)
        op = assemble(loop, 16)
        eigen_window(op, -40.0, 30.0)
        alphas_from_spectrum(op)
        evals, evecs = op.eigh
        cols = np.flatnonzero((evals >= -5.0) & (evals <= 5.0))
        expected = spectrum._real_coefficients(evecs[:, cols], 16)[0]
        for pairs in (fresh, eigen_window(op, -5.0, 5.0)):
            assert np.array_equal([p.coeffs for p in pairs], expected)
            assert [p.residual for p in pairs] == [p.residual for p in fresh]

    def test_kept_verdicts_refuse_only_inside_the_window(self):
        op = assemble(self.LOOP(), 16)
        windings_in = [p.winding for p in eigen_window(op, -5.0, 5.0)]
        winds, turned = op._verdicts
        evals = op.eigh[0]
        inside = np.flatnonzero((evals >= -5.0) & (evals <= 5.0))
        outside = np.flatnonzero(np.isfinite(winds) & (evals > 5.0))
        assert len(inside) >= 2 and len(outside)
        winds[outside[0]] = np.nan
        assert [p.winding for p in eigen_window(op, -5.0, 5.0)] == windings_in
        # the alpha rule reads the same verdicts: the half band holds the row
        with pytest.raises(InputError, match="^eigenfunction not resolved: no sample count up to 16384 certifies its winding$"):
            alphas_from_spectrum(op)
        turned[inside[1]] = winds[inside[1]] + 1
        message = f"eigenfunction not resolved: Re F and Im F of one eigenspace wind {int(winds[inside[1]])} and {int(winds[inside[1]]) + 1} times"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            eigen_window(op, -5.0, 5.0)
        # an uncertified row is refused before one whose Im F winds apart
        winds[inside[-1]] = np.nan
        with pytest.raises(InputError, match="^eigenfunction not resolved: no sample count up to 16384"):
            eigen_window(op, -5.0, 5.0)

    @staticmethod
    def read(op, what):
        """Eigenvalues and windings of one read of ``op``, or its refusal."""
        try:
            if what == "half":
                return [x.tolist() for x in op.half_band_window]
            if what == "alphas":
                return alphas_from_spectrum(op)
            pairs = eigen_window(op, *what)
            return [p.eigenvalue for p in pairs], [p.winding for p in pairs]
        except InputError as exc:
            return str(exc)

    def test_kept_verdicts_never_change_an_answer(self):
        # any order of reads on one discretization gives what each read gives
        # on a fresh one, the refusals of an uncertified row (cutoff 8) and of
        # a pure pair winding apart (cutoff 9) among them
        base, refused = self.LOOP(), loop_from_dict(TestCertifiedWindings.LOOP)
        cases = [(lambda q=q, r=r: _floquet_block(cover_operator(base, q), 8, r, q), []) for q, r in ((1, 0), (3, 1))]
        cases.append((lambda: assemble(base, 16), ["alphas"]))
        cases += [
            (lambda M=M, q=q, r=r: _floquet_block(cover_operator(refused, q), M, r, q), [])
            for M in (8, 9)
            for q, r in ((1, 0), (2, 1), (3, 1))
        ]
        rng = np.random.default_rng(5353)
        messages = set()
        for build, extra in cases:
            band = np.pi * build().mode_cutoff
            reads = [(-5.0, 5.0), (0.6 * band, 0.9 * band), (-0.9 * band, -0.55 * band), (-band, band), "half"]
            reads += [tuple(np.sort(rng.uniform(-band, band, 2))) for _ in range(3)] + extra
            for _ in range(4):
                op = build()
                for i in rng.permutation(len(reads)):
                    got = self.read(op, reads[i])
                    assert got == self.read(build(), reads[i]), reads[i]
                    if isinstance(got, str):
                        messages.add(got)
        assert any("no sample count up to 16384" in m for m in messages)
        assert any("Re F and Im F of one eigenspace wind" in m for m in messages)


class TestWindingMonotonicity:
    """Under-resolved spectra whose windings decrease somewhere in the
    window are refused by both feeders of the alpha rule."""

    # at cutoff 8, cover 5, the windings read 3, 3, 5, 4, 4 near eigenvalue
    # 0.24 with residuals above 1
    LOOP = staticmethod(lambda: random_loop(np.random.default_rng(6), bandwidth=3, scale=8.0))
    MESSAGE = "winding 4 follows winding 5 in ascending eigenvalue"

    def test_cover_table_refused(self):
        with pytest.raises(InputError, match=self.MESSAGE):
            orbit_from_loop("o", self.LOOP(), (5,), 8)

    def test_full_operator_refused(self):
        op = assemble(cover_operator(self.LOOP(), 5), 40)
        with pytest.raises(InputError, match=self.MESSAGE):
            alphas_from_spectrum(op)

    def test_spectrum_command_exits_one(self, tmp_path, capsys):
        cover = cover_operator(self.LOOP(), 5)
        path = tmp_path / "loop.json"
        modes = [{"n": n, "cos": c.tolist(), "sin": d.tolist()} for n, c, d in cover.modes]
        path.write_text(json.dumps({"modes": modes}), encoding="utf-8")
        assert cli.main(["spectrum", str(path), "--cutoff", "40"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {self.MESSAGE}")


class TestCoverMultiplicityArgument:
    """``covering_multiplicity`` reads k as ``cover_operator`` does."""

    @staticmethod
    def pair():
        op = assemble(cover_operator(random_loop(np.random.default_rng(13), bandwidth=1), 2), 48)
        return next(p for p in eigen_window(op, -16.0, 16.0) if p.multiplicity == 1)

    @pytest.mark.parametrize(
        "k, message",
        [
            (True, "cover multiplicity must be an integer, got True"),
            (2.0, "cover multiplicity must be an integer, got 2.0"),
            (0, "cover multiplicity must be a positive integer, got 0"),
            (np.int64(-2), "cover multiplicity must be a positive integer, got -2"),
        ],
    )
    def test_refused_with_the_cover_operator_message(self, k, message):
        with pytest.raises(InputError) as err:
            covering_multiplicity(self.pair(), k)
        assert str(err.value) == message
        with pytest.raises(InputError) as err:
            cover_operator(constant_loop(np.eye(2)), k)
        assert str(err.value) == message

    def test_numpy_integer_is_the_int(self):
        pair = self.pair()
        for k in (1, 2, 4):
            assert covering_multiplicity(pair, np.int64(k)) == covering_multiplicity(pair, k)


class TestAlphaRecordFromCoverData:
    def test_parity_and_index_are_the_cover_rules(self):
        # the spectral alpha rule takes parity and CZ from CoverData, whose
        # rules the scene layer reads too
        rng = np.random.default_rng(29)
        parities = set()
        for _ in range(20):
            loop = random_loop(rng, bandwidth=2)
            record = alphas_from_spectrum(assemble(loop, 16))
            cover = core.CoverData(record.alpha_minus, record.alpha_plus)
            assert (record.parity, record.cz) == (cover.parity(), cover.cz_index())
            assert record.cz == 2 * record.alpha_minus + record.parity
            parities.add(record.parity)
        assert parities == {0, 1}


class _StubDiscretization:
    """A discretization whose spectrum is given: every eigenvalue, and the
    half-band window of eigenvalues with their windings."""

    def __init__(self, eigenvalues, windings):
        lams = np.array(eigenvalues, dtype=float)
        self.eigh = (lams, None)
        self.half_band_window = (lams, np.array(windings))


class TestAlphaRecordRefusals:
    def test_interior_winding_counted_other_than_twice(self):
        op = _StubDiscretization([-3, -2, -1, 1, 2, 3], [-1, 0, 0, 0, 1, 1])
        message = "winding 0 appears 3 times in the resolved window; discretization is inconsistent"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            spectrum._alpha_record([(op, 1, 1)])

    def test_parity_off_zero_and_one(self):
        op = _StubDiscretization([-2, -1, 1, 2], [-1, -1, 1, 1])
        message = "computed parity 2 is not 0 or 1; spectrum not resolved"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            spectrum._alpha_record([(op, 1, 1)])
