"""Numerical spectral theory of the model first-order operator on the circle.

The operator acts on loops f : R/Z -> R^2 as

    (A f)(t) = -J0 f'(t) - S(t) f(t),

where J0 is the standard complex structure on R^2 and S(t) is a loop of
symmetric 2x2 matrices.  A is L^2-self-adjoint, its spectrum is a discrete
set of real eigenvalues accumulating only at +-infinity, its nontrivial
eigenfunctions are nowhere zero, and their winding numbers are a monotone
function of the eigenvalue taking each integer value exactly twice.  This
module discretizes A by Fourier-Galerkin truncation, extracts eigenvalues,
eigenfunction windings, the extremal windings on either side of zero, and
the induced data of covered orbits; it also contains a small linear-ODE
integrator and an exponential-decay fitter used as an independent check on
the asymptotic-eigenvector picture.

numpy and ``core`` are bound lazily and run on first use, so a loop file
that the JSON rules of ``loop_from_dict`` refuse is refused before either
is imported.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property

from ._lazy import lazy_import
from .errors import InputError
from .jsonio import JsonObject, read_json, read_multiplicity, typed

np = lazy_import("numpy")  # run on first numeric use; see the module docstring
core = lazy_import(f"{__package__}.core")

SYMMETRY_TOL = 1e-12
HERMITIAN_TOL = 1e-10
ZERO_EIGENVALUE_TOL = 1e-6
CLUSTER_TOL = 1e-8
WINDING_GUARD = 0.05
RESOLVED_SAMPLE_RATIO = 1e-8
PERIOD_TOL = 1e-6
DEFAULT_CUTOFF = 32
# the dense complex matrix has 2(2M + 1) rows: at most 67 MB at this cutoff
MAX_CUTOFF = 512


@cache
def _j0() -> np.ndarray:
    """J0, the standard complex structure on R^2, built on first use."""
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def __getattr__(name):
    """``J0``, and the names ``CoverData`` and ``OrbitData`` of ``core``, read
    on first use, so importing this module runs neither numpy nor ``core``."""
    if name == "J0":
        return _j0()
    if name in ("CoverData", "OrbitData"):
        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_symmetric(mat, what: str) -> np.ndarray:
    try:
        m = np.asarray(mat, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a 2x2 matrix of numbers") from None
    if m.shape != (2, 2):
        raise InputError(f"{what} must be a 2x2 matrix, got shape {m.shape}")
    if abs(m[0, 1] - m[1, 0]) > SYMMETRY_TOL:
        raise InputError(f"asymmetric mode supplied: {what} is not symmetric")
    return m


@dataclass(frozen=True)
class SpectralLoop:
    """Loop of symmetric 2x2 matrices given by a finite Fourier series.

    ``modes`` is a tuple of (n, C, D) with n >= 0 and C, D symmetric, for

        S(t) = sum_n  C_n cos(2 pi n t) + D_n sin(2 pi n t).
    """

    modes: tuple

    def __post_init__(self):
        seen = set()
        checked = []
        for n, c, d in self.modes:
            if typed(n, int, "mode frequency") < 0:
                raise InputError(f"mode frequency must be a nonnegative integer, got {n}")
            if n in seen:
                raise InputError(f"duplicate mode frequency {n}")
            seen.add(n)
            c = _check_symmetric(c, f"cos matrix of mode {n}")
            d = _check_symmetric(d, f"sin matrix of mode {n}")
            if n == 0 and np.any(d != 0.0):
                raise InputError("sin matrix of mode 0 has no effect and must be zero")
            checked.append((int(n), c, d))
        # their magnitudes bound every entry of S(t); summed as Python floats,
        # an overflow reads inf without a numpy warning
        entries = [x for _, c, d in checked for x in np.concatenate([c, d]).ravel().tolist()]
        if not math.isfinite(sum(map(abs, entries))):
            raise InputError("loop overflows: its cos and sin entries sum beyond the float range")
        object.__setattr__(self, "modes", tuple(checked))

    @property
    def bandwidth(self) -> int:
        return max((n for n, _, _ in self.modes), default=0)

    def __call__(self, ts) -> np.ndarray:
        """Sample S(t); returns shape (len(ts), 2, 2)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros((len(ts), 2, 2))
        for n, c, d in self.modes:
            out += np.cos(2 * np.pi * n * ts)[:, None, None] * c
            out += np.sin(2 * np.pi * n * ts)[:, None, None] * d
        return out


def constant_loop(matrix) -> SpectralLoop:
    """The loop S(t) == matrix."""
    return SpectralLoop(((0, _check_symmetric(matrix, "constant matrix"), np.zeros((2, 2))),))


def cover_operator(loop: SpectralLoop, k: int) -> SpectralLoop:
    """Model operator of the k-fold covered orbit: t -> k * S(k t).

    Every eigenpair (lam, f) of the base operator yields the eigenpair
    (k lam, f(k .)) of the cover, with winding multiplied by k.

    More generally the cover splits into Floquet (Bloch) blocks.  k S(k t)
    couples only modes that differ by a multiple of k, so at cutoff M k its
    matrix is block diagonal over the mode residues R mod k.  With
    R / k = r / q in lowest terms and m = k / q, block R is m times block r
    of the q-cover at cutoff M q, the block B(r, q) on the modes n = r
    (mod q).  An eigenpair (mu, f) of B(r, q) is the eigenpair
    (m mu, f(m .)) of the k-cover, with winding multiplied by m; B(q - r, q)
    is the complex conjugate of B(r, q) and has the same eigenvalues and
    windings.
    """
    k = read_multiplicity(k)
    if k == 1:
        return loop
    # an entry beyond the float range reads inf, which the loop refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return SpectralLoop(tuple((k * n, k * c, k * d) for n, c, d in loop.modes))


@dataclass(frozen=True)
class OperatorDiscretization:
    """Fourier-Galerkin truncation of the operator to modes |n| <= M.

    The matrix acts on stacked coefficient blocks (c_n) with c_n in C^2,
    over the modes ``modes``: an arithmetic progression in -M..M that the
    loop keeps invariant, all of -M..M or a Floquet block.  It is Hermitian
    because truncation compresses a self-adjoint operator onto a
    basis-closed subspace.
    """

    loop: SpectralLoop
    mode_cutoff: int
    matrix: np.ndarray
    modes: range

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of ``matrix``, computed
        once per discretization.  The eigenvectors are laid out over all
        modes -M..M, zero off ``modes``."""
        evals, evecs = np.linalg.eigh(self.matrix)
        M = self.mode_cutoff
        if len(self.modes) == 2 * M + 1:
            return evals, evecs
        full = np.zeros((2 * M + 1, 2, len(evals)), dtype=complex)
        full[np.asarray(self.modes) + M] = evecs.reshape(len(self.modes), 2, -1)
        return evals, full.reshape(2 * (2 * M + 1), -1)

    @cached_property
    def half_band_window(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and windings of the eigenpairs within half the
        resolved band, ascending, computed once per discretization.

        They equal the eigenvalues and windings ``eigen_window`` gives on
        that window, from the same samples.  The alpha rule reads nothing
        else, so the window skips what only an ``EigenPair`` holds: no
        loop sampling, no residual, no multiplicities."""
        half = resolved_band(self) / 2
        lams, _, f = _window(self, -half, half)
        return lams, _windings(f[..., 0] + 1j * f[..., 1])


def _checked_cutoff(mode_cutoff, bandwidth: int) -> int:
    M = typed(mode_cutoff, int, "cutoff")
    if M > MAX_CUTOFF:
        raise InputError(f"cutoff too large: need mode_cutoff <= {MAX_CUTOFF}, got {M}")
    if M < bandwidth + 4:
        raise InputError(
            f"cutoff below loop bandwidth: need mode_cutoff >= {bandwidth + 4}, got {M}"
        )
    return M


def _galerkin(loop: SpectralLoop, modes: range) -> np.ndarray:
    """The operator's matrix on the modes of an arithmetic progression; every
    coupling frequency of the loop must be a multiple of its step."""
    # complex Fourier coefficients of S: S_hat[nu] couples mode m to m + nu
    s_hat: dict[int, np.ndarray] = {}
    for n, c, d in loop.modes:
        if n == 0:
            s_hat[0] = s_hat.get(0, 0) + c.astype(complex)
        else:
            s_hat[n] = s_hat.get(n, 0) + (c - 1j * d) / 2
            s_hat[-n] = s_hat.get(-n, 0) + (c + 1j * d) / 2
    size = len(modes)
    # A[i, :, j, :] is the 2x2 block from mode modes[j] to mode modes[i]
    A = np.zeros((size, 2, size, 2), dtype=complex)
    idx = np.arange(size)
    A[idx, :, idx, :] += (-2j * np.pi * np.asarray(modes))[:, None, None] * _j0()
    for nu, block in s_hat.items():
        shift = nu // modes.step
        cols = idx[max(0, -shift):size - max(0, shift)]
        A[cols + shift, :, cols, :] += -block
    A = A.reshape(2 * size, 2 * size)
    deviation = np.max(np.abs(A - A.conj().T))
    scale = max(1.0, np.max(np.abs(A)))
    if deviation > HERMITIAN_TOL * scale:
        raise InputError(f"assembled matrix is not Hermitian (deviation {deviation:.2e})")
    return A


def assemble(loop: SpectralLoop, mode_cutoff: int = DEFAULT_CUTOFF) -> OperatorDiscretization:
    """Build the truncated operator matrix for the given loop: block
    B(0, 1), all modes -M..M."""
    return _floquet_block(loop, _checked_cutoff(mode_cutoff, loop.bandwidth), 0, 1)


def _floquet_block(cover: SpectralLoop, mode_cutoff: int, r: int, q: int) -> OperatorDiscretization:
    """Block B(r, q) of the q-cover ``cover`` (``cover_operator(loop, q)``)
    at cutoff M q, on its modes n = r (mod q): j in [-M, M] for r = 0 and
    j in [-M, M - 1] otherwise for n = q j + r."""
    Mq = mode_cutoff * q
    modes = range(r - Mq, Mq + 1, q)
    return OperatorDiscretization(cover, Mq, _galerkin(cover, modes), modes)


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with a real, nowhere-zero eigenfunction.

    ``samples`` are the values of the eigenfunction on the uniform grid
    t_j = j/N, encoded as complex numbers x + i y; ``coeffs`` are its
    complex Fourier coefficients (shape (2M+1, 2)), kept so that the
    eigenfunction can be re-evaluated at arbitrary parameters.
    """

    eigenvalue: float
    samples: np.ndarray
    winding: int
    multiplicity: int
    coeffs: np.ndarray
    residual: float


def _real_coefficients(columns: np.ndarray, M: int) -> np.ndarray:
    """Turn eigenvectors of the complexified operator (the columns) into
    coefficients of real eigenfunctions, shape (columns, 2M+1, 2).

    The complexification of a real operator has conjugation-invariant
    eigenspaces for real eigenvalues, so Re(e^{i theta} F) is again an
    eigenfunction; theta is chosen to maximize its L^2 norm, which keeps it
    bounded away from zero.
    """
    F = columns.T.reshape(-1, 2 * M + 1, 2)
    # bilinear pairing int <F, F> dt pairs mode n with mode -n
    quad = np.sum(F * F[:, ::-1, :], axis=(1, 2))
    theta = np.where(np.abs(quad) > 1e-14, -np.angle(quad) / 2, 0.0)
    G = np.exp(1j * theta)[:, None, None] * F
    # coefficients of Re g: (c_n + conj(c_{-n})) / 2
    return (G + np.conj(G[:, ::-1, :])) / 2


def evaluate_coefficients(coeffs: np.ndarray, ts) -> np.ndarray:
    """Evaluate a coefficient block at parameters ts; returns complex x+iy."""
    M = (coeffs.shape[0] - 1) // 2
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    ns = np.arange(-M, M + 1)
    phases = np.exp(2j * np.pi * np.outer(ns, ts))
    vals = np.tensordot(coeffs, phases, axes=(0, 0))  # (2, len(ts))
    return vals[0].real + 1j * vals[1].real


def _on_grid(coeffs: np.ndarray, N: int) -> np.ndarray:
    """Values on t_j = j/N of real trigonometric polynomials, shape
    (..., N, 2), from coefficient blocks (..., 2M+1, 2) with
    c_{-n} = conj(c_n) and M < N/2: one inverse real FFT."""
    M = (coeffs.shape[-2] - 1) // 2
    return N * np.fft.irfft(coeffs[..., M:, :], n=N, axis=-2)


def _windings(samples: np.ndarray) -> np.ndarray:
    """Winding numbers of nowhere-zero loops of complex samples, one loop
    per row, in one pass over the stack.

    Each row sums the principal-branch angle increments between consecutive
    samples and divides by 2 pi; the accumulated value must land within the
    rounding guard of an integer.  The first row that fails is refused with
    its message: samples too close to zero (an infinite sample reads so
    too), a NaN sample, or an accumulated value off the integers.
    """
    samples = np.asarray(samples, dtype=complex)
    mags = np.abs(samples)
    unresolved = mags.min(axis=1) <= RESOLVED_SAMPLE_RATIO * mags.max(axis=1)
    # a zero sample divides by zero only in a row refused as unresolved
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.roll(samples, -1, axis=1) / samples
    totals = np.angle(ratios).sum(axis=1) / (2 * np.pi)
    nearest = np.round(totals)
    failed = unresolved | ~(np.abs(totals - nearest) <= WINDING_GUARD)
    if failed.any():
        i = int(failed.argmax())
        if unresolved[i]:
            raise InputError("eigenfunction not resolved: samples pass too close to zero")
        if np.isnan(totals[i]):
            raise InputError("eigenfunction not resolved: samples are not finite")
        raise InputError(f"grid too coarse: winding accumulated to {totals[i]}, not an integer")
    return nearest.astype(int)


def winding(samples: np.ndarray) -> int:
    """Winding number of a nowhere-zero loop of complex samples, read by
    ``_windings`` as a stack of one row."""
    return int(_windings(np.reshape(samples, (1, -1)))[0])


def _multiplicities(eigenvalues: np.ndarray) -> list[int]:
    """Cluster sizes with eigenvalues within CLUSTER_TOL*(1+|lam|) merged."""
    gaps = np.diff(eigenvalues) > CLUSTER_TOL * (1 + np.abs(eigenvalues[:-1]))
    sizes = np.diff(np.r_[np.flatnonzero(np.r_[True, gaps]), len(eigenvalues)])
    return np.repeat(sizes, sizes).tolist()


def resolved_band(op: OperatorDiscretization) -> float:
    """Half-width of the eigenvalue window this truncation resolves."""
    return np.pi * op.mode_cutoff


def _window(op: OperatorDiscretization, lo: float, hi: float):
    """The eigenvalues in [lo, hi], ascending, the real coefficients of
    their eigenfunctions (shape (pairs, 2M+1, 2)) and the eigenfunctions'
    values on t_j = j/N, N = 8(2M+1) (shape (pairs, N, 2)): what
    ``eigen_window`` and ``half_band_window`` share."""
    M = op.mode_cutoff
    evals, evecs = op.eigh
    sel = np.flatnonzero((evals >= lo) & (evals <= hi))
    coeffs = _real_coefficients(evecs[:, sel], M)
    return evals[sel], coeffs, _on_grid(coeffs, 8 * (2 * M + 1))


def eigen_window(op: OperatorDiscretization, lo: float, hi: float) -> list[EigenPair]:
    """All eigenpairs with eigenvalue in [lo, hi], sorted ascending.

    Beside eigenvalues and windings, each pair holds its samples,
    coefficients, multiplicity and residual, the last from the loop
    sampled on the grid: the callers that list or re-evaluate eigenpairs
    read these, while the alpha rule reads ``half_band_window``."""
    if not lo < hi:
        raise InputError(f"window requires lo < hi, got ({lo}, {hi})")
    band = resolved_band(op)
    if abs(lo) > band or abs(hi) > band:
        raise InputError(
            f"window exceeds resolution: need |lo|, |hi| <= {band:.6g} at cutoff {op.mode_cutoff}"
        )
    M = op.mode_cutoff
    lams, coeffs, f = _window(op, lo, hi)  # f: (pairs, N, 2)
    N = f.shape[-2]
    df = _on_grid(coeffs * (2j * np.pi * np.arange(-M, M + 1))[:, None], N)
    # the residual |A f - lam f| / max|f| uses f' exact from the coefficients
    # and S(t) sampled pointwise, so it measures truncation honestly rather
    # than reusing the Galerkin matrix
    S = op.loop(np.arange(N) / N)
    f0, f1 = f[..., 0], f[..., 1]
    lam = lams[:, None]
    # A f - lam f by components, with -J0 f' = (f1', -f0')
    r0 = df[..., 1] - (S[:, 0, 0] * f0 + S[:, 0, 1] * f1) - lam * f0
    r1 = -df[..., 0] - (S[:, 1, 0] * f0 + S[:, 1, 1] * f1) - lam * f1
    residuals = np.maximum(np.abs(r0).max(axis=1), np.abs(r1).max(axis=1))
    residuals /= np.maximum(np.abs(f).max(axis=(1, 2)), 1e-300)
    samples = f0 + 1j * f1
    windings = _windings(samples).tolist()
    return [
        EigenPair(
            eigenvalue=float(lam),
            samples=samples[pos],
            winding=windings[pos],
            multiplicity=mult,
            coeffs=coeffs[pos],
            residual=float(residuals[pos]),
        )
        for pos, (lam, mult) in enumerate(zip(lams, _multiplicities(lams)))
    ]


@dataclass(frozen=True)
class AlphaRecord:
    """Extremal windings on either side of zero, with parity and the
    Conley-Zehnder index 2*alpha_minus + parity."""

    alpha_minus: int
    alpha_plus: int
    parity: int
    cz: int


def _alpha_record(parts, zero_tol: float) -> AlphaRecord:
    """The one rule from a spectrum to alpha_-, alpha_+, parity and index.

    ``parts`` lists (discretization, m, copies): the spectrum is the union
    over the parts of each discretization's eigenvalues and windings times
    m, taken ``copies`` times.  Every eigenvalue is checked against 0
    before any half-band window is computed.
    """
    if min(np.abs(m * op.eigh[0]).min() for op, m, _ in parts) <= zero_tol:
        raise InputError("degenerate orbit: operator has an eigenvalue at 0")
    windows = [(op.half_band_window, m, copies) for op, m, copies in parts]
    lams = np.concatenate([np.tile(m * ls, copies) for (ls, _), m, copies in windows])
    winds = np.concatenate([np.tile(m * ws, copies) for (_, ws), m, copies in windows])
    order = np.argsort(lams, kind="stable")
    lams, windings = lams[order], winds[order]
    neg, pos = windings[lams < 0], windings[lams > 0]
    if not len(neg) or not len(pos):
        raise InputError("window around 0 resolved no eigenvalues of both signs")
    alpha_minus, alpha_plus = int(neg[-1]), int(pos[0])
    counts: dict[int, int] = {}
    for w in windings.tolist():
        counts[w] = counts.get(w, 0) + 1
    interior = [w for w in counts if min(counts) < w < max(counts)]
    for w in interior:
        if counts[w] != 2:
            raise InputError(
                f"winding {w} appears {counts[w]} times in the resolved window; "
                "discretization is inconsistent"
            )
    p = alpha_plus - alpha_minus
    if p not in (0, 1):
        raise InputError(f"computed parity {p} is not 0 or 1; spectrum not resolved")
    drops = np.flatnonzero(np.diff(windings) < 0)
    if len(drops):
        i = drops[0]
        raise InputError(
            f"winding {windings[i + 1]} follows winding {windings[i]} in ascending "
            "eigenvalue; windings must not decrease, spectrum not resolved"
        )
    cover = core.CoverData(alpha_minus, alpha_plus)
    return AlphaRecord(alpha_minus, alpha_plus, cover.parity(), cover.cz_index())


def alphas_from_spectrum(
    op: OperatorDiscretization, zero_tol: float = ZERO_EIGENVALUE_TOL
) -> AlphaRecord:
    """Extract alpha_-, alpha_+, parity and the index from the spectrum.

    alpha_- is the winding of the largest negative eigenvalue and alpha_+
    that of the smallest positive one (monotonicity of the winding makes
    these the extrema over each half of the spectrum).  The double-count
    property and the monotonicity of the winding are asserted over the
    window of half the resolved band as a consistency check on the
    discretization.  ``zero_tol`` is the nondegeneracy threshold: any
    eigenvalue within it of 0 rejects the operator as degenerate.
    """
    return _alpha_record([(op, 1, 1)], zero_tol)


def covering_multiplicity(pair: EigenPair, k: int) -> int:
    """Largest divisor d of k with f(t + 1/d) = f(t) up to PERIOD_TOL * max|f|."""
    k = read_multiplicity(k)
    best = 1
    scale = np.abs(pair.samples).max()
    N = len(pair.samples)
    M = (pair.coeffs.shape[0] - 1) // 2
    ns = np.arange(-M, M + 1)
    for d in range(2, k + 1):
        if k % d != 0:
            continue
        shifted = _on_grid(pair.coeffs * np.exp(2j * np.pi * ns / d)[:, None], N)
        if np.abs(shifted[:, 0] + 1j * shifted[:, 1] - pair.samples).max() < PERIOD_TOL * scale:
            best = d
    return best


# -- linear ODE trajectories and decay fitting -------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Samples (s_j, v_j) of a vector-valued path."""

    s: np.ndarray
    values: np.ndarray  # shape (len(s), n)


@dataclass(frozen=True)
class DecayFit:
    lambda_fit: float
    direction_fit: np.ndarray
    residual: float


# RK4 steps whose A values and step matrices are held at once: the transient
# memory of an integration is bounded by this block, not by its length
_ODE_BLOCK = 256
_RK4_SAFE_RADIUS = 2.6  # |R(z)| < 1 for Re z < 0, |z| <= 2.6 (|R(-2.6)| = 0.981)


def _matrices_at(A, ts: list, n: int) -> np.ndarray:
    """A at each s of ``ts``, stacked; refused unless real, n x n and finite."""
    values = [A(t) for t in ts]
    try:
        mats = np.asarray(values)
    except (TypeError, ValueError):
        mats = None
    if mats is None or mats.shape != (len(ts), n, n) or mats.dtype.kind not in "biuf":
        raise InputError(f"A(s) must be a real {n}x{n} matrix, as v0 has {n} entries")
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        raise InputError(f"A(s) is not finite at s = {ts[finite.argmin()]!r}")
    return mats.astype(float, copy=False)


def _check_stable(mats: np.ndarray, ts: list, h: float, span: float) -> None:
    """Refuse a step that amplifies a decaying mode: an eigenvalue lam of some
    A(s) with Re(h lam) < 0 and |R(h lam)| >= 1, R(z) = 1 + z + ... + z^4/24.
    As |lam| <= ||A(s)||_inf, only A(s) with |h| ||A(s)||_inf > 2.6 can."""
    norms = np.abs(mats).sum(axis=2).max(axis=1)
    wide = np.flatnonzero(abs(h) * norms > _RK4_SAFE_RADIUS)
    if not len(wide):
        return
    z = h * np.linalg.eigvals(mats[wide])
    growth = np.abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4))))
    unstable = wide[((z.real < 0) & (growth >= 1)).any(axis=1)]
    if len(unstable):
        i = unstable[0]
        raise InputError(
            f"integration step unstable at s = {ts[i]!r}: RK4 with h = {h!r} amplifies a decaying "
            f"mode of A(s); {math.ceil(span * norms[i] / _RK4_SAFE_RADIUS)} steps or more damp it"
        )


def _propagate(P: np.ndarray, out: np.ndarray) -> None:
    """out[i + 1] = P[i] out[i] for each step matrix in turn, written in place."""
    v = out[0]
    for p, row in zip(P, out[1:]):
        v = p.dot(v, out=row)


def integrate_linear_ode(A, v0, s0: float, s1: float, steps: int) -> Trajectory:
    """Fixed-step RK4 integration of v' = A(s) v on [s0, s1].

    ``A`` maps a parameter s to an n x n matrix (constant matrices are also
    accepted directly).  The samples are s_i = s0 + i h with h = (s1 - s0) /
    steps.  On a linear field the classical RK4 step from s_i is one matrix,
    v_{i+1} = P_i v_i with

        P = I + h/6 (A1 + 2 K2 + 2 K3 + K4),    K2 = Am (I + h/2 A1),
        K3 = Am (I + h/2 K2),                   K4 = A2 (I + h K3),

    where A1, Am and A2 are A at s_i, s_i + h/2 and s_{i+1}.  The steps go
    in blocks of ``_ODE_BLOCK``.  For each block A is called once at each
    point s0 + j h/2 of its half-step grid, in grid order, the A values are
    stacked, the step matrices built by batched products and then applied
    in turn: 2 steps + ceil(steps / _ODE_BLOCK) calls of A in all, as
    neighbouring blocks share an end point.  A block whose step amplifies a
    decaying mode of A is refused, with a step count that damps it.
    """
    steps = typed(steps, int, "integration steps")
    if steps < 100:
        raise InputError(f"integration needs at least 100 steps, got {steps}")
    # s1 - s0 is finite only when both ends are, and h with it
    if not (isinstance(s0, numbers.Real) and isinstance(s1, numbers.Real)) or not math.isfinite(
        float(s1) - float(s0)
    ):
        raise InputError(f"interval ends must be finite numbers, got s0={s0!r}, s1={s1!r}")
    try:
        v = np.asarray(v0, dtype=float)
    except (TypeError, ValueError):
        v = None
    if v is None or v.ndim != 1 or v.size == 0 or not np.isfinite(v).all():
        raise InputError("v0 must be a finite, non-empty vector of numbers")
    if not callable(A):
        mat = A
        A = lambda s: mat  # noqa: E731
    n, s0 = len(v), float(s0)
    h = (float(s1) - s0) / steps
    ss = np.arange(steps + 1, dtype=float)
    ss *= h
    ss += s0  # rounds as s0 + i * h does
    out = np.empty((steps + 1, n))
    out[0] = v
    eye = np.eye(n)
    for i0 in range(0, steps, _ODE_BLOCK):
        i1 = min(i0 + _ODE_BLOCK, steps)
        ts = (s0 + np.arange(2 * i0, 2 * i1 + 1) * (h / 2)).tolist()
        mats = _matrices_at(A, ts, n)
        _check_stable(mats, ts, h, abs(float(s1) - s0))
        a1, am, a2 = mats[:-1:2], mats[1::2], mats[2::2]
        k2 = am + h / 2 * (am @ a1)
        k3 = am + h / 2 * (am @ k2)
        k4 = a2 + h * (a2 @ k3)
        _propagate(eye + h / 6 * (a1 + 2 * k2 + 2 * k3 + k4), out[i0 : i1 + 1])
    return Trajectory(ss, out)


def fit_decay(trajectory) -> DecayFit:
    """Fit the exponential rate of a decaying trajectory v(s) ~ e^{lam s} v_+.

    The rate is the least-squares slope of log|v(s)| over the last half of
    the samples (the early samples carry the transient and are discarded);
    the direction is the normalized final sample, and the residual is the
    worst deviation of log|v| from the fitted line over the last half.
    """
    if isinstance(trajectory, Trajectory):
        s = np.asarray(trajectory.s, dtype=float)
        vals = np.asarray(trajectory.values, dtype=float)
    else:
        items = list(trajectory)
        s = np.array([float(a) for a, _ in items])
        vals = np.array([np.asarray(b, dtype=float) for _, b in items])
    if len(s) < 20:
        raise InputError("trajectory unusable: need at least 20 samples")
    if not (np.isfinite(s).all() and np.isfinite(vals).all()):
        raise InputError("trajectory unusable: non-finite sample")
    if np.any(np.diff(s) <= 0):
        raise InputError("trajectory unusable: s-grid must be increasing")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vals, axis=1)
        # squares overflow above about 1e154 and underflow below about 1e-154:
        # scale those samples by their largest entry, and only those, so every
        # other norm stays bit-identical
        extreme = ~np.isfinite(norms) | (norms < 1e-150)
        if extreme.any():
            scale = np.abs(vals[extreme]).max(axis=1)
            scale[scale == 0.0] = 1.0  # a zero sample keeps its zero norm
            norms[extreme] = scale * np.linalg.norm(vals[extreme] / scale[:, None], axis=1)
    if not np.isfinite(norms).all():
        raise InputError("trajectory unusable: norm overflow")
    if norms.min() <= 1e-290:
        raise InputError("trajectory unusable: norm underflow")
    half = len(s) // 2
    st, ln = s[half:], np.log(norms[half:])
    slope, intercept = np.polyfit(st, ln, 1)
    residual = np.abs(ln - (slope * st + intercept)).max()
    direction = vals[-1] / norms[-1]
    return DecayFit(float(slope), direction, float(residual))


# -- spectral-loop file format ------------------------------------------------

_LOOP_KEYS = {"modes"}
_MODE_KEYS = {"n", "cos", "sin"}


def _finite_matrix(mode: JsonObject, key: str) -> list:
    """The matrix at ``key`` of a loop mode: finite numbers, zero if absent."""
    rows = mode.field(key, list, [[0.0, 0.0], [0.0, 0.0]])
    what = f"entry of {key!r} in {mode.where}"
    return [[typed(x, float, what) for x in typed(row, list, what)] for row in rows]


def loop_from_dict(data: dict) -> SpectralLoop:
    loop = JsonObject(data, _LOOP_KEYS, "loop file", "loop file")
    modes = []
    for md in loop.field("modes", list, []):
        mode = JsonObject(md, _MODE_KEYS, "loop mode", "loop mode")
        n = mode.required("n", int)
        modes.append((n, _finite_matrix(mode, "cos"), _finite_matrix(mode, "sin")))
    return SpectralLoop(tuple(modes))


def load_loop(path) -> SpectralLoop:
    return loop_from_dict(read_json(path, "loop"))


def spectrum_report(loop: SpectralLoop, mode_cutoff: int, lo: float, hi: float) -> dict:
    """JSON-ready spectrum report for the CLI."""
    op = assemble(loop, mode_cutoff)
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


def orbit_from_loop(orbit_id: str, loop: SpectralLoop, covers, mode_cutoff: int = DEFAULT_CUTOFF):
    """Build scene orbit data from a spectral model of the simple orbit.

    For each requested multiplicity k the extremal windings of the cover
    operator k S(kt) at cutoff M k are recorded; this is the computational
    route to the winding table that scenes otherwise take as direct input.
    The cover is solved through its Floquet splitting (see
    ``cover_operator``): each residue R mod k with R / k = r / q in lowest
    terms contributes the spectrum of B(r, q), eigenvalues and windings
    times m = k / q, and B(q - r, q) contributes it again for r not in
    {0, q / 2}.  Only the blocks with r <= q / 2 are decomposed, each once
    for all covers, and the union of their spectra goes through the same
    rule as ``alphas_from_spectrum`` of the full cover matrix.  Each
    q-cover operator is built once, for the cutoff check of cover q and
    for every block B(r, q).
    """
    M = typed(mode_cutoff, int, "cutoff")
    cover = cache(lambda q: cover_operator(loop, q))

    @cache
    def block(r, q):
        return _floquet_block(cover(q), M, r, q)

    table = {}
    for k in covers:
        k = read_multiplicity(k)
        _checked_cutoff(M * k, cover(k).bandwidth)
        # block B(r, q), eigenvalues and windings times m = k / q, serves the
        # residues R = m r and, conjugated, R = m (q - r) mod k
        parts = [
            (block(r, q), k // q, 1 if 2 * r in (0, q) else 2)
            for q in range(1, k + 1)
            if k % q == 0
            for r in range(q // 2 + 1)
            if math.gcd(r, q) == 1
        ]
        record = _alpha_record(parts, ZERO_EIGENVALUE_TOL)
        table[k] = core.CoverData(record.alpha_minus, record.alpha_plus)
    return core.OrbitData(orbit_id, table)
