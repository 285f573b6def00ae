"""Certified windings of trigonometric polynomials: the one rule of the germ
oracle (zeros of a resultant in |zeta| < 1, low = 0) and the spectral solver
(eigenfunctions x + i y, low = -M).  numpy is bound lazily."""

from __future__ import annotations

from ._lazy import lazy_import

np = lazy_import("numpy")  # run on first numeric use; see the module docstring

MAX_WINDING_SAMPLES = 1 << 14


def arcs(rows: np.ndarray, n: int, low: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(values, reach) at t_j = j/n of each row's loop f(t) = sum c_m e^(2 pi
    i m t), m = low, low + 1, ..., n >= rows.shape[1]: zero-padded inverse
    FFTs give f_j and f'_j times e^(-2 pi i low t_j), and |f''| <= L2 = 4
    pi^2 sum m^2 |c_m|, so f stays within reach_j = |f'_j| h + L2 h^2 / 2 of
    f_j on the arc of half a step h = 1/2n to either side."""
    m = np.arange(low, low + rows.shape[1])
    out = np.fft.ifft(np.concatenate([rows, rows * (2j * np.pi * m)]), n) * n
    h = 0.5 / n
    bend = (2 * np.pi**2 * h * h) * (np.abs(rows) @ (m * m))
    return out[: len(rows)], np.abs(out[len(rows) :]) * h + bend[:, None]


def windings(rows: np.ndarray, low: int = 0, memo: dict | None = None) -> list:
    """Each row's certified winding about 0 (for low = 0, its zeros in |zeta|
    < 1), or None where no count up to MAX_WINDING_SAMPLES, doubling from the
    least power of two >= 2 rows.shape[1], has every |f_j| > 2 reach_j
    (``arcs``): each half-step arc then lies in a disk that subtends under 60
    degrees at 0, so each principal step of f is its true turn.  The steps,
    each turned by 2 pi low / n, sum to 2 pi low, so the winding is low less
    the turns the principal branch cuts off.  ``memo`` keeps a row's samples."""
    found, open_rows = np.full(len(rows), None), np.arange(len(rows))
    n = 1 << (2 * rows.shape[1] - 1).bit_length()
    while n <= MAX_WINDING_SAMPLES and len(rows):
        values, reach = arcs(rows, n, low)
        size = np.abs(values)
        if memo is not None:
            memo[n] = size[0], size[0] - reach[0]
        done = (size > 2 * reach).all(axis=1)
        if done.any():
            # differences of angles, as ratios of subnormal samples overflow
            angles = np.angle(values[done])
            steps = np.diff(angles, axis=1, append=angles[:, :1]) + 2 * np.pi * low / n
            found[open_rows[done]] = low - (steps > np.pi).sum(axis=1) + (steps <= -np.pi).sum(axis=1)
            open_rows, rows = open_rows[~done], rows[~done]
        n *= 2
    return found.tolist()
