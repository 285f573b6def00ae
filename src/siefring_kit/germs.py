"""Exact local intersection numbers of holomorphic polynomial map germs.

A germ is a pair of polynomials (p, q) with Gaussian-rational coefficients,
both vanishing at the origin, viewed as a map germ into complex 2-space.
The local intersection number of two germs is the order of vanishing at
z = 0 of the resultant eliminating the second curve's parameter; the
double-point count of a single germ uses the same resultant applied to the
divided differences (p(z)-p(w))/(z-w), (q(z)-q(w))/(z-w).  The answers are
integers that feed positivity arguments where an off-by-one is fatal, so
they are exact.

The calculators use two facts about a resultant R(z): its order at 0 and
whether it vanishes identically.  Most resultants are settled by their
Newton polygons in w alone (Newton-Puiseux; Walker, Algebraic Curves,
ch. IV).  Over the Puiseux series in z, R = lc_f^dg lc_g^df prod (a_i -
b_j) over the roots in w; an edge of width m and slope -v stands for m
roots of valuation v, and v(a - b) >= min(v(a), v(b)), which gives a lower
bound L on the order of R.  A root c z^v + ... makes the terms on its
edge the lowest in z, so the leading coefficients c of the roots of
valuation v are the roots of the edge polynomial E(c) = sum a_ji
c^(j - j0) over those terms, and v(a - b) exceeds the min only where a and
b share both v and c.  So where, for every v with an edge in both
polygons, the two edge polynomials have a nonzero resultant, R is nonzero
and of order exactly L.  That resultant has Gaussian-integer coefficients;
its image modulo one prime p = 1 mod 4, where i maps to iota with iota^2 =
-1, is the resultant of the images, and a nonzero image proves it nonzero.
Those orders take a few Python ints and no numpy, which is bound lazily
and runs on first numeric use: Germ.numeric, the oracles and the
fallback below.
Every other case, a shared leading coefficient, an R that vanishes
identically or an edge resultant that p divides, takes a certified
multi-modular computation (Collins, J. ACM 18, 1971).  With denominators
cleared the coefficients are Gaussian integers, reduced to F_p as above,
and R mod p follows from its values at the N-th roots of unity and one
inverse transform.  Each prime is one pass: its values are taken in int64
by the Euclidean remainder sequence of the two w-polynomials (Collins,
J. ACM 14, 1967), batched over the samples, and its transform stops at the
first nonzero coefficient.  The order of R mod p is never below the order
of R.  Each coefficient c of R has |c|^2 <= B, the product over the
Sylvester rows of sum_j ||s_rj||_1^2, where ||.||_1 sums |re| + |im| over
an entry's z-coefficients: |c| is at most the largest |R(z)| on |z| = 1,
which Hadamard's inequality bounds by the product of the row lengths
there.  A nonzero c that the maps for primes p_1 ... p_r all send to 0
lies in the prime ideals (p_j, i - iota_j) of norm p_j, so p_1 ... p_r
divides its norm |c|^2.  Once the primes' product exceeds B, some prime
therefore sees the lowest coefficient of R: the least order over the
primes is the order of R, and R is zero iff it is zero modulo all of them.
The w-degrees are exact over the Gaussian integers and serve as formal
degrees modulo p.  Where a leading coefficient vanishes mod p at a sample,
the remainder sequence drops it by Res_{m,n}(f, g) = f_m Res_{m,n-1}(f, g),
the expansion of the Sylvester determinant of those formal degrees along
its first column, so every value is R mod p and no prime is skipped.

A second, independent path perturbs the germ, locates the finitely many
intersection parameters as polynomial roots via companion matrices, and
counts those inside a small disk in floating point.  The two paths are
checked against each other throughout the test suite.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps

from ._lazy import lazy_import
from ._modular import _nth_prime, _scalar_resultant_mod
from .errors import InputError, InvarianceError
from .jsonio import JsonObject, read_json, read_multiplicity, read_seed, typed

np = lazy_import("numpy")  # run on first numeric use; see the module docstring

ROOT_EDGE_TOL = 1e-6
COEFF_TRIM_TOL = 1e-11
# draws per cell, redrawn only for a root on the circle or an unpaired parameter;
# at z = 0 the resultant is ~ epsilon**(a-1) times a product: |epsilon| sets it, not the phase
MAX_EPSILON_REDRAWS = 10
STUCK_AT_THE_ORIGIN = "perturbed intersection parameters stuck at the origin"


def _fraction(value) -> Fraction:
    """A rational number (int, Fraction or any registered numbers.Rational)
    as a Fraction of ints; anything else is refused."""
    if not isinstance(value, numbers.Rational):
        raise InputError(f"coefficient {value!r} is not an exact Gaussian rational")
    return Fraction(int(value.numerator), int(value.denominator))


def _lifted(method):
    """A binary method of GaussianRational that sees a rational operand as
    one; an operand of another kind is left to its own methods."""

    @wraps(method)
    def lifted(self, other):
        if isinstance(other, numbers.Rational):
            other = gaussian(other)
        elif not isinstance(other, GaussianRational):
            return NotImplemented
        return method(self, other)

    return lifted


@dataclass(frozen=True, eq=False, slots=True)
class GaussianRational:
    """The exact scalar re + i im, both parts Fractions.  With im = 0 it
    equals, and hashes like, the int or Fraction re."""

    re: Fraction
    im: Fraction

    @_lifted
    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_lifted
    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    @_lifted
    def __rsub__(self, other):
        return other - self

    @_lifted
    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, other):
        return self * other._inverse()

    @_lifted
    def __rtruediv__(self, other):
        return other * self._inverse()

    def _inverse(self):
        norm = self.re * self.re + self.im * self.im  # ZeroDivisionError below for 0
        return GaussianRational(self.re / norm, -self.im / norm)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return math.prod((self if n >= 0 else self._inverse(),) * abs(n), start=_ONE)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    @_lifted
    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def _sympy_(self):
        """The equal sympy expression.  Only sympy calls this hook (sympify),
        so sympy is loaded already; the package itself never imports it."""
        sympy = sys.modules["sympy"]
        return sympy.Rational(self.re.numerator, self.re.denominator) + sympy.I * sympy.Rational(
            self.im.numerator, self.im.denominator
        )


_ZERO = GaussianRational(Fraction(0), Fraction(0))
_ONE = GaussianRational(Fraction(1), Fraction(0))


def gaussian(re, im=0):
    """Exact Gaussian-rational scalar from rational real/imaginary parts."""
    return GaussianRational(_fraction(re), _fraction(im))


def _to_gaussian(value):
    return value if isinstance(value, GaussianRational) else gaussian(value)


def _strip(coeffs: tuple) -> tuple:
    last = len(coeffs)
    while last > 0 and not coeffs[last - 1]:
        last -= 1
    return coeffs[:last]


def _coeff(coeffs: tuple, i: int):
    """Coefficient of z^i, zero past the last term."""
    return coeffs[i] if i < len(coeffs) else _ZERO


@dataclass(frozen=True)
class Germ:
    """Polynomial map germ (p(z), q(z)) into C^2 with p(0) = q(0) = 0.

    Coefficients are stored ascending in degree as GaussianRational; each
    given one is a GaussianRational (see ``gaussian``) or a rational number,
    anything else is refused.  At least one coordinate must be nonzero.
    """

    p: tuple
    q: tuple

    def __post_init__(self):
        p = _strip(tuple(_to_gaussian(c) for c in self.p))
        q = _strip(tuple(_to_gaussian(c) for c in self.q))
        if not p and not q:
            raise InputError("germ is constant: both coordinates vanish identically")
        for name, coeffs in (("p", p), ("q", q)):
            if coeffs and coeffs[0]:
                raise InputError(f"germ coordinate {name} does not vanish at 0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, hash((p, q)), computed once: every oracle cell
        looks the germ up in the resultant and disk caches."""
        return hash((self.p, self.q))

    @cached_property
    def _far_zero_free(self) -> bool:
        """True if p and q share no zero besides z = 0 (see
        ``_require_small_domain``); computed once, since every cell of an
        oracle ladder asks again.  With the powers of z stripped, a zero
        coordinate leaves the other's zeros, and otherwise the two share one
        iff their resultant in z is 0."""
        p, q = (f[_exponents_of(f)[0] :] if f else f for f in (self.p, self.q))
        if not (p and q):
            return len(_exponents_of(p or q)) == 1
        return bool(_resultant(*({(e, 0): c for e, c in _parts(f)} for f in (p, q))))

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        """Exponents of the nonzero terms of p, then of q; computed once,
        since every cell of a double-point oracle ladder asks again."""
        return tuple(_exponents_of(self.p) + _exponents_of(self.q))

    @cached_property
    def numeric(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient arrays as complex128, ascending in degree; read-only
        and computed once, since every cell of an oracle ladder asks again."""
        arrays = (
            np.array([_complex128(c, f"z^{i} in {name}") for i, c in enumerate(f)], dtype=complex)
            for name, f in (("p", self.p), ("q", self.q))
        )
        return _read_only(*arrays)


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only: they are cached and shared by callers."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _complex128(c, where: str) -> complex:
    """An exact coefficient as complex128; a nonzero real or imaginary part
    that becomes 0.0 or overflows would make the oracles count another germ."""
    try:
        z = complex(c)
    except OverflowError:  # float() of a Fraction past the largest double
        z = None
    if z is None or (c.re and not z.real) or (c.im and not z.imag):
        raise InputError(f"germ coefficient of {where} is out of the range of complex128")
    return z


def germ(p, q) -> Germ:
    """Convenience constructor taking coefficient sequences ascending in z."""
    return Germ(tuple(p), tuple(q))


def monomial_germ(a: int, b: int) -> Germ:
    """The germ (z^a, z^b)."""
    a, b = (typed(e, int, "monomial exponent") for e in (a, b))
    if a < 1 or b < 1:
        raise InputError("monomial exponents must be >= 1")
    pa = [0] * a + [1]
    qb = [0] * b + [1]
    return germ(pa, qb)


# -- exact resultant orders, modulo primes -------------------------------------

_MIN_LOG_LENGTH = 12  # one prime table serves every transform length up to 2^12
_WORK_CELLS = 1 << 15  # int64 or complex128 cells in one batched work array


def _parts(coeffs) -> list:
    """(exponent, (re, im)) of each nonzero coefficient, as Fractions."""
    return [(e, (c.re, c.im)) for e, c in enumerate(coeffs) if c]


def _difference_terms(coeffs_u, coeffs_v) -> dict:
    """Terms {(w-exponent, z-exponent): (re, im)} of p_u(z) - p_v(w)."""
    terms = {(0, i): c for i, c in _parts(coeffs_u)}
    terms.update({(j, 0): (-re, -im) for j, (re, im) in _parts(coeffs_v)})  # both p(0) are 0
    return terms


def _divided_difference_terms(coeffs) -> dict:
    """Terms of (f(z) - f(w)) / (z - w)."""
    return {(e - 1 - i, i): c for e, c in _parts(coeffs) for i in range(e)}


def _integral(terms: dict) -> dict:
    """The terms of a nonzero integer multiple of a polynomial with
    Gaussian-rational terms, with no integer common factor; a constant
    factor changes neither the order of a resultant nor whether it is 0."""
    scale = math.lcm(*(x.denominator for xy in terms.values() for x in xy))
    ints = {key: tuple(x.numerator * (scale // x.denominator) for x in xy) for key, xy in terms.items()}
    content = math.gcd(*(x for xy in ints.values() for x in xy))
    return {key: (re // content, im // content) for key, (re, im) in ints.items()}


def _row_norms(terms: dict) -> int:
    """Sum over w-exponents j of ||coefficient of w^j||_1^2: on |z| = 1 it
    bounds the squared length of a Sylvester row of the polynomial."""
    norms = {}
    for (j, _), (re, im) in terms.items():
        norms[j] = norms.get(j, 0) + abs(re) + abs(im)
    return sum(v * v for v in norms.values())


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses modulo p of the units x (entries in [1, p)), by Montgomery's
    trick: one pow(., -1, p) of their product, then prefix products."""
    xs = x.tolist()
    before = [1]  # before[i] = x[0] ... x[i-1]
    for v in xs:
        before.append(before[-1] * v % p)
    inverse = pow(before.pop(), -1, p)  # of x[0] ... x[i] as i falls
    out = []
    for v, prefix in zip(reversed(xs), reversed(before)):
        out.append(inverse * prefix % p)
        inverse = inverse * v % p
    return np.array(out[::-1], dtype=np.int64)


def _resultant_mod(f_rows: np.ndarray, g_rows: np.ndarray, p: int) -> np.ndarray:
    """Res_{m,n}(f_rows[s], g_rows[s]) modulo p for every sample s, the
    determinant of ``_sylvester_stack(f_rows, g_rows)``: ascending
    w-coefficients in [0, p) of formal degrees m and n, the row widths
    less one.  A Euclidean remainder sequence on descending rows keeps both
    degrees uniform over a group of samples:

    - Res_{m,n}(f, g) = (-1)^(mn) Res_{n,m}(g, f), which makes m >= n;
    - Res_{m,0}(f, g) = g_0^m;
    - a leading coefficient g_n that is 0 at every sample drops, since the
      Sylvester matrix's first column is then (f_m, 0, ..., 0):
      Res_{m,n}(f, g) = f_m Res_{m,n-1}(f, g);
    - a leading coefficient l = g_n that is nonzero at every sample takes
      one fraction-free pseudo-remainder r = l^(m-n+1) f mod g, of formal
      degree n - 1: Res_{m,n}(f, g) = (-1)^(mn) Res_{n,n-1}(g, r) /
      l^((m-n+1)(n-1));
    - a group whose samples differ there splits by that mask.

    Each step lowers the second degree by one, so the denominator needs no
    powers: l^(m-n+1) joins a running product, ``pending``, by which each of
    the n - 1 later steps multiplies it.  It is a product of nonzero leading
    coefficients, a unit, and one batched inverse at the end removes it."""
    values, scales = np.empty((2, len(f_rows)), dtype=np.int64)
    one = np.ones(len(f_rows), dtype=np.int64)
    work = [(np.arange(len(f_rows)), f_rows[:, ::-1], g_rows[:, ::-1], one, one, one)]
    while work:
        at, f, g, value, scale, pending = work.pop()
        m, n = f.shape[1] - 1, g.shape[1] - 1
        if m < n:
            f, g, m, n = g, f, n, m
            value = -value % p if m * n % 2 else value
        if n == 0:
            for _ in range(m):
                value = value * g[:, 0] % p
            values[at], scales[at] = value, scale
            continue
        lead = g[:, 0]
        zero = lead == 0
        if zero.any() and not zero.all():
            work += [(at[s], f[s], g[s], value[s], scale[s], pending[s]) for s in (zero, ~zero)]
            continue
        scale = scale * pending % p
        if zero[0]:  # and so at every sample
            work.append((at, f, g[:, 1:], value * f[:, 0] % p, scale, pending))
            continue
        for _ in range(m - n + 1):
            r = lead[:, None] * f[:, 1:]
            r[:, :n] -= f[:, :1] * g[:, 1:]
            f, pending = r % p, pending * lead % p
        work.append((at, g, f, -value % p if m * n % 2 else value, scale, pending))
    return values * _inverse_mod(scales, p) % p


def _sylvester_stack(f_rows: np.ndarray, g_rows: np.ndarray) -> np.ndarray:
    """Sylvester matrices in w of the polynomial pairs (f_rows[s], g_rows[s])
    (ascending coefficients, any dtype), stacked along the first axis: deg g
    shifted copies of f's coefficients, then deg f copies of g's, each
    descending; the exact engine's z-degree bound and the oracle use it."""
    n = f_rows.shape[1] + g_rows.shape[1] - 2
    out = np.zeros((len(f_rows), n, n), dtype=np.result_type(f_rows, g_rows))
    for which, rows in enumerate((f_rows, g_rows)):
        _place_rows(out, rows, which)
    return out


def _place_rows(out: np.ndarray, rows: np.ndarray, which: int) -> None:
    """Lay f's rows (which 0) or g's (which 1) into the Sylvester stack
    ``out`` where _sylvester_stack puts them: deg + 1 = width wide, as many
    copies as the other polynomial's degree, g's after f's."""
    width = rows.shape[1]
    shift, j = np.arange(out.shape[1] + 1 - width)[:, None], np.arange(width)
    out[:, which * (width - 1) + shift, shift + j] = rows[:, None, width - 1 - j]


def _sylvester_layout(f: dict, g: dict):
    """(n, [(terms, deg_w, deg_z)] for f then g, a bound on deg_z of the
    determinant) of the Sylvester matrix in w of f and g; the bound is read
    off the stack ``_sylvester_stack`` makes of their rows of z-degrees."""
    zdeg = [np.full(max(h)[0] + 1, -1) for h in (f, g)]
    for h, row in zip((f, g), zdeg):
        np.maximum.at(row, *np.array(list(h)).T)
    degree = _sylvester_stack(*(row[None] for row in zdeg))[0]
    layout = [(h, len(row) - 1, int(row.max())) for h, row in zip((f, g), zdeg)]
    # the sum of the row maxima is dzf dwg + dzg dwf; the columns' can be less
    return len(degree), layout, int(min(degree.max(axis=a, initial=0).sum() for a in (0, 1)))


def _certifying_primes(log_length: int, bound: int) -> list:
    """(p, iota, omega) for the first primes of the table for transforms of
    length 2^log_length whose product exceeds ``bound``; omega has order
    2^log_length."""
    table_log = max(log_length, _MIN_LOG_LENGTH)
    primes, product = [], 1
    while product <= bound:
        p, iota, root = _nth_prime(table_log, len(primes))
        primes.append((p, iota, pow(root, 1 << (table_log - log_length), p)))
        product *= p
    return primes


def _lower_hull(h: dict) -> tuple[dict, list]:
    """(lowest, hull), the Newton polygon of the terms ``h``: lowest[j] =
    (i, a_ji) is the term of least z-exponent in the coefficient of w^j,
    and hull the vertices (j, i) of the lower convex hull of those points,
    ascending in j.  An edge of width m and z-drop d stands for m roots in w
    of valuation d / m (Newton-Puiseux); the first vertex's j counts the
    roots at w = 0, and the last vertex's i is the order of the leading
    w-coefficient."""
    lowest = {}
    for (j, i), c in h.items():
        if j not in lowest or i < lowest[j][0]:
            lowest[j] = i, c
    hull = []
    for j, (i, _) in sorted(lowest.items()):
        # the last vertex goes while it lies on or above the chord to (j, i)
        while len(hull) > 1:
            (ja, ia), (jb, ib) = hull[-2:]
            if (jb - ja) * (i - ia) > (ib - ia) * (j - ja):
                break
            hull.pop()
        hull.append((j, i))
    return lowest, hull


def _edge_polynomials(polygon: tuple) -> dict:
    """{(d, m): ascending coefficients of E(c)} over the edges of a Newton
    polygon (``_lower_hull``) of integral terms, keyed by the valuation d / m
    in lowest terms: E(c) = sum a_ji c^(j - j0) over the terms a_ji w^j z^i
    on the edge from (j0, i0).  A root c z^v + ... of valuation v makes
    those terms the lowest in z, so E's roots are the leading coefficients
    of the roots of valuation v."""
    lowest, hull = polygon
    edges = {}
    for (j0, i0), (j1, i1) in zip(hull, hull[1:]):
        width, drop = j1 - j0, i0 - i1
        coeffs = [(0, 0)] * (width + 1)
        for j in range(j0, j1 + 1):
            if j in lowest and (i0 - lowest[j][0]) * width == drop * (j - j0):
                coeffs[j - j0] = lowest[j][1]
        k = math.gcd(drop, width)
        edges[drop // k, width // k] = coeffs
    return edges


def _order_bound(polygon_f: tuple, polygon_g: tuple):
    """A lower bound on ord_z Res_w(f, g) from the Newton polygons of f and
    g (``_lower_hull``), or None where f and g share the root w = 0, so that
    Res_w is 0.  Res_w = lc_f^dg lc_g^df prod (a_i - b_j) over the roots a_i
    of f and b_j of g, and v(a - b) >= min(v(a), v(b)); a root at w = 0 has
    infinite valuation, so it takes the other's.  The m roots of an edge of
    f of z-drop d against the n of an edge of g of z-drop e give the
    integer m n min(d / m, e / n) = min(n d, m e).  Where the edges are
    apart (``_edges_apart``), every such v(a - b) is the min, and the bound
    is the order."""
    (_, hull_f), (_, hull_g) = polygon_f, polygon_g
    (zf, first_f), (df, lf) = hull_f[0], hull_f[-1]
    (zg, first_g), (dg, lg) = hull_g[0], hull_g[-1]
    if zf and zg:
        return None
    edges_f, edges_g = ([(j1 - j0, i0 - i1) for (j0, i0), (j1, i1) in zip(h, h[1:])] for h in (hull_f, hull_g))
    # the roots at w = 0 of one against all roots of the other: their drops telescope
    total = dg * lf + df * lg + zf * (first_g - lg) + zg * (first_f - lf)
    return total + sum(min(n * d, m * e) for m, d in edges_f for n, e in edges_g)


def _edges_apart(polygon_f: tuple, polygon_g: tuple) -> bool:
    """True if no root of f has both the valuation and the leading
    coefficient of a root of g, read off the Newton polygons of the
    integral terms (``_lower_hull``): for every valuation with an edge in
    both, the resultant of the two edge polynomials is nonzero modulo the
    table's first prime, so nonzero over the Gaussian integers.  Then, where
    f and g share no root w = 0 (``_order_bound`` is not None), v(a_i -
    b_j) = min(v(a_i), v(b_j)) in every factor of Res_w, which is nonzero
    and of order ``_order_bound``.  False also where p divides such a
    resultant."""
    p, iota, _ = _nth_prime(_MIN_LOG_LENGTH, 0)
    edges_f = _edge_polynomials(polygon_f)
    for valuation, eg in _edge_polynomials(polygon_g).items():
        if valuation in edges_f:
            pair = ([(re + im * iota) % p for re, im in e] for e in (edges_f[valuation], eg))
            if not _scalar_resultant_mod(*pair, p):
                return False
    return True


def _order_modulo(prime: tuple, layout: list, log_length: int):
    """Order at z = 0 of the resultant modulo ``prime`` = (p, iota, omega),
    or None where it is 0 modulo p: the w-coefficients of both polynomials
    at the N = 2^log_length powers of omega, their resultants of formal
    degrees deg_w f and deg_w g by ``_resultant_mod`` (a coefficient that
    vanishes there is dropped, see the module docstring), and the inverse
    transform up to the first nonzero coefficient.  Each array holds at
    most _WORK_CELLS cells: a batch has as many samples as the larger
    coefficient array fits, so every remainder work array, at most
    deg_w + 1 cells a sample, fits too."""
    p, iota, omega = prime
    length = 1 << log_length
    powers = np.ones(length, dtype=np.int64)  # powers[t] = omega^t
    width = 1
    while width < length:
        powers[width : 2 * width] = powers[:width] * omega % p
        omega, width = omega * omega % p, 2 * width
    polys = []
    for h, dw, dz in layout:
        coeffs = np.zeros((dw + 1, dz + 1), dtype=np.int64)
        for (wexp, zexp), (re, im) in h.items():
            coeffs[wexp, zexp] = (re + im * iota) % p
        polys.append((coeffs, np.arange(dz + 1)))
    # values[s] = Res(omega^s) modulo p
    chunk = max(1, _WORK_CELLS // max(c.size for c, _ in polys))
    values = np.empty(length, dtype=np.int64)
    for lo in range(0, length, chunk):
        sample = np.arange(lo, min(lo + chunk, length))[:, None, None]
        # each polynomial's w-coefficients at the samples
        rows = [(coeffs * powers[sample * zexp % length] % p).sum(axis=2) % p for coeffs, zexp in polys]
        values[lo : lo + chunk] = _resultant_mod(*rows, p)
    if not values.any():
        return None
    # N times coefficient k of Res modulo p: sum_s values[s] omega^(-s k)
    sample = np.arange(length)[:, None]
    step = max(1, _WORK_CELLS // length)
    for lo in range(0, length, step):
        k = np.arange(lo, min(lo + step, length))
        low = (values[:, None] * powers[-sample * k % length] % p).sum(axis=0) % p
        if low.any():
            return lo + int(np.argmax(low != 0))


def _resultant(f: dict, g: dict) -> tuple:
    """Orders at z = 0 of Res_w(f, g) modulo certifying primes, one for each
    prime where it does not vanish, or its exact order alone where a closed
    form or the Newton polygons give it; empty iff Res_w vanishes
    identically.

    f and g are terms {(w-exponent, z-exponent): (re, im)}, with no term for
    a zero polynomial.  Where the edges of the two Newton polygons are apart
    (``_edges_apart``), the bound ``_order_bound`` is the order, and no
    prime pass is taken.  Otherwise, modulo each prime p = 1 mod 4 (i maps
    to iota), the resultant in w is evaluated at the N-th roots of unity, N
    a power of two above the z-degree bound, and one inverse transform of
    those values gives its coefficients modulo p; primes are taken until
    their product exceeds the squared Hadamard bound, which certifies the
    least order and the zero test (see the module docstring).  Where f and
    g share the root w = 0, Res_w is 0 and no prime is taken.
    """
    f, g = _integral(f), _integral(g)
    if not f or not g:
        return ()
    (dwf, _), (dwg, _) = max(f), max(g)
    if dwf == 0 or dwg == 0:
        # Res_w = +-f^(deg_w g) for a w-free f, +-g^(deg_w f) for a w-free g
        base, power = (f, dwg) if dwf == 0 else (g, dwf)
        return (power * min(i for _, i in base),)
    polygons = _lower_hull(f), _lower_hull(g)
    bound = _order_bound(*polygons)
    if bound is None:
        return ()
    if _edges_apart(*polygons):
        return (bound,)
    _, layout, degree = _sylvester_layout(f, g)
    log_length = degree.bit_length()
    primes = _certifying_primes(log_length, _row_norms(f) ** dwg * _row_norms(g) ** dwf)
    orders = (_order_modulo(prime, layout, log_length) for prime in primes)
    return tuple(order for order in orders if order is not None)


def _z_order(res: tuple) -> int:
    """Order of vanishing at z = 0 of a nonzero resultant, from its orders
    modulo the certifying primes: none is below it, and one equals it."""
    return min(res)


_PAIR_DOMAIN = "second germ passes through the first germ's basepoint fiber away from 0"
_SELF_DOMAIN = "germ has self-intersection parameters in the z = 0 fiber away from 0"


def _require_small_domain(u: Germ, detail: str) -> None:
    """Refuse a germ whose p and q share a zero besides z = 0: a parameter
    mapped to the origin away from 0, which the resultants would count as
    if it were at 0.  The exact calculators and the oracles refuse alike."""
    if not u._far_zero_free:
        raise InputError(f"germ domain too large, rescale input: {detail}")


# -- critical order, tangents, normal form ------------------------------------


def critical_order(u: Germ):
    """Vanishing order k of the germ and its projectivized tangent.

    k = min(ord p, ord q); the differential vanishes exactly when k >= 2.
    The tangent is the coefficient pair of z^k, normalized so its first
    nonzero entry is 1.
    """
    k = min(u.exponents)
    a, b = _coeff(u.p, k), _coeff(u.q, k)
    if a:
        return k, (_ONE, b / a)
    return k, (_ZERO, _ONE)


def _exponents_of(coeffs: tuple) -> list:
    """Exponents of the nonzero terms of one coordinate."""
    return [e for e, c in enumerate(coeffs) if c]


def cover_index(u: Germ) -> int:
    """Largest m with u(z) = v(z^m) for a polynomial germ v."""
    return math.gcd(*u.exponents)


def is_simple(u: Germ) -> bool:
    return cover_index(u) == 1


def change_coordinates(u: Germ, matrix) -> Germ:
    """Apply an invertible exact 2x2 matrix to the target coordinates."""
    (m00, m01), (m10, m11) = matrix
    m00, m01, m10, m11 = (_to_gaussian(x) for x in (m00, m01, m10, m11))
    if m00 * m11 - m01 * m10 == 0:
        raise InputError("coordinate change matrix is singular")
    pq = [(_coeff(u.p, i), _coeff(u.q, i)) for i in range(max(len(u.p), len(u.q)))]
    p = [m00 * pc + m01 * qc for pc, qc in pq]
    q = [m10 * pc + m11 * qc for pc, qc in pq]
    return germ(p, q)


def reparametrize(u: Germ, a) -> Germ:
    """Precompose with z -> a z for an exact nonzero scalar a."""
    a = _to_gaussian(a)
    if a == 0:
        raise InputError("reparametrization scalar must be nonzero")
    p = [c * a**e for e, c in enumerate(u.p)]
    q = [c * a**e for e, c in enumerate(u.q)]
    return germ(p, q)


@dataclass(frozen=True)
class GermNormalForm:
    """Vanishing order, tangent, and branch contact orders of a germ.

    ``branch_orders[j-1]`` is the order beyond k at which the j-th rotated
    branch separates from the germ (j = 1, ..., k-1); None marks a branch
    identical to the germ, which happens exactly for multiple covers.
    """

    k: int
    tangent: tuple
    branch_orders: tuple


def normal_form(u: Germ) -> GermNormalForm:
    """Extract (k, tangent, branch orders) for a monomial-normal-form germ.

    After an exact linear change aligning the tangent with the first axis,
    the first coordinate must be exactly z^k (polynomial representatives of
    general germs need non-polynomial reparametrization, which is out of
    scope); branch orders then come from the exponents of the second
    coordinate: the j-th rotated branch separates at the smallest exponent
    e with a nonzero coefficient and j*e not divisible by k.
    """
    k, _ = critical_order(u)
    a, b = _coeff(u.p, k), _coeff(u.q, k)
    if a != 0:
        aligned = change_coordinates(u, ((1 / a, 0), (-b / a, 1)))
    else:
        aligned = change_coordinates(u, ((0, 1 / b), (1, 0)))
    p_mono = (_ZERO,) * k + (_ONE,)
    if aligned.p != p_mono:
        # the aligning shear is not unique: adding a multiple of the second
        # coordinate is still aligned, and may cancel the excess terms
        degrees = range(max(len(aligned.p), len(aligned.q)))
        excess = [_coeff(aligned.p, i) - _coeff(p_mono, i) for i in degrees]
        hat = [_coeff(aligned.q, i) for i in degrees]
        # solve excess + t * hat == 0 coefficientwise for a single scalar t
        solvable = all(e == 0 for e, h in zip(excess, hat) if h == 0)
        ratios = {-e / h for e, h in zip(excess, hat) if h != 0}
        if solvable and len(ratios) == 1:
            aligned = change_coordinates(aligned, ((1, ratios.pop()), (0, 1)))
        if aligned.p != p_mono:
            raise InputError(
                "germ is not in monomial normal form after aligning the tangent; "
                "branch orders are undefined for general polynomial representatives"
            )
    hat = aligned.q
    exponents = [e for e, c in enumerate(hat) if c != 0]
    orders = []
    for j in range(1, k):
        separating = [e for e in exponents if (j * e) % k != 0]
        orders.append(min(separating) - k if separating else None)
    return GermNormalForm(k, (a, b), tuple(orders))


def delta_from_normal_form(nf: GermNormalForm) -> int:
    """Double-point count of a simple normal-form germ from branch orders:
    half the sum of (k + l_j - 1) over the k-1 rotated branches."""
    if any(l is None for l in nf.branch_orders):
        raise InputError("not simple: germ has identical rotated branches")
    total = sum(nf.k + l - 1 for l in nf.branch_orders)
    if total % 2 != 0:
        raise InputError(f"branch orders give an odd double-point total {total}")
    return total // 2


# -- exact intersection numbers -----------------------------------------------


@lru_cache(maxsize=256)
def _pair_resultant(u: Germ, v: Germ) -> tuple:
    """Res_w(p_u(z) - p_v(w), q_u(z) - q_v(w)) as ``_resultant`` gives it,
    after the refusals local_intersection and its oracle share; an oracle
    ladder asks for the same pair in every cell."""
    _require_small_domain(v, _PAIR_DOMAIN)
    res = _resultant(_difference_terms(u.p, v.p), _difference_terms(u.q, v.q))
    if not res:
        raise InputError("identical images / common branch: resultant vanishes identically")
    return res


def local_intersection(u: Germ, v: Germ) -> int:
    """Local intersection multiplicity of two germs at the origin.

    Computed as the order of vanishing at z = 0 of the resultant in w of
    (p_u(z) - p_v(w), q_u(z) - q_v(w)); always >= 1, and equal to the
    algebraic count of intersections surviving near 0 after perturbation.
    """
    order = _z_order(_pair_resultant(u, v))
    if order < 1:
        raise InvarianceError(f"exact germ invariant broken: intersection order {order} < 1")
    return order


def _double_point_refusals(u: Germ):
    """The refusals delta_local and its oracle share.  Returns delta for a
    germ with a vanishing coordinate (0 when the other one f has f'(0) != 0,
    else it has a curve of double points), None for the others."""
    if not is_simple(u):
        raise InputError("not simple: germ is a multiple cover")
    if u.p and u.q:
        _require_small_domain(u, _SELF_DOMAIN)
        return None
    if (u.p or u.q)[1]:
        return 0
    raise InputError("non-isolated double points: a coordinate is constant")


def delta_local(u: Germ) -> int:
    """Double-point count delta(u, 0) of a simple germ at the origin.

    Half the intersection multiplicity at 0 of the divided differences of
    p and q; zero exactly for immersed germs, and at least k(k-1)/2 when
    the vanishing order is k.
    """
    delta = _double_point_refusals(u)
    k, _ = critical_order(u)
    if delta is None:
        res = _resultant(_divided_difference_terms(u.p), _divided_difference_terms(u.q))
        if not res:
            raise InputError("non-isolated double points: divided differences share a component")
        order = _z_order(res)
        if order % 2 != 0:
            raise InvarianceError(f"exact germ invariant broken: odd double-point order {order}")
        delta = order // 2
    if (delta == 0) != (k == 1) or delta < k * (k - 1) // 2:  # zero iff immersed, >= k(k-1)/2
        raise InvarianceError(f"exact germ invariant broken: delta {delta} at vanishing order {k}")
    return delta


def branched_cover(u: Germ, k: int) -> Germ:
    """Precompose with z -> z^k.  Intersection numbers scale by the product
    of the two covering multiplicities."""
    k = read_multiplicity(k)
    if k == 1:
        return u

    def stretch(coeffs):
        return [coeffs[e // k] if e % k == 0 else 0 for e in range(k * len(coeffs) - k + 1)]

    return germ(stretch(u.p), stretch(u.q))


# -- floating-point oracle path ------------------------------------------------


def _numeric_divided_difference(coeffs: np.ndarray) -> np.ndarray:
    """2D array B[i, j] = coefficient of z^i w^j of (f(z)-f(w))/(z-w)."""
    deg = len(coeffs) - 1
    if deg < 1:
        return np.zeros((1, 1), dtype=complex)
    out = np.zeros((deg, deg), dtype=complex)
    for e in range(1, deg + 1):
        c = coeffs[e]
        if c != 0:
            for i in range(e):
                out[i, e - 1 - i] += c
    return out


def _numeric_difference(cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    nz = max(len(cu), 1)
    nw = max(len(cv), 1)
    out = np.zeros((nz, nw), dtype=complex)
    out[: len(cu), 0] += cu
    out[0, : len(cv)] -= cv
    return out


def _degrees(b: np.ndarray) -> tuple[int, int]:
    """Degrees in z and in w of B[i, j] (coefficient of z^i w^j), ignoring
    coefficients below COEFF_TRIM_TOL of the largest; -1 where none is left."""
    magnitude = np.abs(b)
    scale = magnitude.max()
    if scale == 0:
        return -1, -1
    large = magnitude > COEFF_TRIM_TOL * scale
    lines = (np.flatnonzero(large.any(axis=axis)) for axis in (1, 0))
    return tuple(int(line[-1]) if len(line) else -1 for line in lines)


def numeric_resultant_w(bf: np.ndarray, bg: np.ndarray, circle: float) -> np.ndarray:
    """Resultant in w of two bivariate complex polynomials, rescaled.

    Returns the ascending coefficients of R(circle * zeta) in zeta, where
    R(z) = Res_w.  Sampling the Sylvester determinant on the circle where
    roots will be counted keeps the coefficients balanced even when many
    roots cluster inside it; on the unscaled unit circle the low-order
    coefficients of a tight degree-18 cluster drown in roundoff.

    The Sylvester matrices at all the samples are stacked and go to one
    batched determinant, in chunks of at most _WORK_CELLS entries; LAPACK
    still factors each matrix on its own, so every value is the one a
    determinant of that matrix alone gives.  The work is that of a
    _ResultantPlan built for the two arrays.
    """
    return _ResultantPlan(bf, bg, circle).resultant()


class _ResultantPlan:
    """numeric_resultant_w of (bf, bg) on one circle, with the work that a
    change of one polynomial's z^0 w^0 coefficient leaves alone done once.

    The oracles perturb by adding epsilon there, to g's divided difference
    (``moving`` 1) or to f's difference (``moving`` 0).  The plan holds both
    degrees, the samples' z-powers and a Sylvester stack of both row sets.
    A draw with |b00 + epsilon| at most ``room``, the largest entry of the
    moving array without b00, has the plan's degrees whenever the plan's own
    b00 is within ``room`` (``steady``): the largest entry still sets the
    trim scale, and index 0 raises no last index.  Such a draw recomputes
    the moving rows by the same product and lays them into a copy of the
    stack; any other draw is planned afresh, as numeric_resultant_w would.
    """

    def __init__(self, bf: np.ndarray, bg: np.ndarray, circle: float, moving: int = 1):
        # a radius or epsilon too large overflows the samples; _trimmed refuses the result
        with np.errstate(over="ignore", invalid="ignore"):
            # a float circle: an int's powers in _closed_form wrap int64 past 3**39
            self.arrays, self.circle, self.moving = (bf, bg), float(circle), moving
            magnitude = np.abs(self.arrays[moving])
            magnitude[0, 0] = 0
            self.room = magnitude.max()
            self.steady = np.abs(self.arrays[moving][0, 0]) <= self.room
            self.degrees = [_degrees(bf), _degrees(bg)]
            (dfz, df), (dgz, dg) = self.degrees
            self.stack = None
            if min(df, dg) <= 0:
                return  # a closed form; nothing to sample
            self.samples = samples = dfz * dg + dgz * df + 1
            zs = circle * np.exp(2j * np.pi * np.arange(samples) / samples)
            # (samples, deg_z + 1) each; a column of a wider vander may differ in its last bit
            self.zpow = [np.vander(zs, dz + 1, increasing=True) for dz, _ in self.degrees]
            self.stack = _sylvester_stack(*map(self._rows, self.arrays, (0, 1)))
            self.chunk = max(1, _WORK_CELLS // (df + dg) ** 2)

    def _rows(self, b: np.ndarray, which: int) -> np.ndarray:
        """The values at the samples of the w-coefficients of ``b``, in the
        place of polynomial ``which``: (samples, deg_w + 1)."""
        dz, dw = self.degrees[which]
        return self.zpow[which] @ b[: dz + 1, : dw + 1]

    def resultant(self, epsilon: complex | None = None) -> np.ndarray:
        """numeric_resultant_w of the arrays, with ``epsilon`` added to the
        moving one's z^0 w^0 coefficient unless it is None."""
        with np.errstate(over="ignore", invalid="ignore"):
            arrays = self.arrays
            if epsilon is not None:
                arrays = list(arrays)
                arrays[self.moving] = b = arrays[self.moving].copy()
                b[0, 0] += epsilon
                if not (self.steady and np.abs(b[0, 0]) <= self.room):
                    return _ResultantPlan(*arrays, self.circle, self.moving).resultant()
            if self.stack is None:
                return self._closed_form(*arrays)
            rows = None if epsilon is None else self._rows(arrays[self.moving], self.moving)
            values = []
            for lo in range(0, self.samples, self.chunk):
                stack = self.stack[lo : lo + self.chunk]
                if rows is not None:
                    stack = stack.copy()
                    _place_rows(stack, rows[lo : lo + self.chunk], self.moving)
                values.append(np.linalg.det(stack))
            # coefficients from values at the roots of unity: c_m = (1/n) sum_s v_s w^{-sm}
            return np.fft.fft(np.concatenate(values)) / self.samples

    def _closed_form(self, bf: np.ndarray, bg: np.ndarray) -> np.ndarray:
        """The resultant where a polynomial is zero or free of w."""
        (_, df), (_, dg) = self.degrees
        if df < 0 or dg < 0:
            return np.zeros(1, dtype=complex)
        if df == 0 and dg == 0:
            return np.ones(1, dtype=complex)
        # Res(f, g) = f^{deg g} when f is free of w
        base, power = (bf[:, 0], dg) if df == 0 else (bg[:, 0], df)
        scaled = base * self.circle ** np.arange(len(base))
        out = np.polynomial.polynomial.polypow(scaled, power) if power > 0 else np.ones(1)
        return np.asarray(out, dtype=complex)


def _trimmed(coeffs: np.ndarray) -> tuple[int, np.ndarray]:
    """(multiplicity at 0, kept coefficients) of a polynomial rescaled so
    that the counting circle is |zeta| = 1.  Low-order coefficients below
    COEFF_TRIM_TOL of the largest count as an exact root at 0, high-order
    ones are dropped."""
    magnitude = np.abs(coeffs)
    scale = magnitude.max()
    if not np.isfinite(scale):
        raise InputError("oracle resultant is not finite; shrink the radius or epsilon")
    if scale == 0:
        raise InputError("oracle resultant vanished identically")
    keep = np.flatnonzero(magnitude > COEFF_TRIM_TOL * scale)
    first, last = int(keep[0]), int(keep[-1])
    return first, coeffs[first : last + 1]


def _roots(kept: np.ndarray) -> np.ndarray:
    """Roots of the ascending coefficients ``kept`` (both ends nonzero): the
    eigenvalues of the companion matrix, built as np.roots builds it."""
    p = kept[::-1]
    if len(p) < 2:
        return np.zeros(0)
    companion = np.diag(np.ones(len(p) - 2, p.dtype), -1)
    companion[0, :] = -p[1:] / p[0]
    return np.linalg.eigvals(companion)


def _hits_edge(roots: np.ndarray, edge_tol: float) -> bool:
    """True if a root lies within edge_tol of the counting circle."""
    return bool(np.any(np.abs(np.abs(roots) - 1.0) < edge_tol))


def _embedded_radius_check(res0_scaled: np.ndarray, edge_tol: float, what: str):
    """Reject a counting disk that contains unperturbed solution parameters."""
    if not np.any(res0_scaled):
        return  # resultant-zero cases are reported by the draws
    roots = _roots(_trimmed(res0_scaled)[1])
    if len(roots) and np.min(np.abs(roots)) <= 1.0 + edge_tol:
        raise InputError(
            f"radius too large: {what} within the chosen disk; shrink the radius"
        )


def _number(value, kind):
    """``value`` as a ``kind``, float or complex; infinite past the float range."""
    try:
        return kind(value)
    except OverflowError:  # an int or a Fraction beyond the float range
        return kind(math.inf)


def _shown(value) -> str:
    """repr of a number, or its type for an int too long for str."""
    try:
        return repr(value)
    except ValueError:
        return f"{type(value).__name__} of more than {sys.get_int_max_str_digits()} digits"


def _check_perturbation(epsilon, radius) -> tuple[complex, float]:
    """Epsilon as a complex and the radius as a float, as every later step
    reads them; refused unless finite, the radius unless positive, epsilon
    if zero, and either if it is nonzero but underflows to a float zero."""
    typed(radius, numbers.Real, "radius")
    typed(epsilon, numbers.Complex, "epsilon")
    e, r = _number(epsilon, complex), _number(radius, float)
    if not (0 < r < np.inf):
        rule = "positive as a float" if r == 0 < radius else "positive and finite"
        raise InputError(f"radius must be {rule}, got {_shown(radius)}")
    if not np.isfinite(e):
        raise InputError(f"epsilon must be finite, got {_shown(epsilon)}")
    if e == 0:
        got = f" as a float, got {_shown(epsilon)}" if epsilon != 0 else ""
        raise InputError(f"epsilon must be nonzero{got}")
    return e, r


@lru_cache(maxsize=32)
def _disk_plan(u: Germ, v: Germ | None, radius: float) -> _ResultantPlan:
    """The counting disk of one (germs, radius): the resultant plan, on
    read-only arrays, that the radius pre-check and every draw on the circle
    evaluate, returned once the check passes.  The arrays are the divided
    differences of u's p and q with epsilon at q's z^0 w^0, or, given v, the
    differences p_u(z) - p_v(w) and q_u(z) - q_v(w) with epsilon at p's.  The
    cells of a ladder share a disk and a ladder visits a few radii, so a few
    disks are kept; a refusal is an exception, which lru_cache does not store."""
    if v is None:
        arrays, moving = (_numeric_divided_difference(c) for c in u.numeric), 1
        what = "germ has self-intersections"
    else:
        arrays, moving = (_numeric_difference(a, b) for a, b in zip(u.numeric, v.numeric)), 0
        what = "germs intersect away from the origin but"
    plan = _ResultantPlan(*_read_only(*arrays), radius, moving)
    _embedded_radius_check(plan.resultant(), ROOT_EDGE_TOL / radius, what)
    return plan


def _turns(epsilon: complex, seed: int):
    """epsilon, then epsilon turned by seeded random phases, MAX_EPSILON_REDRAWS
    in all.  The turns serve a root on the circle and an unpaired parameter,
    the failures a phase can move.  The generator is made at the first turn,
    so a cell that its first draw answers or ends makes none."""
    yield epsilon
    rng = np.random.default_rng(seed)
    for _ in range(MAX_EPSILON_REDRAWS - 1):
        yield epsilon * np.exp(2j * np.pi * rng.random())


def _redraw(draw, epsilon: complex, seed: int) -> int:
    """The count of the first perturbation ``draw(eps)`` accepts.

    The first draw uses epsilon itself, each later one epsilon turned by a
    seeded random phase; a draw returns its count, or the reason it failed
    as a string.  A draw stuck at the origin (STUCK_AT_THE_ORIGIN) ends the
    cell at once, since its resultant's low-order size moves with |epsilon|
    and not with the phase; any other failure is redrawn, and the last one
    is reported if every draw fails.
    """
    for draws, eps in enumerate(_turns(epsilon, seed), 1):
        result = draw(eps)
        if not isinstance(result, str):
            return result
        if result == STUCK_AT_THE_ORIGIN:
            raise InputError(
                f"oracle failed: {result} at draw {draws}; a turn of epsilon's phase cannot move them"
            )
        last_failure = result
    raise InputError(f"oracle failed: {last_failure} after {MAX_EPSILON_REDRAWS} draws")


def numeric_double_point_oracle(
    u: Germ, epsilon: complex = 1e-3, radius: float = 0.3, seed: int = 0
) -> int:
    """Count double points of a perturbed germ inside a disk, numerically.

    The germ is perturbed to (p(z), q(z) + eps z); ordered self-intersection
    parameter pairs are the roots of the resultant of the perturbed divided
    differences, counted inside |z| < radius via companion-matrix
    eigenvalues and halved.  Must agree with delta_local on valid inputs;
    shares its exact refusals and its rule for a constant coordinate.
    """
    seed = read_seed(seed)
    epsilon, radius = _check_perturbation(epsilon, radius)
    delta = _double_point_refusals(u)
    if delta is not None:
        return delta
    plan = _disk_plan(u, None, radius)
    edge_tol = ROOT_EDGE_TOL / radius

    def draw(eps):
        # q(z) + eps z - (q(w) + eps w) divided by (z - w) adds the constant eps
        zero_mult, kept = _trimmed(plan.resultant(eps))
        if zero_mult:
            return STUCK_AT_THE_ORIGIN
        roots = _roots(kept)
        if _hits_edge(roots, edge_tol):
            return "radius on a root, retry"
        count = int(np.sum(np.abs(roots) < 1.0))
        if count % 2 != 0:
            return "unpaired intersection parameter (partner escaped the disk)"
        return count // 2

    return _redraw(draw, epsilon, seed)


def numeric_intersection_oracle(
    u: Germ, v: Germ, epsilon: complex = 1e-3, radius: float = 0.3, seed: int = 0
) -> int:
    """Count intersections of two perturbed germs in a bidisk, numerically.

    The first germ is shifted to (p_u(z) + eps, q_u(z)) and the solution
    parameters are counted inside |z| < radius via companion-matrix roots
    of the resultant eliminating w.  The radius pre-check guarantees the
    unperturbed germs have no intersection parameters with |z| <= radius
    apart from the origin, so for small eps the count equals the number of
    perturbed intersections in the bidisk.  Must agree with
    local_intersection on valid inputs, and shares its exact refusals
    (too large a domain, identical images).
    """
    seed = read_seed(seed)
    epsilon, radius = _check_perturbation(epsilon, radius)
    # a coefficient out of complex128 range is refused before any exact work;
    # the other refusals are exact (shared components make the float
    # resultant meaningless at any tolerance), and the count stays float
    u.numeric, v.numeric
    _pair_resultant(u, v)
    plan = _disk_plan(u, v, radius)
    edge_tol = ROOT_EDGE_TOL / radius

    def draw(eps):
        # the resultant root z of a solution (z, w) does not see where w is,
        # but the radius pre-check has excluded unperturbed solutions with
        # |z| <= radius and w anywhere, so for small eps every perturbed
        # solution counted here lies in the bidisk; roots deflated to 0
        # are perturbed solutions too
        zero_mult, kept = _trimmed(plan.resultant(eps))
        roots = _roots(kept)
        if _hits_edge(roots, edge_tol):
            return "radius on a root, retry"
        return zero_mult + int(np.sum(np.abs(roots) < 1.0))

    return _redraw(draw, epsilon, seed)


# -- germ file format ----------------------------------------------------------

_GERM_KEYS = {"p", "q"}


def _coeff_from_json(entry):
    if not (isinstance(entry, (list, tuple)) and len(entry) == 4):
        raise InputError(f"germ coefficient {entry!r} must be [re_num, re_den, im_num, im_den]")
    re_num, re_den, im_num, im_den = (
        typed(x, int, f"each part of germ coefficient {entry!r}") for x in entry
    )
    if re_den == 0 or im_den == 0:
        raise InputError("germ coefficient has zero denominator")
    return GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))


def _coeff_to_json(c):
    return [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]


def germ_from_dict(data: dict) -> Germ:
    obj = JsonObject(data, _GERM_KEYS, "germ file", "germ file")
    p = [_coeff_from_json(c) for c in obj.field("p", list, [])]
    q = [_coeff_from_json(c) for c in obj.field("q", list, [])]
    return germ(p, q)


def germ_to_dict(u: Germ) -> dict:
    return {"p": [_coeff_to_json(c) for c in u.p], "q": [_coeff_to_json(c) for c in u.q]}


def load_germ(path) -> Germ:
    return germ_from_dict(read_json(path, "germ"))
