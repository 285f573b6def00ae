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
and of order exactly L.  That resultant is read off the terms as given:
modulo one prime p = 1 mod 4, where i maps to iota with iota^2 = -1, each
Gaussian-rational coefficient reduces from its numerators and denominators
(_residues) while p divides no denominator, the image of the resultant is
the resultant of the images, and a nonzero image proves it nonzero
(_nonzero_resultant_mod, the one modular test).
The same certificate settles the domain check, which refuses a germ whose
coordinates share a zero besides z = 0: the valuation-0 edge polynomials
are those coordinates with their powers of z stripped (of the second germ
for a pair), so edges apart prove that they share no such zero.  The
check, the same modular test on the two coordinates and else a gcd over
Q(i) by Euclid on Fulton's division (_remainder), runs only where the
certificate does not answer, and then before anything else, so its refusal
still comes first.
Every other case, a w-free f or g, a shared leading coefficient, an R
that vanishes identically or an edge resultant or denominator that p
divides, takes Fulton's intersection algorithm (W. Fulton, Algebraic
Curves, sec. 3.3) over the fiber z = 0.  Where f or g has a nonzero
constant leading w-coefficient, the order of R is J(f, g), the sum of
the intersection numbers at the points (0, w0), infinite where R = 0.  J
is unchanged by f -> a f - A g for any polynomial A and any a with a(0, w)
a nonzero constant; J(z^k h, g) = k deg g(0, w) + J(h, g); and J(f, g) = 0
where f(0, w) is a nonzero constant.  So the algorithm divides in w by a
divisor whose leading coefficient is nonzero at z = 0, or else by its
Weierstrass polynomial, and takes out powers of z; the w-degrees fall, so
it ends.  Terms of high z-order cannot move a small J, so they are dropped
below a precision that grows up to D + 1, D = deg_z f deg_w g + deg_z g
deg_w f the largest order of a nonzero R: a J that reaches it proves
R = 0.  All of it is exact, in ints and Fractions, with no prime, no
factoring, no field extension and no numpy, which is bound lazily and runs
on first numeric use: Germ.numeric and the oracles.

A second, independent path perturbs the germ and counts the intersection
parameters inside a small disk in floating point: the certified winding of
the unperturbed resultant on its circle (_winding, by ``winding``), which
the perturbed draw keeps by Rouche's test (_rouche).  Epsilon moves one
coefficient, so each disk holds the exact expansion of its draws in epsilon
(_ResultantPlan.expansion), and a cell reads its draw off it with no
determinant.  The two paths are checked against each other throughout the
test suite.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps

from ._lazy import lazy_import
from .errors import InputError, InvarianceError
from .jsonio import JsonObject, read_json, read_multiplicity, read_seed, typed
from .winding import MAX_WINDING_SAMPLES, arcs as _arcs, windings

np = lazy_import("numpy")  # run on first numeric use; see the module docstring

COEFF_TRIM_TOL = 1e-11
PRIME = 2147389441  # 1 mod 4, so that -1 has a square root modulo it
IOTA = 815951605  # IOTA^2 = -1 modulo PRIME: the image of i


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
        """hash(re) for im = 0, else hash((re, im)), as on the Fraction
        parts.  A part with denominator 1 is hashed as its int numerator,
        since hash(Fraction(n, 1)) == hash(n) by Python's numeric hash, and
        the int hash spares Fraction.__hash__'s modular inverse."""
        re, im = self.re, self.im
        if re.denominator == 1:
            re = re.numerator
        if im.denominator == 1:
            im = im.numerator
        return hash((re, im)) if im else hash(re)

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
        looks the germ up in the oracle's order and disk caches.  The exact
        calculators cache nothing, so they never hash a germ."""
        return hash((self.p, self.q))

    @cached_property
    def _far_zero_free(self) -> bool:
        """True if p and q share no zero besides z = 0 (see
        ``_require_small_domain``); computed once, since every cell of an
        oracle ladder asks again.  With the powers of z stripped, a zero
        coordinate leaves the other's zeros, and otherwise the two share one
        iff their gcd over Q(i) is not a constant.  A resultant that is
        nonzero modulo the edge check's prime (``_nonzero_resultant_mod``)
        proves the gcd constant in a few Python ints; Euclid decides the
        rest, on rows {e: {0: (re, im)}} of Fulton's division ``_remainder``,
        where a remainder of lower degree than its divisor swaps the two.
        No numpy either way."""
        p, q = (f[_exponents_of(f)[0] :] if f else f for f in (self.p, self.q))
        if not (p and q):
            return len(_exponents_of(p or q)) == 1
        if _nonzero_resultant_mod(*([(c.re, c.im) for c in f] for f in (p, q))):
            return True
        f, g = ({e: {0: x} for e, x in _parts(h)} for h in (p, q))
        while g:
            f, g = g, _remainder(f, g, 1)
        return max(f) == 0

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


# -- exact resultant orders ------------------------------------------------------




def _exact(x):
    """A rational as an int where it is one: int arithmetic is the fast
    path of Fulton's algorithm, whose terms are mostly integers."""
    return x.numerator if x.denominator == 1 else x


def _parts(coeffs) -> list:
    """(exponent, (re, im)) of each nonzero coefficient, each part an int
    where it is one (``_exact``).  The shared zero, the gaps of a branched
    cover, is skipped by identity, and the rest are tested on their parts,
    with no call of ``GaussianRational.__bool__``."""
    return [(e, (_exact(c.re), _exact(c.im))) for e, c in enumerate(coeffs) if c is not _ZERO and (c.re or c.im)]


def _difference_terms(coeffs_u, coeffs_v) -> dict:
    """Terms {(w-exponent, z-exponent): (re, im)} of p_u(z) - p_v(w)."""
    terms = {(0, i): c for i, c in _parts(coeffs_u)}
    terms.update({(j, 0): (-re, -im) for j, (re, im) in _parts(coeffs_v)})  # both p(0) are 0
    return terms


def _divided_difference_terms(coeffs) -> dict:
    """Terms of (f(z) - f(w)) / (z - w)."""
    return {(e - 1 - i, i): c for e, c in _parts(coeffs) for i in range(e)}


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
    polygon (``_lower_hull``), keyed by the valuation d / m in lowest
    terms: E(c) = sum a_ji c^(j - j0) over the terms a_ji w^j z^i on the
    edge from (j0, i0).  A root c z^v + ... of valuation v makes those
    terms the lowest in z, so E's roots are the leading coefficients of the
    roots of valuation v."""
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


def _scalar_resultant_mod(f: list, g: list, p: int) -> int:
    """Res_{m,n}(f, g) modulo p of ascending coefficients in [0, p) of
    formal degrees m and n, the lengths less one, by a remainder sequence:
    a leading g_n = 0 drops, Res_{m,n}(f, g) = f_m Res_{m,n-1}(f, g), and
    otherwise Res_{m,n}(f, g) = (-1)^(mn) g_n^(m-n+1) Res_{n,n-1}(g, f mod
    g).  Every step keeps m >= n, so only the first can swap."""
    value = 1
    if len(f) < len(g):
        f, g, value = g, f, (-1) ** ((len(f) - 1) * (len(g) - 1))
    while len(g) > 1:
        m, n, lead = len(f) - 1, len(g) - 1, g[-1]
        if not lead:
            value, g = value * f[-1] % p, g[:-1]
            continue
        inverse, r = pow(lead, -1, p), list(f)
        for top in range(m, n - 1, -1):  # r[top] goes to 0 and is dropped
            q = r[top] * inverse % p
            for k in range(n):
                r[top - n + k] -= q * g[k]
        value = value * (-1) ** (m * n) * pow(lead, m - n + 1, p) % p
        f, g = g, [c % p for c in r[:n]]
    return value * pow(g[0], len(f) - 1, p) % p


def _residues(coeffs) -> list:
    """Gaussian rationals (re, im) modulo PRIME, i mapped to IOTA, each from
    its numerators and denominators: a ring map where PRIME divides no
    denominator, and a ValueError (no inverse) where it divides one."""
    return [
        (re.numerator * im.denominator + IOTA * im.numerator * re.denominator)
        * pow(re.denominator * im.denominator, -1, PRIME)
        % PRIME
        for re, im in coeffs
    ]


def _nonzero_resultant_mod(f: list, g: list) -> bool:
    """True if the resultant of f and g, ascending coefficients (re, im)
    over Q(i), is nonzero modulo PRIME (``_residues``), which proves it
    nonzero; False where PRIME divides it or a denominator."""
    try:
        f, g = _residues(f), _residues(g)
    except ValueError:
        return False
    return _scalar_resultant_mod(f, g, PRIME) != 0


def _edges_apart(polygon_f: tuple, polygon_g: tuple) -> bool:
    """True if no root of f has both the valuation and the leading
    coefficient of a root of g, read off the Newton polygons of the terms as
    given (``_lower_hull``): for every valuation with an edge in both, the
    resultant of the two edge polynomials is nonzero modulo the prime
    (``_nonzero_resultant_mod``), so nonzero over Q(i).  Then, where f and
    g share no root w = 0 (``_order_bound`` is not None), v(a_i - b_j) =
    min(v(a_i), v(b_j)) in every factor of Res_w, which is nonzero and of
    order ``_order_bound``.  False also where the prime divides such a
    resultant or an edge coefficient's denominator."""
    edges_f = _edge_polynomials(polygon_f)
    return all(
        _nonzero_resultant_mod(edges_f[valuation], eg)
        for valuation, eg in _edge_polynomials(polygon_g).items()
        if valuation in edges_f
    )


def _rows(terms: dict) -> dict:
    """Terms {(w-exponent, z-exponent): (re, im)} as rows {j: {i: (re, im)}}."""
    rows = {}
    for (j, i), x in terms.items():
        rows.setdefault(j, {})[i] = x
    return rows


def _quotient(x: tuple, y: tuple) -> tuple:
    """x / y for Gaussian rationals (re, im), y nonzero."""
    (a, b), (c, d) = x, y
    norm = c * c + d * d
    return _exact(Fraction(a * c + b * d) / norm), _exact(Fraction(b * c - a * d) / norm)


def _subtract(h: dict, q: tuple, shift: int, g: dict, precision: int) -> None:
    """h -= x z^i w^shift g in place, for q = (i, x) and x = (re, im),
    leaving out the terms of z-order ``precision`` or more and the terms
    and rows that cancel."""
    di, (qa, qb) = q
    for j, row in g.items():
        target = h.setdefault(j + shift, {})
        for i, (ga, gb) in row.items():
            if i + di >= precision:
                continue
            a, b = target.pop(i + di, (0, 0))
            if qb:
                a, b = a - (qa * ga - qb * gb), b - (qa * gb + qb * ga)
            else:
                a, b = a - qa * ga, b - qa * gb
            if a or b:
                target[i + di] = a, b
        if not target:
            del h[j + shift]


def _remainder(h: dict, g: dict, precision: int) -> dict:
    """h modulo g in w, g's leading w-coefficient c(z) nonzero at z = 0:
    whole division where c is a constant, else the pseudo-remainder, which
    multiplies h by c once per step."""
    n = max(g)
    lead = g[n]
    for top in range(max(h), n - 1, -1):
        if top not in h:
            continue
        if lead.keys() == {0}:
            row = {i: _quotient(x, lead[0]) for i, x in h[top].items()}
        else:
            h, row = {}, h
            for i, (a, b) in lead.items():
                _subtract(h, (i, (-a, -b)), 0, row, precision)
            row = row[top]
        for q in row.items():  # cancels the row top of h
            _subtract(h, q, top - n, g, precision)
    return h


def _weierstrass(h: dict, s: int, precision: int) -> dict:
    """The monic W of w-degree s = deg h(0, w) that divides h modulo
    z^precision, with h = u W and u(0, w) the constant u_0: from W = h(0, w)
    / u_0, W += (h mod W) / u_0 until h mod W is 0, each pass raising its
    z-order, since the quotient is u_0 at z = 0."""
    u0 = h[s][0]
    w = {j: {0: _quotient(row[0], u0)} for j, row in h.items() if 0 in row}
    while rest := _remainder({j: dict(row) for j, row in h.items()}, w, precision):
        _subtract(w, (0, _quotient((-1, 0), u0)), 0, rest, precision)
    return w


def _fiber_order(f: dict, g: dict) -> int | None:
    """ord_z Res_w(f, g) by Fulton's algorithm (see the module docstring),
    or None where Res_w vanishes identically, for terms as ``_resultant``
    takes them, one of f and g with a nonzero constant leading
    w-coefficient.  A pair that differs from (f, g) by multiples of z^P,
    P > J, has the same J (an ideal of colength n holds the n-th power of
    the maximal ideal; Fulton sec. 2.9), and one with J >= P has J >= P.
    So each pass drops the terms of z-order at least the precision less the
    J counted so far, and the precision doubles from 8 up to D + 1, so that
    a small J, the common case, keeps few terms."""
    limit = sum(max(i for _, i in a) * max(j for j, _ in b) for a, b in ((f, g), (g, f)))
    precision = 8
    while True:
        pair, total = [_rows(f), _rows(g)], 0
        while True:
            kept = min(precision, limit + 1) - total  # no term is left once J reaches it
            pair = [{j: r for j, row in h.items() if (r := {i: x for i, x in row.items() if i < kept})} for h in pair]
            degrees = [max((j for j, row in h.items() if 0 in row), default=-1) for h in pair]
            if 0 in degrees:
                return total
            if max(degrees) < 0 or not all(pair):
                break
            if min(degrees) < 0:
                at = degrees.index(-1)
                k = min(min(row) for row in pair[at].values())
                total += k * degrees[1 - at]
                pair[at] = {j: {i - k: x for i, x in row.items()} for j, row in pair[at].items()}
                continue
            pair = [_weierstrass(h, s, kept) if max(h) > s else h for h, s in zip(pair, degrees)]
            at = int(max(pair[0]) < max(pair[1]))
            pair[at] = _remainder(pair[at], pair[1 - at], kept)
        if precision > limit:
            return None
        precision *= 2


def _resultant(f: dict, g: dict, domain: tuple | None = None) -> int | None:
    """ord_z Res_w(f, g), or None iff Res_w vanishes identically.

    f and g are terms {(w-exponent, z-exponent): (re, im)}, rational, with
    no term for a zero polynomial, and one of them has a nonzero constant
    leading w-coefficient: -lc p_v or -lc q_v for a pair's differences, the
    top coefficient of p or q for a germ's divided differences.  Where both
    have positive w-degree, share no root w = 0 (``_order_bound`` is not
    None) and the edges of their Newton polygons, read off the terms as
    given, are apart (``_edges_apart``), the bound is the order, and nothing
    else is computed.  Every other answer first runs
    ``_require_small_domain(*domain)`` where ``domain`` = (germ, detail) is
    given, so its refusal comes before any other.  The certificate needs no
    such check: the valuation-0 edge polynomials of the pair differences are
    the second germ's coordinates with their powers of z stripped, -p_v(c) /
    c^a and -q_v(c) / c^b, and those of a germ's divided differences are
    p(c) / c^a and q(c) / c^b, so a nonzero edge resultant proves that the
    two share no zero besides 0; a monomial coordinate has no such edge and
    no such zero, and a zero one leaves a w-free difference, which the
    certificate does not take.  Then Fulton's algorithm gives the order
    (``_fiber_order``), or None for an empty difference.
    """
    if f and g and max(f)[0] and max(g)[0]:
        polygons = _lower_hull(f), _lower_hull(g)
        bound = _order_bound(*polygons)
        if bound is not None and _edges_apart(*polygons):
            return bound
    if domain:
        _require_small_domain(*domain)
    return _fiber_order(f, g) if f and g else None


_PAIR_DOMAIN = "second germ passes through the first germ's basepoint fiber away from 0"
_SELF_DOMAIN = "germ has self-intersection parameters in the z = 0 fiber away from 0"


def _require_small_domain(u: Germ, detail: str) -> None:
    """Refuse a germ whose p and q share a zero besides z = 0: a parameter
    mapped to the origin away from 0, which the resultants would count as
    if it were at 0.  The exact calculators and the oracles refuse alike:
    the oracles up front, the exact ones wherever the edge certificate does
    not answer and before anything else (see ``_resultant``)."""
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
    k = min(u.exponents)  # critical_order's k, without its tangent
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


def _pair_resultant(u: Germ, v: Germ) -> int | None:
    """The order at z = 0 of Res_w(p_u(z) - p_v(w), q_u(z) - q_v(w)), or
    None where it vanishes identically, as ``_resultant`` gives it after v's
    domain check.  Not cached: the exact path builds each pair once and
    hashes no germ; the oracle ladder, which asks in every cell, keeps its
    own memo (``_oracle_order``)."""
    return _resultant(_difference_terms(u.p, v.p), _difference_terms(u.q, v.q), (v, _PAIR_DOMAIN))


def local_intersection(u: Germ, v: Germ) -> int:
    """Local intersection multiplicity of two germs at the origin.

    Computed as the order of vanishing at z = 0 of the resultant in w of
    (p_u(z) - p_v(w), q_u(z) - q_v(w)); always >= 1, and equal to the
    algebraic count of intersections surviving near 0 after perturbation.
    Nothing is cached, so neither germ nor any coefficient is hashed.
    """
    return _intersection_number(_pair_resultant(u, v))


def _intersection_number(order: int | None) -> int:
    """The pair order as an intersection number: the identical-images
    refusal for a zero resultant, and the invariant order >= 1."""
    if order is None:
        raise InputError("identical images / common branch: resultant vanishes identically")
    if order < 1:
        raise InvarianceError(f"exact germ invariant broken: intersection order {order} < 1")
    return order


def _double_point_refusals(u: Germ):
    """The refusals delta_local and its oracle share.  Returns delta for a
    germ with a vanishing coordinate (0 when the other one f has f'(0) != 0,
    else it has a curve of double points), None for the others, whose domain
    each caller checks next: the oracle up front, delta_local through
    ``_resultant``."""
    if not is_simple(u):
        raise InputError("not simple: germ is a multiple cover")
    if u.p and u.q:
        return None
    if (u.p or u.q)[1]:
        return 0
    raise InputError("non-isolated double points: a coordinate is constant")


def delta_local(u: Germ) -> int:
    """Double-point count delta(u, 0) of a simple germ at the origin.

    Half the intersection multiplicity at 0 of the divided differences of
    p and q; zero exactly for immersed germs, and at least k(k-1)/2 when
    the vanishing order is k.  k is read off the exponents, so no tangent
    (a division in Q(i)) is computed.
    """
    delta = _double_point_refusals(u)
    k = min(u.exponents)  # critical_order's k, without its tangent
    if delta is None:
        order = _resultant(_divided_difference_terms(u.p), _divided_difference_terms(u.q), (u, _SELF_DOMAIN))
        # a simple germ whose divided differences share a component has p, q
        # in C[phi], deg phi >= 2: a monomial phi fails is_simple, and any
        # other has a root besides 0, which the domain check refuses first
        if order is None:
            raise InvarianceError("exact germ invariant broken: divided differences share a component")
        if order % 2 != 0:
            raise InvarianceError(f"exact germ invariant broken: odd double-point order {order}")
        delta = order // 2
    if (delta == 0) != (k == 1) or delta < k * (k - 1) // 2:  # zero iff immersed, >= k(k-1)/2
        raise InvarianceError(f"exact germ invariant broken: delta {delta} at vanishing order {k}")
    return delta


def branched_cover(u: Germ, k: int) -> Germ:
    """Precompose with z -> z^k.  Intersection numbers scale by the product
    of the two covering multiplicities.  The gaps are the shared zero, so
    the cover builds no new scalar."""
    k = read_multiplicity(k)
    if k == 1:
        return u

    def stretch(coeffs):
        return [coeffs[e // k] if e % k == 0 else _ZERO for e in range(k * len(coeffs) - k + 1)]

    return germ(stretch(u.p), stretch(u.q))


# -- floating-point oracle path ------------------------------------------------


def _numeric_divided_difference(coeffs: np.ndarray) -> np.ndarray:
    """2D array B[i, j] = coefficient of z^i w^j of (f(z)-f(w))/(z-w), f not constant."""
    deg = len(coeffs) - 1
    idx = np.arange(deg)  # B[i, j] = c_(i+j+1), a Hankel matrix zero past c_deg
    return np.concatenate([coeffs[1:], np.zeros(deg - 1, complex)])[idx[:, None] + idx]


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


def _sylvester_stack(f_rows: np.ndarray, g_rows: np.ndarray) -> np.ndarray:
    """Sylvester matrices in w of the polynomial pairs (f_rows[s], g_rows[s])
    (ascending coefficients, any dtype), stacked along the first axis: deg g
    shifted copies of f's coefficients, then deg f copies of g's, each
    descending; the oracle's resultants are their determinants."""
    n = f_rows.shape[1] + g_rows.shape[1] - 2
    out = np.zeros((len(f_rows), n, n), dtype=np.result_type(f_rows, g_rows))
    for which, rows in enumerate((f_rows, g_rows)):
        width = rows.shape[1]
        shift, j = np.arange(n + 1 - width)[:, None], np.arange(width)
        out[:, which * (width - 1) + shift, shift + j] = rows[:, None, width - 1 - j]
    return out


def _characteristic(m: np.ndarray) -> np.ndarray:
    """The coefficients in t of det(t I - m_s) for each matrix of the stack
    m, ascending: row k holds the t^k coefficients, one column per matrix.
    Householder reflections make each m_s upper Hessenberg, h, by a unitary
    similarity; then La Budde's recurrence over the leading blocks of h
    (Rehman and Ipsen, La Budde's method for computing characteristic
    polynomials, 2011), p_i = (t - h_ii) p_(i-1) - sum_j h_(i-j,i) b_i ...
    b_(i-j+1) p_(i-j-1) with b_k = h_(k,k-1), ends in p_d: O(d^3) per
    matrix, and no eigensolve.  The matrices run along the last axis."""
    h = np.moveaxis(m, 0, -1).astype(complex, order="C")
    d = len(h)
    for k in range(d - 2):
        # v = x - a e_1, a = -|x| x_0 / |x_0|, so that (I - 2 v v* / |v|^2) x = a e_1
        x = h[k + 1 :, k]
        v = x.copy()
        v[0] += np.exp(1j * np.angle(x[0])) * np.sqrt((x.real**2 + x.imag**2).sum(axis=0))
        size = np.sqrt((v.real**2 + v.imag**2).sum(axis=0))
        v /= np.where(size > 0, size, 1)
        h[k + 1 :] -= 2 * v[:, None] * (v.conj()[:, None] * h[k + 1 :]).sum(axis=0)
        h[:, k + 1 :] -= 2 * (h[:, k + 1 :] * v).sum(axis=1)[:, None] * v.conj()
    p = np.zeros((d + 1, d + 1, h.shape[-1]), complex)
    p[0, 0] = 1
    for i in range(1, d + 1):
        p[i, 1:] = p[i - 1, :-1]
        p[i] -= h[i - 1, i - 1] * p[i - 1]
        below = 1
        for j in range(1, i):
            below = below * h[i - j, i - j - 1]
            p[i] -= h[i - 1 - j, i - 1] * below * p[i - 1 - j]
    return p[d]


class _ResultantPlan:
    """The resultant in w of two bivariate complex polynomials bf and bg,
    rescaled to one circle, with the work that a change of bg's z^0 w^0
    coefficient, b00, leaves alone done once.

    ``resultant`` returns the ascending coefficients of R(circle * zeta) in
    zeta, where R(z) = Res_w.  Sampling the Sylvester determinant on the
    circle where roots will be counted keeps the coefficients balanced even
    when many roots cluster inside it; on the unscaled unit circle the
    low-order coefficients of a tight degree-18 cluster drown in roundoff.
    The Sylvester matrices at all the samples are stacked and go to one
    batched determinant; LAPACK still factors each matrix on its own, so
    every value is the one a determinant of that matrix alone gives.  A
    polynomial free of w takes the same stack: f free of w gives deg g
    diagonal copies of f, whose determinant is f^(deg g), and two such
    polynomials a 0 x 0 matrix, whose determinant is 1.  A zero
    polynomial, or an array that overflowed to NaN, has degree -1 and R = 0.

    The oracles perturb by adding epsilon to b00.  A draw with |b00 +
    epsilon| at most ``room``, the largest entry of bg without b00, has the
    plan's degrees whenever the plan's own b00 is within ``room``
    (``steady``): the largest entry still sets the trim scale, and index 0
    raises no last index.  Such a draw is read off the disk's ``expansion``
    (``terms``); any other draw is planned afresh.
    """

    def __init__(self, bf: np.ndarray, bg: np.ndarray, circle: float):
        # a radius or epsilon too large overflows the samples; _finite refuses the result
        with np.errstate(over="ignore", invalid="ignore"):
            # a float circle, as the oracles pass it, whatever number a caller gives
            self.arrays, self.circle = (bf, bg), float(circle)
            magnitude = np.abs(bg)
            magnitude[0, 0] = 0
            self.room = magnitude.max()
            self.steady = np.abs(bg[0, 0]) <= self.room
            self.degrees = [_degrees(bf), _degrees(bg)]
            (dfz, df), (dgz, dg) = self.degrees
            self.stack = None
            if min(df, dg) < 0:
                return  # a zero polynomial; nothing to sample
            self.samples = samples = dfz * dg + dgz * df + 1
            zs = circle * np.exp(2j * np.pi * np.arange(samples) / samples)
            # the w-coefficients at the samples, (samples, deg_w + 1) each; a
            # column of a wider vander may differ in its last bit
            rows = [
                np.vander(zs, dz + 1, increasing=True) @ b[: dz + 1, : dw + 1]
                for b, (dz, dw) in zip(self.arrays, self.degrees)
            ]
            self.stack = _sylvester_stack(*rows)

    def resultant(self, epsilon: complex | None = None) -> np.ndarray:
        """The resultant of the arrays, or, unless ``epsilon`` is None, of
        the arrays with epsilon added to bg's z^0 w^0 coefficient, planned
        afresh."""
        with np.errstate(over="ignore", invalid="ignore"):
            if epsilon is not None:
                bg = self.arrays[1].copy()
                bg[0, 0] += epsilon
                return _ResultantPlan(self.arrays[0], bg, self.circle).resultant()
            if self.stack is None:
                return np.zeros(1, dtype=complex)
            return self._transform(np.linalg.det(self.stack))

    def _transform(self, values: np.ndarray) -> np.ndarray:
        """Ascending coefficients in zeta of the polynomials whose values at
        the samples are the rows of ``values``: c_m = (1/n) sum_s v_s w^{-sm}."""
        return np.fft.fft(values) / self.samples

    @cached_property
    def base(self) -> tuple:
        """The unperturbed resultant R_0 and its samples by count, {n: (|R_0|
        at the samples, |R_0| - reach)}, which the disk's winding fills
        (``_winding``) and Rouche's test of every draw reads (``_rouche``)."""
        return self.resultant(), {}

    @cached_property
    def expansion(self) -> tuple | None:
        """(c, nu), the exact expansion R_eps = R_0 + sum_k epsilon^k c_k of
        a steady draw, k = 1 .. deg_w f, computed once per disk from the
        stack; None for an R_0 that vanished or an expansion that is not
        finite, whose draws are planned afresh.

        In the Sylvester matrix, b00 sits once in each of the deg_w f rows
        of g, on one diagonal.  With f's rows and the b00-free columns
        first, S = [[A, B], [C, D]], A upper triangular with f's leading
        w-coefficient on its diagonal, and epsilon adds epsilon I to D.  So
        R_eps = det A det(K + epsilon I), K = D - C A^-1 B (the Schur
        complement), and c_k is det A times the t^k coefficient of det(t I
        + K) (``_characteristic``), by one batched solve and the plan's
        transform.  Where f is free of w, K is 0 x 0 and c is empty: R_eps
        = R_0.  nu_k = sum_m |c_(k,m)| (1 + 2 pi h m + 2 pi^2 h^2 m^2), h =
        1/2n at _rouche's first sample count n, bounds the size and reach
        (``_arcs``) of c_k at every sample and c_k on the whole circle."""
        if not np.any(self.base[0]):
            return None
        with np.errstate(all="ignore"):
            dg = self.degrees[1][1]  # A's order, f's rows
            a = self.stack[:, :dg, :dg]
            try:
                k = self.stack[:, dg:, dg:] - self.stack[:, dg:, :dg] @ np.linalg.solve(a, self.stack[:, :dg, dg:])
            except np.linalg.LinAlgError:  # a zero leading coefficient at a sample
                return None
            c = self._transform(np.diagonal(a, axis1=1, axis2=2).prod(axis=1) * _characteristic(-k)[1:])
            if not np.isfinite(c).all():
                return None
            h = 0.5 / (1 << (2 * self.samples - 1).bit_length())
            m = np.arange(self.samples)
            return c, (np.abs(c) @ (1 + 2 * np.pi * h * m + 2 * np.pi**2 * h * h * m * m)).tolist()

    def terms(self, epsilon: complex) -> tuple | None:
        """(epsilon, c, bound) where the disk's ``expansion`` gives the draw
        at epsilon, bound = sum_k nu_k |epsilon|^k, finite (0 for an empty
        c); None where the draw would change the plan's degrees (not
        ``steady``) or the disk has no expansion, and the draw is planned
        afresh."""
        if not (self.steady and abs(self.arrays[1][0, 0] + epsilon) <= self.room) or not self.expansion:
            return None
        c, nu = self.expansion
        size, bound = abs(epsilon), 0.0
        for term in reversed(nu):
            bound = (bound + term) * size
        return (epsilon, c, bound) if bound < math.inf else None


def _finite(coeffs: np.ndarray) -> None:
    """Refuse a resultant that is not finite or vanishes, before any count."""
    scale = np.abs(coeffs).max()
    if not np.isfinite(scale):
        raise InputError("oracle resultant is not finite; shrink the radius or epsilon")
    if scale == 0:
        raise InputError("oracle resultant vanished identically")


def _winding(coeffs: np.ndarray, arcs: dict) -> int | None:
    """R_0's certified count of zeros in |zeta| < 1 (``winding.windings``),
    or None, after ``_finite``; each count tried leaves R_0's samples in
    ``arcs``, the disk's memo that Rouche's test reads (``_rouche``)."""
    _finite(coeffs)
    return windings(coeffs[None], memo=arcs)[0]


def _rouche(coeffs: np.ndarray | None, base: tuple, terms: tuple | None = None) -> None:
    """Rouche's test that a draw has as many zeros in |zeta| < 1 as a
    disk's R_0, given ``base`` = (coefficients of R_0, {n: (|R_0| at the
    samples, |R_0| - reach)}): |R_eps - R_0| + reach < |R_0| - reach at every
    sample (``_arcs``), at some sample count that ``_winding`` would try for
    the longer of the two.  R_0's samples are read from ``base``, where the
    disk's winding left those of every count it tried, and taken here only
    at a count it did not.  The draw is ``coeffs``, its ascending
    coefficients, or, where they are None, R_0 + sum epsilon^k c_k from the
    disk's expansion, ``terms`` = (epsilon, c, bound)
    (``_ResultantPlan.terms``).  There the test passes at once where bound
    < min(|R_0| - reach) at the first count: the bound is at least |R_eps -
    R_0| + reach at every sample, and |R_eps - R_0| on the whole circle; else
    the samples are tested as for a draw.  A sample where |R_eps - R_0| >=
    |R_0| refuses the cell, as epsilon dwarfs the germ there; where no count
    passes, a root of R_eps lies on or near the circle, and the cell is
    refused too."""
    base_coeffs, base_arcs = base
    if terms is None:
        _finite(coeffs)
        # a draw planned afresh may be longer or shorter than R_0
        moved = np.zeros(max(len(coeffs), len(base_coeffs)), complex)
        moved[: len(coeffs)] = coeffs
        moved[: len(base_coeffs)] -= base_coeffs
    n = 1 << (2 * (len(base_coeffs) if terms else len(moved)) - 1).bit_length()
    while n <= MAX_WINDING_SAMPLES:
        if n not in base_arcs:
            (values_0,), (reach_0,) = _arcs(base_coeffs[None], n)
            size_0 = np.abs(values_0)
            base_arcs[n] = size_0, size_0 - reach_0
        at_base, margin = base_arcs[n]
        if terms:
            epsilon, c, bound = terms
            if bound < margin.min():
                return
            moved, terms = np.zeros_like(base_coeffs), None
            for row in c[::-1]:  # Horner, from 0 for an empty c
                moved = (moved + row) * epsilon
        (values,), (reach,) = _arcs(moved[None], n)
        size = np.abs(values)
        if (size >= at_base).any():
            raise InputError("oracle failed: epsilon too large for the disk (Rouche's test); shrink epsilon")
        if (size + reach < margin).all():
            return
        n *= 2
    raise InputError("oracle failed: radius on a root; change the radius")


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


@lru_cache(maxsize=256)
def _oracle_order(u: Germ, v: Germ) -> int | None:
    """The pair oracle's exact verdict, ``_pair_resultant``, kept by value:
    every cell of a ladder asks for the same pair, and the oracle hashes the
    germs for ``_disk_plan`` anyway.  A zero resultant is stored as None,
    like an order, so it is proved once per ladder, and the refusal is
    raised outside (``_intersection_number``); a domain refusal is an
    exception, which lru_cache does not store."""
    return _pair_resultant(u, v)


@lru_cache(maxsize=32)
def _disk_plan(u: Germ, v: Germ | None, radius: float) -> _ResultantPlan:
    """The counting disk of one (germs, radius): the resultant plan, on
    read-only arrays, that the radius pre-check evaluates and every draw on
    the circle reads, returned once the check passes.  The arrays are the
    divided differences of u's p and q, or, given v, the differences q_u(z)
    - q_v(w) and p_u(z) - p_v(w), so that epsilon goes to the second, q's
    z^0 w^0 or p's; Res_w(q, p) = +-Res_w(p, q) has the same zeros.  The
    check: R_0 winds as often as its exact order at 0 (2 delta_local(u), or
    the pair's), so it has no other zero in the disk, and that order is the
    plan's ``count``; the winding leaves R_0's samples in the plan's
    ``base`` for Rouche's test.  An R_0 that underflows to zero is left to
    the draws' Rouche test, which it fails.  The cells of a ladder share a
    disk and a ladder visits a few radii, so a few disks are kept; a
    refusal is an exception, which lru_cache does not store."""
    if v is None:
        arrays = (_numeric_divided_difference(c) for c in u.numeric)
        order, what = 2 * delta_local(u), "germ has self-intersections"
    else:
        arrays = (_numeric_difference(a, b) for a, b in zip(u.numeric[::-1], v.numeric[::-1]))
        order, what = _oracle_order(u, v), "germs intersect away from the origin but"
    plan = _ResultantPlan(*_read_only(*arrays), radius)
    base, arcs = plan.base
    if np.any(base) and _winding(base, arcs) != order:
        raise InputError(f"radius too large: {what} within the chosen disk; shrink the radius")
    plan.count = order
    return plan


def numeric_double_point_oracle(
    u: Germ, epsilon: complex = 1e-3, radius: float = 0.3, seed: int = 0
) -> int:
    """Count double points of a perturbed germ inside a disk, numerically.

    The germ is perturbed to (p(z), q(z) + eps z); ordered self-intersection
    parameter pairs are the roots of the resultant of the perturbed divided
    differences, counted inside |z| < radius by the certified winding of the
    unperturbed one (``_disk_plan``), which the draw at eps keeps by
    Rouche's test (``_rouche``), and halved.  The draw is read off the
    disk's expansion where eps keeps the plan's degrees
    (``_ResultantPlan.terms``), and planned afresh elsewhere.  Must agree
    with delta_local on valid inputs; shares its exact refusals and its rule
    for a constant coordinate.
    ``seed`` is read by the integer rule but has no effect.
    """
    read_seed(seed)
    epsilon, radius = _check_perturbation(epsilon, radius)
    delta = _double_point_refusals(u)
    if delta is not None:
        return delta
    _require_small_domain(u, _SELF_DOMAIN)
    plan = _disk_plan(u, None, radius)
    # q(z) + eps z - (q(w) + eps w) divided by (z - w) adds the constant eps
    terms = plan.terms(epsilon)
    _rouche(None if terms else plan.resultant(epsilon), plan.base, terms)
    return plan.count // 2


def numeric_intersection_oracle(
    u: Germ, v: Germ, epsilon: complex = 1e-3, radius: float = 0.3, seed: int = 0
) -> int:
    """Count intersections of two perturbed germs in a bidisk, numerically.

    The first germ is shifted to (p_u(z) + eps, q_u(z)) and the solution
    parameters are counted inside |z| < radius by the certified winding of
    the unperturbed resultant eliminating w (``_disk_plan``).  The radius
    pre-check guarantees the unperturbed germs have no intersection
    parameters with |z| <= radius apart from the origin, and Rouche's test
    of the draw at eps (``_rouche``, read off the disk's expansion as for
    double points) that eps moves none across the circle, so the count
    equals the number of perturbed intersections in the bidisk.  Must
    agree with local_intersection on valid inputs, and shares its exact
    refusals (too large a domain, identical images).  ``seed`` is read by
    the integer rule but has no effect.
    """
    read_seed(seed)
    epsilon, radius = _check_perturbation(epsilon, radius)
    # a coefficient out of complex128 range is refused before any exact work;
    # the other refusals are exact (shared components make the float
    # resultant meaningless at any tolerance), and the count stays float.
    # The domain is checked up front: a refusal is not cached, and every
    # cell of a ladder asks again
    u.numeric, v.numeric
    _require_small_domain(v, _PAIR_DOMAIN)
    _intersection_number(_oracle_order(u, v))
    plan = _disk_plan(u, v, radius)
    # the resultant root z of a solution (z, w) does not see where w is,
    # but the radius pre-check has excluded unperturbed solutions with
    # |z| <= radius and w anywhere, so for small eps every perturbed
    # solution counted here lies in the bidisk
    terms = plan.terms(epsilon)
    _rouche(None if terms else plan.resultant(epsilon), plan.base, terms)
    return plan.count


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
