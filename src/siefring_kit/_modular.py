"""Arithmetic modulo one word-size prime, in Python ints: the prime of the
Newton-polygon edge check and the far-zero check of ``germs``, and the
resultant of one pair of polynomials modulo it."""

PRIME = 2147389441  # 1 mod 4, so that -1 has a square root modulo it
IOTA = 815951605  # IOTA^2 = -1 modulo PRIME: the image of i


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
