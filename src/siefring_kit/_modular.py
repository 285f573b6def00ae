"""Arithmetic modulo the word-size primes of the exact germ engine: the
prime table and the resultant of one pair of polynomials, in Python ints.
``germs`` takes its primes here and keeps the batched int64 engine."""

from __future__ import annotations

from .errors import InputError

_MODULUS_LIMIT = 1 << 31  # residues below 2^31 keep every product of two inside int64
_PRIME_TABLES: dict[int, list] = {}  # memo of _nth_prime, a fixed sequence per length


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 7, 61, which decides every n < 4759123141."""
    if n < 2:
        return False
    for base in (2, 7, 61):
        if n % base == 0:
            return n == base
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 7, 61):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _nth_prime(log_length: int, index: int) -> tuple[int, int, int]:
    """(p, iota, root) for the index-th prime p < 2^31 with p = 1 mod
    2^log_length, counting down from 2^31; iota^2 = -1 and root has order
    2^log_length modulo p.  The table grows on demand."""
    table = _PRIME_TABLES.setdefault(log_length, [])
    step = 1 << log_length
    candidate = table[-1][0] - step if table else _MODULUS_LIMIT - step + 1
    while len(table) <= index:
        if candidate < step:
            raise InputError(
                f"resultant bound needs more than the {len(table)} primes below 2^31 "
                f"that are 1 mod 2^{log_length}"
            )
        if _is_prime(candidate):
            nonresidue = 2
            while pow(nonresidue, candidate // 2, candidate) != candidate - 1:
                nonresidue += 1
            root = pow(nonresidue, candidate >> log_length, candidate)
            table.append((candidate, pow(root, step // 4, candidate), root))
        candidate -= step
    return table[index]


def _scalar_resultant_mod(f: list, g: list, p: int) -> int:
    """``_resultant_mod`` of one pair in Python ints (ascending coefficients
    in [0, p), formal degrees the lengths less one), by the same rules but
    with monic remainders: Res_{m,n}(f, g) = (-1)^(mn) g_n^(m-n+1)
    Res_{n,n-1}(g, f mod g).  Every step keeps m >= n, so only the first
    can swap."""
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
