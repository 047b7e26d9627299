"""Small integer helpers shared across modules."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; ample for the orders used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out

