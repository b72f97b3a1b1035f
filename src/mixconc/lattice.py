"""Admissible sample sizes and their divisor lattices.

Sample sizes are restricted to products of the first ``upsilon`` primes,
n = prod p_i^{m_i}.  This guarantees that the divisor set Q_n is dense
enough that consecutive divisors differ by at most a factor p_upsilon,
which is what the block constructions downstream rely on.
"""

from dataclasses import dataclass, field

from .errors import DomainError, InadmissibleN


def first_primes(count: int) -> tuple[int, ...]:
    """Return the first `count` primes by trial division."""
    if count < 1:
        raise DomainError("count must be >= 1")
    primes: list[int] = []
    cand = 2
    while len(primes) < count:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return tuple(primes)


def _divisors(n: int) -> tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@dataclass(frozen=True)
class SampleLattice:
    """An admissible sample size together with its full divisor set Q_n."""

    n: int
    upsilon: int
    primes: tuple[int, ...] = field(repr=False)
    qn: tuple[int, ...] = field(repr=False)

    @property
    def p_max(self) -> int:
        """Largest prime allowed in the factorization (p_upsilon)."""
        return self.primes[-1]

    def bracket(self, x: float) -> int:
        """Smallest element of Q_n that is >= x (the [x] operation)."""
        for q in self.qn:
            if q >= x:
                return q
        return self.qn[-1]

    def __contains__(self, q: int) -> bool:
        return q in self.qn


def build_lattice(n: int, upsilon: int) -> SampleLattice:
    """Factor-check n against the first `upsilon` primes and enumerate Q_n.

    Raises InadmissibleN when n has a prime factor larger than p_upsilon.
    """
    if n < 1 or upsilon < 1:
        raise DomainError("n and upsilon must be positive")
    primes = first_primes(upsilon)
    rem = n
    for p in primes:
        while rem % p == 0:
            rem //= p
    if rem != 1:
        raise InadmissibleN(
            f"n={n} has prime factor(s) of {rem} exceeding p_{upsilon}={primes[-1]}"
        )
    return SampleLattice(n=n, upsilon=upsilon, primes=primes, qn=_divisors(n))
