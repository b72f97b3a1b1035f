import itertools

import numpy as np
import pytest

from mixconc import DomainError, InadmissibleN, build_lattice, first_primes
from mixconc.experiments import snap_admissible
from mixconc.lattice import admissible_sizes


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


def _admissible_marks(top, upsilon):
    """marks[k] for k <= top: k >= 1 is a product of the first `upsilon`
    primes, found by dividing them out."""
    primes, marks = first_primes(upsilon), [False] * (top + 1)
    for k in range(1, top + 1):
        rem = k
        for p in primes:
            while rem % p == 0:
                rem //= p
        marks[k] = rem == 1
    return marks


def test_first_primes():
    assert first_primes(5) == (2, 3, 5, 7, 11)


def test_powers_of_two():
    lat = build_lattice(64, 2)
    assert lat.qn == (1, 2, 4, 8, 16, 32, 64)
    assert lat.p_max == 3


def test_divisor_enumeration():
    assert build_lattice(12, 3).qn == (1, 2, 3, 4, 6, 12)


def test_prime_bound_violation():
    with pytest.raises(InadmissibleN):
        build_lattice(14, 3)   # factor 7 > p_3 = 5


def test_admissible_benchmark_sizes():
    for n in (50, 100, 250, 300, 500, 1000, 2000, 3000):
        lat = build_lattice(n, 3)
        assert lat.n == n


def test_bracket():
    lat = build_lattice(64, 2)
    assert lat.bracket(16) == 16
    assert lat.bracket(16.01) == 32
    assert lat.bracket(0.5) == 1
    assert lat.bracket(1e9) == 64


def test_divisor_gap_property():
    # every divisor a > 1 has a smaller divisor within a factor p_upsilon
    rng = np.random.default_rng(0)
    for upsilon in (2, 3):
        primes = first_primes(upsilon)
        for _ in range(20):
            exps = rng.integers(0, 4, size=upsilon)
            n = int(np.prod([p ** e for p, e in zip(primes, exps)]))
            lat = build_lattice(n, upsilon)
            for a in lat.qn:
                if a == 1:
                    continue
                smaller = [b for b in lat.qn if b < a]
                assert any(lat.p_max * b >= a for b in smaller)


@pytest.mark.parametrize("upsilon", [1, 2, 3, 4])
def test_qn_equals_trial_division(upsilon):
    # every admissible n <= 1e5: the sizes listed, and Q_n as Python ints
    top = 10 ** 5
    marks = _admissible_marks(top, upsilon)
    sizes = admissible_sizes(top, upsilon)
    assert sizes == [k for k in range(1, top + 1) if marks[k]]
    for n in sizes:
        qn = build_lattice(n, upsilon).qn
        assert qn == _divisors(n)
        assert all(type(q) is int for q in qn)


@pytest.mark.parametrize("upsilon, top", [(1, 2048), (2, 10 ** 4),
                                          (3, 10 ** 4)])
def test_snap_equals_outward_scan(upsilon, top):
    # the nearest admissible size by scanning n, n -+ 1, n -+ 2, ... over
    # marks found by division (ties go down; 1 for n < 1)
    marks = _admissible_marks(2 * top, upsilon)
    for n in range(-3, top + 1):
        nearest = next(cand for offset in itertools.count()
                       for cand in (n - offset, n + offset)
                       if 1 <= cand and marks[cand])
        assert snap_admissible(n, upsilon) == nearest


def test_large_sizes_build_from_exponents():
    # milliseconds from the prime exponents; trial division up to sqrt(n)
    # or a scan over inadmissible neighbours would stall here
    assert build_lattice(2 ** 60, 1).qn == tuple(2 ** i for i in range(61))
    n = 2 ** 20 * 3 ** 20 * 5 ** 20
    qn = build_lattice(n, 3).qn
    assert len(qn) == 21 ** 3 and qn[-1] == n and list(qn) == sorted(set(qn))
    assert all(n % q == 0 for q in qn)
    assert snap_admissible(10 ** 9, 1) == 2 ** 30
    assert snap_admissible(10 ** 12, 4) == 10 ** 12


@pytest.mark.parametrize("call, args, expected", [
    (build_lattice, (64.0, 2), None),
    (build_lattice, (12, 2.5), None),
    (build_lattice, ("12", 3), None),
    (snap_admissible, (14.0, 3), None),
    (snap_admissible, (14, 3.0), None),
    (build_lattice, (np.int64(12), np.int32(3)), (12, 3, 1, 2, 3, 4, 6, 12)),
    (build_lattice, (True, 1), (1, 1, 1)),
    (snap_admissible, (np.int64(14), np.uint8(3)), (15,)),
], ids=["float-n", "float-upsilon", "str-n", "snap-float-n",
        "snap-float-upsilon", "numpy-ints", "bool", "snap-numpy-ints"])
def test_lattice_inputs_are_integers(call, args, expected):
    # Python and numpy integers are taken as Python ints; anything else,
    # an integral float too, is a DomainError
    if expected is None:
        with pytest.raises(DomainError, match="must be an integer"):
            call(*args)
        return
    out = call(*args)
    values = (out.n, out.upsilon, *out.qn) if call is build_lattice else (out,)
    assert values == expected and all(type(v) is int for v in values)
