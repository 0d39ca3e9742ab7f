import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqdist.arith import (
    Modulus,
    Residue,
    factorize,
    jacobi,
    residue,
    tau,
)
from zqdist.errors import DomainError


def divisor_count_direct(n: int) -> int:
    # independent oracle: pair divisors around sqrt(n)
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def legendre_euler(a: int, p: int) -> int:
    # Euler's criterion for odd prime p
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


class TestFactorize:
    def test_examples(self):
        assert factorize(45).factors == ((3, 2), (5, 1))
        assert factorize(7).factors == ((7, 1),)
        assert factorize(2).factors == ((2, 1),)
        assert factorize(1024).factors == ((2, 10),)

    def test_rejects_degenerate(self):
        for bad in (1, 0, -5):
            with pytest.raises(DomainError):
                factorize(bad)

    def test_multiplies_back(self):
        for q in range(2, 2000):
            m = factorize(q)
            prod = 1
            for p, a in m.factors:
                prod *= p**a
            assert prod == q

    def test_modulus_validation(self):
        with pytest.raises(DomainError):
            Modulus(12, ((3, 1), (2, 2)))  # primes out of order
        with pytest.raises(DomainError):
            Modulus(12, ((2, 2),))  # wrong product

    def test_flags(self):
        assert factorize(45).is_odd
        assert not factorize(12).is_odd
        assert factorize(45).p1 == 3
        with pytest.raises(DomainError):
            factorize(12).require_odd("thing")


class TestTau:
    def test_examples(self):
        assert tau(9) == 3
        assert tau(45) == 6
        assert tau(7) == 2

    def test_against_direct_count(self):
        for q in range(2, 10_001):
            assert tau(q) == divisor_count_direct(q)


class TestJacobi:
    def test_examples(self):
        assert jacobi(2, 15) == 1
        assert jacobi(0, 9) == 0
        for n in (1, 3, 5, 9, 15, 21, 999):
            assert jacobi(1, n) == 1

    def test_derivation_of_2_15(self):
        # (2/15) = (2/3)(2/5), each factor by Euler's criterion
        assert legendre_euler(2, 3) == -1
        assert legendre_euler(2, 5) == -1
        assert jacobi(2, 15) == legendre_euler(2, 3) * legendre_euler(2, 5)

    def test_even_modulus_rejected(self):
        with pytest.raises(DomainError):
            jacobi(3, 8)
        with pytest.raises(DomainError):
            jacobi(3, 0)

    def test_matches_euler_criterion_on_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 97):
            for a in range(p):
                expected = 0 if a == 0 else legendre_euler(a, p)
                assert jacobi(a, p) == expected

    def test_multiplicative_exhaustive_small(self):
        for n in range(1, 60, 2):
            for a in range(n):
                for b in range(n):
                    assert jacobi(a, n) * jacobi(b, n) == jacobi(a * b, n)

    @settings(max_examples=300)
    @given(
        a=st.integers(-10_000, 10_000),
        b=st.integers(-10_000, 10_000),
        n=st.integers(0, 499),
    )
    def test_multiplicative_property(self, a, b, n):
        n = 2 * n + 1  # odd n <= 999
        assert jacobi(a, n) * jacobi(b, n) == jacobi(a * b, n)

    def test_zero_iff_common_factor(self):
        for n in range(1, 100, 2):
            for a in range(n):
                import math

                assert (jacobi(a, n) == 0) == (math.gcd(a, n) > 1)


class TestResidue:
    def test_normalization(self):
        assert residue(-1, 9).value == 8
        assert residue(19, 9).value == 1
        assert int(residue(4, 9)) == 4

    def test_arithmetic(self):
        m = factorize(9)
        a, b = Residue(7, m), Residue(5, m)
        assert (a + b).value == 3
        assert (a - b).value == 2
        assert (a * b).value == 8
        assert (-a).value == 2

    def test_mixed_moduli_rejected(self):
        with pytest.raises(DomainError):
            residue(1, 9) + residue(1, 15)


def crt_split(x):
    # x under the ring isomorphism Z_q -> prod Z_{p_i^{a_i}} onto the CRT components
    return tuple(Residue(x.value, m) for m in x.modulus.prime_power_moduli())


class TestCrt:
    def test_examples(self):
        parts = crt_split(residue(7, 15))
        assert [(r.value, r.q) for r in parts] == [(1, 3), (2, 5)]
        assert [x for x in range(15) if crt_split(residue(x, 15)) == parts] == [7]
        assert all(r.value == 0 for r in crt_split(residue(0, 45)))

    def test_ring_homomorphism_exhaustive(self):
        for q in (15, 45, 225):
            m = factorize(q)
            assert len({crt_split(Residue(x, m)) for x in range(q)}) == q  # one-to-one
            for x in range(q):
                for y in range(q):
                    rx, ry = Residue(x, m), Residue(y, m)
                    sx, sy = crt_split(rx), crt_split(ry)
                    assert crt_split(rx + ry) == tuple(a + b for a, b in zip(sx, sy))
                    assert crt_split(rx * ry) == tuple(a * b for a, b in zip(sx, sy))
