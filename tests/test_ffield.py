import functools
import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import assume, example
from hypothesis import strategies as st

from gsf import ffield
from gsf.exactla import kernel, rank, rref
from gsf.ffield import (
    MAX_TABLE_ENTRIES,
    FieldTower,
    Gf,
    base_digits,
    PrimePower,
    find_irreducible,
    is_irreducible,
    is_prime,
    prime_factors,
    prime_power_decompose,
    two_adic,
)

# -- independent oracle: trial-division irreducibility over GF(p) ---------------


def _digits(m, p, width):
    out = []
    for _ in range(width):
        out.append(m % p)
        m //= p
    return out


def _poly_rem(a, b, p):
    a = list(a)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        coef = a[-1] * pow(b[-1], p - 2, p) % p
        off = len(a) - len(b)
        for i, bc in enumerate(b):
            a[off + i] = (a[off + i] - coef * bc) % p
        while a and a[-1] == 0:
            a.pop()
    return [c for c in a if c] and a or []


def oracle_irreducible(p, f):
    d = len(f) - 1
    for deg in range(1, d // 2 + 1):
        for m in range(p**deg):
            g = _digits(m, p, deg) + [1]
            if not _poly_rem(list(f), g, p):
                return False
    return True


def oracle_first_irreducible(p, degree):
    for m in range(p**degree):
        f = _digits(m, p, degree) + [1]
        if oracle_irreducible(p, f):
            return f
    raise AssertionError


def test_find_irreducible_smallest_degree_one():
    assert find_irreducible(Gf(3), 1).tolist() == [0, 1]  # the polynomial x


def test_find_irreducible_gf3_quadratic():
    assert find_irreducible(Gf(3), 2).tolist() == [1, 0, 1]  # x^2 + 1


def test_find_irreducible_gf3_quartic_golden():
    # frozen from the exhaustive trial-division scan over the 81 monic quartics
    got = find_irreducible(Gf(3), 4).tolist()
    assert got == oracle_first_irreducible(3, 4)
    assert got == [2, 1, 0, 0, 1]  # x^4 + x + 2


@pytest.mark.parametrize("p,degree", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_find_irreducible_matches_trial_division(p, degree):
    assert find_irreducible(Gf(p), degree).tolist() == oracle_first_irreducible(p, degree)


@pytest.mark.parametrize("p,degree", [(3, 5), (5, 3)])
def test_is_irreducible_agrees_with_oracle_on_scan_prefix(p, degree):
    gf = Gf(p)
    coeffs = np.zeros(degree + 1, dtype=np.int64)
    coeffs[degree] = 1
    for m in range(60):
        r = m
        for i in range(degree):
            coeffs[i] = r % p
            r //= p
        assert is_irreducible(gf, coeffs) == oracle_irreducible(p, coeffs.tolist())


def test_prime_power_validation():
    with pytest.raises(ValueError):
        PrimePower(2, 1)  # characteristic 2 rejected
    with pytest.raises(ValueError):
        PrimePower(9, 1)
    with pytest.raises(ValueError):
        PrimePower(3, 0)
    assert PrimePower(3, 2).q == 9


def test_prime_power_decompose():
    assert prime_power_decompose(27) == (3, 3)
    assert prime_power_decompose(11) == (11, 1)
    with pytest.raises(ValueError):
        prime_power_decompose(12)
    assert is_prime(97) and not is_prime(91)


def _is_prime_by_scan(m):
    """Reference: m >= 2 with no divisor in 2..m-1."""
    return m >= 2 and all(m % d for d in range(2, m))


def test_prime_factors_match_primality_scan():
    for m in range(1, 601):
        assert prime_factors(m) == [ell for ell in range(2, m + 1) if m % ell == 0 and _is_prime_by_scan(ell)], m
    for m in range(-3, 601):
        assert is_prime(m) == _is_prime_by_scan(m), m


def test_two_adic():
    for m in range(1, 301):
        alpha, k = two_adic(m)
        assert 2**alpha * k == m and k % 2 == 1, m


def _decompose_by_trial_division(q):
    """Reference: trial division from 2 up to the smallest factor of q."""
    p = 2
    while q % p != 0:
        p += 1
    s, m = 0, q
    while m % p == 0:
        m //= p
        s += 1
    return (p, s) if m == 1 else None


def test_prime_power_decompose_matches_full_trial_division():
    for q in range(2, 5001):
        want = _decompose_by_trial_division(q)
        if want is None:
            with pytest.raises(ValueError, match="is not a prime power"):
                prime_power_decompose(q)
        else:
            assert prime_power_decompose(q) == want, q
    # the largest prime under the table cap: the reference loop takes
    # 16777212 steps (about 2 s); stopping at sqrt(q) takes 4096
    t0 = time.perf_counter()
    assert prime_power_decompose(16777213) == (16777213, 1)
    assert time.perf_counter() - t0 < 0.2


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([3, 7, 4093, 4099, 46349, 16777213, 16777259, 2147483647]), s=st.integers(1, 12))
def test_field_table_limit(p, s):
    # GF(p) keeps a p-entry inverse table, GF(p**s) with s > 1 two q**2 tables
    entries = p if s == 1 else p ** (2 * s)
    with mock.patch.object(ffield, "is_prime", side_effect=is_prime) as primality:
        if entries <= MAX_TABLE_ENTRIES:
            assert PrimePower(p, s).q == p**s
        else:
            with pytest.raises(ValueError, match=r"limit of 16777216 \(2\*\*24\)"):
                PrimePower(p, s)
            assert not primality.called  # refused before the primality test
    if p**s > MAX_TABLE_ENTRIES:
        with pytest.raises(ValueError, match=r"limit of 16777216 \(2\*\*24\)"):
            prime_power_decompose(p**s)  # before a trial division up to p
    elif p <= 4099:
        assert prime_power_decompose(p**s) == (p, s)


def test_extension_degree_limit(monkeypatch):
    # a tower keeps n Frobenius matrices, n**3 entries: n <= 256 under the cap
    assert 256**3 == MAX_TABLE_ENTRIES < 257**3
    monkeypatch.setattr(ffield, "MAX_TABLE_ENTRIES", 27)
    with mock.patch.object(ffield, "find_irreducible", side_effect=ffield.find_irreducible) as search:
        assert FieldTower(3, 1, 3).n == 3
        with pytest.raises(ValueError, match=r"n = 4 needs 64 Frobenius matrix entries"):
            FieldTower(3, 1, 4)
        assert search.call_count == 1  # refused before the modulus search


def test_frobenius_identity_and_base_field(tower):
    t = tower(3, 1, 4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.integers(0, 3, size=4)
        assert np.array_equal(t.frobenius_apply(0, a), a)
    for c in range(3):
        for i in range(4):
            assert np.array_equal(t.frobenius_apply(i, t.scalar(c)), t.scalar(c))


def test_gf9_sigma_sends_x_to_minus_x(tower):
    t = tower(3, 1, 2)
    assert t.ext_poly.tolist() == [1, 0, 1]
    assert t.frobenius_apply(1, t.element([0, 1])).tolist() == [0, 2]


def test_frobenius_power_out_of_range(tower):
    t = tower(3, 1, 3)
    with pytest.raises(ValueError):
        t.frobenius_apply(3, t.one())
    with pytest.raises(ValueError):
        t.frobenius_apply(-1, t.one())


@pytest.mark.parametrize("p,s,n", [(3, 1, 4), (3, 1, 6), (5, 1, 3), (3, 2, 2)])
def test_frobenius_matrix_orders(p, s, n, tower):
    t = tower(p, s, n)
    kf = t.K
    ident = np.eye(n, dtype=np.int64)
    acc = ident
    order = 0
    for _ in range(1, n + 1):
        acc = kf.matmul(t.frobenius_mats[1], acc)
        order += 1
        if np.array_equal(acc, ident):
            break
    assert order == n  # the generator has multiplicative order exactly n
    for i in range(n):
        m = t.frobenius_mats[i]
        expect = n // math.gcd(n, i) if i else 1
        acc, order = ident, 0
        while True:
            acc = kf.matmul(m, acc)
            order += 1
            if np.array_equal(acc, ident):
                break
        assert order == expect


def test_automorphism_laws_exhaustive_gf27(tower):
    t = tower(3, 1, 3)
    vecs = t.element_vectors()
    for i in (1, 2):
        f = t.frobenius_mats[i]
        imgs = (vecs @ f.T) % 3
        for a in range(27):
            for b in range(27):
                s = (vecs[a] + vecs[b]) % 3
                assert np.array_equal((f @ s) % 3, (imgs[a] + imgs[b]) % 3)
                prod = t.mul(vecs[a], vecs[b])
                assert np.array_equal((f @ prod) % 3, t.mul(imgs[a], imgs[b]))


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 5**3 - 1), b=st.integers(0, 5**3 - 1), i=st.integers(1, 2))
def test_automorphism_laws_random_gf125(a, b, i):
    t = _T125
    va = np.array([a % 5, (a // 5) % 5, a // 25], dtype=np.int64)
    vb = np.array([b % 5, (b // 5) % 5, b // 25], dtype=np.int64)
    lhs = t.frobenius_apply(i, t.mul(va, vb))
    rhs = t.mul(t.frobenius_apply(i, va), t.frobenius_apply(i, vb))
    assert np.array_equal(lhs, rhs)


_T125 = FieldTower(5, 1, 3)


def test_trace_of_base_scalar_is_n_times(tower):
    t = tower(3, 1, 4)
    for c in range(3):
        assert np.array_equal(t.trace_rel(1, t.scalar(c)), t.scalar((4 * c) % 3))


def test_gf9_trace_and_norm_values(tower):
    t = tower(3, 1, 2)
    assert t.trace_rel(1, t.element([2, 0])).tolist() == [1, 0]  # 2 + 2^3 = 4 = 1
    assert t.norm_rel(1, t.element([0, 1])).tolist() == [1, 0]  # x * x^3 = -x^2 = 1


def test_trace_galois_invariance(tower):
    t = tower(3, 1, 6)
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.integers(0, 3, size=6)
        base = t.trace_rel(1, a)
        for i in range(6):
            assert np.array_equal(t.trace_rel(1, t.frobenius_apply(i, a)), base)


def test_trace_rel_lands_in_fixed_field_and_is_linear(tower):
    t = tower(3, 1, 6)
    rng = np.random.default_rng(6)
    for tdiv in (1, 2, 3, 6):
        for _ in range(10):
            a = rng.integers(0, 3, size=6)
            b = rng.integers(0, 3, size=6)
            tr = t.trace_rel(tdiv, a)
            assert np.array_equal(t.frobenius_apply(tdiv % 6, tr), tr)
            assert np.array_equal(t.trace_rel(tdiv, (a + b) % 3), (t.trace_rel(tdiv, a) + t.trace_rel(tdiv, b)) % 3)


def test_trace_norm_reject_bad_t(tower):
    t = tower(3, 1, 6)
    for bad in (4, 5, 0):
        with pytest.raises(ValueError):
            t.trace_rel(bad, t.one())
        with pytest.raises(ValueError):
            t.norm_rel(bad, t.one())


def test_norm_multiplicative_exhaustive_gf9(tower):
    t = tower(3, 1, 2)
    vecs = t.element_vectors()
    norms = [t.norm_rel(1, v) for v in vecs]
    for a in range(9):
        for b in range(9):
            prod = t.mul(vecs[a], vecs[b])
            assert np.array_equal(t.norm_rel(1, prod), t.mul(norms[a], norms[b]))


def test_norm_of_one_and_zero(tower):
    t = tower(5, 1, 3)
    for tdiv in (1, 3):
        assert np.array_equal(t.norm_rel(tdiv, t.one()), t.one())
        assert np.array_equal(t.norm_rel(tdiv, t.zero()), t.zero())


def test_norm_fixed_by_sigma_t(tower):
    t = tower(3, 1, 4)
    rng = np.random.default_rng(8)
    for tdiv in (1, 2):
        for _ in range(15):
            a = rng.integers(0, 3, size=4)
            nm = t.norm_rel(tdiv, a)
            assert np.array_equal(t.frobenius_apply(tdiv, nm), nm)


@pytest.mark.parametrize("p,s,n", [(3, 1, 8), (3, 2, 4)], ids=["GF(3^8)", "GF(9^4)"])
def test_norm_rel_is_the_product_of_conjugates(p, s, n, tower):
    t = tower(p, s, n)
    rng = np.random.default_rng(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for top in divisors:
        for tdiv in (d for d in divisors if top % d == 0):
            for a in rng.integers(0, t.q, size=(4, n)):
                want = functools.reduce(t.mul, [t.frobenius_apply(tdiv * j, a) for j in range(top // tdiv)])
                assert np.array_equal(t.norm_rel(tdiv, a, top), want), (tdiv, top, a.tolist())
    for tdiv, top in [(3, 4), (4, 2), (1, 3), (2, 6), (0, 4), (2, 0), (1, 2 * n)]:
        with pytest.raises(ValueError, match=r"need t \| top \| n"):
            t.norm_rel(tdiv, t.one(), top)


def test_frobenius_stack_is_one_read_only_array(tower):
    t = tower(3, 1, 4)
    frob = t.frobenius_mats
    assert isinstance(frob, np.ndarray) and frob.shape == (4, 4, 4) and frob.dtype == np.int64
    assert not frob.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        frob[1, 0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        frob[2] += 1


@pytest.mark.parametrize("p,s,n", [(3, 1, 6), (3, 1, 4), (5, 1, 4), (3, 2, 2)])
def test_fixed_space_dimension_is_gcd(p, s, n, tower):
    t = tower(p, s, n)
    kf = t.K
    for tt in range(1, n + 1):
        m = kf.sub(t.frobenius_mats[tt % n], np.eye(n, dtype=np.int64))
        assert kernel(kf, m).shape[0] == math.gcd(tt, n)


def test_absolute_trace_not_identically_zero(tower):
    for args in [(3, 1, 3), (3, 1, 6), (5, 1, 2), (3, 2, 3)]:
        assert np.any(tower(*args).trace_vec)


def test_tower_rejects_char2_and_bad_degree():
    with pytest.raises(ValueError):
        FieldTower(2, 1, 2)
    with pytest.raises(ValueError):
        FieldTower(3, 1, 0)


def test_element_validation(tower):
    t = tower(3, 1, 3)
    with pytest.raises(ValueError):
        t.element([1, 2])
    with pytest.raises(ValueError):
        t.element([1, 2, 3])


def test_element_arithmetic_inverse_division(tower):
    t = tower(7, 1, 3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.integers(0, 7, size=3)
        if not a.any():
            continue
        assert np.array_equal(t.mul(a, t.inv(a)), t.one())
        b = rng.integers(0, 7, size=3)
        assert np.array_equal(t.mul(t.div(b, a), a), b)
    with pytest.raises(ZeroDivisionError):
        t.inv(t.zero())


@pytest.mark.parametrize("p,s,n", [(3, 1, 8), (7, 3, 4), (11, 1, 32)], ids=["GF(3^8)", "GF(7^3)^4", "GF(11^32)"])
def test_inverse_times_element_is_one(p, s, n, tower):
    # GF(7^3) is the table path
    t = tower(p, s, n)
    rng = np.random.default_rng(p * n)
    elems = [t.one(), t.basis_element(n - 1), t.scalar(t.q - 1)] + list(rng.integers(0, t.q, size=(30, n)))
    for a in elems:
        if a.any():
            assert np.array_equal(t.mul(a, t.inv(a)), t.one()), a.tolist()
    with pytest.raises(ZeroDivisionError):
        t.inv(t.zero())


def _inverse_by_elimination(t, a):
    """Reference: the solution y of M_a y = 1, the last column of rref [M_a | 1]."""
    by_a = ffield._mul_matrices(t.K, a[None], t.ext_poly[: t.n])[0]
    return rref(t.K, np.hstack([by_a, t.one()[:, None]]))[0][:, -1]


# count None checks every nonzero element; GF(343)^2 has 117,648 of them,
# about 8 s of inverses and eliminations, so it takes a seeded sample
@pytest.mark.parametrize("p,s,n,count", [(3, 1, 4, None), (3, 2, 3, None), (7, 3, 2, 2000), (11, 1, 32, 30),
                                         (3, 1, 100, 10)],
                         ids=["GF(3^4)", "GF(9^3)", "GF(343)^2", "GF(11^32)", "GF(3^100)"])
def test_inverse_matches_elimination_reference(p, s, n, count, tower):
    t = tower(p, s, n)
    if count is None:
        elems = base_digits(np.arange(1, t.size), t.q, n)
    else:
        elems = np.random.default_rng(p * n).integers(0, t.q, size=(count, n))
    for a in elems:
        if a.any():
            assert np.array_equal(t.inv(a), _inverse_by_elimination(t, a)), a.tolist()


def test_inverse_audits_the_norm():
    # a stack whose every power is the identity makes the "norm" of x the
    # power x**4 = 2x + 1 (ext_poly x**4 + x + 2), which is not in K
    t = FieldTower(3, 1, 4)
    assert t.ext_poly.tolist() == [2, 1, 0, 0, 1]
    t.frobenius_mats = np.stack([np.eye(4, dtype=np.int64)] * 4)
    assert t.frobenius_mats.flags.writeable
    with pytest.raises(AssertionError, match="not a unit of the base field"):
        t.inv(t.basis_element(1))


def test_scalar_refuses_non_codes_past_the_prime_field(tower):
    # on GF(9)^2 a code outside 0..8 would index past the K tables
    t = tower(3, 2, 2)
    assert [int(t.scalar(c)[0]) for c in range(9)] == list(range(9))
    for c in (-1, 9, 12):
        with pytest.raises(ValueError, match="not a K code"):
            t.scalar(c)
    # over a prime field any int is reduced mod p
    assert t.scalar(8).tolist() == [8, 0] and tower(3, 1, 4).scalar(-1).tolist() == [2, 0, 0, 0]


def test_pow_elem_matches_repeated_mul(tower):
    t = tower(3, 1, 4)
    a = t.element([1, 2, 0, 1])
    acc = t.one()
    for e in range(6):
        assert np.array_equal(t.pow_elem(a, e), acc)
        acc = t.mul(acc, a)
    assert np.array_equal(t.pow_elem(a, 3**4), a)  # a**(q**n) = a
    # a 108-bit exponent agrees with its base-q digits e_j: a**e is the
    # product of sigma**j(a**e_j), with j read mod n as a**(q**n) = a
    e = 11**32 // 7
    want, rest, j = t.one(), e, 0
    while rest:
        rest, digit = divmod(rest, t.q)
        power = t.one()
        for _ in range(digit):
            power = t.mul(power, a)
        want = t.mul(want, t.frobenius_apply(j % t.n, power))
        j += 1
    assert np.array_equal(t.pow_elem(a, e), want)


def test_subfield_tower_arithmetic(tower):
    t = tower(3, 2, 2)  # GF(81) over GF(9)
    assert t.q == 9 and t.size == 81
    a = t.element([7, 5])
    assert np.array_equal(t.mul(a, t.inv(a)), t.one())
    # sigma is the q-power map, so it fixes every base-field scalar
    for c in range(9):
        assert np.array_equal(t.frobenius_apply(1, t.scalar(c)), t.scalar(c))


def test_serialization_roundtrip(tower):
    # a tower is a function of (p, s, n): a fresh build prints the same dict
    for args in [(3, 1, 4), (3, 2, 2), (7, 1, 2), (7, 3, 4)]:
        t = tower(*args)
        d = t.to_dict()
        t2 = FieldTower(d["p"], d["s"], d["n"])
        assert t2.to_dict() == d
        assert np.array_equal(t2.frobenius_mats, t.frobenius_mats)
        a = t.element(5 * np.arange(1, t.n + 1) % t.q)
        digits = t.element_to_digits(a)
        assert len(digits) == t.n * t.s
        assert np.array_equal(t.element_from_digits(digits), a)


def test_element_from_digits_validation(tower):
    t = tower(3, 1, 3)
    with pytest.raises(ValueError):
        t.element_from_digits([1, 2])
    with pytest.raises(ValueError):
        t.element_from_digits([1, 2, 5])


@settings(max_examples=40, deadline=None)
@given(a=st.integers(0, 8), b=st.integers(0, 8))
def test_gf9_table_field_laws(a, b):
    kf = _GF9
    assert kf.mul(a, b) == kf.mul(b, a)
    assert kf.add(a, b) == kf.add(b, a)
    assert kf.sub(kf.add(a, b), b) == a
    if a:
        assert kf.mul(a, kf.inv(a)) == 1


_GF9 = Gf(3, 2)


# -- the batched Berlekamp sieve in find_irreducible ---------------------------


def reference_first_irreducible(gf, degree):
    """The canonical scan, one `is_irreducible` call per candidate."""
    coeffs = np.zeros(degree + 1, dtype=np.int64)
    coeffs[degree] = 1
    for m in range(gf.q**degree):
        r = m
        for i in range(degree):
            r, coeffs[i] = divmod(r, gf.q)
        if is_irreducible(gf, coeffs):
            return coeffs.tolist()
    raise AssertionError


_GF343 = Gf(7, 3)


@pytest.mark.parametrize(
    "gf,degree",
    [(Gf(3), d) for d in range(1, 9)]
    + [(Gf(5), 6), (Gf(7), 5), (Gf(11), 8), (Gf(11), 16), (Gf(3), 20), (_GF9, 4), (_GF9, 6), (_GF343, 4)],
    ids=lambda v: f"q{v.q}" if isinstance(v, Gf) else f"n{v}",
)
def test_find_irreducible_equals_reference_scan(gf, degree):
    assert find_irreducible(gf, degree).tolist() == reference_first_irreducible(gf, degree)


def test_find_irreducible_pinned_gf11_32():
    got = find_irreducible(Gf(11), 32).tolist()
    assert got == [9, 1, 8] + [0] * 29 + [1]
    assert sum(c * 11**i for i, c in enumerate(got[:-1])) == 988  # its scan index


def test_find_irreducible_pinned_gf343_4():
    assert _GF343.modulus.tolist() == [2, 0, 0, 1]
    assert find_irreducible(_GF343, 4).tolist() == [1, 1, 0, 0, 1]


@pytest.mark.parametrize("gf", [Gf(3), Gf(7), _GF9, _GF343, Gf(39989)], ids=lambda g: f"q{g.q}")
def test_find_irreducible_degree_one_is_x(gf):
    assert find_irreducible(gf, 1).tolist() == [0, 1]


def test_find_irreducible_large_prime_cubic():
    # p = 39989: the Frobenius products sum to about 3 * p**2, past int32.
    # p = 2 mod 3 makes every x**3 + c reducible (cubing is onto), so the scan
    # reaches x**3 + x + c; a cubic is irreducible iff it has no root
    p = 39989
    got = find_irreducible(Gf(p), 3).tolist()
    assert got == [6, 1, 0, 1]
    xs = np.arange(p, dtype=np.int64)
    values = set(((-(xs * xs % p * xs + xs)) % p).tolist())  # the c with a root of x**3 + x + c
    assert all(c in values for c in range(6)) and 6 not in values
    assert find_irreducible(Gf(p), 2).tolist() == reference_first_irreducible(Gf(p), 2)


@pytest.mark.parametrize("p,degree", [(11, 16), (39989, 3)])
def test_find_irreducible_accepts_only_through_is_irreducible(monkeypatch, p, degree):
    import gsf.ffield as ffield

    seen = []

    def counted(gf, f):
        seen.append((f.tolist(), is_irreducible(gf, f)))
        return seen[-1][1]

    monkeypatch.setattr(ffield, "is_irreducible", counted)
    got = find_irreducible(Gf(p), degree).tolist()
    assert [f for f, ok in seen if ok] == [got] and seen[-1][0] == got
    # the sieve leaves a handful of the 1,462 (resp. 39,996) candidates scanned
    assert len(seen) <= 5


def _record_scan(monkeypatch):
    """Record the scan blocks (start, count) and, in order, every candidate row
    that reaches the sieve's Frobenius stack.  `is_irreducible` builds Q_f of
    the one f it tests; those calls are not sieve blocks and are left out."""
    spans, sieved, confirming = [], [], []
    scan, frobenius, exact = ffield._scan_tails, ffield._frobenius_many, ffield.is_irreducible

    def scanned(q, degree, start, count):
        spans.append((start, count))
        return scan(q, degree, start, count)

    def stacked(gf, tails):
        if not confirming:
            sieved.extend(tails.tolist())
        return frobenius(gf, tails)

    def confirmed(gf, f):
        confirming.append(f)
        try:
            return exact(gf, f)
        finally:
            confirming.pop()

    monkeypatch.setattr(ffield, "_scan_tails", scanned)
    monkeypatch.setattr(ffield, "_frobenius_many", stacked)
    monkeypatch.setattr(ffield, "is_irreducible", confirmed)
    return spans, sieved


def _scanned_blocks(spans):
    """Number of candidates the scan covered; its blocks start at 0, are
    contiguous, grow and stay within the cap."""
    sizes = [count for _, count in spans]
    assert sizes == sorted(sizes) and sizes[-1] <= ffield._SIEVE_CAP
    assert [start for start, _ in spans] == [sum(sizes[:k]) for k in range(len(sizes))]
    return sum(sizes)


def test_find_irreducible_sieves_every_candidate_in_order(monkeypatch):
    # q = 11 <= 16**2: the root screen is on
    spans, sieved = _record_scan(monkeypatch)
    assert find_irreducible(Gf(11), 16).tolist()[:3] == [5, 1, 1]  # scan index 137
    end = _scanned_blocks(spans)
    assert end > 137
    candidates = [_digits(m, 11, 16) for m in range(end)]
    rooted = [_has_root_by_evaluation(Gf(11), c + [1]) for c in candidates]
    # every candidate scanned either has a root or reached the sieve, in scan order
    assert sieved == [c for c, r in zip(candidates, rooted) if not r]
    assert 0 < sum(rooted) < end


def test_root_screen_off_past_degree_squared(monkeypatch):
    # q = 39989 > 3**2: a (block, q) value array would dwarf the (block, 3, 3)
    # stack, so every candidate reaches the sieve
    spans, sieved = _record_scan(monkeypatch)
    assert find_irreducible(Gf(39989), 3).tolist() == [6, 1, 0, 1]
    end = _scanned_blocks(spans)
    assert sieved == [_digits(m, 39989, 3) for m in range(end)]


def _has_root_by_evaluation(gf, f):
    """Whether the polynomial f (little-endian K codes) has a root in K: f(a)
    at every code a by Horner's rule on digits, with the schoolbook product
    `_ref_code_mul`."""
    for a in range(gf.q):
        acc = 0
        for c in reversed(list(f)):
            prod = _ref_code_mul(gf, acc, a)
            dig = [(x + y) % gf.p for x, y in zip(prod, _digits(int(c), gf.p, gf.s))]
            acc = sum(d * gf.p**t for t, d in enumerate(dig))
        if acc == 0:
            return True
    return False


@pytest.mark.parametrize(
    "gf,degree",
    [(Gf(3), d) for d in range(2, 7)] + [(Gf(11), 4), (Gf(11), 8), (_GF9, 3), (_GF9, 4), (Gf(5, 2), 5)],
    ids=lambda v: f"q{v.q}" if isinstance(v, Gf) else f"n{v}",
)
def test_root_screen_mask_equals_evaluation(gf, degree):
    from gsf.ffield import _has_root, _power_table

    assert gf.q <= degree**2  # the screen is on here
    if gf.q**degree <= 1000:
        tails = base_digits(np.arange(gf.q**degree), gf.q, degree)
    else:
        rng = np.random.default_rng(degree)
        tails = rng.integers(0, gf.q, size=(300, degree))
    got = _has_root(gf, tails, _power_table(gf, degree))
    want = [_has_root_by_evaluation(gf, list(t) + [1]) for t in tails]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


def _monics(gf, degree):
    """Every monic polynomial of the given degree over K, in scan order."""
    tails = base_digits(np.arange(gf.q**degree), gf.q, degree)
    return np.hstack([tails, np.ones((len(tails), 1), dtype=np.int64)])


@functools.lru_cache(maxsize=None)
def _monic_verdicts(p, s, degree):
    """`is_irreducible` on every monic of the given degree over GF(p**s)."""
    gf = _GF9 if (p, s) == (3, 2) else Gf(p, s)
    return tuple(is_irreducible(gf, f) for f in _monics(gf, degree))


def _reducible_monics(gf, degree):
    """The reducible monics of the given degree: every product g*h of monic
    g and h of lower degrees, by `poly_mul`."""
    return {tuple(ffield.poly_mul(gf, g, h).tolist())
            for k in range(1, degree // 2 + 1) for g in _monics(gf, k) for h in _monics(gf, degree - k)}


@pytest.mark.parametrize("gf,top", [(Gf(3), 6), (Gf(5), 4), (_GF9, 3)], ids=["q3", "q5", "q9"])
def test_irreducible_test_rejects_exactly_the_products_of_monics(gf, top):
    # the exact test rejects exactly the products of lower-degree monics
    for degree in range(1, top + 1):
        reducible = _reducible_monics(gf, degree)
        for f, ok in zip(_monics(gf, degree), _monic_verdicts(gf.p, gf.s, degree)):
            assert ok == (tuple(f.tolist()) not in reducible), f.tolist()


def _mobius(k):
    """The Moebius function, by trial division."""
    sign, ell = 1, 2
    while ell * ell <= k:
        if k % ell == 0:
            k //= ell
            if k % ell == 0:
                return 0
            sign = -sign
        ell += 1
    return -sign if k > 1 else sign


@pytest.mark.parametrize("gf,top", [(Gf(3), 8), (Gf(5), 5), (_GF9, 4)], ids=["q3", "q5", "q9"])
def test_irreducible_count_equals_gauss_formula(gf, top):
    # the number of monic irreducibles of degree d is (1/d) sum_{k | d} mu(k) q**(d/k)
    assert [_mobius(k) for k in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    for d in range(1, top + 1):
        gauss = sum(_mobius(k) * gf.q ** (d // k) for k in range(1, d + 1) if d % k == 0)
        assert gauss % d == 0
        assert sum(_monic_verdicts(gf.p, gf.s, d)) == gauss // d, d


def _poly_power(gf, g, e):
    f = np.array([1], dtype=np.int64)
    for _ in range(e):
        f = ffield.poly_mul(gf, f, g)
    return f


def test_irreducible_test_at_degree_32_rejects_prime_powers():
    from gsf.exactla import rank_many

    gf = Gf(11)
    irr = {d: find_irreducible(gf, d) for d in (1, 2, 3, 4, 8, 16, 26)}
    powers = [_poly_power(gf, irr[32 // e], e) for e in (2, 4, 8, 16, 32)]  # g**e
    mixed = [ffield.poly_mul(gf, _poly_power(gf, irr[dg], 2), irr[dh]) for dg, dh in ((8, 16), (3, 26))]  # g**2 h
    for f in powers + mixed:
        assert len(f) == 33 and not is_irreducible(gf, f)
    # one distinct factor each: the powers pass the Berlekamp sieve, and only
    # the squarefree rank rejects them
    sieve = np.stack([_ref_frobenius(gf, f) for f in powers]) - np.eye(32, dtype=np.int64)
    assert rank_many(gf, sieve % 11).tolist() == [31] * len(powers)
    # the winner is irreducible: 32 = 2**5, so x**(q**32) = x and
    # x**(q**16) != x mod f leave f one factor of degree 32
    winner = find_irreducible(gf, 32)
    q_f = _ref_frobenius(gf, winner)
    x = np.zeros(32, dtype=np.int64)
    x[1] = 1
    t = x
    for j in range(1, 33):
        t = q_f @ t % 11
        assert np.array_equal(t, x) == (j == 32), j
    assert is_irreducible(gf, winner)


# the defining polynomials (base_poly, ext_poly) of the golden towers and of the
# large towers the benchmarks and acceptance tests build
_PINNED_TOWERS = {
    (3, 1, 2): ([0, 1], [1, 0, 1]),
    (3, 1, 3): ([0, 1], [1, 2, 0, 1]),
    (3, 1, 4): ([0, 1], [2, 1, 0, 0, 1]),
    (3, 1, 5): ([0, 1], [1, 2, 0, 0, 0, 1]),
    (3, 1, 6): ([0, 1], [2, 1, 0, 0, 0, 0, 1]),
    (3, 1, 8): ([0, 1], [2, 0, 1, 0, 0, 0, 0, 0, 1]),
    (7, 1, 4): ([0, 1], [1, 1, 0, 0, 1]),
    (7, 3, 4): ([2, 0, 0, 1], [1, 1, 0, 0, 1]),
    (3, 1, 20): ([0, 1], [1, 2, 0, 1] + [0] * 16 + [1]),
    (3, 1, 40): ([0, 1], [2, 1] + [0] * 38 + [1]),
    (11, 1, 32): ([0, 1], [9, 1, 8] + [0] * 29 + [1]),
}


@pytest.mark.parametrize("key", list(_PINNED_TOWERS), ids=lambda k: "GF(%d^%d)^%d" % k)
def test_defining_polynomials_pinned(key, tower):
    t = tower(*key)
    assert (t.base_poly.tolist(), t.ext_poly.tolist()) == _PINNED_TOWERS[key]


def test_gf_tests_its_modulus_once(monkeypatch):
    tested, built = [], []
    exact = ffield.is_irreducible

    def counted(gf, f):
        tested.append(np.asarray(f).tolist())
        return exact(gf, f)

    class Counted(Gf):
        def __init__(self, p, s=1):
            built.append((p, s))
            super().__init__(p, s)

    monkeypatch.setattr(ffield, "is_irreducible", counted)
    monkeypatch.setattr(ffield, "Gf", Counted)
    find_irreducible(Gf(7), 3)
    scan = list(tested)
    tested.clear()
    assert Counted(7, 3).modulus.tolist() == [2, 0, 0, 1]
    # the scan's own confirmations, and no second test of its winner; one GF(7)
    assert tested == scan and scan[-1] == [2, 0, 0, 1]
    assert built == [(7, 3), (7, 1)]


# -- Berlekamp's criterion: dim ker(Q_f - I) = number of distinct factors -------


def _poly_quo(a, b, p):
    """Quotient of a by the monic b over GF(p)."""
    a = list(a)
    db = len(b) - 1
    quo = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db]
        quo[k] = c
        for i, bc in enumerate(b):
            a[k + i] = (a[k + i] - c * bc) % p
    return quo


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ac in enumerate(a):
        for j, bc in enumerate(b):
            out[i + j] = (out[i + j] + ac * bc) % p
    return out


def oracle_distinct_factors(p, f):
    """Distinct monic irreducible factors of f over GF(p), by trial division.

    Factors are divided out by increasing degree, so every monic divisor met
    at degree d is irreducible; what is left without a divisor of degree up
    to half its own is irreducible (or 1).
    """
    f = list(f)
    count, deg = 0, 1
    while len(f) - 1 >= 2 * deg:
        for m in range(p**deg):
            g = _digits(m, p, deg) + [1]
            if not _poly_rem(f, g, p):
                count += 1
                while len(f) > deg and not _poly_rem(f, g, p):
                    f = _poly_quo(f, g, p)
        deg += 1
    return count + (len(f) > 1)


def _k_ops(gf):
    """Product, sum and difference of two K codes as python ints."""
    if gf.s == 1:
        return (lambda a, b: a * b % gf.p), (lambda a, b: (a + b) % gf.p), (lambda a, b: (a - b) % gf.p)
    return (lambda a, b: int(gf._mul_t[a, b])), (lambda a, b: int(gf._add_t[a, b])), \
        (lambda a, b: int(gf._add_t[a, gf._neg_t[b]]))


def _ref_frobenius(gf, f):
    """Q_f by repeated multiplication by x, in python ints: a shift, then the
    top coefficient times f subtracted.  x**q mod f takes q steps, and column
    j + 1 is column j times x**q, sum_i c_i * x**i * (column j)."""
    mul, add, sub = _k_ops(gf)
    f = [int(c) for c in f]
    n = len(f) - 1

    def times_x(t):
        return [sub(0, mul(t[-1], f[0]))] + [sub(t[i - 1], mul(t[-1], f[i])) for i in range(1, n)]

    xq = [1] + [0] * (n - 1)
    for _ in range(gf.q):
        xq = times_x(xq)
    cols = [[1] + [0] * (n - 1)]
    for _ in range(1, n):
        acc, shifted = [0] * n, cols[-1]
        for c in xq:
            acc = [add(a, mul(c, b)) for a, b in zip(acc, shifted)]
            shifted = times_x(shifted)
        cols.append(acc)
    return np.array(cols, dtype=np.int64).T


def _checked_frobenius(gf, polys):
    """The sieve's Frobenius matrices of a stack of monic polys, each checked
    against `_ref_frobenius`."""
    from gsf.ffield import _frobenius_many

    polys = np.asarray(polys, dtype=np.int64)
    n = polys.shape[1] - 1
    mats = _frobenius_many(gf, polys[:, :n])
    for f, q_f in zip(polys, mats):
        assert np.array_equal(q_f, _ref_frobenius(gf, f))
    return mats


def _frobenius_rank(p, f):
    from gsf.exactla import rank_many

    gf, n = Gf(p), len(f) - 1
    q_f = _checked_frobenius(gf, [f])[0]
    return int(rank_many(gf, (q_f - np.eye(n, dtype=np.int64)) % p)[0])


@pytest.mark.parametrize(
    "gf,degree", [(Gf(39989), 3), (Gf(39989), 5), (_GF9, 4), (_GF343, 3), (Gf(11), 12)], ids=str
)
def test_frobenius_matrices_match_reference(gf, degree):
    # p = 39989: each column entry sums up to n products near p**2, past int32
    rng = np.random.default_rng(degree)
    polys = np.hstack([rng.integers(0, gf.q, size=(6, degree)), np.ones((6, 1), dtype=np.int64)])
    _checked_frobenius(gf, polys)


# (q, n) around the start of the square-and-multiply chain, x**(q >> r) for the
# least r with q >> r < n: degree one (the start is 1), q = n - 1, n, n + 1
# (no squaring below n), q = 2n - 1 and 2n + 1 (q >> 1 just below and at n;
# q = 2n is even, outside odd characteristic), and tables for s > 1
_START_CASES = [(Gf(3), 1), (Gf(11), 1), (Gf(5), 4), (Gf(5), 5), (Gf(5), 6), (Gf(11), 10), (Gf(11), 11),
                (Gf(11), 12), (Gf(7), 4), (Gf(7), 3), (Gf(11), 6), (Gf(11), 5), (_GF9, 8), (_GF9, 9),
                (_GF9, 10), (_GF9, 5), (_GF9, 4), (_GF343, 4)]


@pytest.mark.parametrize("gf,degree", _START_CASES, ids=lambda v: f"q{v.q}" if isinstance(v, Gf) else f"n{v}")
def test_frobenius_chain_start_matches_reference(gf, degree):
    rng = np.random.default_rng(gf.q * 100 + degree)
    polys = np.hstack([rng.integers(0, gf.q, size=(6, degree)), np.ones((6, 1), dtype=np.int64)])
    _checked_frobenius(gf, polys)


@pytest.mark.parametrize("q,degree", [(3, 1), (3, 7), (11, 32), (343, 4), (39989, 3)])
def test_scan_tails_match_base_q_digits(q, degree):
    from gsf.ffield import _scan_tails

    total = q**degree  # past int64 at q = 11, degree = 32
    rng = random.Random(degree)
    starts = {0, max(total - 256, 0), q ** (degree - 1) - 100 if degree > 1 else 0}
    starts |= {rng.randrange(max(total - 256, 1)) for _ in range(3)}
    for start in starts:
        count = min(256, total - start)
        want = [_digits(start + k, q, degree) for k in range(count)]
        assert _scan_tails(q, degree, start, count).tolist() == want


@st.composite
def _monic_products(draw):
    """A monic f of degree 1..6 over GF(3) or GF(5), often with repeated factors."""
    p = draw(st.sampled_from([3, 5]))
    f = [1]
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        g = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1]
        for _ in range(draw(st.integers(1, 3))):
            if len(f) - 1 + d <= 6:
                f = _poly_mul(f, g, p)
    return p, f


@settings(max_examples=150, deadline=None)
@given(pf=_monic_products())
@example(pf=(3, [1, 0, 2, 0, 1]))  # (x**2 + 1)**2
@example(pf=(5, [1, 0, 2, 0, 1]))  # (x**2 + 1)**2 = (x + 2)**2 (x + 3)**2
@example(pf=(3, [0, 0, 0, 0, 0, 0, 1]))  # x**6
def test_berlekamp_kernel_counts_distinct_factors(pf):
    p, f = pf
    assert len(f) - 1 - _frobenius_rank(p, f) == oracle_distinct_factors(p, f)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([3, 5]), g=st.lists(st.integers(0, 4), min_size=1, max_size=3), e=st.integers(1, 3))
@example(p=3, g=[1, 0], e=2)  # (x**2 + 1)**2 over GF(3)
def test_prime_power_survives_sieve_and_fails_exact_test(p, g, e):
    g = [c % p for c in g] + [1]
    assume(oracle_irreducible(p, g) and (len(g) - 1) * e <= 6)
    f = [1]
    for _ in range(e):
        f = _poly_mul(f, g, p)
    assert _frobenius_rank(p, f) == len(f) - 2  # one distinct factor: the sieve keeps f
    assert is_irreducible(Gf(p), np.array(f)) == (e == 1)


def _reference_tables(gf):
    """Multiplication, inverse and negation tables by schoolbook loops."""
    p, s, q = gf.p, gf.s, gf.q
    g = gf.modulus.tolist()
    digs = [_digits(a, p, s) for a in range(q)]
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            conv = [0] * (2 * s - 1)
            for i in range(s):
                for j in range(s):
                    conv[i + j] = (conv[i + j] + digs[a][i] * digs[b][j]) % p
            for m in range(2 * s - 2, s - 1, -1):
                for t in range(s):
                    conv[m - s + t] = (conv[m - s + t] - conv[m] * g[t]) % p
            mul[a, b] = sum(conv[i] * p**i for i in range(s))
    inv = [0] + [int(np.nonzero(mul[a] == 1)[0][0]) for a in range(1, q)]
    neg = [sum((-d) % p * p**i for i, d in enumerate(digs[a])) for a in range(q)]
    return mul, inv, neg


@pytest.mark.parametrize("p,s", [(3, 2), (3, 3), (5, 2), (3, 4), (7, 3)])
def test_gf_tables_equal_schoolbook_reference(p, s):
    gf = _GF343 if (p, s) == (7, 3) else Gf(p, s)
    mul, inv, neg = _reference_tables(gf)
    assert np.array_equal(gf._mul_t, mul)
    assert gf._inv_t.tolist() == inv and gf._neg_t.tolist() == neg


@pytest.mark.parametrize("p", [3, 5, 11, 39989])
def test_prime_inverse_table_equals_pow_loop(p):
    want = [0] + [pow(a, p - 2, p) for a in range(1, p)]
    assert Gf(p)._inv_t.tolist() == want


# -- Gf.matmul against a schoolbook reference -------------------------------------


def _ref_code_mul(gf, x, y):
    """Base-p digits of the product of two K codes: schoolbook polynomial
    product of their digits, reduced by the modulus, in python ints."""
    p, s = gf.p, gf.s
    g = gf.modulus.tolist()
    dx, dy = _digits(x, p, s), _digits(y, p, s)
    conv = [0] * (2 * s - 1)
    for i in range(s):
        for j in range(s):
            conv[i + j] += dx[i] * dy[j]
    for m in range(2 * s - 2, s - 1, -1):
        for t in range(s):
            conv[m - s + t] -= conv[m] * g[t]
    return conv[:s]


def _ref_matmul(gf, a, b):
    """2-D product with every entry summed digit by digit as python ints."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = [0] * gf.s
            for l in range(a.shape[1]):
                acc = [u + v for u, v in zip(acc, _ref_code_mul(gf, int(a[i, l]), int(b[l, j])))]
            out[i, j] = sum(c % gf.p * gf.p**t for t, c in enumerate(acc))
    return out


def _matmul_cases(gf, rng):
    """(shape name, a, b, expected a @ b) for every operand shape `Gf.matmul` takes."""

    def r(*shape):
        return rng.integers(0, gf.q, size=shape, dtype=np.int64)

    a, b = r(3, 4), r(4, 2)
    yield "2-D @ 2-D", a, b, _ref_matmul(gf, a, b)
    a, b = np.full((2, 7), gf.q - 1), np.full((7, 3), gf.q - 1)
    yield "2-D @ 2-D, every code q - 1", a, b, _ref_matmul(gf, a, b)
    a, v = r(3, 4), r(4)
    yield "2-D @ 1-D", a, v, _ref_matmul(gf, a, v[:, None])[:, 0]
    u, b = r(4), r(4, 2)
    yield "1-D @ 2-D", u, b, _ref_matmul(gf, u[None], b)[0]
    u, v = r(5), r(5)
    yield "1-D @ 1-D", u, v, _ref_matmul(gf, u[None], v[:, None])[0, 0]
    a, b = r(3, 2, 4), r(3, 4, 1)
    yield "(B, r, k) @ (B, k, 1)", a, b, np.stack([_ref_matmul(gf, x, y) for x, y in zip(a, b)])
    c, g = r(6, 3), r(3, 8)
    yield "(B, d) @ (d, N)", c, g, _ref_matmul(gf, c, g)
    a, b = r(2, 1, 2, 3), r(3, 3, 2)
    yield "broadcast batch axes", a, b, np.stack([[_ref_matmul(gf, a[i, 0], b[j]) for j in range(3)] for i in range(2)])
    a, b = r(2, 0), r(0, 3)
    yield "empty contraction", a, b, np.zeros((2, 3), dtype=np.int64)


_MATMUL_FIELDS = [Gf(3), Gf(11), Gf(39989), _GF9, _GF343]


@pytest.mark.parametrize("gf", _MATMUL_FIELDS, ids=lambda g: f"q{g.q}")
def test_gf_matmul_equals_schoolbook_reference(gf):
    for name, a, b, want in _matmul_cases(gf, np.random.default_rng(gf.q)):
        got = gf.matmul(a, b)
        assert got.shape == np.shape(want), name
        assert np.array_equal(got, want), name


def _count_adds(monkeypatch, gf) -> list:
    calls = []
    add = gf.add

    def counted(x, y):
        calls.append(1)
        return add(x, y)

    monkeypatch.setattr(gf, "add", counted)
    return calls


@pytest.mark.parametrize("p", [3, 11, 39989])
def test_gf_matmul_term_by_term_path_equals_int64_path(monkeypatch, p):
    gf = Gf(p)
    cases = list(_matmul_cases(gf, np.random.default_rng(p)))
    fast = [gf.matmul(a, b) for _, a, b, _ in cases]
    calls = _count_adds(monkeypatch, gf)
    monkeypatch.setattr(ffield, "_I64_MAX", 0)
    for (name, a, b, want), f in zip(cases, fast):
        slow = gf.matmul(a, b)
        assert slow.shape == f.shape and np.array_equal(slow, f), name
        assert np.array_equal(slow, want), name
    assert calls  # the guard sent the products through add and mul


def test_gf_matmul_guard_is_k_times_p_minus_one_squared(monkeypatch):
    gf = Gf(11)
    a, b = np.full((2, 4), 10), np.full((4, 3), 10)
    calls = _count_adds(monkeypatch, gf)
    monkeypatch.setattr(ffield, "_I64_MAX", 4 * 10**2)
    assert np.array_equal(gf.matmul(a, b), np.full((2, 3), 400 % 11)) and not calls
    monkeypatch.setattr(ffield, "_I64_MAX", 4 * 10**2 - 1)
    assert np.array_equal(gf.matmul(a, b), np.full((2, 3), 400 % 11)) and len(calls) == 4


def _count_einsums(monkeypatch) -> list:
    calls = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls.append(1)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    return calls


def test_gf_matmul_float64_route_is_exact_up_to_two_to_the_53(monkeypatch):
    # p - 1 = 2**16, so k = 2**21 codes p - 1 sum to exactly 2**53
    p, k = 65537, 2**21
    gf = Gf(p)
    calls = _count_einsums(monkeypatch)
    a, b = np.full((1, k), p - 1), np.full((k, 1), p - 1)
    assert gf.matmul(a, b).tolist() == [[2**53 % p]] and not calls
    u = np.random.default_rng(61).integers(0, p, size=(1, k))
    assert gf.matmul(u, b).tolist() == [[int(u.sum()) * (p - 1) % p]] and not calls
    # one more term may pass 2**53: the product goes through int64 einsum
    a, b = np.full((1, k + 1), p - 1), np.full((k + 1, 1), p - 1)
    assert gf.matmul(a, b).tolist() == [[(k + 1) * (p - 1) ** 2 % p]] and len(calls) == 1


def test_gf_matmul_float64_route_at_the_table_cap(monkeypatch):
    # 32 * (p - 1)**2 < 2**53 < 33 * (p - 1)**2 at the largest prime field.
    # For s = 1 matmul reads only p and s, so the 2**24-entry inverse table
    # (seconds and 130 MB to build) is left out
    p = 16777213
    gf = object.__new__(Gf)
    gf.p, gf.s, gf.q = p, 1, p
    rng = np.random.default_rng(67)
    calls = _count_einsums(monkeypatch)
    got = {}
    for k in (32, 33):
        for name, a, b in [("every code p - 1", np.full((3, k), p - 1), np.full((k, 2), p - 1)),
                           ("random", rng.integers(0, p, size=(4, k)), rng.integers(0, p, size=(k, 5)))]:
            before = len(calls)
            got[k, name] = a, b, gf.matmul(a, b)
            assert len(calls) - before == (k == 33), (k, name)
    monkeypatch.setattr(ffield, "_I64_MAX", 0)  # term by term through add and mul
    for (k, name), (a, b, fast) in got.items():
        assert np.array_equal(gf.matmul(a, b), fast), (k, name)
        want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
        assert fast.tolist() == want, (k, name)


def test_gf_matmul_batched_operands_stay_on_einsum(monkeypatch):
    gf = Gf(11)
    rng = np.random.default_rng(71)
    calls = _count_einsums(monkeypatch)
    for shape_a, shape_b in [((5, 32, 32), (5, 32, 1)), ((2, 3, 4), (4, 6)), ((4, 6), (2, 6, 3))]:
        a, b = rng.integers(0, 11, size=shape_a), rng.integers(0, 11, size=shape_b)
        before = len(calls)
        assert np.array_equal(gf.matmul(a, b), np.matmul(a, b) % 11)
        assert len(calls) == before + 1, (shape_a, shape_b)
    # 2-D and vector operands take the float64 product
    gf.matmul(rng.integers(0, 11, size=(3, 4)), rng.integers(0, 11, size=4))
    gf.matmul(rng.integers(0, 11, size=(32, 32)), rng.integers(0, 11, size=(32, 32)))
    assert len(calls) == 3


def test_base_digits_keeps_leading_shape_and_input():
    vals = np.arange(24, dtype=np.int64).reshape(2, 3, 4) * 37
    before = vals.copy()
    got = base_digits(vals, 5, 4)
    assert got.shape == (2, 3, 4, 4)
    assert np.array_equal(vals, before)
    for idx in np.ndindex(vals.shape):
        assert got[idx].tolist() == _digits(int(vals[idx]), 5, 4)
    assert base_digits(7, 3, 2).tolist() == [1, 2]
