"""Exact arithmetic in odd-characteristic finite-field towers.

The tower is GF(p) <= K = GF(p**s) <= L = GF(q**n) with q = p**s.  Elements
of K are integer codes 0..q-1; the base-p digits of a code (little-endian)
are its coordinates in the power basis of K over GF(p).  Elements of L are
length-n int64 vectors of K codes, their coordinates in the power basis
1, x, ..., x**(n-1) of L over K.

`Gf(p, s)` and `FieldTower(p, s, n)` are built from these integers alone.
Their defining polynomials are the first irreducibles in the canonical scan
order (coefficient vectors read as base-q integers), and no caller passes
others, so towers, Gram matrices and certificates are reproducible bit for
bit; `to_dict` prints the polynomials, and nothing reads them back.  The
scan runs in blocks of candidates f and has three stages.  A root screen
drops every f of degree >= 2 with a root in K (one product with a table of
the powers of every code of K; on only when q <= degree**2).  A sieve then
ranks the Frobenius matrices Q_f - I of the rest in one `rank_many` call
(Berlekamp: the kernel dimension counts the distinct irreducible factors of
f).  Only its survivors, in scan order, meet `is_irreducible`, which alone
accepts a polynomial: Berlekamp's count plus the squarefree test, two ranks.
The tower is built with linear algebra only.  For s > 1 the GF(q) lookup
tables are built with whole (q, q) array products of base-p digits.

Every automorphism power b -> b**(q**i) is precomputed when the tower is
built, as slice i of one read-only (n, n, n) array over K.  The conjugates
sigma**(t*j)(a) are then one product with a strided view of it: traces and
norms fold them, and the inverse of a is N(a)**-1 times the product of its
conjugates other than a (N(a) the norm onto K).  All downstream Gram-matrix
work reduces to exact linear algebra on integer arrays.

`Gf.matmul` is the one sum of products over K: products in L, the trace
table, the Frobenius matrices of the sieve, the Hankel trace matrices and
every combination of basis Grams go through it.  It takes numpy matmul
shapes and decides in one place how a sum of k products stays exact (for
s = 1, float64 BLAS on 2-D operands while k * (p - 1)**2 <= 2**53, else
int64 einsum while it fits; otherwise term by term through reduced codes).
`base_digits` is the one base-b digit codec for int64 code arrays.
Fields whose tables would pass `MAX_TABLE_ENTRIES` are refused up front, and
so are towers whose n Frobenius matrices (n**3 entries) would: n <= 256.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, is_dataclass

import numpy as np

__all__ = [
    "PrimePower",
    "Gf",
    "base_digits",
    "FieldTower",
    "find_irreducible",
    "is_irreducible",
    "is_prime",
    "prime_factors",
    "prime_power_decompose",
    "two_adic",
]

_I64_MAX = int(np.iinfo(np.int64).max)
# the largest field table built: GF(p) has a p-entry inverse table, GF(p**s)
# with s > 1 add/mul tables of q**2 entries, a degree-n tower n Frobenius
# matrices of n**2 entries
MAX_TABLE_ENTRIES = 2**24
# the bytes of derived objects one tower's memo holds (`FieldTower._memo`)
MEMO_BYTES = 2**24


def prime_factors(m: int) -> list[int]:
    """The primes dividing m >= 1, in increasing order, by trial division."""
    primes, ell = [], 2
    while ell * ell <= m:
        if m % ell == 0:
            primes.append(ell)
            while m % ell == 0:
                m //= ell
        ell += 1
    return primes + ([m] if m > 1 else [])


def is_prime(m: int) -> bool:
    return prime_factors(m) == [m]


def two_adic(m: int) -> tuple[int, int]:
    """m = 2**alpha * k with k odd, for m >= 1."""
    alpha = (m & -m).bit_length() - 1
    return alpha, m >> alpha


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Split q into (p, s) with q = p**s, p prime.  Raises for non prime powers."""
    if q > MAX_TABLE_ENTRIES:
        raise ValueError(f"q = {q} is past the field size limit of {MAX_TABLE_ENTRIES} (2**24)")
    primes = prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, s = primes[0], 1
    while p**s < q:
        s += 1
    return p, s


@dataclass(frozen=True)
class PrimePower:
    """An odd prime power q = p**s (characteristic two is rejected)."""

    p: int
    s: int = 1

    def __post_init__(self):
        entries = self.p if self.s <= 1 else self.p ** (2 * self.s)
        if entries > MAX_TABLE_ENTRIES:
            field = f"GF({self.p})" if self.s == 1 else f"GF({self.p}^{self.s})"
            raise ValueError(f"{field} needs a field table of {entries} entries, "
                             f"past the limit of {MAX_TABLE_ENTRIES} (2**24)")
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.p == 2:
            raise ValueError("characteristic 2 is not supported")
        if self.s < 1:
            raise ValueError(f"s = {self.s} must be >= 1")

    @property
    def q(self) -> int:
        return self.p**self.s


class Gf:
    """GF(p**s) arithmetic on integer codes, vectorized over numpy arrays.

    For s = 1 the operations are plain mod-p integer arithmetic.  For s > 1
    the field is GF(p)[y]/(g) for the canonical irreducible g of degree s,
    and addition/multiplication/inversion are precomputed lookup tables, so
    array operations stay vectorized (fancy indexing instead of mod).
    """

    def __init__(self, p: int, s: int = 1):
        self.p, self.s, self.q = p, s, PrimePower(p, s).q
        if s == 1:
            self.modulus = np.array([0, 1], dtype=np.int64)
            # a**(p - 2) for every a at once, by square-and-multiply
            base = np.arange(p, dtype=np.int64)
            inv = np.ones(p, dtype=np.int64)
            e = p - 2
            while e:
                if e & 1:
                    inv *= base
                    inv %= p
                base *= base
                base %= p
                e >>= 1
            inv[0] = 0
            self._inv_t = inv
        else:
            prime = Gf(p)
            self.modulus = find_irreducible(prime, s)
            self._build_tables(prime)
        self.modulus.setflags(write=False)

    # -- table construction (s > 1 only) ------------------------------------

    def _build_tables(self, prime: "Gf"):
        p, s, q = self.p, self.s, self.q
        dg = self.to_digits(np.arange(q, dtype=np.int64))
        # ys[i][b] holds the digits of y**i * b reduced by the modulus, so
        # digit k of a * b is sum_i a_i * ys[i][b, k]: one (q, s) @ (s, q)
        # product of digit arrays per k.  Both tables are summed digit by
        # digit through one scratch plane, so three (q, q) planes are live.
        ys = [dg]
        for _ in range(1, s):
            ys.append(_mul_x_many(prime, ys[-1], self.modulus[:s]))
        mul = np.zeros((q, q), dtype=np.int64)
        add = np.zeros((q, q), dtype=np.int64)
        tmp = np.empty((q, q), dtype=np.int64)
        for k in range(s):
            np.matmul(dg, np.stack([y[:, k] for y in ys]), out=tmp)
            tmp %= p
            tmp *= p**k
            mul += tmp
            np.add.outer(dg[:, k], dg[:, k], out=tmp)
            tmp %= p
            tmp *= p**k
            add += tmp
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = np.argmax(mul[1:] == 1, axis=1)
        neg = np.argmax(add == 0, axis=1)
        for t in (mul, add, inv, neg):
            t.setflags(write=False)
        self._mul_t, self._add_t, self._inv_t, self._neg_t = mul, add, inv, neg

    # -- element operations (ints or int64 arrays of codes) -----------------

    def add(self, a, b):
        if self.s == 1:
            return (np.asarray(a, dtype=np.int64) + b) % self.p
        return self._add_t[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]

    def neg(self, a):
        if self.s == 1:
            return (-np.asarray(a, dtype=np.int64)) % self.p
        return self._neg_t[np.asarray(a, dtype=np.int64)]

    def sub(self, a, b):
        if self.s == 1:
            return (np.asarray(a, dtype=np.int64) - b) % self.p
        return self._add_t[np.asarray(a, dtype=np.int64), self._neg_t[np.asarray(b, dtype=np.int64)]]

    def mul(self, a, b):
        if self.s == 1:
            return (np.asarray(a, dtype=np.int64) * b) % self.p
        return self._mul_t[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self._inv_t[a]

    def matmul(self, a, b):
        """Exact product a @ b over K of code arrays, with numpy matmul shapes.

        Leading batch axes broadcast, and a 1-D operand on either side is a
        vector whose axis is dropped from the result (1-D @ 1-D is a 0-d
        array).  For s = 1 the k products of an entry are summed and reduced
        once: by one float64 BLAS product if both operands are 2-D and
        k * (p - 1)**2 <= 2**53 (exact, as every partial sum is an integer
        below 2**53), else by int64 einsum while it is below 2**63 (batched
        operands were slower in float64), else, as for s > 1, term by term.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        a_vec, b_vec = a.ndim == 1, b.ndim == 1
        if a_vec:
            a = a[None, :]
        if b_vec:
            b = b[:, None]
        k = a.shape[-1]
        if self.s == 1 and k * (self.p - 1) ** 2 <= _I64_MAX:
            if a.ndim == b.ndim == 2 and k * (self.p - 1) ** 2 <= 2**53:
                f = a.astype(np.float64) @ b.astype(np.float64)
                out, quo = f.astype(np.int64), f.view(np.int64)  # quo reuses f
            else:
                out = np.einsum("...ij,...jk->...ik", a, b)
                quo = np.empty_like(out)
            np.floor_divide(out, self.p, out=quo)  # out - out // p * p beats %
            out -= np.multiply(quo, self.p, out=quo)
        else:
            shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
            out = np.zeros(shape, dtype=np.int64)
            for l in range(k):
                out = self.add(out, self.mul(a[..., :, l : l + 1], b[..., l : l + 1, :]))
        if a_vec:
            out = out[..., 0, :]
        return out[..., 0] if b_vec else out

    def dot(self, u, v) -> int:
        return int(self.matmul(u, v))

    # -- base-p digit codecs --------------------------------------------------

    def to_digits(self, codes) -> np.ndarray:
        """Base-p digits (little-endian, width s) of an array of K codes."""
        return base_digits(codes, self.p, self.s)

    def from_digits(self, digits) -> np.ndarray:
        digits = np.asarray(digits, dtype=np.int64) % self.p
        pw = self.p ** np.arange(digits.shape[-1], dtype=np.int64)
        return digits @ pw

    def __repr__(self):
        return f"Gf(p={self.p}, s={self.s})"


def base_digits(values, base: int, width: int) -> np.ndarray:
    """Little-endian base-`base` digits, shape values.shape + (width,).

    Any leading shape is kept and `values` is left as it is; digits of
    values at or past base**width are dropped.
    """
    rem = np.asarray(values, dtype=np.int64)
    out = np.empty(rem.shape + (width,), dtype=np.int64)
    for i in range(width):
        rem, out[..., i] = np.divmod(rem, base)
    return out


# -- polynomial arithmetic over a Gf (little-endian code arrays) --------------


def poly_trim(f) -> np.ndarray:
    f = np.asarray(f, dtype=np.int64)
    nz = np.nonzero(f)[0]
    return f[: nz[-1] + 1] if nz.size else f[:0]


def poly_mul(gf: Gf, a, b) -> np.ndarray:
    a, b = poly_trim(a), poly_trim(b)
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    if gf.s == 1:
        return np.convolve(a, b) % gf.p
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for i in range(len(a)):
        if a[i]:
            out[i : i + len(b)] = gf.add(out[i : i + len(b)], gf.mul(int(a[i]), b))
    return out


def is_irreducible(gf: Gf, f) -> bool:
    """Exact irreducibility test for a monic polynomial over GF(q).

    A monic f of degree d >= 2 is irreducible iff it has one distinct
    irreducible factor and is squarefree.  By Berlekamp's criterion the first
    holds iff rank(Q_f - I) = d - 1, whether or not f is squarefree (Q_f is
    the map t -> t**q on K[x]/(f), from `_frobenius_many`).  Over the perfect
    field K the second holds iff gcd(f, f') = 1, that is iff multiplication
    by f' is invertible on K[x]/(f): rank M_{f'} = d.  A p-th power has
    f' = 0, rank 0.  Both ranks come from one `rank_many` call.
    """
    from gsf import exactla  # exactla imports this module

    f = poly_trim(f)
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    if d == 1:
        return True
    # f' = sum k f_k x**(k - 1); the codes k mod p < p are the prime field inside K
    fprime = gf.mul(f[1:], np.arange(1, d + 1) % gf.p)
    tails = f[None, :d]
    mats = np.concatenate([gf.sub(_frobenius_many(gf, tails), np.eye(d, dtype=np.int64)),
                           _mul_matrices(gf, fprime[None], tails)])
    return exactla.rank_many(gf, mats).tolist() == [d - 1, d]


# Candidates per sieve block.  The first block is small because low degrees
# meet their polynomial among the first few candidates; blocks then double up
# to the cap, which bounds the (block, n, n) stack of Frobenius matrices.
_SIEVE_FIRST, _SIEVE_CAP = 8, 256


def _scan_tails(q: int, degree: int, start: int, count: int) -> np.ndarray:
    """Low coefficients (count, degree) of the scan candidates start, start + 1, ...

    The digits of `start` are taken with python ints, because q**degree can
    be far past int64 (about 2**111 at q = 11, degree = 32); the offsets
    0..count-1 are then added with carries, which keeps every entry below
    q + count.
    """
    tails = np.zeros((count, degree), dtype=np.int64)
    r = start
    for i in range(degree):
        r, tails[:, i] = divmod(r, q)
    tails[:, 0] += np.arange(count)
    for i in range(degree - 1):
        carry, tails[:, i] = np.divmod(tails[:, i], q)
        tails[:, i + 1] += carry
    return tails


def _mul_x_many(gf: Gf, a, tails) -> np.ndarray:
    """Rows a * x mod f for the monic f = x**n + tails.

    `tails` is (B, n), one f per row, or (n,), one f for every row.
    """
    out = np.zeros_like(a)
    out[:, 1:] = a[:, :-1]
    return gf.sub(out, gf.mul(a[:, -1:], tails))


def _mul_matrices(gf: Gf, a, tails) -> np.ndarray:
    """Matrices (B, n, n) of t -> a * t mod f: column k holds a * x**k mod f."""
    m = np.empty(a.shape + a.shape[1:], dtype=np.int64)
    m[:, :, 0] = a
    for k in range(1, a.shape[1]):
        a = _mul_x_many(gf, a, tails)
        m[:, :, k] = a
    return m


def _frobenius_many(gf: Gf, tails) -> np.ndarray:
    """Matrices Q_f of t -> t**q on K[x]/(f) for the monic f = x**n + tails.

    Shape (B, n, n); column j of Q_f holds x**(q*j) mod f.  x**q comes from
    square-and-multiply (the multiplications are shifts by x), started at
    x**e for e = q >> r, the longest leading run of q's bits with e < n:
    x**e is already reduced, the unit vector at e, so only the last r bits
    of q square.  When q < n there is no squaring at all; when n = 1 the run
    is empty (e = 0, the start is 1).  The columns come from n - 1 products
    with the matrix of multiplication by x**q, all batched over the B
    polynomials.
    """
    nb, n = tails.shape
    r = 0
    while gf.q >> r >= n:
        r += 1
    xq = np.zeros((nb, n), dtype=np.int64)
    xq[:, gf.q >> r] = 1
    for k in range(r - 1, -1, -1):
        xq = gf.matmul(_mul_matrices(gf, xq, tails), xq[:, :, None])[:, :, 0]
        if gf.q >> k & 1:
            xq = _mul_x_many(gf, xq, tails)
    col = np.zeros((nb, n), dtype=np.int64)
    col[:, 0] = 1
    by_xq = _mul_matrices(gf, xq, tails)
    frob = np.empty((nb, n, n), dtype=np.int64)
    frob[:, :, 0] = col
    for j in range(1, n):
        col = gf.matmul(by_xq, col[:, :, None])[:, :, 0]
        frob[:, :, j] = col
    return frob


def _power_table(gf: Gf, degree: int) -> np.ndarray:
    """V of shape (degree + 1, q): V[i, a] = a**i for every code a of K."""
    codes = np.arange(gf.q, dtype=np.int64)
    powers = np.ones((degree + 1, gf.q), dtype=np.int64)
    for i in range(1, degree + 1):
        powers[i] = gf.mul(powers[i - 1], codes)
    return powers


def _has_root(gf: Gf, tails, powers) -> np.ndarray:
    """Mask over the monic f = x**n + tails (rows of (B, n)) of those with a
    root in K; `powers` is `_power_table(gf, n)`.  Row b of the product holds
    f_b(a) for every code a."""
    n = tails.shape[1]
    values = gf.add(gf.matmul(tails, powers[:n]), powers[n])
    return ~np.all(values, axis=1)


def find_irreducible(gf: Gf, degree: int) -> np.ndarray:
    """First monic irreducible of the given degree in canonical scan order.

    Monic candidates x**d + c_{d-1} x**(d-1) + ... + c_0 are scanned in
    increasing order of the base-q integer sum(c_i * q**i); the first
    irreducible wins, making every defining polynomial reproducible.

    The scan runs in blocks of candidates (_SIEVE_FIRST, doubling up to
    _SIEVE_CAP), each in three stages.  First a root screen: a candidate of
    degree >= 2 with a root in K is reducible, so it is dropped before its
    Frobenius matrix is built.  The screen evaluates the block at every code
    of K with one product against `_power_table`, and runs only when
    q <= degree**2, where the (block, q) value array is no larger than the
    (block, degree, degree) Frobenius stack it saves.  Then a sieve: by
    Berlekamp's criterion the kernel of Q_f - I has dimension equal to the
    number of distinct irreducible factors of f, squarefree or not, so one
    batched `rank_many` over the rest of the block drops every candidate
    with rank(Q_f - I) < n - 1.  Then the exact confirmation: the survivors
    (irreducibles and powers g**e of one irreducible) go in scan order to
    `is_irreducible`, which alone accepts: it adds the squarefree rank that
    rejects the powers.  Both screens are exact, so the winner is the one a
    candidate-by-candidate scan finds.
    """
    from gsf import exactla  # exactla imports this module

    if degree < 1:
        raise ValueError("degree must be >= 1")
    total = gf.q**degree
    ident = np.eye(degree, dtype=np.int64)
    powers = _power_table(gf, degree) if 1 < degree and gf.q <= degree**2 else None
    start, size = 0, _SIEVE_FIRST
    while start < total:
        count = min(size, total - start)
        tails = _scan_tails(gf.q, degree, start, count)
        if powers is not None:
            tails = tails[~_has_root(gf, tails, powers)]
        ranks = exactla.rank_many(gf, gf.sub(_frobenius_many(gf, tails), ident))
        for tail in tails[ranks == degree - 1]:
            f = np.append(tail, 1)
            if is_irreducible(gf, f):
                return f
        start += count
        size = min(2 * size, _SIEVE_CAP)
    raise AssertionError("unreachable: irreducibles exist in every degree")


def _freeze(value) -> int:
    """Make the arrays of a memo key or value read-only; returns the bytes it holds."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value.nbytes
    parts = (vars(value).values() if is_dataclass(value) else
             value.items() if isinstance(value, dict) else value if isinstance(value, tuple) else ())
    return sys.getsizeof(value) + sum(map(_freeze, parts))


class FieldTower:
    """The tower GF(p) <= K = GF(p**s) <= L = GF(q**n), Frobenius included.

    Immutable after construction; all methods are pure functions of their
    arguments.  What the tower alone decides (basis Grams, eigenspaces, families,
    coset generators, exhaustive censuses) is made once while `_memo` holds it,
    read-only, up to `MEMO_BYTES` (oldest out first); only the calling thread writes it.
    """

    def __init__(self, p: int, s: int = 1, n: int = 1):
        self.base = PrimePower(p, s)
        if n < 1:
            raise ValueError(f"extension degree n = {n} must be >= 1")
        if n**3 > MAX_TABLE_ENTRIES:
            raise ValueError(f"extension degree n = {n} needs {n**3} Frobenius matrix entries, "
                             f"past the limit of {MAX_TABLE_ENTRIES} (2**24)")
        self.n = n
        self.K = Gf(p, s)
        self.base_poly = self.K.modulus
        self.ext_poly = find_irreducible(self.K, n)
        self.ext_poly.setflags(write=False)
        self._precompute()
        self._held, self._held_bytes = {}, 0  # `_memo`: key -> (value, bytes)

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def s(self) -> int:
        return self.base.s

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def size(self) -> int:
        return self.q**self.n

    def _precompute(self):
        K, n = self.K, self.n
        top = max(3 * n - 2, 1)
        xpow = np.zeros((top, n), dtype=np.int64)
        xpow[0, 0] = 1
        for m in range(1, top):
            xpow[m] = _mul_x_many(K, xpow[m - 1 : m], self.ext_poly[:n])[0]
        xpow.setflags(write=False)
        self.xpow = xpow

        frob = np.empty((n, n, n), dtype=np.int64)
        frob[0] = np.eye(n, dtype=np.int64)
        if n > 1:
            frob[1] = _frobenius_many(K, self.ext_poly[None, :n])[0]
            for j in range(2, n):
                frob[j] = K.matmul(frob[1], frob[j - 1])
        frob.setflags(write=False)
        self.frobenius_mats = frob

        total = functools.reduce(K.add, frob)
        # conjugate sums land in K, i.e. in the span of the basis element 1
        if np.any(total[1:]):
            raise AssertionError("trace of a basis element left the base field")
        self.trace_vec = total[0].copy()
        self.trace_vec.setflags(write=False)
        self.tau3 = K.matmul(xpow, self.trace_vec)
        self.tau3.setflags(write=False)

    def _memo(self, key, make):
        """The value `make()` for `key`, made on a miss and held read-only,
        evicting the oldest while the held keys and values pass `MEMO_BYTES`."""
        if key in self._held:
            return self._held[key][0]
        value = make()
        self._held[key] = value, _freeze(key) + _freeze(value)
        self._held_bytes += self._held[key][1]
        while self._held_bytes > MEMO_BYTES:
            self._held_bytes -= self._held.pop(next(iter(self._held)))[1]
        return value

    # -- elements --------------------------------------------------------------

    def element(self, coeffs) -> np.ndarray:
        """Validate and canonicalize a length-n vector of K codes."""
        a = np.asarray(coeffs, dtype=np.int64)
        if a.shape != (self.n,):
            raise ValueError(f"element must have {self.n} coefficients, got shape {a.shape}")
        if np.any(a < 0) or np.any(a >= self.q):
            raise ValueError(f"coefficients must be K codes in 0..{self.q - 1}")
        return a

    def zero(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.int64)

    def one(self) -> np.ndarray:
        e = np.zeros(self.n, dtype=np.int64)
        e[0] = 1
        return e

    def basis_element(self, j: int) -> np.ndarray:
        e = np.zeros(self.n, dtype=np.int64)
        e[j] = 1
        return e

    def scalar(self, c: int) -> np.ndarray:
        """The element c of K; for s = 1 any int, reduced mod p, else a code."""
        if self.s > 1 and not 0 <= c < self.q:
            raise ValueError(f"scalar code {c} is not a K code in 0..{self.q - 1}")
        e = np.zeros(self.n, dtype=np.int64)
        e[0] = c % self.q
        return e

    def element_vectors(self, limit: int = 5_000_000) -> np.ndarray:
        """All q**n coefficient vectors as a (q**n, n) array (small towers only)."""
        if self.size > limit:
            raise ValueError(f"refusing to materialize {self.size} elements")
        return base_digits(np.arange(self.size, dtype=np.int64), self.q, self.n)

    def add(self, a, b):
        return self.K.add(a, b)

    def sub(self, a, b):
        return self.K.sub(a, b)

    def neg(self, a):
        return self.K.neg(a)

    def mul(self, a, b) -> np.ndarray:
        conv = poly_mul(self.K, a, b)
        return self.K.matmul(conv, self.xpow[: len(conv)])

    def inv(self, a) -> np.ndarray:
        """a**-1 = N(a)**-1 * rest, rest the product of the conjugates
        sigma**j(a) for 0 < j < n and N(a) = a * rest the norm onto K."""
        a = np.asarray(a, dtype=np.int64)
        if not a.any():
            raise ZeroDivisionError("inverse of 0")
        rest = functools.reduce(self.mul, self._conjugates(a, 1)[1:], self.one())
        norm = self.mul(a, rest)
        if np.any(norm[1:]) or not norm[0]:
            raise AssertionError("the norm of a nonzero element is not a unit of the base field")
        return self.K.mul(int(self.K.inv(norm[0])), rest)

    def div(self, a, b) -> np.ndarray:
        return self.mul(a, self.inv(b))

    def pow_elem(self, a, e: int) -> np.ndarray:
        """a**e for a python int e >= 0, by square-and-multiply through `mul`."""
        result, base = self.one(), np.asarray(a, dtype=np.int64)
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    # -- Galois structure --------------------------------------------------------

    def frobenius_apply(self, i: int, a) -> np.ndarray:
        """a**(q**i), realized as the precomputed matrix action."""
        if not 0 <= i < self.n:
            raise ValueError(f"automorphism power i = {i} out of range 0..{self.n - 1}")
        return self.K.matmul(self.frobenius_mats[i], np.asarray(a, dtype=np.int64))

    def sigma_order(self, i: int) -> int:
        """Multiplicative order of the i-th Frobenius power."""
        return self.n // math.gcd(self.n, i) if i % self.n else 1

    def _conjugates(self, a, t: int, top: int | None = None) -> np.ndarray:
        """Rows sigma**(t*j)(a) for j < top/t, one product with a strided view
        of the Frobenius stack; t | top | n, and top = n by default."""
        top = self.n if top is None else top
        if t < 1 or top < 1 or top % t or self.n % top:
            raise ValueError(f"need t | top | n, got t = {t}, top = {top}, n = {self.n}")
        return self.K.matmul(self.frobenius_mats[:top:t], np.asarray(a, dtype=np.int64))

    def trace_rel(self, t: int, a) -> np.ndarray:
        """Relative trace onto the fixed field of sigma**t; t must divide n."""
        return functools.reduce(self.K.add, self._conjugates(a, t))

    def norm_rel(self, t: int, a, top: int | None = None) -> np.ndarray:
        """Relative norm from the fixed field of sigma**top (all of L by
        default), where a must lie, onto that of sigma**t; t | top | n."""
        return functools.reduce(self.mul, self._conjugates(a, t, top))

    def trace_to_base(self, a) -> int:
        """Absolute trace as a K scalar code."""
        return self.K.dot(self.trace_vec, np.asarray(a, dtype=np.int64))

    # -- serialization -------------------------------------------------------------

    def element_to_digits(self, a) -> list[int]:
        return [int(d) for d in self.K.to_digits(np.asarray(a, dtype=np.int64)).ravel()]

    def element_from_digits(self, digits) -> np.ndarray:
        digits = np.asarray(digits, dtype=np.int64)
        if digits.shape != (self.n * self.s,):
            raise ValueError(f"expected {self.n * self.s} base-{self.p} digits, got {digits.size}")
        if np.any(digits < 0) or np.any(digits >= self.p):
            raise ValueError(f"digits must lie in 0..{self.p - 1}")
        return self.K.from_digits(digits.reshape(self.n, self.s))

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "s": self.s,
            "n": self.n,
            "base_poly": [int(c) for c in self.base_poly],
            "ext_poly": self.element_to_digits(self.ext_poly),
        }

    def __repr__(self):
        return f"FieldTower(GF({self.q}^{self.n})/GF({self.q}))"
