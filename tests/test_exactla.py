import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsf import exactla
from gsf.exactla import LSubspace, _span_audit, eigenspace_of_power, is_direct_sum, kernel, rank, rank_many, rref
from gsf.ffield import Gf
from gsf.formspace import gram

GF3 = Gf(3)
GF9 = Gf(3, 2)

# -- independent oracle: rank as the largest nonvanishing minor -----------------


def _det_cofactor(gf, m):
    n = m.shape[0]
    if n == 1:
        return int(m[0, 0])
    acc = 0
    sign = 1
    for j in range(n):
        if m[0, j]:
            minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
            term = int(gf.mul(int(m[0, j]), _det_cofactor(gf, minor)))
            acc = int(gf.add(acc, term if sign > 0 else int(gf.neg(term))))
        sign = -sign
    return acc


def oracle_rank(gf, m):
    m = np.asarray(m, dtype=np.int64)
    rows, cols = m.shape
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                if _det_cofactor(gf, m[np.ix_(ri, ci)]):
                    return k
    return 0


def rref_rank(gf, m) -> int:
    """The reference rank: the pivot count of `rref`, independent of `rank_many`."""
    return len(rref(gf, m)[1])


@pytest.mark.parametrize("gf,q", [(GF3, 3), (GF9, 9)])
def test_rank_matches_minor_oracle(gf, q):
    rng = np.random.default_rng(17)
    for _ in range(60):
        m = rng.integers(0, q, size=(4, 4))
        assert rank(gf, m) == oracle_rank(gf, m)
    for _ in range(30):
        m = rng.integers(0, q, size=(3, 4))
        assert rank(gf, m) == oracle_rank(gf, m)


def test_rank_identity_and_zero():
    assert rank(GF3, np.eye(5, dtype=np.int64)) == 5
    assert rank(GF3, np.zeros((4, 6), dtype=np.int64)) == 0


# one field per dtype tier of rank_many: int16 (3, 11, 181), int32 (191,
# 46337), int64 (46349), and the tables (GF(9), GF(343))
_RANK_FIELDS = {(p, s): Gf(p, s) for p, s in [(3, 1), (11, 1), (181, 1), (191, 1), (46337, 1), (46349, 1),
                                              (3, 2), (7, 3)]}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rank_matches_rref(data):
    gf = _RANK_FIELDS[data.draw(st.sampled_from(sorted(_RANK_FIELDS)))]
    shape = data.draw(st.sampled_from(["square", "wide", "tall"]))
    small, large = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 18))
    rows, cols = {"square": (small, small), "wide": (small, small + large), "tall": (small + large, small)}[shape]
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    r = data.draw(st.integers(0, min(rows, cols)))  # rank at most r: rank-deficient whenever r < min
    m, bound = gf.matmul(rng.integers(0, gf.q, size=(rows, r)), rng.integers(0, gf.q, size=(r, cols))), r
    if data.draw(st.booleans()):  # uniform codes: mostly full rank
        m, bound = rng.integers(0, gf.q, size=(rows, cols)), min(rows, cols)
    want = rref_rank(gf, m)
    assert rank(gf, m) == want <= bound
    assert rank(gf, m.T) == want


def test_rank_takes_only_2d_input():
    for bad in ([1, 2, 0], np.zeros((2, 3, 3), dtype=np.int64), 1):
        with pytest.raises(ValueError, match="2-D"):
            rank(GF3, bad)
    assert rank(GF3, np.zeros((0, 4), dtype=np.int64)) == rank(GF3, np.zeros((4, 0), dtype=np.int64)) == 0


def test_gram_of_untwisted_form_on_gf9_has_rank_2(tower):
    t = tower(3, 1, 2)
    assert gram(t, [1, 0], 0).rank() == 2


def test_kernel_identity_zero_and_frobenius_example(tower):
    assert kernel(GF3, np.eye(3, dtype=np.int64)).shape[0] == 0
    full = kernel(GF3, np.zeros((3, 3), dtype=np.int64))
    assert np.array_equal(full, np.eye(3, dtype=np.int64))
    t = tower(3, 1, 2)
    k = kernel(t.K, (t.frobenius_mats[1] + np.eye(2, dtype=np.int64)) % 3)
    assert k.tolist() == [[0, 1]]  # sigma(x) = -x, so span{x}


@pytest.mark.parametrize("gf,q", [(GF3, 3), (GF9, 9), (Gf(5), 5)])
def test_rank_nullity_and_kernel_annihilation(gf, q):
    rng = np.random.default_rng(23)
    for _ in range(40):
        rows, cols = rng.integers(1, 7, size=2)
        m = rng.integers(0, q, size=(rows, cols))
        k = kernel(gf, m)
        assert k.shape[0] + rank(gf, m) == cols
        for v in k:
            assert not np.any(gf.matmul(m, v))


def test_rank_many_matches_scalar_rank():
    rng = np.random.default_rng(29)
    for gf, q in ((GF3, 3), (Gf(11), 11), (GF9, 9)):
        mats = rng.integers(0, q, size=(200, 5, 5))
        batch = rank_many(gf, mats)
        for k in range(0, 200, 17):
            assert batch[k] == rank(gf, mats[k])


def test_rref_idempotent_and_pivots():
    rng = np.random.default_rng(31)
    for _ in range(30):
        m = rng.integers(0, 3, size=(4, 6))
        r, piv = rref(GF3, m)
        r2, piv2 = rref(GF3, r)
        assert np.array_equal(r, r2) and piv == piv2


def test_canonical_basis_is_order_independent():
    rng = np.random.default_rng(37)
    for _ in range(25):
        vecs = rng.integers(0, 3, size=(4, 6))
        sub = LSubspace.from_vectors(GF3, vecs)
        perm = rng.permutation(4)
        sub2 = LSubspace.from_vectors(GF3, vecs[perm])
        scaled = vecs.copy()
        scaled[0] = (scaled[0] * 2) % 3
        sub3 = LSubspace.from_vectors(GF3, scaled)
        assert sub == sub2
        assert sub.sum(sub3).dim == max(sub.dim, sub3.dim) or True  # scaling row 0 keeps the span
        assert sub == LSubspace.from_vectors(GF3, np.vstack([vecs, vecs]))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_dimension_formula_sum_intersection(data):
    # A meet B is the image of the left kernel of the stacked bases [A; B]
    amb = data.draw(st.integers(2, 6))
    da = data.draw(st.integers(1, amb))
    db = data.draw(st.integers(1, amb))
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    a = LSubspace.from_vectors(GF3, rng.integers(0, 3, size=(da, amb)), amb)
    b = LSubspace.from_vectors(GF3, rng.integers(0, 3, size=(db, amb)), amb)
    meet = kernel(GF3, np.vstack([a.basis, b.basis]).T).shape[0]
    assert a.sum(b).dim + meet == a.dim + b.dim
    assert _span_audit([a, b]) == (a.sum(b).dim, meet == 0)


def test_contains_and_zero_full():
    # v lies in W exactly when adding it leaves W's echelon basis unchanged
    z = LSubspace.zero(GF3, 4)
    f = LSubspace.full(GF3, 4)
    assert z.dim == 0 and f.dim == 4
    assert f.sum(LSubspace.from_vectors(GF3, [[1, 2, 0, 1]])) == f
    assert z.sum(LSubspace.from_vectors(GF3, [[1, 0, 0, 0]])) != z
    assert z.sum(LSubspace.from_vectors(GF3, [[0, 0, 0, 0]])) == z


def test_is_direct_sum_trivial_cases():
    w = LSubspace.from_vectors(GF3, [[1, 0, 0], [0, 1, 0]], 3)
    assert is_direct_sum([w, LSubspace.zero(GF3, 3)])
    assert not is_direct_sum([w, w])
    assert is_direct_sum([])


def test_span_audit_is_the_one_audit():
    from gsf import decomp

    assert decomp._span_audit is _span_audit
    w = LSubspace.from_vectors(GF3, [[1, 0, 0], [0, 1, 0]], 3)
    assert _span_audit([]) == (0, True)
    assert _span_audit([w, LSubspace.zero(GF3, 3)]) == (2, True)
    assert _span_audit([w, w]) == (2, False)
    assert _span_audit([w, LSubspace.full(GF3, 3)]) == (3, False)


def test_ambient_mismatch_rejected():
    a = LSubspace.full(GF3, 3)
    b = LSubspace.full(GF3, 4)
    with pytest.raises(ValueError):
        a.sum(b)
    with pytest.raises(ValueError):
        is_direct_sum([a, b])


def test_eigenspace_dimensions_gf81(tower):
    t = tower(3, 1, 4)
    e1 = eigenspace_of_power(t, 2, -1)
    v1 = eigenspace_of_power(t, 1, 1)
    v2 = eigenspace_of_power(t, 1, -1)
    assert (e1.dim, v1.dim, v2.dim) == (2, 1, 1)
    assert is_direct_sum([e1, v1, v2])
    assert e1.sum(v1).sum(v2).dim == 4


def test_eigenspace_full_space_for_identity_power(tower):
    t = tower(3, 1, 5)
    assert eigenspace_of_power(t, 5, 1).dim == 5


def test_eigenspace_chain_dims_gf3_8(tower):
    t = tower(3, 1, 8)
    assert eigenspace_of_power(t, 4, -1).dim == 4
    assert eigenspace_of_power(t, 2, -1).dim == 2
    assert eigenspace_of_power(t, 1, 1).dim == 1
    assert eigenspace_of_power(t, 1, -1).dim == 1


def test_eigenspace_pm_of_odd_part_gf3_6(tower):
    # n = 2 * 3: the +-eigenspaces of sigma^3 both have dimension 3
    t = tower(3, 1, 6)
    assert eigenspace_of_power(t, 3, 1).dim == 3
    assert eigenspace_of_power(t, 3, -1).dim == 3


def test_eigenspace_argument_validation(tower):
    t = tower(3, 1, 4)
    with pytest.raises(ValueError):
        eigenspace_of_power(t, 0, 1)
    with pytest.raises(ValueError):
        eigenspace_of_power(t, 5, 1)
    with pytest.raises(ValueError):
        eigenspace_of_power(t, 1, 2)


def test_eigenspace_members_satisfy_defining_equation(tower):
    t = tower(3, 1, 6)
    for tt, sign in [(3, -1), (3, 1), (2, -1), (1, -1)]:
        sub = eigenspace_of_power(t, tt, sign)
        for v in sub.basis:
            img = t.frobenius_apply(tt % 6, v)
            expect = v if sign == 1 else (-v) % 3
            assert np.array_equal(img, expect)


# -- the prime-field kernel against scalar rref ----------------------------------


def _low_rank_batch(rng, p, nb, rows, cols, r):
    """nb products A.B with A rows x r and B r x cols, so every rank is <= r."""
    a = rng.integers(0, p, size=(nb, rows, r))
    b = rng.integers(0, p, size=(nb, r, cols))
    return np.einsum("bij,bjk->bik", a, b) % p


def _assert_matches_rref(gf, mats, max_ranks=None):
    got = rank_many(gf, mats)
    want = [rref_rank(gf, m) for m in mats]
    assert got.tolist() == want
    if max_ranks is not None:
        assert np.all(np.array(want) <= max_ranks)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rank_many_prime_matches_rref_on_products(data):
    p = data.draw(st.sampled_from([3, 11, 39989]))
    rows = data.draw(st.integers(1, 32))
    cols = data.draw(st.integers(1, 32))
    # mixed ranks in one batch: some matrices run out of rows while others pivot
    ranks = data.draw(st.lists(st.integers(0, min(rows, cols)), min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    mats = np.concatenate([_low_rank_batch(rng, p, 1, rows, cols, r) for r in ranks])
    if data.draw(st.booleans()):
        mats[:, 0, :] = 0  # zero leading row: the first pivot needs a swap
    _assert_matches_rref(Gf(p), mats, ranks)


@pytest.mark.parametrize("p", [3, 11, 39989])
def test_rank_many_prime_2d_zero_and_swapped_inputs(p):
    gf = Gf(p)
    rng = np.random.default_rng(43)
    m = _low_rank_batch(rng, p, 1, 5, 7, 3)[0]
    assert rank_many(gf, m).tolist() == [rref_rank(gf, m)]
    assert rank_many(gf, np.zeros((4, 6, 6), dtype=np.int64)).tolist() == [0] * 4
    # a zero leading diagonal forces a row swap at every pivot
    anti = np.zeros((6, 6), dtype=np.int64)
    anti[np.arange(6), 5 - np.arange(6)] = 1
    mats = np.stack([anti, np.roll(np.eye(6, dtype=np.int64), 1, axis=0), anti * (p - 1)])
    assert rank_many(gf, mats).tolist() == [6, 6, 6]
    mats = _low_rank_batch(rng, p, 5, 8, 8, 8)
    mats[:, np.arange(8), np.arange(8)] = 0
    _assert_matches_rref(gf, mats)
    # a wide batch: the first matrix uses up its rows after column 1, the second
    # pivots at columns 0 and 4, the third is zero
    wide = np.zeros((3, 2, 5), dtype=np.int64)
    wide[0, :, :2] = np.eye(2, dtype=np.int64)
    wide[1, 0, 0] = wide[1, 1, 4] = 1
    assert rank_many(gf, wide).tolist() == [2, 2, 0]


def test_rank_many_prime_reduces_every_column_at_large_p():
    # (p - 1)**2 > 2**30, so the live block must be reduced before every update
    # after the first; wraparound in int32 would show up as wrong ranks
    gf = Gf(39989)
    rng = np.random.default_rng(47)
    for r in (31, 32):
        _assert_matches_rref(gf, _low_rank_batch(rng, 39989, 4, 32, 32, r), r)
    full = rng.integers(39989 - 50, 39989, size=(4, 32, 32))
    _assert_matches_rref(gf, full)


def test_rank_many_prime_longest_lazy_run():
    gf = Gf(11)
    rng = np.random.default_rng(53)
    for r in (63, 64):
        _assert_matches_rref(gf, _low_rank_batch(rng, 11, 3, 64, 64, r), r)


class _RecordingTable(np.ndarray):
    reads = 0

    def __getitem__(self, idx):
        type(self).reads += 1
        return super().__getitem__(idx)


def test_rank_many_prime_reads_the_field_inverse_table():
    gf = Gf(39989)
    gf._inv_t = gf._inv_t.view(_RecordingTable)
    _RecordingTable.reads = 0
    mats = np.array([np.eye(4), np.diag([1, 2, 0, 3]), np.zeros((4, 4)), np.ones((4, 4))], dtype=np.int64)
    mats[1, 3, 0] = 39988
    assert rank_many(gf, mats).tolist() == [4, 3, 0, 1]
    assert _RecordingTable.reads > 0


def test_eigenspace_basis_is_read_only_reduced_echelon(tower):
    for p, s, n in [(3, 1, 8), (3, 2, 4), (7, 3, 4), (5, 1, 6)]:
        t = tower(p, s, n)
        for tt in range(1, n + 1):
            for sign in (1, -1):
                e = eigenspace_of_power(t, tt, sign)
                assert not e.basis.flags.writeable
                assert e == LSubspace.from_vectors(t.K, e.basis, n)


@pytest.mark.parametrize("p,s,n", [(3, 1, 8), (3, 2, 4), (7, 3, 4), (11, 1, 32)],
                         ids=["GF(3^8)", "GF(9^4)", "GF(343^4)", "GF(11^32)"])
def test_identity_shortcuts_equal_elimination(p, s, n, tower):
    # sigma**n = id, so its (+1)-eigenspace is the kernel of the zero matrix;
    # the identity is already reduced echelon
    t = tower(p, s, n)
    fix = eigenspace_of_power(t, n, 1)
    full = LSubspace.full(t.K, n)
    assert np.array_equal(fix.basis, kernel(t.K, np.zeros((n, n), dtype=np.int64)))
    assert full == LSubspace.from_vectors(t.K, np.eye(n, dtype=np.int64), n) == fix
    assert not fix.basis.flags.writeable and not full.basis.flags.writeable


# -- fixed fields from the image of the relative trace -----------------------------

# q**n <= 3**12, and towers over GF(9), GF(27), GF(25) and GF(49)
_FIXED_TOWERS = ([(3, 1, n) for n in range(1, 13)] + [(5, 1, n) for n in range(1, 9)]
                 + [(7, 1, n) for n in range(1, 7)] + [(11, 1, n) for n in range(1, 6)]
                 + [(13, 1, n) for n in range(1, 6)]
                 + [(3, 2, n) for n in range(1, 7)] + [(3, 3, 4), (5, 2, 4), (7, 2, 2)])


@settings(max_examples=60, deadline=None)
@given(pick=st.sampled_from(_FIXED_TOWERS))
@example(pick=(3, 2, 1))
@example(pick=(3, 2, 2))
@example(pick=(3, 2, 3))
@example(pick=(3, 2, 4))
@example(pick=(3, 2, 5))
@example(pick=(3, 2, 6))
@example(pick=(3, 3, 4))
@example(pick=(5, 2, 4))
@example(pick=(7, 2, 2))
def test_fixed_fields_from_the_trace_image_equal_the_kernels(pick, tower):
    # echelon bytes, not just spans: every Fix(sigma^t) equals kernel(F_t - I)
    p, s, n = pick
    t = tower(p, s, n)
    for k in range(1, n + 1):
        want = kernel(t.K, t.K.sub(t.frobenius_mats[k % n], np.eye(n, dtype=np.int64)))
        got = eigenspace_of_power(t, k, 1).basis
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), k


def test_a_wrong_trace_stride_exits_four(monkeypatch, capsys):
    # a relative trace summed with stride 1 instead of g = gcd(t, n) has the
    # image K, of rank 1; the audit stops the refinement of GF(3^8)
    from gsf.cli import main

    real = exactla._frobenius_sum
    monkeypatch.setattr(exactla, "_frobenius_sum", lambda tw, g, coeffs: real(tw, 1, coeffs))
    assert main(["refine", "--full", "--p", "3", "--n", "8"]) == 4
    err = capsys.readouterr().err
    assert "internal check failed" in err and "is not Fix(sigma^" in err


# -- the one kernel on every field ------------------------------------------------

# GF(9), GF(25), GF(343): table arithmetic; 46337: the largest int32 prime;
# 46349, 65537, 1000003: lazy int64
_KERNEL_FIELDS = {(p, s): Gf(p, s) for p, s in [(3, 2), (5, 2), (7, 3), (46337, 1), (46349, 1),
                                                (65537, 1), (1000003, 1)]}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_many_matches_rref_on_every_field(data):
    gf = _KERNEL_FIELDS[data.draw(st.sampled_from(sorted(_KERNEL_FIELDS)))]
    rows = data.draw(st.integers(1, 16))
    cols = data.draw(st.integers(1, 16))
    # mixed ranks in one batch: some matrices run out of rows while others pivot
    ranks = data.draw(st.lists(st.integers(0, min(rows, cols)), min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    mats = np.concatenate([gf.matmul(rng.integers(0, gf.q, size=(1, rows, r)),
                                     rng.integers(0, gf.q, size=(1, r, cols))) for r in ranks])
    if data.draw(st.booleans()):
        mats[:, 0, :] = 0  # zero leading row: the first pivot needs a swap
    _assert_matches_rref(gf, mats, ranks)


# -- dtype tiers and input layouts ------------------------------------------------

# both sides of each prime tier boundary: (p - 1) + (p - 1)**2 fits int16 up to
# p = 181 and int32 up to p = 46337; GF(7^3) and GF(9^2) = GF(3^4) take the tables
_TIER_FIELDS = {(p, s): Gf(p, s) for p, s in [(181, 1), (191, 1), (46337, 1), (46349, 1), (7, 3), (3, 4)]}


def _layouts(mats):
    """The same batch as a contiguous array, a transposed view and a strided view."""
    yield "batch-first", mats
    yield "transposed", np.ascontiguousarray(mats.transpose(0, 2, 1)).transpose(0, 2, 1)
    wide = np.zeros((2 * len(mats), mats.shape[1], 2 * mats.shape[2]), dtype=mats.dtype)
    wide[::2, :, 1::2] = mats
    yield "non-contiguous", wide[::2, :, 1::2]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_many_matches_rref_on_every_tier_and_layout(data):
    gf = _TIER_FIELDS[data.draw(st.sampled_from(sorted(_TIER_FIELDS)))]
    rows = data.draw(st.integers(1, 12))
    cols = data.draw(st.integers(1, 12))
    ranks = data.draw(st.lists(st.integers(0, min(rows, cols)), min_size=1, max_size=5))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    mats = np.concatenate([gf.matmul(rng.integers(0, gf.q, size=(1, rows, r)),
                                     rng.integers(0, gf.q, size=(1, r, cols))) for r in ranks])
    if data.draw(st.booleans()):
        # codes near q - 1: the lazy bound reaches the top of its dtype
        mats = np.concatenate([mats, rng.integers(gf.q - 3, gf.q, size=(2, rows, cols))])
    want = [rref_rank(gf, m) for m in mats]
    for name, arr in _layouts(mats):
        before = arr.copy()
        assert rank_many(gf, arr).tolist() == want, name
        assert np.array_equal(arr, before), name
    # rank is invariant under transposition
    assert rank_many(gf, mats.transpose(0, 2, 1)).tolist() == want


@pytest.mark.parametrize("key", sorted(_TIER_FIELDS), ids=lambda k: f"q{k[0]}^{k[1]}")
def test_rank_many_leaves_its_input_unchanged(key):
    gf = _TIER_FIELDS[key]
    rng = np.random.default_rng(59)
    mats = rng.integers(0, gf.q, size=(6, 9, 9))
    mats[:, 0] = 0  # every first pivot swaps
    want = [rref_rank(gf, m) for m in mats]
    for arr in (mats, mats.astype(np.int32), mats.tolist()):
        before = np.array(arr, copy=True)
        assert rank_many(gf, arr).tolist() == want
        assert np.array_equal(np.asarray(arr), before)


@pytest.mark.parametrize("p", [181, 191, 46337, 46349])
def test_rank_many_largest_products_fit_the_tier(p):
    # rows u_i * v with every code of u and v equal to p - 1 or 1: every update
    # subtracts (p - 1)**2 from 1, the largest step a tier must hold
    gf = Gf(p)
    v = np.where(np.arange(8) % 2, p - 1, 1)
    rank_one = np.outer(np.where(np.arange(8) % 3, p - 1, 1), v) % p
    mats = np.stack([rank_one, rank_one.T, (rank_one + np.eye(8, dtype=np.int64)) % p])
    assert rank_many(gf, mats).tolist() == [1, 1, rref_rank(gf, mats[2])]
