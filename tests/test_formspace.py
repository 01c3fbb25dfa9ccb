import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsf import formspace
from gsf.decomp import _split_family
from gsf.exactla import LSubspace, eigenspace_of_power, rank_many
from gsf.ffield import Gf
from gsf.formspace import (
    BudgetExceededError,
    Run,
    _projective_spans,
    _range_chunks,
    degenerate_by_norm,
    degenerate_rank_value,
    family,
    flatten_sym,
    gram,
    gram_alt,
    gram_basis,
    gram_matrix,
    radical,
    rank_profile,
    unflatten_sym,
)


def _direct_eval(t, b, i, x, y):
    """phi(x, y) straight from the definition, via element arithmetic."""
    sy = t.frobenius_apply(i, y)
    sx = t.frobenius_apply(i, x)
    return t.trace_to_base(t.mul(b, t.add(t.mul(x, sy), t.mul(sx, y))))


def test_gram_of_zero_parameter_is_zero(tower):
    t = tower(3, 1, 4)
    for i in range(4):
        assert not gram(t, t.zero(), i).gram.any()


def test_gram_gf9_twisted_by_frobenius(tower):
    t = tower(3, 1, 2)
    f = gram(t, [1, 0], 1)
    assert f.gram.tolist() == [[1, 0], [0, 1]]
    assert f.rank() == 2


def test_untwisted_forms_nondegenerate_exhaustive(tower):
    t = tower(3, 1, 3)
    for v in t.element_vectors()[1:]:
        assert gram(t, v, 0).rank() == 3


def test_gram_agrees_with_direct_trace_evaluation(tower):
    for args in [(3, 1, 4), (5, 1, 3), (3, 2, 2)]:
        t = tower(*args)
        rng = np.random.default_rng(43)
        for _ in range(25):
            b, x, y = (rng.integers(0, t.q, size=t.n) for _ in range(3))
            i = int(rng.integers(0, t.n))
            g = gram_matrix(t, b, i)
            lhs = t.K.dot(x, t.K.matmul(g, y))
            assert lhs == _direct_eval(t, b, i, x, y)


def test_gram_symmetric_and_bilinear(tower):
    t = tower(3, 1, 4)
    rng = np.random.default_rng(47)
    for _ in range(20):
        b, b2 = rng.integers(0, 3, size=4), rng.integers(0, 3, size=4)
        i = int(rng.integers(0, 4))
        g = gram_matrix(t, b, i)
        assert np.array_equal(g, g.T)
        assert np.array_equal(gram_matrix(t, (b + b2) % 3, i), (g + gram_matrix(t, b2, i)) % 3)
        lam = int(rng.integers(0, 3))
        assert np.array_equal(gram_matrix(t, (lam * b) % 3, i), (lam * g) % 3)


def test_gram_bilinear_exhaustive_gf9(tower):
    t = tower(3, 1, 2)
    vecs = t.element_vectors()
    for i in range(2):
        gs = [gram_matrix(t, v, i) for v in vecs]
        for a in range(9):
            for b in range(9):
                s = (vecs[a] + vecs[b]) % 3
                assert np.array_equal(gram_matrix(t, s, i), (gs[a] + gs[b]) % 3)


def test_gram_alt_equals_gram_exhaustive_gf27(tower):
    t = tower(3, 1, 3)
    for i in range(3):
        for v in t.element_vectors():
            assert np.array_equal(gram_alt(t, v, i).gram, gram(t, v, i).gram)


def test_gram_alt_on_identity_power_matches_doubled_trace_form(tower):
    t = tower(3, 1, 3)
    # the untwisted form is (x, y) -> tr(2 b x y); check against a from-scratch table
    b = t.element([1, 0, 0])
    expect = np.zeros((3, 3), dtype=np.int64)
    for j in range(3):
        for k in range(3):
            prod = t.mul(t.basis_element(j), t.basis_element(k))
            expect[j, k] = t.trace_to_base(t.mul(t.scalar(2), prod))
    assert np.array_equal(gram_alt(t, b, 0).gram, expect)
    assert np.array_equal(gram(t, b, 0).gram, expect)


def test_gram_alt_table_field(tower):
    t = tower(3, 2, 2)
    rng = np.random.default_rng(53)
    for _ in range(10):
        b = rng.integers(0, 9, size=2)
        for i in range(2):
            assert np.array_equal(gram_alt(t, b, i).gram, gram(t, b, i).gram)


def test_radical_zero_for_untwisted(tower):
    t = tower(3, 1, 3)
    for v in t.element_vectors()[1:]:
        assert radical(gram(t, v, 0)).dim == 0


def test_radical_is_whole_space_on_involution_eigenspace(tower):
    t = tower(3, 1, 2)
    e = eigenspace_of_power(t, 1, -1)
    for v in e.basis:
        assert radical(gram(t, v, 1)).dim == 2  # the zero form


def test_radical_dimension_on_gf81(tower):
    t = tower(3, 1, 4)
    b = eigenspace_of_power(t, 1, -1).basis[0]
    f = gram(t, b, 1)
    assert radical(f).dim == 2
    assert f.rank() == 2


def test_radical_members_satisfy_twist_equation(tower):
    t = tower(3, 1, 4)
    for b in (eigenspace_of_power(t, 1, -1).basis[0], t.element([1, 1, 0, 0])):
        for i in (1, 3):
            f = gram(t, b, i)
            for x in radical(f).basis:
                lhs = t.frobenius_apply((-i) % 4, t.mul(b, x))
                rhs = t.neg(t.mul(b, t.frobenius_apply(i, x)))
                assert np.array_equal(lhs, rhs)


def test_degenerate_by_norm_validation(tower):
    t = tower(3, 1, 4)
    with pytest.raises(ValueError):
        degenerate_by_norm(t, t.zero(), 1)
    with pytest.raises(ValueError):
        degenerate_by_norm(t, t.one(), 0)  # identity power
    with pytest.raises(ValueError):
        degenerate_by_norm(t, t.one(), 2)  # involution


def test_degenerate_by_norm_false_for_odd_order(tower):
    t = tower(3, 1, 3)
    for v in t.element_vectors()[1:]:
        assert not degenerate_by_norm(t, v, 1)


def test_degenerate_by_norm_true_on_minus_eigenvector(tower):
    t = tower(3, 1, 4)
    b = eigenspace_of_power(t, 1, -1).basis[0]
    assert degenerate_by_norm(t, b, 1)


def test_norm_and_rank_oracles_agree_gf81(tower):
    t = tower(3, 1, 4)
    vecs = t.element_vectors()[1:]
    grams = np.einsum("vt,tjk->vjk", vecs, gram_basis(t, 1)) % 3
    ranks = rank_many(t.K, grams)
    for v, r in zip(vecs, ranks):
        assert degenerate_by_norm(t, v, 1) == (r < 4)


@pytest.mark.parametrize("i", [1, 2, 3, 5, 6, 7])
def test_norm_and_rank_oracles_agree_gf3_8(i, tower):
    # every power of GF(3^8) of even order > 2; the norm route divides, so
    # it reaches `FieldTower.inv` once per parameter
    t = tower(3, 1, 8)
    vecs = np.random.default_rng(i).integers(0, 3, size=(300, 8))
    vecs = vecs[vecs.any(axis=1)]
    ranks = rank_many(t.K, np.einsum("vt,tjk->vjk", vecs, gram_basis(t, i)) % 3)
    degenerate = [degenerate_by_norm(t, v, i) for v in vecs]
    assert degenerate == (ranks < 8).tolist()
    assert 0 < sum(degenerate) < len(vecs)


@pytest.mark.parametrize("p,s,n,i", [(3, 1, 4, 1), (3, 1, 6, 1), (5, 1, 4, 1), (3, 1, 8, 1),
                                     (3, 1, 8, 2), (3, 1, 8, 3), (7, 1, 4, 1), (3, 2, 2, 1)])
def test_degenerate_count_closed_form(p, s, n, i, tower):
    # Hilbert-90 counting in the cyclic multiplicative group: for even order
    # 2r > 2 the degenerate parameters number exactly
    #   (q^gcd(i,n) - 1) (q^n - 1) / (q^gcd(2i,n) - 1)
    # since b -> -sigma^i(b)/b has fibers of size q^gcd(i,n) - 1 and the
    # norm-1 condition carves out a coset of the relative norm kernel.
    import math

    t = tower(p, s, n)
    d = t.sigma_order(i)
    q = t.q
    vecs = t.element_vectors()[1:]
    kf = t.K
    grams = gram_basis(t, i)
    if kf.s == 1:
        mats = np.einsum("vt,tjk->vjk", vecs, grams) % kf.p
    else:
        mats = np.zeros((len(vecs), n, n), dtype=np.int64)
        for c in range(n):
            mats = kf.add(mats, kf.mul(vecs[:, c, None, None], grams[c][None]))
    observed = int((rank_many(kf, mats) < n).sum())
    if d == 2:
        expect = q ** (n // 2) - 1  # the zero forms, swept by the (-1)-eigenspace
    else:
        expect = (q ** math.gcd(i, n) - 1) * (q**n - 1) // (q ** math.gcd(2 * i, n) - 1)
    assert observed == expect


def test_degenerate_rank_value(tower):
    assert degenerate_rank_value(tower(3, 1, 4), 1) == 2
    assert degenerate_rank_value(tower(3, 1, 6), 1) == 4
    assert degenerate_rank_value(tower(3, 1, 4), 2) == 0  # involution: zero or invertible
    with pytest.raises(ValueError):
        degenerate_rank_value(tower(3, 1, 3), 1)


def test_degenerate_rank_value_matches_exhaustive_histogram(tower):
    t = tower(3, 1, 4)
    prof = rank_profile(t, LSubspace.full(t.K, 4), 1)
    assert set(prof.histogram) == {degenerate_rank_value(t, 1), 4}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_family_dimension_law_q3(n, tower):
    t = tower(3, 1, n)
    for i in range(n):
        expect = n // 2 if t.sigma_order(i) == 2 else n
        assert family(t, i).dim == expect


def test_family_inverse_pair_equality(tower):
    for n in (4, 5, 6):
        t = tower(3, 1, n)
        for i in range(1, n):
            assert family(t, i) == family(t, n - i)


def test_family_parameter_kernel(tower):
    t = tower(3, 1, 4)
    assert family(t, 0).param_kernel.dim == 0
    assert family(t, 1).param_kernel.dim == 0
    assert family(t, 2).param_kernel == eigenspace_of_power(t, 2, -1)


def test_rank_profile_scalar_line_untwisted(tower):
    # the multiples of 1 under the identity twist: every nonzero form invertible
    t = tower(3, 1, 4)
    line = LSubspace.from_vectors(t.K, [t.one()], 4)
    prof = rank_profile(t, line, 0)
    assert prof.histogram == {4: 2}


def test_rank_profile_on_eigenspace_all_zero(tower):
    t = tower(3, 1, 2)
    e = eigenspace_of_power(t, 1, -1)
    prof = rank_profile(t, e, 1)
    assert prof.histogram == {0: 2}


def test_rank_profile_form_subspace_counts(tower):
    t = tower(3, 1, 4)
    fam = family(t, 2)
    prof = rank_profile(t, fam)
    assert prof.total == 3**fam.dim - 1
    assert set(prof.histogram) == {4}  # the involution family is invertible off zero


def test_rank_profile_full_space_counts(tower):
    t = tower(3, 1, 3)
    prof = rank_profile(t, LSubspace.full(t.K, 3), 1)
    assert prof.histogram == {3: 26}


def test_rank_profile_budget_refusal(tower):
    t = tower(3, 1, 6)
    with pytest.raises(BudgetExceededError):
        rank_profile(t, LSubspace.full(t.K, 6), 1, Run(mode="exhaustive", budget=100))
    prof = rank_profile(t, LSubspace.full(t.K, 6), 1, Run(mode="auto", budget=100, sample_count=500, seed=9))
    assert prof.mode == "sampled" and prof.total == 500


def test_rank_profile_sampled_deterministic(tower):
    t = tower(3, 1, 6)
    a = rank_profile(t, LSubspace.full(t.K, 6), 1, Run(mode="sampled", sample_count=400, seed=5))
    b = rank_profile(t, LSubspace.full(t.K, 6), 1, Run(mode="sampled", sample_count=400, seed=5))
    c = rank_profile(t, LSubspace.full(t.K, 6), 1, Run(mode="sampled", sample_count=400, seed=6))
    assert a.to_dict() == b.to_dict()
    assert a.to_dict() != c.to_dict()  # a different seed draws different parameters


def test_rank_profile_worker_invariance(tower):
    t = tower(3, 1, 5)
    full = LSubspace.full(t.K, 5)
    one = rank_profile(t, full, 2, Run(workers=1))
    many = rank_profile(t, full, 2, Run(workers=8))
    assert one.to_dict() == many.to_dict()


def test_rank_profile_rejects_missing_power(tower):
    t = tower(3, 1, 3)
    with pytest.raises(ValueError):
        rank_profile(t, LSubspace.full(t.K, 3))
    with pytest.raises(TypeError):
        rank_profile(t, np.eye(3), 1)


def test_rank_profile_zero_subspace(tower):
    t = tower(3, 1, 3)
    prof = rank_profile(t, LSubspace.zero(t.K, 3), 1)
    assert prof.histogram == {} and prof.total == 0


def test_symform_serialization(tower):
    t = tower(3, 1, 2)
    d = gram(t, [1, 2], 1).to_dict()
    assert d["b"] == [1, 2] and d["i"] == 1
    assert d["gram"] == gram_matrix(t, [1, 2], 1).tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 6))
def test_flatten_unflatten_roundtrip(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 3, size=(n, n))
    sym = (m + m.T) % 3
    assert np.array_equal(unflatten_sym(flatten_sym(sym, n), n), sym)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_flatten_unflatten_batched(n):
    rng = np.random.default_rng(n)
    m = rng.integers(0, 7, size=(2, 3, n, n))
    sym = (m + np.swapaxes(m, -1, -2)) % 7
    flat = flatten_sym(sym, n)
    assert flat.shape == (2, 3, n * (n + 1) // 2)
    # each batch entry matches the single-matrix call
    for idx in np.ndindex(2, 3):
        assert np.array_equal(flat[idx], flatten_sym(sym[idx], n))
        assert np.array_equal(unflatten_sym(flat[idx], n), sym[idx])
    assert np.array_equal(unflatten_sym(flat, n), sym)
    empty = unflatten_sym(np.zeros((0, n * (n + 1) // 2), dtype=np.int64), n)
    assert empty.shape == (0, n, n)
    assert flatten_sym(empty, n).shape == (0, n * (n + 1) // 2)


def test_rank_profile_worker_invariance_over_several_chunks(tower):
    # (3**9 - 1)/2 = 9,841 projective codes of size 9 are four chunks, so the thread pool runs
    t = tower(3, 1, 9)
    full = LSubspace.full(t.K, 9)
    one = rank_profile(t, full, 1, Run(workers=1))
    many = rank_profile(t, full, 1, Run(workers=8))
    assert one.mode == "exhaustive" and one.total == 3**9 - 1
    assert one.to_dict() == many.to_dict()
    one = rank_profile(t, full, 1, Run(mode="sampled", sample_count=9000, seed=3, workers=1))
    many = rank_profile(t, full, 1, Run(mode="sampled", sample_count=9000, seed=3, workers=8))
    assert one.total == 9000
    assert one.to_dict() == many.to_dict()


@pytest.mark.parametrize("workers", [2, 3])
def test_rank_chunks_pool_takes_a_bounded_lead(tower, workers):
    # the pool must not drain the code source: when the first rank array
    # arrives, at most 2 * workers chunks have been taken beyond it
    t = tower(3, 1, 3)
    taken = 0

    def source():
        nonlocal taken
        for code in range(1, 101):
            taken += 1
            yield formspace.base_digits(np.array([code]), 3, 3)

    ranks = formspace._rank_chunks(t.K, gram_basis(t, 1), source(), workers)
    first = next(ranks)
    assert taken <= 2 * workers + 1
    rest = list(ranks)
    assert taken == 100 and len(rest) == 99
    serial = list(formspace._rank_chunks(t.K, gram_basis(t, 1), source(), 1))
    assert [r.tolist() for r in [first] + rest] == [r.tolist() for r in serial]


# -- projective source: references that enumerate every code ---------------------

_GF_BY_Q = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}


def _all_codes(q, d):
    """Every nonzero coefficient vector, little-endian base-q digits of 1..q**d - 1."""
    return np.array([[(c // q**t) % q for t in range(d)] for c in range(1, q**d)], dtype=np.int64)


def _full_census(kf, grams, n):
    """Histogram over every nonzero combination of `grams`, one rank per form."""
    d = grams.shape[0]
    forms = np.zeros((kf.q**d - 1, n, n), dtype=np.int64)
    for t, col in enumerate(_all_codes(kf.q, d).T):
        forms = kf.add(forms, kf.mul(col[:, None, None], grams[t][None]))
    hist = np.bincount(rank_many(kf, forms), minlength=n + 1)
    return {int(r): int(c) for r, c in enumerate(hist) if c}


@pytest.mark.parametrize("q", sorted(_GF_BY_Q))
@pytest.mark.parametrize("chunk", [1, 2, 7, 100])
def test_projective_source_times_units_covers_every_vector_once(q, chunk):
    kf = Gf(*_GF_BY_Q[q])
    for d in range(1, 5):
        chunks = list(_range_chunks(q, d, _projective_spans(q, d), chunk))
        # chunks run across span boundaries: only the last one may be short
        assert all(len(c) == chunk for c in chunks[:-1]) and 0 < len(chunks[-1]) <= chunk
        reps = np.concatenate(chunks)
        assert len(reps) == (q**d - 1) // (q - 1)
        weights = q ** np.arange(d)
        seen = np.concatenate([kf.mul(lam, reps) @ weights for lam in range(1, q)])
        assert sorted(seen.tolist()) == list(range(1, q**d))


_CENSUS_TOWERS = ([(3, 1, n) for n in range(1, 9)] + [(5, 1, n) for n in range(1, 6)]
                  + [(7, 1, n) for n in range(1, 5)] + [(11, 1, n) for n in range(1, 4)]
                  + [(3, 2, n) for n in range(1, 5)])


@pytest.mark.parametrize("p,s,n", _CENSUS_TOWERS)
def test_rank_profile_equals_full_range_census(p, s, n, tower):
    # every tower with q**n <= 3**8 over q in {3, 5, 7, 11}, and GF(9) towers
    t = tower(p, s, n)
    full = LSubspace.full(t.K, n)
    for i in range(n):
        prof = rank_profile(t, full, i)
        assert prof.mode == "exhaustive"
        assert prof.histogram == _full_census(t.K, gram_basis(t, i), n)
        if t.sigma_order(i) % 2 == 0:
            for piece in _split_family(t, i)[0]:
                grams = formspace._combine_forms(t.K, piece.sub.basis, gram_basis(t, i))
                assert rank_profile(t, piece.sub, i).histogram == _full_census(t.K, grams, n), piece.name


def test_projective_census_checks_its_weighted_total(monkeypatch, tower):
    # a raw Gram stack always takes the projective source
    t = tower(3, 1, 4)
    monkeypatch.setattr(formspace, "_projective_spans", lambda q, d: [(1, 2), (q, 2 * q)])
    with pytest.raises(AssertionError, match="counted 8 of 80 nonzero forms"):
        formspace._profile_from_grams(t.K, gram_basis(t, 1), 4)


def test_coset_census_checks_its_weighted_total(monkeypatch, tower):
    # GF(3^4), i = 1: m = 4 cosets of |U| = 20 parameters; one unit short counts 4 * 19
    t = tower(3, 1, 4)
    source = formspace._coset_source

    def short(*args):
        reps, unit = source(*args)
        return reps, unit - 1

    monkeypatch.setattr(formspace, "_coset_source", short)
    with pytest.raises(AssertionError, match="coset census counted 76 of 80 nonzero forms"):
        rank_profile(t, LSubspace.full(t.K, 4), 1)


# -- coset source -------------------------------------------------------------------


def _counting_rank_many(monkeypatch):
    """Patch the engine's `rank_many` to count the matrices it is given."""
    seen = []

    def counted(kf, mats):
        seen.append(len(mats))
        return rank_many(kf, mats)

    monkeypatch.setattr(formspace, "rank_many", counted)
    return seen


@pytest.mark.parametrize("p,i,m", [(7, 1, 8), (7, 3, 8), (11, 1, 12), (11, 3, 12)])
def test_coset_census_equals_full_census_where_small_generators_fail(p, i, m, tower, monkeypatch):
    # c = 8 and 12: the first candidates x + j of these towers do not generate
    t = tower(p, 1, 4)
    seen = _counting_rank_many(monkeypatch)
    prof = rank_profile(t, LSubspace.full(t.K, 4), i)
    assert sum(seen) == m
    assert prof.mode == "exhaustive"
    assert prof.histogram == _full_census(t.K, gram_basis(t, i), 4)


def test_coset_generator_skips_a_failing_candidate(monkeypatch, tower):
    # GF(3^8), i = 1: F*/U has order 4, so the image of a square has order at most 2
    t = tower(3, 1, 8)
    full = LSubspace.full(t.K, 8)
    square = t.mul(t.basis_element(1), t.basis_element(1))
    scan = formspace._coset_candidates
    chosen = []
    pick = formspace._coset_generator

    def record(*args):
        chosen.append(pick(*args))
        return chosen[-1]

    monkeypatch.setattr(formspace, "_coset_candidates", lambda kf, fb: [square, *scan(kf, fb)])
    monkeypatch.setattr(formspace, "_coset_generator", record)
    prof = rank_profile(t, full, 1)
    assert len(chosen) == 1 and not np.array_equal(chosen[0], square)
    assert prof.histogram == _full_census(t.K, gram_basis(t, 1), 8)
    # offered only squares, the census refuses rather than repeat cosets
    monkeypatch.setattr(formspace, "_coset_candidates", lambda kf, fb: [square, t.mul(square, square)])
    with pytest.raises(AssertionError, match="no element of F generates F\\*/U of order 4"):
        rank_profile(t, full, 1)


def test_full_family_of_gf3_8_ranks_four_forms(monkeypatch, tower):
    t = tower(3, 1, 8)
    seen = _counting_rank_many(monkeypatch)
    prof = rank_profile(t, LSubspace.full(t.K, 8), 1)
    assert sum(seen) == 4  # not (3**8 - 1)/2 = 3,280
    assert prof.total == 3**8 - 1


def test_coset_congruence_audit_refuses_a_wrong_matrix(tower):
    t = tower(3, 1, 4)
    h = t.basis_element(1)
    formspace._congruence_audit(t, 1, h, formspace._mul_matrix(t, h))
    with pytest.raises(AssertionError, match="not a congruence for i = 1"):
        formspace._congruence_audit(t, 1, h, formspace._mul_matrix(t, t.add(h, t.one())))


_LINE_TOWERS = _CENSUS_TOWERS + [(5, 2, 1), (5, 2, 2), (7, 2, 1), (7, 2, 2)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_census_of_a_subfield_line_equals_full_census(data, tower):
    # every tower with q**n <= 3**8 and s in {1, 2}; W = Fix(sigma^f) * w for f | n
    p, s, n = data.draw(st.sampled_from(_LINE_TOWERS))
    t = tower(p, s, n)
    i = data.draw(st.integers(0, n - 1))
    f = data.draw(st.sampled_from([f for f in range(1, n + 1) if n % f == 0]))
    w = np.array(data.draw(st.lists(st.integers(0, t.q - 1), min_size=n, max_size=n)))
    assume(w.any())
    fix = eigenspace_of_power(t, f, 1)
    line = LSubspace.from_vectors(t.K, [t.mul(w, v) for v in fix.basis], n)
    assert line.dim == f
    grams = formspace._combine_forms(t.K, line.basis, gram_basis(t, i))
    assert rank_profile(t, line, i).histogram == _full_census(t.K, grams, n)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_census_of_a_plane_off_every_subfield_line_is_projective(data, tower):
    # n = 2 is left out: there every plane is L, one line over GF(q^2)
    p, s, n = data.draw(st.sampled_from([tw for tw in _LINE_TOWERS if tw[2] >= 3]))
    t = tower(p, s, n)
    i = data.draw(st.integers(0, n - 1))
    digits = st.lists(st.integers(0, t.q - 1), min_size=n, max_size=n)
    w1, w2 = np.array(data.draw(digits)), np.array(data.draw(digits))
    assume(w1.any())
    ratio = t.div(w2, w1)
    # span{w1, w2} is one line over GF(q^2) exactly when w2/w1 lies in it
    assume(n % 2 or not np.array_equal(t.frobenius_apply(2 % n, ratio), ratio))
    plane = LSubspace.from_vectors(t.K, [w1, w2], n)
    assume(plane.dim == 2)
    with pytest.MonkeyPatch.context() as mp:
        seen = _counting_rank_many(mp)
        prof = rank_profile(t, plane, i)
    assert sum(seen) == t.q + 1  # one form per K-line
    grams = formspace._combine_forms(t.K, plane.basis, gram_basis(t, i))
    assert prof.histogram == _full_census(t.K, grams, n)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


# sha256 prefixes of xpow, tau3, the Frobenius matrices and the basis Grams of
# every power: any change in how the tower or the Grams are computed shows here
@pytest.mark.parametrize(
    "p,s,n,want",
    [
        (7, 3, 4, ("66a22f7aae04dcc5", "feffe7bf65741668", "eb9fb33f732fe200", "280b937b8f532f03")),
        (3, 2, 4, ("88ae85ff1de0d0e6", "64eb2bbf521465f2", "ac245d1fc0a8eb45", "d472b9e611943e88")),
        (3, 1, 8, ("230365b74caf7010", "fc4d238150ae992c", "b889c0d6718c4aee", "b3f4420037e55d72")),
        (11, 1, 32, ("4230ba28f7c05a8b", "775d299b2744199b", "d407f6b799a8b70c", "6c01f026d049f5c0")),
    ],
    ids=["gf343_4", "gf9_4", "gf3_8", "gf11_32"],
)
def test_tower_tables_and_gram_basis_pinned(tower, p, s, n, want):
    t = tower(p, s, n)
    got = (
        _digest([t.xpow]),
        _digest([t.tau3]),
        _digest(t.frobenius_mats),
        _digest([gram_basis(t, i) for i in range(n)]),
    )
    assert got == want
