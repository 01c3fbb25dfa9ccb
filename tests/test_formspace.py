import hashlib
import itertools
import signal
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gsf import ffield, formspace
from gsf.cli import default_golden_dir
from gsf.decomp import _global_pieces, _split_family, min_rank_lower_bound, verify_full_refined, verify_rank_laws
from gsf.exactla import LSubspace, eigenspace_of_power, rank_many
from gsf.ffield import FieldTower, Gf, _mul_matrices, _mul_x_many, prime_factors
from gsf.formspace import (
    BudgetExceededError,
    Run,
    SymForm,
    _projective_spans,
    _range_chunks,
    degenerate_by_norm,
    degenerate_rank_value,
    family,
    flatten_sym,
    gram,
    gram_basis,
    gram_matrix,
    radical,
    rank_profile,
    rank_profiles,
    translate,
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


def gram_alt(tower, b, i: int) -> SymForm:
    """Same form through the one-sided kernel formula.

    Row j is tr((sigma^{-i}(b e_j) + b sigma^{i}(e_j)) * e_k) over k; built
    from element products and traces rather than the Hankel shortcut, so it
    cross-checks `gram` through an independent code path.
    """
    b = tower.element(b)
    if not 0 <= i < tower.n:
        raise ValueError(f"automorphism power i = {i} out of range 0..{tower.n - 1}")
    n, kf = tower.n, tower.K
    inv_i = (-i) % n
    out = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        ej = tower.basis_element(j)
        w = kf.add(
            kf.matmul(tower.frobenius_mats[inv_i], tower.mul(b, ej)),
            tower.mul(b, kf.matmul(tower.frobenius_mats[i], ej)),
        )
        u = w
        for k in range(n):
            out[j, k] = tower.trace_to_base(u)
            if k + 1 < n:
                u = _mul_x_many(kf, u[None], tower.ext_poly[:n])[0]
    return SymForm(tower, b, i, out)


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


def _global_piece(t, name):
    """The piece `name` of the refined global sum, censused through its parameters."""
    return next(piece for piece in _global_pieces(t, refine=True)[0] if piece.name == name)


def test_rank_profile_form_subspace_counts(tower):
    t = tower(3, 1, 4)
    fam = family(t, 2)
    b1 = _global_piece(t, "B^1")
    prof = rank_profile(t, b1.sub, b1.i)
    assert prof.total == 3**fam.dim - 1
    assert set(prof.histogram) == {4}  # the involution family is invertible off zero


def test_rank_profile_full_space_counts(tower):
    t = tower(3, 1, 3)
    prof = rank_profile(t, LSubspace.full(t.K, 3), 1)
    assert prof.histogram == {3: 26}


def test_rank_profile_budget_refusal(tower):
    t = tower(3, 1, 6)
    with pytest.raises(BudgetExceededError):
        rank_profile(t, LSubspace.full(t.K, 6), 1, Run(mode="exhaustive", budget=3))
    prof = rank_profile(t, LSubspace.full(t.K, 6), 1, Run(mode="auto", budget=3, sample_count=500, seed=9))
    assert prof.mode == "sampled" and prof.total == 500


def test_run_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown enumeration mode 'bogus'"):
        Run(mode="bogus")


def test_sampled_census_of_the_zero_subspace_draws_nothing(tower):
    # with d = 0 there is no nonzero vector to draw: redrawing would never end,
    # so the alarm turns a hang into a failure
    t = tower(3, 1, 4)

    def hang(signum, frame):
        raise TimeoutError("a sampled census of the zero subspace did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        prof = rank_profile(t, LSubspace.zero(t.K, 4), 1, Run(mode="sampled", seed=0, sample_count=5))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert prof.to_dict() == {"mode": "sampled", "count": 5, "seed": 0, "histogram": {}}


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
    with pytest.raises(TypeError, match="'i'"):
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
    # the pool must not drain the job source: when the first rank array
    # arrives, at most 2 * workers jobs have been taken beyond it
    t = tower(3, 1, 3)
    taken = 0

    def source():
        nonlocal taken
        for code in range(1, 101):
            taken += 1
            codes = formspace.base_digits(np.array([code]), 3, 3)
            yield code, lambda codes=codes: formspace._combine_forms(t.K, codes, gram_basis(t, 1))

    ranks = formspace._rank_chunks(t.K, source(), workers)
    first = next(ranks)
    assert taken <= 2 * workers + 1
    rest = list(ranks)
    assert taken == 100 and len(rest) == 99
    serial = list(formspace._rank_chunks(t.K, source(), 1))
    assert [(tag, r.tolist()) for tag, r in [first] + rest] == [(tag, r.tolist()) for tag, r in serial]
    assert [tag for tag, _ in serial] == list(range(1, 101))


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


def test_coset_census_checks_its_weighted_total(monkeypatch):
    # GF(3^4), i = 1: m = 4 cosets of |U| = 20 parameters; one unit short counts 4 * 19.
    # A fresh tower: a census held by a shared one would never reach the patch
    t = FieldTower(3, 1, 4)
    source = formspace._coset_source

    def short(*args):
        name, reps, unit = source(*args)
        return name, reps, unit - 1

    monkeypatch.setattr(formspace, "_coset_source", short)
    with pytest.raises(AssertionError, match="coset census counted 76 of 80 nonzero forms"):
        rank_profile(t, translate(t, 4), 1)


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
def test_coset_census_equals_full_census_where_small_generators_fail(p, i, m, monkeypatch):
    # c = 8 and 12: the first candidates x + j of these towers do not generate.
    # Each census that counts its ranks runs on a fresh tower, whose memo holds none
    t = FieldTower(p, 1, 4)
    seen = _counting_rank_many(monkeypatch)
    prof = rank_profile(t, translate(t, 4), i)
    assert sum(seen) == m
    assert prof.mode == "exhaustive"
    assert prof.histogram == _full_census(t.K, gram_basis(t, i), 4)


def test_coset_generator_skips_a_failing_candidate(monkeypatch):
    # GF(3^8), i = 1: F*/U has order 4, so the image of a square has order at most 2
    t = FieldTower(3, 1, 8)
    full = translate(t, 8)
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
    # offered only squares, the census refuses rather than repeat cosets; a
    # fresh tower, as `t` now holds both the generator and the census
    t = FieldTower(3, 1, 8)
    monkeypatch.setattr(formspace, "_coset_candidates", lambda kf, fb: [square, t.mul(square, square)])
    with pytest.raises(AssertionError, match="no element of F generates F\\*/U of order 4"):
        rank_profile(t, full, 1)


def _reference_generator(t, candidates, unit, m):
    """The first candidate h with (h**|U|)**(m/l) != 1 for every prime l | m,
    by square-and-multiply over the full exponents."""
    one = t.one()
    for h in candidates:
        phi = t.pow_elem(h, unit)
        if all(not np.array_equal(t.pow_elem(phi, m // ell), one) for ell in prime_factors(m)):
            return h
    return None


@pytest.mark.parametrize("p,s,n", [(3, 1, 8), (7, 1, 4), (11, 1, 4), (3, 2, 4), (7, 3, 4)])
def test_norm_generator_check_equals_the_direct_powers(p, s, n, tower):
    # for every f | n and every i with 1 < m <= 5000, the norm test of each of
    # the first 40 candidates equals h**((q**f - 1)/l) != 1 for every prime l | m,
    # and the chosen h is the one the square-and-multiply search picks
    t = tower(p, s, n)
    q, one, seen = t.q, t.one(), {}
    for f in [f for f in range(1, n + 1) if n % f == 0]:
        fbasis = eigenspace_of_power(t, f, 1).basis
        for i in range(n):
            unit, m = formspace._coset_counts(q, n, i, f)
            if not 1 < m <= 5000:
                continue
            tests = seen[f, m] = formspace._norm_tests(q, f, m)
            assert prime_factors(m) == [(q**r - 1) // e for r, e in tests]
            assert [r for r, _ in tests] == [min(d for d in range(1, f + 1) if pow(q, d, ell) == 1)
                                             for ell in prime_factors(m)]
            for h in itertools.islice(formspace._coset_candidates(t.K, fbasis), 40):
                direct = all(not np.array_equal(t.pow_elem(h, (q**f - 1) // ell), one) for ell in prime_factors(m))
                assert formspace._generates(t, h, f, tests) == direct, (f, i, h)
            chosen = formspace._coset_generator(t, formspace._coset_candidates(t.K, fbasis), f, m)
            want = _reference_generator(t, formspace._coset_candidates(t.K, fbasis), unit, m)
            assert np.array_equal(chosen, want), (f, i)
    if (p, s, n) == (3, 1, 8):
        # f = 8, i = 4: m = 82, and l = 41 has r = 8, so no norm shortens its power
        assert seen[8, 82] == [(1, 1), (8, 160)]


def test_norm_generator_check_refuses_an_inconsistent_index(tower):
    # 5 divides neither 3 - 1 nor 3**2 - 1, so no F*/U of order 5 lies in GF(3^2)
    t = tower(3, 1, 8)
    candidates = formspace._coset_candidates(t.K, eigenspace_of_power(t, 2, 1).basis)
    with pytest.raises(AssertionError, match="prime 5 of m divides no q\\*\\*r - 1 with r dividing f = 2"):
        formspace._coset_generator(t, candidates, 2, 5)


def test_full_family_of_gf3_8_ranks_four_forms(monkeypatch):
    t = FieldTower(3, 1, 8)
    seen = _counting_rank_many(monkeypatch)
    prof = rank_profile(t, translate(t, 8), 1)
    assert sum(seen) == 4  # not (3**8 - 1)/2 = 3,280
    assert prof.total == 3**8 - 1


def test_coset_congruence_audit_refuses_a_wrong_matrix(tower, monkeypatch, capsys):
    from gsf.cli import main

    # all of GF(3^4) (f = n), and the piece W = GF(3^4) of GF(3^8) (f < n),
    # of which the audit reads only W's rows
    for t, rows in [(tower(3, 1, 4), LSubspace.full(tower(3, 1, 4).K, 4).basis),
                    (tower(3, 1, 8), eigenspace_of_power(tower(3, 1, 8), 4, 1).basis)]:
        h = rows[1]
        formspace._congruence_audit(t, 1, h, formspace._mul_matrix(t, h), rows)
        with pytest.raises(AssertionError, match="not a congruence for i = 1"):
            formspace._congruence_audit(t, 1, h, formspace._mul_matrix(t, t.add(h, t.one())), rows)
    # a run whose coset census of such a piece is fed a wrong matrix exits 4
    audit, pieces = formspace._congruence_audit, []

    def wrong(tw, i, h, by_h, rows):
        pieces.append(len(rows))
        audit(tw, i, h, formspace._mul_matrix(tw, tw.add(h, tw.one())), rows)

    monkeypatch.setattr(formspace, "_congruence_audit", wrong)
    assert main(["refine", "--full", "--p", "3", "--n", "8"]) == 4
    assert pieces == [4]
    assert "internal check failed" in capsys.readouterr().err


def test_bare_plane_censuses_through_the_projective_source():
    # GF(3^4), f = 2: for i = 0 and 2 the cosets of the translate GF(9) pay
    # (m = 1); a bare plane, even GF(9) itself, ranks its (q**2 - 1)/(q - 1)
    # K-lines.  A fresh tower per census, so that none is served from the memo
    for i in (0, 2):
        t = FieldTower(3, 1, 4)
        line = translate(t, 2)  # GF(9)
        assert formspace._coset_source(t, line, i) is not None
        for plane in [LSubspace.from_vectors(t.K, [t.one(), t.basis_element(1)], 4),  # x is not in GF(9)
                      LSubspace(t.K, 4, line.basis)]:
            t = FieldTower(3, 1, 4)
            with pytest.MonkeyPatch.context() as mp:
                seen = _counting_rank_many(mp)
                prof = rank_profile(t, plane, i)
            assert sum(seen) == (3**2 - 1) // (3 - 1)
            grams = formspace._combine_forms(t.K, plane.basis, gram_basis(t, i))
            assert prof.histogram == _full_census(t.K, grams, 4)


# -- coset census past the form budget ------------------------------------------


def _coset_pieces(t):
    """(name, parameters, i) of every piece that `_global_pieces` censuses,
    of all of L twisted by every power, and of every split piece."""
    for piece in _global_pieces(t, refine=True)[0]:
        if piece.sub is not None:
            yield piece.name, piece.sub, piece.i
    for i in range(t.n):
        yield f"A^{i}", translate(t, t.n), i
        if t.sigma_order(i) % 2 == 0:
            for piece in _split_family(t, i)[0]:
                yield piece.name, piece.sub, i


@pytest.mark.parametrize("p,s,n", [(3, 1, 4), (3, 1, 6), (3, 1, 8), (5, 1, 4), (7, 1, 4), (3, 2, 4), (11, 1, 4)],
                         ids=["gf3_4", "gf3_6", "gf3_8", "gf5_4", "gf7_4", "gf9_4", "gf11_4"])
def test_coset_census_past_the_form_budget_equals_the_default_census(p, s, n, tower):
    # a budget of exactly m forces the coset census past q**d - 1 forms; one
    # less refuses in exhaustive mode and samples in auto.  GF(7^4) and
    # GF(11^4) at i = 1 and 3 need a generator past the first candidates
    t = tower(p, s, n)
    seen = 0
    for name, params, i in _coset_pieces(t):
        if formspace._coset_source(t, params, i) is None:
            continue
        seen += 1
        m = formspace._coset_counts(t.q, n, i, params.dim)[1]
        assert t.q**params.dim - 1 > m, name
        want = rank_profile(t, params, i)
        assert want.mode == "exhaustive"
        for mode in ("auto", "exhaustive"):
            got = rank_profile(t, params, i, Run(mode=mode, budget=m))
            assert got.to_dict() == want.to_dict(), (name, mode)
        with pytest.raises(BudgetExceededError):
            rank_profile(t, params, i, Run(mode="exhaustive", budget=m - 1))
        below = rank_profile(t, params, i, Run(budget=m - 1, sample_count=20, seed=1))
        assert below.mode == "sampled" and below.total == 20, name
    assert seen >= n


def test_cosets_past_the_budget_are_refused_before_any_set_up(monkeypatch, tower):
    # GF(11^32), i = 8: m = 214,358,882 cosets, past the default budget
    t = tower(11, 1, 32)
    full = translate(t, 32)
    assert formspace._coset_counts(11, 32, 8, 32)[1] == 214_358_882

    def refuse(*args):
        raise RuntimeError("set-up ran for a census whose cosets do not fit the budget")

    monkeypatch.setattr(formspace, "_coset_generator", refuse)
    monkeypatch.setattr(formspace, "_mul_matrix", refuse)
    assert formspace._coset_source(t, full, 8) is None
    prof = rank_profile(t, full, 8, Run(sample_count=30, seed=2))
    assert prof.mode == "sampled" and prof.total == 30
    with pytest.raises(BudgetExceededError):
        rank_profile(t, full, 8, Run(mode="exhaustive"))
    # GF(3^4), i = 1, m = 4: a budget of 3 refuses the cosets just as early
    small = tower(3, 1, 4)
    assert formspace._coset_source(small, translate(small, 4), 1, budget=3) is None


@pytest.mark.parametrize("p,n,i,m", [(3, 8, 1, 4), (7, 4, 1, 8), (11, 32, 2, 122), (3, 20, 5, 244)])
def test_coset_representatives_stream_in_chunks(p, n, i, m, monkeypatch, tower):
    # the chunked stream yields the same codes in the same order for any chunk
    # size; each counted census runs on a fresh tower, whose memo holds none
    t = tower(p, 1, n)
    full = translate(t, n)
    _, chunks, _ = formspace._coset_source(t, full, i)
    want = np.concatenate(list(chunks))
    assert want.shape == (m, n)
    hist = rank_profile(t, full, i).histogram
    for chunk in (1, 5, 64):
        t = FieldTower(p, 1, n)
        monkeypatch.setattr(formspace, "_chunk_size", lambda n: chunk)
        _, chunks, _ = formspace._coset_source(t, full, i)
        chunks = list(chunks)
        assert all(len(c) == chunk for c in chunks[:-1]) and 0 < len(chunks[-1]) <= chunk
        assert np.array_equal(np.concatenate(chunks), want)
        seen = _counting_rank_many(monkeypatch)
        assert rank_profile(t, full, i).histogram == hist
        assert sum(seen) == m and max(seen) <= chunk
        monkeypatch.undo()


_GRAM_TOWERS = [(3, 1, 8), (3, 2, 4), (7, 3, 4), (11, 1, 32)]


@pytest.mark.parametrize("p,s,n", _GRAM_TOWERS, ids=["gf3_8", "gf9_4", "gf343_4", "gf11_32"])
def test_batched_gram_basis_equals_stacked_gram_matrices(p, s, n, tower):
    t = tower(p, s, n)
    for i in range(n):
        want = np.stack([gram_matrix(t, t.basis_element(k), i) for k in range(n)])
        assert np.array_equal(gram_basis(t, i), want), i


@pytest.mark.parametrize("p,s,n", _GRAM_TOWERS, ids=["gf3_8", "gf9_4", "gf343_4", "gf11_32"])
def test_mul_matrix_equals_mul_matrices(p, s, n, tower):
    t = tower(p, s, n)
    rng = np.random.default_rng(p * 100 + n)
    elems = rng.integers(0, t.q, size=(6, n), dtype=np.int64)
    elems[0] = 0
    want = _mul_matrices(t.K, elems, t.ext_poly[:n])
    for a, m in zip(elems, want):
        assert np.array_equal(formspace._mul_matrix(t, a), m)


# -- translates j * Fix(sigma**f) ---------------------------------------------------


def _product_subspace(t, j, u):
    """j * U from the products of j with U's basis rows: the reference for V = j * U."""
    prods = [t.mul(j, v) for v in u.basis] if u.dim else np.zeros((0, t.n), dtype=np.int64)
    return LSubspace.from_vectors(t.K, np.asarray(prods, dtype=np.int64), t.n)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# q**n <= 3**12, and towers over GF(9), GF(27), GF(25) and GF(49)
_TRANSLATE_TOWERS = ([(3, 1, n) for n in range(1, 13)] + [(5, 1, n) for n in range(1, 9)]
                     + [(7, 1, n) for n in range(1, 7)] + [(11, 1, n) for n in range(1, 6)]
                     + [(13, 1, n) for n in range(1, 6)]
                     + [(3, 2, n) for n in range(1, 7)] + [(3, 3, 4), (5, 2, 4), (7, 2, 2)])


@settings(max_examples=60, deadline=None)
@given(pick=st.sampled_from(_TRANSLATE_TOWERS))
@example(pick=(3, 2, 4))
@example(pick=(3, 2, 6))
@example(pick=(3, 3, 4))
@example(pick=(5, 2, 4))
@example(pick=(7, 2, 2))
def test_translates_equal_the_pieces_they_replace(pick, tower):
    # echelon bytes, not just spans, must be equal: sampled draws depend on them.
    # For every power k: Fix(sigma^k), for even order the (-1)-eigenspace of
    # sigma^k, and V = j * U with U fixed by the involution sigma^(k*d/2)
    p, s, n = pick
    t = tower(p, s, n)
    for k in range(1, n + 1):
        plus = translate(t, k)
        assert _same_bytes(plus.basis, eigenspace_of_power(t, k, 1).basis), k
        assert plus.f == plus.dim and np.array_equal(plus.j, t.one())
        d = t.sigma_order(k % n)
        if d % 2:
            continue
        minus = translate(t, k, k)
        assert _same_bytes(minus.basis, eigenspace_of_power(t, k, -1).basis), k
        assert minus.f == minus.dim and minus.contains(minus.j)
        f = (k * (d // 2)) % n
        j = eigenspace_of_power(t, k, -1).basis[0]
        assert _same_bytes(translate(t, f, k).basis, _product_subspace(t, j, eigenspace_of_power(t, f, 1)).basis), k


def test_a_wrong_translate_element_exits_four(monkeypatch, capsys):
    # translate audits sigma^t(j) = -j; with j = 1 the refinement of GF(3^8) stops
    from gsf.cli import main

    monkeypatch.setattr(formspace, "_negated", lambda tw, t: tw.one())
    assert main(["refine", "--full", "--p", "3", "--n", "8"]) == 4
    err = capsys.readouterr().err
    assert "internal check failed" in err and "is not a (-1)-eigenvector of sigma^" in err


def test_a_parameter_kernel_meeting_fix_exits_four(monkeypatch, capsys):
    # B^1 is censused through Fix(sigma^(n/2)) only if that complements its parameter kernel
    from dataclasses import replace

    from gsf import decomp
    from gsf.cli import main

    real = decomp.family

    def wrong(tw, i):
        fam = real(tw, i)
        return replace(fam, param_kernel=eigenspace_of_power(tw, tw.n // 2, 1)) if fam.param_kernel.dim else fam

    monkeypatch.setattr(decomp, "family", wrong)
    assert main(["refine", "--full", "--p", "3", "--n", "8"]) == 4
    err = capsys.readouterr().err
    assert "internal check failed" in err and "not a complement of the parameter kernel of B^1" in err


# -- census of a family through its parameter space ------------------------------

_FAMILY_TOWERS = [(3, 1, 2), (3, 1, 4), (3, 1, 6), (3, 1, 8), (5, 1, 4), (7, 1, 4), (3, 2, 4)]


@pytest.mark.parametrize("p,s,n,i", [(p, s, n, i) for p, s, n in _FAMILY_TOWERS for i in (0, n // 2)]
                         + [(3, 1, 5, 0)])
def test_family_census_through_parameters_equals_form_census(p, s, n, i, tower):
    t = tower(p, s, n)
    fam = family(t, i)
    want = formspace._profile_from_grams(t.K, fam.gram_mats(), n, Run(mode="exhaustive"))
    piece = _global_piece(t, "A^0" if i == 0 else "B^1")
    got = rank_profile(t, piece.sub, piece.i)
    assert got.to_dict() == want.to_dict()
    assert got.total == t.q**fam.dim - 1


@pytest.mark.parametrize("p,s,n,i,forms", [(3, 1, 8, 0, 2), (7, 3, 4, 2, 1)], ids=["A0_gf3_8", "B1_gf343_4"])
def test_family_census_ranks_one_form_per_coset(p, s, n, i, forms, monkeypatch):
    # A^0 of GF(3^8): m = 2, not 3,280 K-lines; B^1 of GF(343^4): Fix(sigma^2) has m = 1, not 344
    t = FieldTower(p, s, n)
    fam = family(t, i)
    piece = _global_piece(t, "A^0" if i == 0 else "B^1")
    seen = _counting_rank_many(monkeypatch)
    prof = rank_profile(t, piece.sub, piece.i)
    assert sum(seen) == forms
    assert prof.total == t.q**fam.dim - 1 and prof.ranks == {n}


# -- one census pass per certificate -------------------------------------------------


def _recording_rank_many(monkeypatch):
    """Patch the engine's `rank_many` to record the shape of every batch."""
    shapes = []

    def recorded(kf, mats):
        shapes.append(np.shape(mats))
        return rank_many(kf, mats)

    monkeypatch.setattr(formspace, "rank_many", recorded)
    return shapes


def _one_at_a_time(tower, requests):
    return [rank_profile(tower, *request) for request in requests]


def _golden_texts():
    from gsf.cli import golden_entries

    return [(fname, build().to_json()) for fname, build in golden_entries()]


def _cli_text(capsys, argv):
    from gsf.cli import main

    code = main(argv)
    return code, capsys.readouterr().out


_BATCHED_COMMANDS = [["theorem-c", "--q", "11", "--n", "32"], ["refine", "--full", "--p", "3", "--n", "16"],
                     ["refine", "--full", "--p", "3", "--s", "2", "--n", "4"]]


@pytest.mark.parametrize("argv", [None] + _BATCHED_COMMANDS,
                         ids=["golden", "theorem_c_gf11_32", "refine_full_gf3_16", "refine_full_gf9_4"])
def test_batched_censuses_equal_one_at_a_time_on_every_claim(argv, monkeypatch, capsys):
    # every claim of every golden certificate, and of three larger commands, is
    # the same with one `rank_profiles` call per certificate as with one
    # `rank_profile` call per piece; each side builds its own towers, so no
    # census is served from the other's memo.  No batch passes one chunk
    from gsf import decomp

    with pytest.MonkeyPatch.context() as mp:
        shapes = _recording_rank_many(mp)
        batched = _golden_texts() if argv is None else _cli_text(capsys, argv)
    assert shapes and all(len(shape) == 3 and shape[0] <= formspace._chunk_size(shape[-1]) for shape in shapes)
    monkeypatch.setattr(decomp, "rank_profiles", _one_at_a_time)
    singles = _recording_rank_many(monkeypatch)
    alone = _golden_texts() if argv is None else _cli_text(capsys, argv)
    assert batched == alone
    assert len(shapes) < len(singles)
    if argv is None:
        assert batched == [(fname, (default_golden_dir() / fname).read_text(encoding="utf-8")) for fname, _ in batched]


def test_multi_chunk_censuses_stream_after_the_queue(monkeypatch):
    # GF(7^4) with chunks of 5: all of L with i = 0 (m = 2), GF(49) with i = 0
    # (m = 1) and K with i = 1 (one line) are queued and ranked together; then
    # all of L twisted by sigma and by sigma^3, m = 8 cosets each, stream as 5 + 3
    def requests(t):
        full = translate(t, 4)
        return [(full, 1, Run()), (full, 0, Run()), (translate(t, 2), 0, Run()), (translate(t, 1), 1, Run()),
                (full, 3, Run())]

    monkeypatch.setattr(formspace, "_chunk_size", lambda n: 5)
    want = _one_at_a_time(FieldTower(7, 1, 4), requests(FieldTower(7, 1, 4)))
    t = FieldTower(7, 1, 4)
    shapes = _recording_rank_many(monkeypatch)
    got = rank_profiles(t, requests(t))
    assert [shape[0] for shape in shapes] == [4, 5, 3, 5, 3]
    assert [prof.to_dict() for prof in got] == [prof.to_dict() for prof in want]
    assert [(prof.mode, prof.total) for prof in got] == [("exhaustive", 7**d - 1) for d in (4, 4, 2, 1, 4)]


def test_sampled_censuses_in_a_batch_stream_on_their_own(monkeypatch):
    # a sampled census ranks its draws in its own calls, after the queue and
    # never with it, and keeps its seed; the exhaustive census behind it is queued
    t = FieldTower(3, 1, 6)
    full, sampled = translate(t, 6), Run(mode="sampled", sample_count=30, seed=5)
    want = [formspace._profile_from_grams(t.K, gram_basis(t, 1), 6, sampled), rank_profile(FieldTower(3, 1, 6), full, 0)]
    shapes = _recording_rank_many(monkeypatch)
    got = rank_profiles(t, [(full, 1, sampled), (full, 0, Run())])
    assert [prof.to_dict() for prof in got] == [prof.to_dict() for prof in want]
    assert [shape[0] for shape in shapes] == [2, 30]


def test_a_batch_checks_every_budget_before_it_ranks(monkeypatch):
    # A^1 of GF(3^8) is held after a census under a budget of 4 (m = 4 cosets);
    # in a later batch that asks it under a budget of 3 it is still refused,
    # and the refusal comes before the unheld census ahead of it is ranked
    t = FieldTower(3, 1, 8)
    full = translate(t, 8)
    held = rank_profiles(t, [(full, 1, Run(mode="exhaustive", budget=4))])[0]
    assert held.mode == "exhaustive" and held.total == 3**8 - 1
    seen = _counting_rank_many(monkeypatch)
    assert rank_profiles(t, [(full, 1, Run(mode="exhaustive", budget=4))])[0].to_dict() == held.to_dict()
    with pytest.raises(BudgetExceededError):
        rank_profiles(t, [(full, 2, Run()), (full, 1, Run(mode="exhaustive", budget=3))])
    assert seen == []
    with pytest.raises(TypeError, match="expected an LSubspace"):
        rank_profiles(t, [(full, 2, Run()), (gram_basis(t, 1), 1, Run())])
    assert seen == []


# -- per-tower memo ------------------------------------------------------------------


def test_family_and_its_parameter_complement_share_one_held_census(monkeypatch):
    # A^0 of GF(3^8) ranks m = 2 forms once; all of L with i = 0, even as a
    # bare LSubspace, is the same census
    t = FieldTower(3, 1, 8)
    a0 = _global_piece(t, "A^0")
    seen = _counting_rank_many(monkeypatch)
    want = rank_profile(t, a0.sub, a0.i)
    assert sum(seen) == 2
    assert rank_profile(t, LSubspace.full(t.K, 8), 0).to_dict() == want.to_dict()
    assert sum(seen) == 2


def test_held_census_still_refuses_a_smaller_budget():
    # A^1 of GF(3^8): m = 4 cosets fit a budget of 4, and neither they nor the
    # 6,560 forms fit a budget of 3
    t = FieldTower(3, 1, 8)
    full = translate(t, 8)
    held = rank_profile(t, full, 1, Run(mode="exhaustive", budget=4))
    assert held.mode == "exhaustive" and held.total == 3**8 - 1
    assert rank_profile(t, full, 1, Run(mode="exhaustive", budget=4)).to_dict() == held.to_dict()
    with pytest.raises(BudgetExceededError):
        rank_profile(t, full, 1, Run(mode="exhaustive", budget=3))


def test_sampled_runs_are_never_served_from_the_memo(monkeypatch):
    t = FieldTower(3, 1, 6)
    full = translate(t, 6)
    assert rank_profile(t, full, 0).mode == "exhaustive"  # held
    run = Run(mode="sampled", sample_count=300, seed=4)
    want = formspace._profile_from_grams(t.K, gram_basis(t, 0), 6, run)  # L's basis is the identity
    seen = _counting_rank_many(monkeypatch)
    for _ in range(2):
        assert rank_profile(t, full, 0, run).to_dict() == want.to_dict()
    assert sum(seen) == 600
    # auto past the budget samples A^1 (m = 4 cosets over a budget of 3), and holds nothing
    auto = Run(budget=3, sample_count=50, seed=1)
    for _ in range(2):
        assert rank_profile(t, full, 1, auto).mode == "sampled"
    assert sum(seen) == 700


def test_returned_objects_cannot_change_a_later_result(monkeypatch):
    t = FieldTower(3, 1, 8)
    full = translate(t, 8)
    prof = rank_profile(t, full, 1)
    want = dict(prof.histogram)
    prof.histogram[8] = 0
    prof.histogram[3] = 1
    assert rank_profile(t, full, 1).histogram == want
    # eigenspaces, translates, families, basis Grams and coset generators are held read-only
    eig, fam, minus = eigenspace_of_power(t, 2, -1), family(t, 4), translate(t, 2, 2)
    eig_basis = eig.basis.copy()
    generators = []
    audit = formspace._congruence_audit
    monkeypatch.setattr(formspace, "_congruence_audit",
                        lambda tw, i, h, by_h, rows: generators.append(h) or audit(tw, i, h, by_h, rows))
    assert rank_profile(t, full, 1, Run(budget=10)).histogram == want  # held; its source audits the held generator
    assert len(generators) == 1
    for held in [eig.basis, minus.basis, minus.j, fam.basis, fam.param_kernel.basis, gram_basis(t, 1),
                 generators[0]]:
        assert held.size
        with pytest.raises(ValueError, match="read-only"):
            held[(0,) * held.ndim] += 1
    eig.basis = np.zeros((1, 8), dtype=np.int64)
    assert np.array_equal(eigenspace_of_power(t, 2, -1).basis, eig_basis)


@pytest.mark.parametrize("bound", [0, 3000, 20_000])
def test_memo_never_holds_more_than_its_bound(monkeypatch, bound):
    # GF(3^8): one stack of basis Grams is 4,096 bytes, so a bound of 3,000
    # holds no Grams and 20,000 holds a few of them at a time; a census key
    # holds its parameters' basis, so keys count too
    monkeypatch.setattr(ffield, "MEMO_BYTES", bound)
    memo, held = FieldTower._memo, []

    def watched(tower, key, make):
        value = memo(tower, key, make)
        held.append(tower._held_bytes)
        assert tower._held_bytes == sum(size for _, size in tower._held.values()) <= bound
        assert all(size > sum(map(sys.getsizeof, key)) for key, (_, size) in tower._held.items())
        return value

    monkeypatch.setattr(FieldTower, "_memo", watched)
    t = FieldTower(3, 1, 8)
    for name, verify in [("rank-laws", verify_rank_laws), ("full-refined", verify_full_refined)]:
        pinned = (default_golden_dir() / f"gf3_1_8_{name}.json").read_text(encoding="utf-8")
        assert verify(t).to_json() == pinned
    assert len(held) > 50
    if bound == 20_000:
        assert max(held) > 4096


@pytest.mark.parametrize("p,n", [(3, 4), (3, 6), (3, 8), (5, 4), (7, 4)])
def test_min_rank_census_of_one_family_equals_raw_stack_census(p, n, tower):
    t = tower(p, 1, n)
    cert = min_rank_lower_bound(t, 1)
    want = formspace._profile_from_grams(t.K, gram_basis(t, 1), n, Run(mode="exhaustive"))
    claim = cert.claims[0]
    assert claim["observed_rank_histogram"] == want.histogram
    assert claim["observed_dim"] == n and claim["enumeration"] == {"mode": "exhaustive"}


@pytest.mark.parametrize("p,n,seed,count,digest",
                         [(3, 6, 2, 500, "0fa17c50d42fca9b"), (7, 4, 5, 300, "a082d4eb040f5acf")])
def test_min_rank_sampled_bytes_pinned(p, n, seed, count, digest, tower):
    # digests of the raw-stack census's certificates: a sampled kk = 1 census
    # must draw exactly what the raw stack of A^1's basis Grams drew
    t = tower(p, 1, n)
    run = Run(mode="sampled", seed=seed, sample_count=count)
    cert = min_rank_lower_bound(t, 1, run)
    want = formspace._profile_from_grams(t.K, gram_basis(t, 1), n, run)
    assert cert.claims[0]["observed_rank_histogram"] == want.histogram
    assert hashlib.sha256(cert.to_json().encode()).hexdigest()[:16] == digest


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
    line = formspace.Translate(t.K, n, line.basis, w, f)
    grams = formspace._combine_forms(t.K, line.basis, gram_basis(t, i))
    assert rank_profile(t, line, i).histogram == _full_census(t.K, grams, n)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_census_of_a_plane_off_every_subfield_line_is_projective(data):
    # n = 2 is left out: there every plane is L, one line over GF(q^2).  A fresh
    # tower per example, as two draws may span the same plane
    p, s, n = data.draw(st.sampled_from([tw for tw in _LINE_TOWERS if tw[2] >= 3]))
    t = FieldTower(p, s, n)
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
