import itertools
import json

import numpy as np
import pytest

from gsf import extremal
from gsf.exactla import rank
from gsf.extremal import (
    RhoDecomposition,
    _all_combos_invertible,
    block_construction,
    construct_regular_rep_subspace,
    construct_symmetric_witness,
    exhaustive_search,
    gaussian_binomial,
    greedy_search,
    real_mu_interval,
    rho,
    rho_decompose,
    _iter_rref_bases,
)
from gsf.ffield import FieldTower, Gf, prime_power_decompose
from gsf.formspace import BudgetExceededError


SPOT_RHO = {1: 1, 2: 2, 4: 4, 8: 8, 16: 9, 32: 10, 64: 12}


def test_rho_spot_values():
    for n, want in SPOT_RHO.items():
        assert rho(n) == want


def test_rho_odd_is_one():
    for n in range(1, 200, 2):
        assert rho(n) == 1


def test_rho_decomposition_reconstructs():
    for n in range(1, 3000):
        dec = rho_decompose(n)
        assert dec.odd_part * 2 ** (dec.c + 4 * dec.d) == n
        assert 0 <= dec.c <= 3 and dec.odd_part % 2 == 1


def test_rho_bounded_by_n_with_equality_set():
    equal = [n for n in range(1, 2**16 + 1) if rho(n) == n]
    assert equal == [1, 2, 4, 8]
    assert all(rho(n) <= n for n in range(1, 2**16 + 1))


def test_rho_decomposition_validation():
    with pytest.raises(ValueError):
        RhoDecomposition(12, 3, 4, 0)
    with pytest.raises(ValueError):
        rho_decompose(0)


def test_real_mu_interval_table():
    assert real_mu_interval(2) == (1, 2)
    assert real_mu_interval(4) == (2, 4)
    assert real_mu_interval(8) == (4, 8)
    assert real_mu_interval(16) == (8, 8)  # c = 0, d = 1
    assert real_mu_interval(32) == (9, 10)
    for n in (1, 3, 7, 15):
        assert real_mu_interval(n) == (1, 1)


def test_real_mu_interval_sits_below_rho():
    for n in range(1, 512):
        lo, hi = real_mu_interval(n)
        assert lo <= hi <= rho(n) or n % 2 == 1


def test_regular_rep_witness_gf9(tower):
    res = construct_regular_rep_subspace(tower(3, 1, 2))
    assert res.best_dim == 2 and res.verified and res.mode == {"mode": "exhaustive"}
    # the identity matrix is the image of 1, so it lies in the span
    flat = np.stack([np.asarray(m).reshape(-1) for m in res.witness_basis])
    with_id = np.vstack([flat, np.eye(2, dtype=np.int64).reshape(1, -1)])
    assert rank(Gf(3), with_id) == rank(Gf(3), flat)


def test_regular_rep_is_multiplicative(tower):
    t = tower(3, 1, 4)
    rng = np.random.default_rng(61)

    def mat_of(a):
        m = np.zeros((4, 4), dtype=np.int64)
        for k in range(4):
            m[:, k] = t.mul(a, t.basis_element(k))
        return m

    for _ in range(15):
        a, b = rng.integers(0, 3, size=4), rng.integers(0, 3, size=4)
        assert np.array_equal((mat_of(a) @ mat_of(b)) % 3, mat_of(t.mul(a, b)))


def test_symmetric_witness_gf9(tower):
    res = construct_symmetric_witness(tower(3, 1, 2))
    assert res.best_dim == 2 and res.verified
    for m in res.witness_basis:
        m = np.asarray(m)
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("p,s,n", [(3, 1, 3), (3, 1, 4), (5, 1, 2), (3, 2, 2)])
def test_witnesses_reach_the_column_bound(p, s, n, tower):
    t = tower(p, s, n)
    assert construct_regular_rep_subspace(t).best_dim == n
    assert construct_symmetric_witness(t).best_dim == n


def test_witness_sampled_fallback_over_budget(tower):
    t = tower(3, 1, 6)
    res = construct_regular_rep_subspace(t, budget=100, sample_count=200, seed=4)
    assert res.best_dim == 6 and not res.verified
    assert res.mode["mode"] == "sampled"


def test_block_construction_m1_swap():
    base = construct_regular_rep_subspace(_tower_trivial())
    lifted = block_construction(base)
    assert lifted.n == 2 and lifted.best_dim == 1 and lifted.verified
    assert [m.tolist() for m in lifted.witness_basis] == [[[0, 1], [1, 0]]]


def _tower_trivial():
    from gsf.ffield import FieldTower

    return FieldTower(3, 1, 1)


def test_block_construction_preserves_dimension(tower):
    base = construct_regular_rep_subspace(tower(3, 1, 2))
    lifted = block_construction(base)
    assert lifted.best_dim == base.best_dim == 2
    assert lifted.n == 4 and lifted.target == "mu"
    for m in lifted.witness_basis:
        m = np.asarray(m)
        assert np.array_equal(m, m.T)
        assert not m[:2, :2].any() and not m[2:, 2:].any()


def test_block_construction_rejects_unverified(tower):
    base = construct_regular_rep_subspace(tower(3, 1, 6), budget=100)
    assert not base.verified
    with pytest.raises(ValueError):
        block_construction(base)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 3, 3) == 40
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(3, 4, 3) == 0


def test_rref_enumeration_count_matches_gaussian_binomial():
    count = sum(1 for _ in _iter_rref_bases(3, 4, 2))
    assert count == 130
    seen = set()
    for b in _iter_rref_bases(3, 3, 2):
        seen.add(b.tobytes())
    assert len(seen) == 13  # all distinct canonical bases


def test_exhaustive_search_tau_2_3():
    res = exhaustive_search("tau", 2, 3)
    assert res.best_dim == 2
    assert 3 in res.dims_exhausted  # no 3-dimensional invertible-closed subspace
    assert res.verified


def test_exhaustive_search_mu_2_3():
    res = exhaustive_search("mu", 2, 3)
    assert res.best_dim == 2 and res.dims_exhausted == [3]


def test_exhaustive_search_budget_refusal():
    with pytest.raises(BudgetExceededError):
        exhaustive_search("tau", 3, 3, budget=1000)


@pytest.mark.parametrize("target,n,q,budget,needed", [("mu", 3, 5, None, 2_558_556), ("tau", 2, 3, 100, 130)])
def test_exhaustive_search_refuses_before_scanning(monkeypatch, target, n, q, budget, needed):
    # dimension n + 1 fits the budget and dimension n does not; the column
    # bound means the scan would reach n, so nothing is scanned first
    calls = []

    def scan(*args):
        calls.append(args)
        raise AssertionError("scanned before the budget check")

    monkeypatch.setattr(extremal, "_all_combos_invertible", scan)
    with pytest.raises(BudgetExceededError) as exc:
        exhaustive_search(target, n, q, budget=budget)
    assert exc.value.needed == needed
    assert calls == []


def test_exhaustive_search_rejects_bad_target():
    with pytest.raises(ValueError):
        exhaustive_search("nu", 2, 3)


def test_greedy_finds_full_dimension_mu_4_3():
    res = greedy_search("mu", 4, 3, seed=0, restarts=0)
    assert res.best_dim == 4 and res.verified
    for m in res.witness_basis:
        m = np.asarray(m)
        assert np.array_equal(m, m.T)


def test_greedy_deterministic_and_bounded():
    a = greedy_search("tau", 3, 3, seed=2, restarts=0)
    b = greedy_search("tau", 3, 3, seed=2, restarts=0)
    assert a.to_dict() == b.to_dict()
    assert a.best_dim <= 3
    c = greedy_search("tau", 3, 3, seed=2, restarts=2)
    assert c.best_dim >= a.best_dim


def test_greedy_matches_construction_on_small_grid():
    for n, q in [(2, 3), (3, 3), (2, 5)]:
        res = greedy_search("tau", n, q, seed=1, restarts=1)
        assert res.best_dim == n


# -- batched closure test and the exhaustive scan --------------------------------


def _sym(row, n):
    m = np.zeros((n, n), dtype=np.int64)
    m[np.triu_indices(n)] = row
    return m + np.triu(m, 1).T


def _closed(gf, mats):
    """Every nonzero combination of `mats` has full rank, one `rank` each."""
    n = len(mats[0])
    for coeffs in itertools.product(range(gf.q), repeat=len(mats)):
        if any(coeffs):
            acc = np.zeros((n, n), dtype=np.int64)
            for c, m in zip(coeffs, mats):
                acc = gf.add(acc, gf.mul(c, np.asarray(m, dtype=np.int64)))
            if rank(gf, acc) < n:
                return False
    return True


def _reference_search(target, n, q):
    """(k, flat basis, dims exhausted): the first closed candidate in
    `_iter_rref_bases` order, scanning k downward from n + 1."""
    gf = Gf(*prime_power_decompose(q))
    ambient = n * n if target == "tau" else n * (n + 1) // 2
    exhausted = []
    for k in range(min(ambient, n + 1), 0, -1):
        for flat in _iter_rref_bases(q, ambient, k):
            mats = [row.reshape(n, n) if target == "tau" else _sym(row, n) for row in flat]
            if _closed(gf, mats):
                return k, flat, exhausted
        exhausted.append(k)
    return 0, None, exhausted


def _flat_witness(res):
    n = res.n
    if res.target == "tau":
        return np.array([np.asarray(w).ravel() for w in res.witness_basis])
    return np.array([np.asarray(w)[np.triu_indices(n)] for w in res.witness_basis])


SEARCH_GRID = [("tau", 2, 3), ("mu", 2, 3), ("tau", 2, 5), ("mu", 2, 5), ("tau", 2, 7),
               ("mu", 2, 7), ("tau", 2, 9), ("mu", 2, 9), ("mu", 3, 3), ("tau", 1, 3),
               ("mu", 1, 3), ("tau", 1, 9), ("mu", 1, 5)]


@pytest.mark.parametrize("target,n,q", SEARCH_GRID)
def test_exhaustive_search_equals_reference_scan(target, n, q):
    k, flat, exhausted = _reference_search(target, n, q)
    res = exhaustive_search(target, n, q)
    assert res.best_dim == k and res.dims_exhausted == exhausted and res.verified
    assert np.array_equal(_flat_witness(res), flat)


def test_exhaustive_search_mu_3_3_pinned_and_batched(monkeypatch):
    sizes = []
    orig = extremal.rank_many

    def counting(gf, mats):
        sizes.append(len(mats))
        return orig(gf, mats)

    monkeypatch.setattr(extremal, "rank_many", counting)
    res = exhaustive_search("mu", 3, 3)
    assert json.dumps(res.to_dict(), sort_keys=True) == (
        '{"best_dim": 3, "dims_exhausted": [4], "mode": {"mode": "exhaustive"}, "n": 3, '
        '"q": 3, "target": "mu", "verified": true, "witness_basis": '
        '[[[1, 0, 0], [0, 0, 1], [0, 1, 1]], [[0, 1, 0], [1, 2, 0], [0, 0, 1]], '
        '[[0, 0, 1], [0, 1, 0], [1, 0, 0]]]}'
    )
    # 11,011 candidates of dimension 4 and 1,039 of dimension 3, ranked in
    # shared passes instead of one pass each
    assert len(sizes) < 1000 and max(sizes) <= extremal._SEARCH_BATCH


@pytest.mark.parametrize("target,per_batch", [("mu", b) for b in (1, 2, 3, 5, 13)]
                         + [("tau", b) for b in (1, 4, 5, 7, 20, 130)])
def test_first_survivor_wins_whatever_the_batching(monkeypatch, target, per_batch):
    # at k = 2 over GF(3) the survivors sit at scan positions 2, 4, 7 (mu) and
    # 13, 14, 15, ... (tau): small batches put the first one in a later batch,
    # larger ones at a later position of a batch that holds other survivors
    want = exhaustive_search(target, 2, 3).to_dict()
    monkeypatch.setattr(extremal, "_SEARCH_BATCH", 8 * per_batch)
    res = exhaustive_search(target, 2, 3)
    assert res.to_dict() == want
    k, flat, _ = _reference_search(target, 2, 3)
    assert np.array_equal(_flat_witness(res), flat)


def _mixed_stack(gf, n, d, count, seed):
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, gf.q, size=(count, d, n, n), dtype=np.int64)
    tower = FieldTower(gf.p, gf.s, n)
    stack[count // 2, :] = extremal.construct_regular_rep_subspace(tower).witness_basis[:d]
    return stack


@pytest.mark.parametrize("p,s,n,d", [(3, 1, 2, 2), (5, 1, 2, 2), (3, 2, 2, 2), (3, 1, 3, 3), (7, 1, 3, 2)])
def test_batched_closure_mask_equals_per_basis_reference(p, s, n, d):
    gf = Gf(p, s)
    stack = _mixed_stack(gf, n, d, 24, seed=p * 100 + s * 10 + n)
    want = [_closed(gf, list(b)) for b in stack]
    assert any(want) and not all(want)
    assert _all_combos_invertible(gf, stack, gf.q**d - 1).tolist() == want
    assert _all_combos_invertible(gf, stack, gf.q**d - 2) is None


@pytest.mark.parametrize("p,s,n,d", [(3, 1, 3, 3), (3, 1, 4, 4), (5, 1, 3, 3), (3, 2, 3, 3)])
@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_projective_closure_mask_equals_full_range_reference(monkeypatch, p, s, n, d, chunk):
    # `_closed` ranks every nonzero combination; tiny chunks make the
    # projective walk cross its span boundaries inside one rank pass
    gf = Gf(p, s)
    stack = _mixed_stack(gf, n, d, 12, seed=chunk * 1000 + p * 100 + s * 10 + n)
    want = [_closed(gf, list(b)) for b in stack]
    assert any(want) and not all(want)
    monkeypatch.setattr(extremal, "_chunk_size", lambda n: chunk * len(stack))
    assert _all_combos_invertible(gf, stack, gf.q**d - 1).tolist() == want


def test_batched_closure_drops_dead_candidates_and_stops(monkeypatch):
    gf = Gf(3)
    closed = [np.eye(2, dtype=np.int64), np.array([[0, 1], [2, 0]])]  # x**2 + 1 is irreducible
    early = [np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 0]])]  # I + X is singular
    late = [np.eye(2, dtype=np.int64), np.array([[1, 1], [0, 1]])]  # 2I + X is singular
    sizes = []
    orig = extremal.rank_many

    def counting(gf, mats):
        sizes.append(len(mats))
        return orig(gf, mats)

    monkeypatch.setattr(extremal, "rank_many", counting)
    monkeypatch.setattr(extremal, "_chunk_size", lambda n: 3)  # one code per chunk
    stack = np.array([early, closed, late])
    assert _all_combos_invertible(gf, stack, 8).tolist() == [False, True, False]
    assert _closed(gf, closed) and not _closed(gf, early) and not _closed(gf, late)
    # codes are little-endian digits and only the projective ones (leading
    # digit 1) are walked, 1, 3, 4, 5: `early` dies at code 4 = (1, 1) and
    # `late` at code 5 = (2, 1), so the live count falls from 3 to 2 to 1
    assert sizes == [3, 3, 3, 2]
    sizes.clear()
    assert _all_combos_invertible(gf, np.array([early, late]), 8).tolist() == [False, False]
    assert sizes == [2, 2, 2, 1]
    # d = 3 walks codes 1, 3, 4, 5, 9, 10, ..., 17: `early3` dies at code 4
    # and leaves the batch, `late3` at code 13 = (1, 1, 1), and the walk stops
    # there with codes 14..17 unranked
    m = np.array([[1, 1], [1, 2]])
    early3, late3 = early + [m], closed + [m]
    assert not _closed(gf, early3) and not _closed(gf, late3)
    sizes.clear()
    assert _all_combos_invertible(gf, np.array([early3, late3]), 26).tolist() == [False, False]
    assert sizes == [2, 2, 2, 1, 1, 1, 1, 1, 1]
