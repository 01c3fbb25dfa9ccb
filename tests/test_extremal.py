import functools
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsf import cli, extremal, formspace
from gsf.exactla import rank
from gsf.extremal import (
    RhoDecomposition,
    SearchResult,
    block_construction,
    construct_regular_rep_subspace,
    construct_symmetric_witness,
    exhaustive_search,
    gaussian_binomial,
    greedy_search,
    real_mu_interval,
    rho,
    rho_decompose,
)
from gsf.cli import main
from gsf.ffield import FieldTower, Gf, prime_power_decompose
from gsf.formspace import BudgetExceededError, DEFAULT_BUDGET, _combine_forms, gram_basis, unflatten_sym
from test_formspace import _counting_rank_many


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


def test_real_mu_interval_rejects_nonpositive_n():
    # a negative odd n is refused like a negative even one
    with pytest.raises(ValueError, match="n must be >= 1"):
        real_mu_interval(-3)


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


def test_witnesses_are_exact_or_refused_past_the_budget(tower):
    # GF(3^6): the regular representation has 728 forms, over a budget of
    # 100; A^0 has m = 2 coset classes, which fit it
    t = tower(3, 1, 6)
    with pytest.raises(BudgetExceededError, match="needs 728 forms, over the budget of 100; raise the budget$"):
        construct_regular_rep_subspace(t, 100)
    sym = construct_symmetric_witness(t, 100)
    assert sym.best_dim == 6 and sym.verified and sym.mode == {"mode": "exhaustive"}
    # GF(3^8): neither the m = 2 classes nor the 6,560 forms fit a budget of 1,
    # and no sampled witness is offered
    with pytest.raises(BudgetExceededError, match="; raise the budget$") as exc:
        construct_symmetric_witness(tower(3, 1, 8), 1)
    assert "sampled" not in str(exc.value)


@pytest.mark.parametrize("p,s,n", [(3, 1, 1), (3, 1, 8), (3, 2, 2), (7, 3, 2), (5, 1, 5)])
def test_symmetric_witness_is_the_canonical_trace_form_basis(p, s, n, tower):
    t = tower(p, s, n)
    want = extremal._canonical_witness(t.K, list(gram_basis(t, 0)), symmetric=True)
    got = construct_symmetric_witness(t).witness_basis
    assert len(got) == len(want) == n
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_symmetric_witness_ranks_one_form_per_coset(monkeypatch):
    # A^0 of GF(3^8): m = 2 coset ranks, not 3,280 K-lines; a fresh tower,
    # since a census its memo already held would rank none
    t = FieldTower(3, 1, 8)
    seen = _counting_rank_many(monkeypatch)
    res = construct_symmetric_witness(t)
    assert sum(seen) == 2
    assert res.verified and res.best_dim == 8


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


def test_block_construction_rejects_unverified():
    # over the budget of 5 the 8 combinations of greedy's 2-member basis are not checked
    base = greedy_search("tau", 2, 3, budget=5)
    assert base.best_dim == 2 and not base.verified
    with pytest.raises(ValueError, match="requires a fully verified input subspace"):
        block_construction(base)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 3, 3) == 40
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(3, 4, 3) == 0


def _iter_rref_bases(q: int, ambient: int, k: int):
    """All k-dimensional subspaces of GF(q)**ambient, one canonical reduced
    echelon basis each, in (pivot columns, free cells) lexicographic order."""
    for pivots in itertools.combinations(range(ambient), k):
        free_cells = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, ambient)
            if c not in pivots
        ]
        base = np.zeros((k, ambient), dtype=np.int64)
        for r, pc in enumerate(pivots):
            base[r, pc] = 1
        nfree = len(free_cells)
        for m in range(q**nfree):
            b = base.copy()
            rem = m
            for r, c in free_cells:
                b[r, c] = rem % q
                rem //= q
            yield b


def test_rref_enumeration_count_matches_gaussian_binomial():
    count = sum(1 for _ in _iter_rref_bases(3, 4, 2))
    assert count == 130
    seen = set()
    for b in _iter_rref_bases(3, 3, 2):
        seen.add(b.tobytes())
    assert len(seen) == 13  # all distinct canonical bases


@pytest.mark.parametrize("q,ambient,k", [(3, 4, 2), (3, 3, 2), (5, 4, 3), (9, 3, 2), (3, 6, 4), (7, 2, 2), (3, 1, 1)])
@pytest.mark.parametrize("chunk", [1, 7, 512])
def test_echelon_chunks_follow_the_reference_order(monkeypatch, q, ambient, k, chunk):
    # the vectorized candidates are `_iter_rref_bases`, in its order, in
    # chunks that never pass `_CANDIDATE_CHUNK`
    monkeypatch.setattr(extremal, "_CANDIDATE_CHUNK", chunk)
    chunks = list(extremal._echelon_chunks(q, ambient, k))
    assert all(1 <= len(c) <= chunk for c in chunks)
    want = np.stack(list(_iter_rref_bases(q, ambient, k)))
    assert np.array_equal(np.concatenate(chunks), want)


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
    # bound means the scan would reach n, so nothing is scanned, and neither
    # the field tables nor the invertibility table is built, first
    calls = []

    def stage(name):
        def refuse(*args):
            calls.append(name)
            raise AssertionError(f"{name} before the budget check")
        return refuse

    for name in ("Gf", "_invertibility_table", "_first_closed", "_echelon_chunks"):
        monkeypatch.setattr(extremal, name, stage(name))
    with pytest.raises(BudgetExceededError) as exc:
        exhaustive_search(target, n, q, budget=budget or DEFAULT_BUDGET)
    assert exc.value.needed == needed
    assert calls == []


@pytest.mark.parametrize("search", [exhaustive_search, greedy_search], ids=["exhaustive", "greedy"])
@pytest.mark.parametrize("target", ["nu", "xx"])
def test_searches_reject_bad_target(search, target):
    with pytest.raises(ValueError, match=f"target must be 'tau' or 'mu', got '{target}'"):
        search(target, 2, 3)


@pytest.mark.parametrize("target", ["tau", "mu"])
@pytest.mark.parametrize("n", [0, -1])
def test_searches_reject_nonpositive_n(target, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        exhaustive_search(target, n, 3)
    with pytest.raises(ValueError, match="n must be >= 1"):
        greedy_search(target, n, 3)


@pytest.mark.parametrize("kwargs, message", [
    ({"restarts": -1}, "restarts must be >= 0"),
    ({"seed": -1}, "seed must be >= 0"),
])
def test_greedy_rejects_negative_restarts_and_seed(kwargs, message):
    with pytest.raises(ValueError, match=message):
        greedy_search("mu", 3, 3, **kwargs)


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


@pytest.mark.parametrize("target,n,q,seed", [("mu", 4, 3, 0), ("tau", 2, 3, 1), ("mu", 2, 5, 2), ("tau", 3, 3, 0),
                                             ("mu", 1, 3, 0)])
def test_greedy_never_extends_a_basis_of_n_members(monkeypatch, target, n, q, seed):
    # by the column bound an extension of n members can only fail
    sizes = []
    orig = extremal._find_extension

    def recording(gf, target, n, basis, rng, max_tries):
        sizes.append(len(basis))
        return orig(gf, target, n, basis, rng, max_tries)

    monkeypatch.setattr(extremal, "_find_extension", recording)
    res = greedy_search(target, n, q, seed=seed, restarts=2)
    assert res.best_dim == n and res.verified
    assert n - 1 in sizes and max(sizes) == n - 1


def test_greedy_starts_no_restart_after_reaching_n(monkeypatch):
    # restart 0 of (mu, 4, 3, seed 0) reaches n = 4, so restarts 1..5 never
    # draw a stream, and the result is that of restarts=0 but for the count
    streams = []
    orig = np.random.default_rng

    def recording(seed=None):
        streams.append(list(seed))
        return orig(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    res = greedy_search("mu", 4, 3, seed=0, restarts=5).to_dict()
    assert streams == [[0, 0]]
    monkeypatch.setattr(np.random, "default_rng", orig)
    want = greedy_search("mu", 4, 3, seed=0, restarts=0).to_dict()
    assert res["mode"] == {**want["mode"], "restarts": 5} and res["mode"]["best_restart"] == 0
    assert {**res, "mode": want["mode"]} == want and res["best_dim"] == 4


def test_greedy_grid_output_is_pinned():
    # sha256 of the sorted-key JSON of each result, concatenated in grid
    # order; the digest was taken before greedy stopped at n, so stopping
    # changed no witness, dimension, verdict or best restart
    digest = hashlib.sha256()
    for target, (n, q), seed, restarts, budget in itertools.product(
            ("tau", "mu"), ((1, 3), (2, 3), (2, 5), (2, 9), (3, 3), (3, 5), (4, 3)), range(3), (0, 1, 3),
            (5, DEFAULT_BUDGET)):
        res = greedy_search(target, n, q, seed=seed, restarts=restarts, budget=budget)
        digest.update(json.dumps(res.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == "7592b69ce238453a8be340559e94c3b73219da99fcc24d686b13ceb764217ca0"


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


@pytest.mark.parametrize("target,n,q", SEARCH_GRID)
def test_exhaustive_search_scans_no_dimension_above_n(monkeypatch, target, n, q):
    # dimensions above n are exhausted by the column bound, not scanned
    scanned = []
    orig = extremal._first_closed

    def recording(gf, table, ambient, k, n):
        scanned.append(k)
        return orig(gf, table, ambient, k, n)

    monkeypatch.setattr(extremal, "_first_closed", recording)
    res = exhaustive_search(target, n, q)
    ambient = extremal._ambient(target, n)
    assert max(scanned) == min(n, ambient)
    assert res.dims_exhausted + [res.best_dim] == list(range(min(n + 1, ambient), n, -1)) + scanned


@pytest.mark.parametrize("target,n,q", [("tau", 2, 3), ("tau", 2, 5), ("mu", 2, 3), ("mu", 2, 5), ("mu", 2, 7)])
def test_no_subspace_above_n_is_invertible_closed(target, n, q):
    # the column bound, checked by brute force on every (n + 1)-dimensional
    # subspace of a tiny ambient space
    gf = Gf(*prime_power_decompose(q))
    ambient = extremal._ambient(target, n)
    count = 0
    for flat in _iter_rref_bases(q, ambient, n + 1):
        mats = [row.reshape(n, n) if target == "tau" else _sym(row, n) for row in flat]
        assert not _closed(gf, mats)
        count += 1
    assert count == gaussian_binomial(ambient, n + 1, q) > 0


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
    # dimension 4 is exhausted by the column bound and 1,039 candidates of
    # dimension 3 are decided by lookups: only the (3**6 - 1)/2 = 364 K-lines
    # of S(3, GF(3)) are ranked
    assert sum(sizes) == 364


@pytest.mark.parametrize("target,chunk", [("mu", b) for b in (1, 2, 3, 5, 13)]
                         + [("tau", b) for b in (1, 4, 5, 7, 20, 130)])
def test_first_survivor_wins_whatever_the_batching(monkeypatch, target, chunk):
    # at k = 2 over GF(3) the survivors sit at scan positions 2, 4, 7 (mu) and
    # 13, 14, 15, ... (tau): small chunks put the first one in a later chunk,
    # larger ones at a later position of a chunk that holds other survivors
    want = exhaustive_search(target, 2, 3).to_dict()
    monkeypatch.setattr(extremal, "_CANDIDATE_CHUNK", chunk)
    res = exhaustive_search(target, 2, 3)
    assert res.to_dict() == want
    k, flat, _ = _reference_search(target, 2, 3)
    assert np.array_equal(_flat_witness(res), flat)


# -- the invertibility table ------------------------------------------------------


def _code(q, vec):
    """Code of an ambient vector, coordinate 0 the most significant digit."""
    return int(sum(int(v) * q ** (len(vec) - 1 - j) for j, v in enumerate(vec)))


@functools.lru_cache(maxsize=None)
def _table(target, n, q):
    table = extremal._invertibility_table(Gf(*prime_power_decompose(q)), target, n)
    table.setflags(write=False)  # shared by every test that reads it
    return table


@pytest.mark.parametrize("target,n,q", [(t, n, q) for q in (3, 5, 9) for t, n in (("tau", 1), ("tau", 2), ("mu", 2))]
                         + [("mu", 3, 3)])
def test_table_equals_one_rank_per_ambient_vector(target, n, q):
    gf = Gf(*prime_power_decompose(q))
    table = _table(target, n, q)
    ambient = extremal._ambient(target, n)
    assert table.shape == (2 * q ** (ambient - 1),)
    projective = np.zeros(table.size, dtype=bool)
    for vec in itertools.product(range(q), repeat=ambient):
        if not any(vec):
            continue
        vec = np.array(vec, dtype=np.int64)
        mat = vec.reshape(n, n) if target == "tau" else unflatten_sym(vec, n)
        want = extremal._INVERTIBLE if rank(gf, mat) == n else extremal._SINGULAR
        # the line's representative: first nonzero coordinate scaled to 1
        lead = vec[np.nonzero(vec)[0][0]]
        code = _code(q, gf.mul(vec, int(gf.inv(lead))))
        projective[code] = True
        assert table[code] == want
    assert (table[~projective] == extremal._UNFILLED).all()


# ambient dimension -> a target and n with that ambient space
_AMBIENTS = {1: ("mu", 1), 3: ("mu", 2), 4: ("tau", 2), 6: ("mu", 3)}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_echelon_combinations_with_leading_one_have_projective_codes(data):
    q = data.draw(st.sampled_from([3, 5, 9]))
    ambient = data.draw(st.sampled_from(sorted(_AMBIENTS)))
    if ambient == 6:
        q = 3
    k = data.draw(st.integers(1, ambient))
    pivots = sorted(data.draw(st.lists(st.integers(0, ambient - 1), min_size=k, max_size=k, unique=True)))
    basis = np.zeros((k, ambient), dtype=np.int64)
    for r, pc in enumerate(pivots):
        basis[r, pc] = 1
        for c in range(pc + 1, ambient):
            if c not in pivots:
                basis[r, c] = data.draw(st.integers(0, q - 1))
    lead = data.draw(st.integers(0, k - 1))
    coeffs = [0] * lead + [1] + [data.draw(st.integers(0, q - 1)) for _ in range(k - lead - 1)]
    gf = Gf(*prime_power_decompose(q))
    combo = _combine_forms(gf, np.array([coeffs]), basis)[0]
    code = _code(q, combo)
    # leading base-q digit 1: the code lies in [q**j, 2 * q**j) for some j
    assert any(q**j <= code < 2 * q**j for j in range(ambient))
    assert _table(*_AMBIENTS[ambient], q)[code] != extremal._UNFILLED


def test_corrupted_table_entry_is_an_internal_error(monkeypatch, capsys):
    # the scan of S(3, GF(3)) starts at dimension 3, and the first code it
    # reads is the last row e_2 of the first 3-dimensional candidate:
    # 3**(6 - 1 - 2) = 27
    build = extremal._invertibility_table

    def corrupted(gf, target, n):
        table = build(gf, target, n)
        assert table[27] != extremal._UNFILLED
        table[27] = extremal._UNFILLED
        return table

    monkeypatch.setattr(extremal, "_invertibility_table", corrupted)
    code = main(["search", "--target", "mu", "--n", "3", "--q", "3"])
    out = capsys.readouterr()
    assert (code, out.out) == (4, "")
    assert out.err.startswith("internal check failed: ") and "unfilled" in out.err


def _least_budget(target, n, q):
    """The smallest budget that the exhaustive search does not refuse."""
    ambient = extremal._ambient(target, n)
    top = min(ambient, n + 1)
    return max(max(gaussian_binomial(ambient, k, q), q**k - 1) for k in range(top, min(ambient, n) - 1, -1))


@pytest.mark.parametrize("target,n,q", [("tau", 1, 3), ("mu", 1, 5), ("tau", 2, 3), ("mu", 2, 3), ("mu", 2, 5),
                                        ("tau", 2, 9), ("mu", 2, 9), ("mu", 3, 3)])
def test_table_ranks_fit_the_least_passing_budget(monkeypatch, target, n, q):
    budget = _least_budget(target, n, q)
    with pytest.raises(BudgetExceededError):
        exhaustive_search(target, n, q, budget=budget - 1)
    ranked = []
    orig = extremal.rank_many

    def counting(gf, mats):
        ranked.append(len(mats))
        return orig(gf, mats)

    monkeypatch.setattr(extremal, "rank_many", counting)
    exhaustive_search(target, n, q, budget=budget)
    ambient = extremal._ambient(target, n)
    assert sum(ranked) == (q**ambient - 1) // (q - 1) <= budget


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(["tau", "mu"]), n=st.integers(1, 8),
       q=st.sampled_from([3, 5, 7, 9, 11, 25, 27, 49, 16777213]))
def test_every_passing_budget_covers_the_table(target, n, q):
    ambient = extremal._ambient(target, n)
    assert (q**ambient - 1) // (q - 1) <= _least_budget(target, n, q)


def _mixed_stack(gf, n, d, count, seed):
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, gf.q, size=(count, d, n, n), dtype=np.int64)
    tower = FieldTower(gf.p, gf.s, n)
    stack[count // 2, :] = extremal.construct_regular_rep_subspace(tower).witness_basis[:d]
    return stack


def _lifts(gf, basis, budget=DEFAULT_BUDGET):
    """Whether the block lift accepts `basis` as a doctored verified witness.
    [[0, A], [A^T, 0]] has rank 2 * rank(A), so it accepts exactly the closed
    bases."""
    u = SearchResult("tau", basis.shape[1], gf.q, len(basis), list(basis), {"mode": "exhaustive"}, True)
    try:
        block_construction(u, budget)
    except AssertionError as exc:
        assert "singular member" in str(exc)
        return False
    return True


@pytest.mark.parametrize("p,s,n,d", [(3, 1, 2, 2), (5, 1, 2, 2), (3, 2, 2, 2), (3, 1, 3, 3), (7, 1, 3, 2)])
def test_block_lift_census_verdict_equals_closure_reference(p, s, n, d):
    # the lift's census verdict on each basis of a mixed stack
    gf = Gf(p, s)
    stack = _mixed_stack(gf, n, d, 24, seed=p * 100 + s * 10 + n)
    want = [_closed(gf, list(b)) for b in stack]
    assert any(want) and not all(want)
    assert [_lifts(gf, b, gf.q**d - 1) for b in stack] == want
    with pytest.raises(BudgetExceededError, match="raise the budget"):
        _lifts(gf, stack[0], gf.q**d - 2)


@pytest.mark.parametrize("p,s,n,d", [(3, 1, 3, 3), (3, 1, 4, 4), (5, 1, 3, 3), (3, 2, 3, 3)])
@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_block_lift_census_across_chunk_sizes_equals_closure_reference(monkeypatch, p, s, n, d, chunk):
    # `_closed` ranks every nonzero combination; tiny chunks make the
    # census's projective walk cross its span boundaries inside one rank pass
    gf = Gf(p, s)
    stack = _mixed_stack(gf, n, d, 12, seed=chunk * 1000 + p * 100 + s * 10 + n)
    want = [_closed(gf, list(b)) for b in stack]
    assert any(want) and not all(want)
    monkeypatch.setattr(formspace, "_chunk_size", lambda n: chunk)
    assert [_lifts(gf, b) for b in stack] == want


def test_singular_bases_are_refused_by_the_lift_and_unverified_by_greedy(monkeypatch, capsys):
    gf = Gf(3)
    closed = [np.eye(2, dtype=np.int64), np.array([[0, 1], [2, 0]])]  # x**2 + 1 is irreducible
    late = [np.eye(2, dtype=np.int64), np.array([[1, 1], [0, 1]])]  # 2I + X is singular
    assert _closed(gf, closed) and not _closed(gf, late)
    # a doctored verified=True witness whose lift is singular: an internal error, exit 4
    doctored = SearchResult("tau", 2, 3, 2, late, {"mode": "exhaustive"}, True)
    monkeypatch.setattr(cli, "construct_regular_rep_subspace", lambda tower, run: doctored)
    assert main(["block", "--p", "3", "--n", "4"]) == 4
    assert "block lift of an invertible-closed subspace has a singular member" in capsys.readouterr().err
    # greedy keeps whatever its extension steps return; a non-closed best
    # basis is reported unverified, a closed one verified
    # over the budget of 5 the 8 combinations of a 2-member basis are not checked
    for basis, budget, verified in ((late, DEFAULT_BUDGET, False), (closed, DEFAULT_BUDGET, True), (closed, 5, False)):
        steps = iter(basis)
        monkeypatch.setattr(extremal, "_find_extension", lambda *args: next(steps, None))
        res = greedy_search("tau", 2, 3, budget=budget)
        assert res.best_dim == 2 and res.verified is verified


