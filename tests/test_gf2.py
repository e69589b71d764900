import random

import numpy as np

from budgetfd import gf2


def _numpy_rank_mod2(rows, n_cols):
    if not rows:
        return 0
    mat = np.array(
        [[(r >> c) & 1 for c in range(n_cols)] for r in rows], dtype=np.uint8
    )
    rank = 0
    col = 0
    m = mat.copy()
    for col in range(n_cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(len(m)):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
        if rank == len(m):
            break
    return rank


def test_rank_against_numpy():
    rng = random.Random(41)
    for _ in range(200):
        n_cols = rng.randint(1, 12)
        rows = [rng.randrange(1 << n_cols) for _ in range(rng.randint(0, 10))]
        assert gf2.rank(rows) == _numpy_rank_mod2(rows, n_cols)


def test_nullspace_is_orthogonal_and_complete():
    rng = random.Random(42)
    for _ in range(200):
        n_cols = rng.randint(1, 12)
        rows = [rng.randrange(1 << n_cols) for _ in range(rng.randint(0, 10))]
        basis = gf2.nullspace(rows, n_cols)
        assert len(basis) == n_cols - gf2.rank(rows)
        for vec in basis:
            for row in rows:
                assert (row & vec).bit_count() % 2 == 0
        # basis vectors are independent
        assert gf2.rank(basis) == len(basis)


def test_row_reduce_idempotent_shape():
    rng = random.Random(43)
    for _ in range(100):
        n_cols = rng.randint(1, 10)
        rows = [rng.randrange(1 << n_cols) for _ in range(rng.randint(0, 8))]
        pivots, reduced = gf2.row_reduce(rows)
        assert len(pivots) == len(reduced) == gf2.rank(rows)
        for pcol, prow in zip(pivots, reduced):
            assert prow >> pcol & 1
            for other in reduced:
                if other is not prow:
                    assert not other >> pcol & 1


def test_support_vanishing_on_matches_enumeration():
    rng = random.Random(7)
    for _ in range(200):
        n_cols = rng.randint(1, 8)
        rows = [rng.randrange(1 << n_cols) for _ in range(rng.randint(0, 5))]
        mask = rng.randrange(1 << n_cols)
        expected = 0
        for combo in range(1 << len(rows)):
            vec = 0
            for k, row in enumerate(rows):
                if combo >> k & 1:
                    vec ^= row
            if not vec & mask:
                expected |= vec
        assert gf2.support_vanishing_on(rows, mask) == expected, (rows, mask)
