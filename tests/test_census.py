import dataclasses
import itertools
import math
import os
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest

from mdscensus import _vecgf, census, verify
from mdscensus.census import (
    count_mds,
    count_mds_grassmannian_filter,
    count_mds_matrix_scan,
    gamma_closed_form,
)
from mdscensus.errors import (
    BudgetExceeded,
    DivisibilityViolation,
    ExactnessViolation,
    OutOfRange,
)
from mdscensus.fields import field_of_order, make_field
from mdscensus.exterior import plucker_embed
from mdscensus.linalg import MatrixGF, det, enumerate_grassmannian, minor


def naive_gamma(k, n, gf):
    """Reference count: all [I_k | A] with every maximal minor nonzero,
    checked through the generic matrix code (no vectorization, no pruning)."""
    nk = n - k
    count = 0
    for entries in itertools.product(range(gf.q), repeat=k * nk):
        data = []
        for r in range(k):
            data.extend(1 if c == r else 0 for c in range(k))
            data.extend(entries[r * nk:(r + 1) * nk])
        m = MatrixGF(gf, k, n, data)
        if all(
            minor(m, cols) != 0 for cols in itertools.combinations(range(1, n + 1), k)
        ):
            count += 1
    return count


def test_scan_matches_naive_reference():
    for q in (2, 3, 4):
        gf = field_of_order(q)
        for k, n in ((1, 3), (2, 3), (2, 4), (3, 4)):
            assert count_mds_matrix_scan(k, n, gf).gamma == naive_gamma(k, n, gf), (k, n, q)


def filter_walk(k, n, q):
    """Points the filter walks: row 0 of A is all ones, the other
    (k-1)(n-k) entries run over 1..q-1."""
    return (q - 1) ** ((k - 1) * (n - k))


def scan_walk(k, n, q):
    """Candidates the scan walks: the (k-1)(n-k-1) free entries of the
    normalized A run over 2..q-1, none at k = n."""
    return (q - 2) ** ((k - 1) * (n - k - 1)) if k < n else 1


def test_filter_divides_out_the_column_scalings():
    # scaling coordinate k+1+c by lambda != 0 scales column c of A and keeps
    # each p_I zero or nonzero, so the walk with row 0 over all of F_q^*, one
    # weight-1 seed per row 0, counts (q-1)^(n-k) times the walk from the
    # one seed with row 0 all ones, the one the filter takes
    for q in (2, 3, 4, 5):
        gf = field_of_order(q)
        for n in range(2, 7):
            for k in range(1, n):
                plan, nk = census._filter_minor_plan(k, n), n - k
                sizes = [q - 1] * ((k - 1) * nk)
                rows = itertools.product(range(1, q), repeat=nk)
                seeds = [(1, row) for row in rows]
                full, _ = census._count_walk(gf, (plan, seeds, sizes, 1), 1)
                reduced, _ = census._count_walk(gf, (plan, [(1, (1,) * nk)], sizes, 1), 1)
                assert full == (q - 1) ** nk * reduced, (k, n, q)
                gamma = count_mds_grassmannian_filter(k, n, gf).gamma
                assert gamma == full, (k, n, q)


def test_seeds_are_weighted():
    # the (3,6,5) filter walk from row 0 = (1,1,1) counts 96 and from
    # (0,1,1) counts 384 (the plan has no minor of order 1 to refuse a
    # zero); two seeds of weights 2 and 5 count 2 * 96 + 5 * 384
    gf = field_of_order(5)
    plan, sizes = census._filter_minor_plan(3, 6), [4] * 6
    c1, _ = census._count_walk(gf, (plan, [(1, (1, 1, 1))], sizes, 1), 1)
    c2, _ = census._count_walk(gf, (plan, [(1, (0, 1, 1))], sizes, 1), 1)
    assert (c1, c2) == (96, 384)
    seeds = [(2, (1, 1, 1)), (5, (0, 1, 1))]
    both, _ = census._count_walk(gf, (plan, seeds, sizes, 1), 1)
    assert both == 2 * c1 + 5 * c2


def test_no_mds_code_past_the_bush_bound():
    # for 2 <= k <= n - 2 an [n, k] MDS code over GF(q) has n <= q + k - 1
    # (Bush 1952); q = 2 is left out, the scan's window 2..q-1 is empty there
    for q in (3, 4, 5, 7):
        gf = field_of_order(q)
        shapes = [(k, n) for n in range(4, 10) for k in range(2, n - 1)
                  if n > q + k - 1]
        for k, n in shapes:
            if scan_walk(k, n, q) <= 2 * 10**5:
                res = count_mds_matrix_scan(k, n, gf)
                assert (res.gamma, res.gamma_tilde) == (0, 0), (k, n, q)
            if filter_walk(k, n, q) <= 2**18:
                assert count_mds_grassmannian_filter(k, n, gf).gamma == 0, (k, n, q)


def test_duality():
    cases = [(k, n, q) for q in (2, 3, 4) for k, n in ((1, 3), (2, 4), (2, 5))]
    cases += [(3, 7, q) for q in (7, 8, 9)]
    for k, n, q in cases:
        gf = field_of_order(q)
        assert (
            count_mds_matrix_scan(k, n, gf).gamma
            == count_mds_matrix_scan(n - k, n, gf).gamma
        ), (k, n, q)


def test_budget_refusal():
    gf = make_field(2, 4)
    with pytest.raises(BudgetExceeded):
        count_mds_matrix_scan(3, 8, gf, budget=2**20)
    with pytest.raises(BudgetExceeded):
        count_mds_grassmannian_filter(3, 8, gf, budget=2**20)


def test_worker_count_invariance():
    gf = make_field(3, 1)
    expected = count_mds_matrix_scan(3, 6, gf, threads=1)
    for threads in (2, 4, 8):
        res = count_mds_matrix_scan(3, 6, gf, threads=threads)
        assert res.gamma == expected.gamma
        assert res.gamma_tilde == expected.gamma_tilde
    f1 = count_mds_grassmannian_filter(2, 5, gf, threads=1).gamma
    f4 = count_mds_grassmannian_filter(2, 5, gf, threads=4).gamma
    assert f1 == f4


def test_both_methods_agree_via_front_door():
    res = count_mds(2, 5, make_field(2, 2), method="both")
    assert res.method == "both"
    assert res.gamma == 162  # frozen from two independent enumerations
    assert res.gamma_tilde == 2


def test_both_methods_refuse_a_disagreement(monkeypatch):
    # a filter off by one must fail the front door's cross-check
    route = census.count_mds_grassmannian_filter

    def off_by_one(*args, **kwargs):
        res = route(*args, **kwargs)
        return dataclasses.replace(res, gamma=res.gamma + 1)

    monkeypatch.setattr(census, "count_mds_grassmannian_filter", off_by_one)
    with pytest.raises(ExactnessViolation,
                       match=r"^matrix-scan gamma=162 differs from filter gamma=163$"):
        count_mds(2, 5, make_field(2, 2), method="both")


@pytest.mark.parametrize("route", [count_mds_matrix_scan, count_mds_grassmannian_filter])
def test_routes_refuse_k_out_of_range(monkeypatch, route):
    # the shape is refused before any walk is counted
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk was counted")

    monkeypatch.setattr(census, "_count_walk", no_walk)
    for k, n in ((0, 3), (4, 3), (-1, 3), (2, -1)):
        with pytest.raises(OutOfRange, match=rf"^need 1 <= k <= n, got k={k}, n={n}$"):
            route(k, n, make_field(3, 1))


def test_extension_field_census():
    gf4 = make_field(2, 2)
    assert count_mds_matrix_scan(2, 4, gf4).gamma == naive_gamma(2, 4, gf4)
    assert (
        count_mds_matrix_scan(2, 5, gf4).gamma
        == count_mds_grassmannian_filter(2, 5, gf4).gamma
    )


def test_scan_fallback_large_prime():
    gf = make_field(257, 1)  # prime path, first prime above 256
    assert count_mds_matrix_scan(1, 2, gf).gamma == 256
    assert count_mds_matrix_scan(2, 3, gf).gamma == gamma_closed_form(2, 3, 257)


def test_scan_fallback_extension_field():
    # GF(529), an odd extension field above 256: both routes run on the
    # log/exp backend, with no scalar fallback left
    gf = make_field(23, 2)
    scan = count_mds_matrix_scan(2, 3, gf)
    assert scan.gamma == gamma_closed_form(2, 3, 529)
    assert count_mds_grassmannian_filter(2, 3, gf).gamma == scan.gamma
    for n in (4, 5):
        res = count_mds_matrix_scan(2, n, gf)
        assert res.gamma == gamma_closed_form(2, n, 529)
        assert res.worker_count == 1


def test_pooled_scan_matches_serial(monkeypatch):
    # the (3,7,11) scan walks 9^5 candidates, past this POOL_MIN_WORK, so a
    # pool starts
    monkeypatch.setattr(census, "POOL_MIN_WORK", 2**15)
    gf = make_field(11, 1)
    serial = count_mds_matrix_scan(3, 7, gf, threads=1)
    pooled = count_mds_matrix_scan(3, 7, gf, threads=2)
    assert pooled.gamma == serial.gamma
    assert pooled.gamma_tilde == serial.gamma_tilde
    assert (serial.worker_count, pooled.worker_count) == (1, 2)


def test_scan_below_walked_threshold_starts_no_pool(monkeypatch):
    # (3,7,11) and (2,7,67) scans run over 9^6 and 65^4 candidates but walk
    # 9^5 and 65^3, under census.POOL_MIN_WORK: serially they finish in
    # milliseconds, less than a pool takes to start
    shapes = ((3, 7, make_field(11, 1)), (2, 7, make_field(67, 1)))
    serial = [count_mds_matrix_scan(k, n, gf) for k, n, gf in shapes]
    monkeypatch.setattr(census, "ProcessPoolExecutor", NoPool)
    for (k, n, gf), expected in zip(shapes, serial):
        res = count_mds_matrix_scan(k, n, gf, threads=2)
        assert (res.gamma, res.gamma_tilde) == (expected.gamma, expected.gamma_tilde)
        assert res.worker_count == 1


def test_one_block_scan_starts_no_pool(monkeypatch):
    monkeypatch.setattr(census, "ProcessPoolExecutor", NoPool)
    for q in (4, 9, 16):
        res = count_mds_matrix_scan(3, 6, field_of_order(q), threads=8)
        assert res.worker_count == 1


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


class InlinePool:
    """Stands in for ProcessPoolExecutor: records the worker counts asked
    for and runs every task at once in this process."""

    started = []

    def __init__(self, max_workers=None):
        InlinePool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_small_filter_starts_no_pool(monkeypatch):
    monkeypatch.setattr(census, "ProcessPoolExecutor", NoPool)
    gf = make_field(2, 1)
    for threads in (0, 1, 2, 8):
        res = count_mds_grassmannian_filter(2, 4, gf, threads=threads)
        assert (res.gamma, res.worker_count) == (0, 1)
    res = count_mds_grassmannian_filter(2, 5, make_field(3, 1), threads=4)
    assert res.gamma == gamma_closed_form(2, 5, 3)
    assert res.worker_count == 1
    # row 0 is all of A: one point, no minor and no pool
    res = count_mds_grassmannian_filter(1, 11, make_field(5, 1), threads=2)
    assert (res.gamma, res.worker_count) == (4**10, 1)


def test_pool_never_exceeds_cpu_count(monkeypatch):
    # the (3,7,11) scan walks 9^5 candidates and the (3,6,11) filter 10^5
    # (row 0 all ones, the last entry counted), both past this POOL_MIN_WORK
    monkeypatch.setattr(census, "POOL_MIN_WORK", 2**15)
    gf = make_field(11, 1)
    serial_scan = count_mds_matrix_scan(3, 7, gf)
    serial_filter = count_mds_grassmannian_filter(3, 6, gf)
    reference = count_mds_matrix_scan(3, 6, gf).gamma
    monkeypatch.setattr(census, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
    InlinePool.started = []
    scan = count_mds_matrix_scan(3, 7, gf, threads=64)
    filt = count_mds_grassmannian_filter(3, 6, gf, threads=64)
    assert InlinePool.started == [3, 3]
    assert (scan.worker_count, filt.worker_count) == (3, 3)
    assert scan.gamma == serial_scan.gamma
    assert filt.gamma == serial_filter.gamma == reference
    InlinePool.started = []
    assert count_mds_matrix_scan(3, 7, gf, threads=2).worker_count == 2
    monkeypatch.setattr(census.os, "cpu_count", lambda: None)
    assert count_mds_matrix_scan(3, 7, gf, threads=2).worker_count == 1
    assert InlinePool.started == [2]


def test_pooled_chunks_cross_seed_boundaries(monkeypatch):
    # ten (3,6,11) filter seeds, row 0 = (1, 1, b) of weight b: each walks
    # 10^5 candidates, cut after one entry to fit block_len, so the walk is
    # 100 chunks, and 2 workers take them 7 at a time, across seed
    # boundaries; every seed counts gamma / 10^3 (the column scalings)
    monkeypatch.setattr(census, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    cuts = []
    real = census._count_chunks

    def recording(gf, walk, t, lo, hi):
        cuts.append((t, lo, hi))
        return real(gf, walk, t, lo, hi)

    monkeypatch.setattr(census, "_count_chunks", recording)
    gf = make_field(11, 1)
    seeds = [(b, (1, 1, b)) for b in range(1, 11)]
    walk = (census._filter_minor_plan(3, 6), seeds, [10] * 6, 1)
    InlinePool.started = []
    pooled, workers = census._count_walk(gf, walk, 2)
    assert (InlinePool.started, workers) == ([2], 2)
    assert cuts == [(1, lo, min(lo + 7, 100)) for lo in range(0, 100, 7)]
    serial, _ = census._count_walk(gf, walk, 1)
    gamma = count_mds_grassmannian_filter(3, 6, gf).gamma
    assert pooled == serial == sum(range(1, 11)) * gamma // 10**3


class CountingPool(ProcessPoolExecutor):
    """A real process pool that counts its starts."""

    started = 0

    def __init__(self, *args, **kwargs):
        CountingPool.started += 1
        super().__init__(*args, **kwargs)


def test_worker_count_criterion_starts_a_pool(monkeypatch):
    # the "identical at 1, 4 and 8 workers" claim compares pooled runs with
    # serial ones only if some shape of the check is past census.POOL_MIN_WORK,
    # for the scan, the filter and the sweeps alike: the pools the filter's
    # own runs start are counted apart
    monkeypatch.setattr(census, "ProcessPoolExecutor", CountingPool)
    CountingPool.started = 0
    filter_pools = []
    real_filter = verify.count_mds_grassmannian_filter

    def counting_filter(*args, **kwargs):
        before = CountingPool.started
        result = real_filter(*args, **kwargs)
        filter_pools.append(CountingPool.started - before)
        return result

    monkeypatch.setattr(verify, "count_mds_grassmannian_filter", counting_filter)
    [entry] = [c for c in verify.REGISTRY
               if c.name == "criterion-11-worker-count-determinism"]
    result = verify.run_check(entry)
    assert result.passed, result.line()
    if (os.cpu_count() or 1) >= 2:
        assert sum(filter_pools) >= 1, filter_pools
        assert CountingPool.started > sum(filter_pools)
    else:
        assert CountingPool.started == 0


def _ledger_row(k, n, q):
    return next(row for row in verify.CENSUS_LEDGER if row[:3] == (k, n, q))


def _run_ledger():
    [entry] = [c for c in verify.REGISTRY if c.name == "census-ledger"]
    return verify.run_check(entry)


def test_ledger_fails_a_row_one_unit_off(monkeypatch):
    # the entry is re-run on two cheap rows of the ledger, one of them off by
    # one, and fails naming that row and the first route it runs
    k, n, q, want, routes = _ledger_row(3, 6, 5)
    monkeypatch.setattr(verify, "CENSUS_LEDGER",
                        (_ledger_row(3, 6, 2), (k, n, q, want + 1, routes)))
    result = _run_ledger()
    assert not result.passed
    assert "row (3, 6, 5) on the scan" in result.detail, result.line()
    assert "(3, 6, 2)" not in result.detail


def test_ledger_runs_only_the_routes_a_row_lists(monkeypatch):
    called = []
    real_filter = census.count_mds_grassmannian_filter

    def recording_filter(k, n, gf, **kwargs):
        called.append((k, n, gf.q))
        return real_filter(k, n, gf, **kwargs)

    monkeypatch.setattr(census, "count_mds_grassmannian_filter", recording_filter)
    k, n, q, want, _ = _ledger_row(3, 6, 5)
    monkeypatch.setattr(verify, "CENSUS_LEDGER",
                        ((k, n, q, want, ("scan",)), _ledger_row(3, 6, 2)))
    result = _run_ledger()
    assert result.passed, result.line()
    assert called == [(3, 6, 2)]


def test_all_nonzero_points_lie_in_the_big_cell():
    # p_(1..k) != 0 exactly on the big cell [I_k | A], so every point the
    # filter counts has pivots 1..k, and counting them all gives its gamma
    for q, max_n in ((2, 6), (3, 5), (4, 4)):
        gf = field_of_order(q)
        for n in range(1, max_n + 1):
            for k in range(1, n + 1):
                found = 0
                for point in enumerate_grassmannian(gf, k, n):
                    if all(c != 0 for c in plucker_embed(point.matrix).coeffs):
                        assert point.pivots == tuple(range(1, k + 1)), (k, n, q)
                        found += 1
                assert found == count_mds_grassmannian_filter(k, n, gf).gamma, (k, n, q)


def test_filter_plans_no_minor_below_order_two():
    # order 0 is the constant p_(1..k) = 1 and order 1 a lone entry, which
    # the walk over 1..q-1 keeps nonzero; the other C(n,k) - 1 - k(n-k)
    # multi-indices are planned, each on free entries only
    for n in range(1, 9):
        for k in range(1, n + 1):
            plans = census._filter_minor_plan(k, n)
            assert len(plans) == math.comb(n, k) - 1 - k * (n - k), (k, n)
            for minor in plans:
                assert len(minor) >= 2 and all(len(row) == len(minor) for row in minor)
                assert all(kind == "v" and 0 <= i < k * (n - k)
                           for row in minor for kind, i in row), (k, n)


def test_walks_honour_budget():
    # the filter walks (q-1)^((k-1)(n-k)) points, row 0 fixed to ones, the
    # scan (q-2)^((k-1)(n-k-1)) normalized candidates; a budget one below
    # the walk is refused
    for k, n, q in ((2, 4, 3), (3, 6, 5), (2, 5, 4)):
        gf = field_of_order(q)
        expected = count_mds_matrix_scan(k, n, gf).gamma
        for count, walk in ((count_mds_grassmannian_filter, filter_walk(k, n, q)),
                            (count_mds_matrix_scan, scan_walk(k, n, q))):
            with pytest.raises(BudgetExceeded):
                count(k, n, gf, budget=walk - 1)
            assert count(k, n, gf, budget=walk).gamma == expected, (count, k, n, q)


# (3,7,11) and (3,8,11) scans walk 9^6 and 9^8 int16 candidates, the filter
# 4^6 int16 points at (3,6,5) and 7^4 at (2,6,8), all through the q x q
# tables; the (2,5,191) and (2,5,243) scans walk 189^2 and 241^2 candidates
# past the table range, int64 mod 191 and int16 log/exp with base-3 digits.
# Each counts its last free entry.  At (3,8,11) sizing the chunk prefix on
# the walked entries alone cuts after 3 entries, where the whole suffix
# would cut after 4
BLOCK_SHAPES = ((count_mds_matrix_scan, 3, 7, 11),
                (count_mds_matrix_scan, 3, 8, 11),
                (count_mds_grassmannian_filter, 3, 6, 5),
                (count_mds_grassmannian_filter, 2, 6, 8),
                (count_mds_matrix_scan, 2, 5, 191),
                (count_mds_matrix_scan, 2, 5, 243))


def _record_arrays(monkeypatch, target, names, found):
    """Wrap target.<name> for each name so that the (entries, bytes) of
    every array it returns, alone or in a list, go to found[name]."""
    for name in names:
        fn = getattr(target, name)

        def recording(*args, fn=fn, name=name):
            out = fn(*args)
            for a in out if isinstance(out, list) else [out]:
                if isinstance(a, np.ndarray):
                    found.setdefault(name, []).append((a.size, a.nbytes))
            return out

        monkeypatch.setattr(target, name, recording)


def test_walked_blocks_fit_block_bytes(monkeypatch):
    # every value array a census route materializes fits BLOCK_BYTES: the
    # grids of the walked segments, the products and the forbidden values
    # of the counted last entry, one quotient on table fields and past them
    found = {}
    _record_arrays(monkeypatch, _vecgf, ("position_arrays",), found)
    _record_arrays(monkeypatch, _vecgf.VecOps, ("quotient", "mul"), found)
    for count, k, n, q in BLOCK_SHAPES:
        found.clear()
        count(k, n, field_of_order(q), threads=1)
        assert found.keys() == {"position_arrays", "quotient", "mul"}, (k, n, q)
        largest = max(nbytes for arrays in found.values() for _, nbytes in arrays)
        assert largest <= _vecgf.BLOCK_BYTES, (k, n, q, largest)


def test_kernel_arrays_fit_block_len(monkeypatch):
    # the level-wise kernel evaluates a segment's minors on a survivors x
    # segment grid, at most the chunk's walked suffix, and the minors
    # through the counted last entry on (minors, survivors) arrays cut to
    # block_len: every array det_any or a field op returns, the recursion,
    # the cofactors and values at x = 0 and their quotients, the forbidden
    # values, included, holds at most block_len(dtype) entries
    found = {}
    _record_arrays(monkeypatch, _vecgf, ("det_any",), found)
    _record_arrays(monkeypatch, _vecgf.VecOps,
                   ("add", "sub", "mul", "quotient"), found)
    for count, k, n, q in BLOCK_SHAPES:
        found.clear()
        gf = field_of_order(q)
        count(k, n, gf, threads=1)
        cap = _vecgf.block_len(_vecgf.vector_ops(gf).dtype)
        assert {"det_any", "quotient"} <= found.keys(), (k, n, q)
        largest = max(size for arrays in found.values() for size, _ in arrays)
        assert largest <= cap, (k, n, q, largest)


def test_chunk_prefix_is_sized_on_walked_entries(monkeypatch):
    # the counted last entry and the tail after it are never materialized:
    # (3,8,11) walks entries 0..6 and counts entry 7, so 9^4 <= block_len
    # walked entries fit after a prefix of 3, 729 chunks where sizing on all
    # 8 entries would cut 6561.  The (3,6,16) filter walks entries 0..7, its
    # seed fixes 0..2, so 15^3 walked entries fit after a prefix of 2 past
    # the seed, 225 chunks where sizing without the seed would cut 3375
    cuts = []
    monkeypatch.setattr(census, "_count_chunks",
                        lambda gf, walk, t, lo, hi: cuts.append((t, lo, hi)) or 0)
    plan = census._scan_minor_plan(3, 8)
    assert _vecgf.walked_len(plan) == 7
    census._count_walk(field_of_order(11), (plan, [(1, ())], [9] * 8, 2), 1)
    assert _vecgf.walked_len(census._filter_minor_plan(3, 6)) == 8
    count_mds_grassmannian_filter(3, 6, field_of_order(16))
    assert cuts == [(3, 0, 729), (2, 0, 225)]


def test_position_arrays_match_product():
    sizes, offset = [3, 1, 4, 2], 2
    grids = _vecgf.position_arrays(sizes, offset, np.int16)
    expected = list(itertools.product(*(range(offset, offset + s) for s in sizes)))
    assert list(zip(*(g.tolist() for g in grids))) == expected
    assert all(g.dtype == np.int16 for g in grids)
    assert list(_vecgf.prefix_values(sizes, offset)) == expected
    # no positions: one empty prefix; a position with no values in the
    # middle leaves nothing to walk
    assert list(_vecgf.prefix_values([], 1)) == [()]
    assert list(_vecgf.prefix_values([2, 0, 3], 1)) == []
    assert [g.size for g in _vecgf.position_arrays([3, 0, 2], 2, np.int64)] == [0, 0, 0]
    assert _vecgf.position_arrays([], 0, np.int64) == []


@pytest.mark.parametrize("q", (7, 8, 9, 191, 243, 256))
def test_det_any_matches_elimination(q):
    # det_any's closed forms at orders 2 and 3 and its cofactor expansion
    # past them, against linalg.det's elimination: table fields 7, 8, 9 and
    # the wide path past them (mod p at 191, base-p digits at 243, XOR at
    # 256).  Each matrix mixes candidate arrays with Python-int constants,
    # zeros among them, and each candidate is also run on Python ints alone.
    gf = field_of_order(q)
    ops = _vecgf.vector_ops(gf)
    rng = np.random.default_rng(q)
    width = 64
    for s in range(6):
        cells = rng.integers(0, q, size=(s, s, width))
        constant = rng.random((s, s)) < 0.3
        for i, j in zip(*np.nonzero(constant)):
            cells[i, j] = rng.choice((0, cells[i, j, 0]))
        m = [[int(cells[i, j, 0]) if constant[i, j] else cells[i, j].astype(ops.dtype)
              for j in range(s)] for i in range(s)]
        want = [det(MatrixGF(gf, s, s, cells[:, :, t].ravel().tolist()))
                for t in range(width)]
        assert np.broadcast_to(_vecgf.det_any(ops, m), width).tolist() == want, s
        for t in range(8):
            got = _vecgf.det_any(ops, [[int(v) for v in row] for row in cells[:, :, t]])
            assert type(got) is int and got == want[t], (s, t)


def test_routes_match_closed_forms_at_edge_fields():
    # q = 2, where the scan's free entries have no value left; q = 9, an odd
    # extension field; GF(181), the largest field with q x q tables, and
    # GF(191), the next order; GF(529), an odd extension field above 256
    cases = [(k, n, 2) for k in (1, 2) for n in range(k, 7)]
    cases += [(k, n, 9) for k in (1, 2) for n in range(k, 6)]
    cases += [(k, 3, q) for q in (181, 191, 529) for k in (1, 2)]
    for k, n, q in cases:
        gf = field_of_order(q)
        scan = count_mds_matrix_scan(k, n, gf).gamma
        assert scan == count_mds_grassmannian_filter(k, n, gf).gamma, (k, n, q)
        assert scan == gamma_closed_form(k, n, q), (k, n, q)


def _scan_dropping(monkeypatch, shape, i):
    """Patch census._scan_minor_plan to leave out minor i of the plan for
    shape = (k, n); every other plan is unchanged."""
    original = census._scan_minor_plan

    def plan(k, n):
        full = original(k, n)
        return full[:i] + full[i + 1:] if (k, n) == shape else full

    monkeypatch.setattr(census, "_scan_minor_plan", plan)


def test_every_dropped_scan_minor_is_seen(monkeypatch):
    # each minor of the scan's plan, dropped in turn, fails a shipped check:
    # the filter where it runs, (3,8,9) included, where every drop still
    # passes the orbit divisibility; the orbit divisibility n! | gamma-tilde *
    # |PGL(k, q)| at (3,7) for q = 7, 8, and duality, gamma(4,7) = gamma(3,7)
    def plan_size(k, n):
        return len(census._scan_minor_plan(k, n))

    for k, n, q in ((3, 6, 5), (4, 6, 5), (3, 8, 9)):
        gf = field_of_order(q)
        expected = count_mds_grassmannian_filter(k, n, gf).gamma
        for i in range(plan_size(k, n)):
            with monkeypatch.context() as m:
                _scan_dropping(m, (k, n), i)
                assert count_mds_matrix_scan(k, n, gf).gamma != expected, (k, n, i)
    for q in (7, 8):
        gf = field_of_order(q)
        for i in range(plan_size(3, 7)):
            with monkeypatch.context() as m:
                _scan_dropping(m, (3, 7), i)
                with pytest.raises(DivisibilityViolation):
                    count_mds_matrix_scan(3, 7, gf)
    gf = field_of_order(7)
    dual = count_mds_matrix_scan(3, 7, gf).gamma
    assert count_mds_matrix_scan(4, 7, gf).gamma == dual
    for i in range(plan_size(4, 7)):
        with monkeypatch.context() as m:
            _scan_dropping(m, (4, 7), i)
            assert count_mds_matrix_scan(4, 7, gf).gamma != dual, i
