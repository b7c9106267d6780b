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
from mdscensus.errors import BudgetExceeded, DivisibilityViolation
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


def test_scan_examples():
    assert count_mds_matrix_scan(2, 3, make_field(2, 1)).gamma == 1
    res = count_mds_matrix_scan(2, 4, make_field(3, 1))
    assert res.gamma == 8
    assert res.gamma_tilde == 1
    assert count_mds_matrix_scan(3, 6, make_field(2, 1)).gamma == 0


def test_filter_examples():
    assert count_mds_grassmannian_filter(2, 4, make_field(3, 1)).gamma == 8
    assert count_mds_grassmannian_filter(1, 3, make_field(3, 1)).gamma == 4
    assert count_mds_grassmannian_filter(2, 4, make_field(2, 1)).gamma == 0


def test_scan_matches_naive_reference():
    for q in (2, 3, 4):
        gf = field_of_order(q)
        for k, n in ((1, 3), (2, 3), (2, 4), (3, 4)):
            assert count_mds_matrix_scan(k, n, gf).gamma == naive_gamma(k, n, gf), (k, n, q)


def test_cross_oracle_small():
    for q in (2, 3, 4, 5):
        gf = field_of_order(q)
        for n in range(1, 6):
            for k in range(1, n + 1):
                a = count_mds_matrix_scan(k, n, gf).gamma
                b = count_mds_grassmannian_filter(k, n, gf).gamma
                assert a == b, (k, n, q)


def test_gamma_tilde_examples():
    assert count_mds_matrix_scan(2, 4, make_field(3, 1)).gamma_tilde == 1
    # gamma(2,5;4) = 162 = 2 (q-1)^4: exactly two normalized 5-point frames
    # on the projective line over GF(4)
    assert count_mds_matrix_scan(2, 5, make_field(2, 2)).gamma_tilde == 2
    for q in (2, 3, 4, 5):
        gf = field_of_order(q)
        for n in (2, 3, 4):
            assert count_mds_matrix_scan(1, n, gf).gamma_tilde == 1
    # gamma-tilde(3,8,q) at q = 9 and 11, where the scan and an independent
    # column-sorted scan agreed
    assert count_mds_matrix_scan(3, 8, field_of_order(9)).gamma_tilde == 7560
    assert count_mds_matrix_scan(3, 8, field_of_order(11)).gamma_tilde == 389592


def test_closed_forms_match_scan():
    for q in (2, 3, 4, 5, 7):
        gf = field_of_order(q)
        for n in range(1, 6):
            assert count_mds_matrix_scan(1, n, gf).gamma == gamma_closed_form(1, n, q)
        for n in range(2, 6):
            assert count_mds_matrix_scan(2, n, gf).gamma == gamma_closed_form(2, n, q)


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
    # 4^10 points, but no minor reads an entry: nothing is walked, no pool
    res = count_mds_grassmannian_filter(1, 11, make_field(5, 1), threads=2)
    assert (res.gamma, res.worker_count) == (4**10, 1)


def test_pool_never_exceeds_cpu_count(monkeypatch):
    # the (3,7,11) scan walks 9^5 candidates and the (2,6,7) filter 6^7,
    # both past this POOL_MIN_WORK
    monkeypatch.setattr(census, "POOL_MIN_WORK", 2**15)
    scan_gf, filter_gf = make_field(11, 1), make_field(7, 1)
    serial_scan = count_mds_matrix_scan(3, 7, scan_gf)
    serial_filter = count_mds_grassmannian_filter(2, 6, filter_gf)
    monkeypatch.setattr(census, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
    InlinePool.started = []
    scan = count_mds_matrix_scan(3, 7, scan_gf, threads=64)
    filt = count_mds_grassmannian_filter(2, 6, filter_gf, threads=64)
    assert InlinePool.started == [3, 3]
    assert (scan.worker_count, filt.worker_count) == (3, 3)
    assert scan.gamma == serial_scan.gamma
    assert filt.gamma == serial_filter.gamma == gamma_closed_form(2, 6, 7)
    InlinePool.started = []
    assert count_mds_matrix_scan(3, 7, scan_gf, threads=2).worker_count == 2
    monkeypatch.setattr(census.os, "cpu_count", lambda: None)
    assert count_mds_matrix_scan(3, 7, scan_gf, threads=2).worker_count == 1
    assert InlinePool.started == [2]


class CountingPool(ProcessPoolExecutor):
    """A real process pool that counts its starts."""

    started = 0

    def __init__(self, *args, **kwargs):
        CountingPool.started += 1
        super().__init__(*args, **kwargs)


def test_worker_count_criterion_starts_a_pool(monkeypatch):
    # the "identical at 1, 4 and 8 workers" claim compares pooled runs with
    # serial ones only if some shape of the check is past census.POOL_MIN_WORK
    monkeypatch.setattr(census, "ProcessPoolExecutor", CountingPool)
    CountingPool.started = 0
    [entry] = [c for c in verify.REGISTRY
               if c.name == "criterion-11-worker-count-determinism"]
    result = verify.run_check(entry)
    assert result.passed, result.line()
    if (os.cpu_count() or 1) >= 2:
        assert CountingPool.started >= 1
    else:
        assert CountingPool.started == 0


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
    # the filter walks (q-1)^(k(n-k)) points, the scan (q-2)^((k-1)(n-k-1))
    # normalized candidates; a budget one below the walk is refused
    for k, n, q in ((2, 4, 3), (3, 6, 5), (2, 5, 4)):
        gf = field_of_order(q)
        expected = count_mds_matrix_scan(k, n, gf).gamma
        for count, walk in ((count_mds_grassmannian_filter, (q - 1) ** (k * (n - k))),
                            (count_mds_matrix_scan, (q - 2) ** ((k - 1) * (n - k - 1)))):
            with pytest.raises(BudgetExceeded):
                count(k, n, gf, budget=walk - 1)
            assert count(k, n, gf, budget=walk).gamma == expected, (count, k, n, q)


# (3,7,11) and (3,8,11) scans walk 9^6 and 9^8 int16 candidates, the filter
# 4^9 int16 points at (3,6,5) and 7^8 at (2,6,8), all through the q x q
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
    # 8 entries would cut 6561
    cuts = []
    monkeypatch.setattr(census, "_count_chunks",
                        lambda gf, walk, t, lo, hi: cuts.append((t, lo, hi)) or 0)
    plan = census._scan_minor_plan(3, 5)
    assert _vecgf.walked_len(plan) == 7
    census._count_walk(field_of_order(11), (plan, [9] * 8, [2] * 8), 1)
    assert cuts == [(3, 0, 729)]


def test_position_arrays_match_product():
    sizes, offsets = [3, 1, 4, 2], [1, 0, 2, 5]
    grids = _vecgf.position_arrays(sizes, offsets, np.int16)
    expected = list(itertools.product(*(range(o, o + s)
                                        for s, o in zip(sizes, offsets))))
    assert list(zip(*(g.tolist() for g in grids))) == expected
    assert all(g.dtype == np.int16 for g in grids)
    for lo in range(len(expected) + 1):
        for hi in (lo, lo + 1, len(expected)):
            assert list(_vecgf.prefix_values(sizes, offsets, lo, hi)) == expected[lo:hi]
    # no positions: one empty prefix; a position with no values in the
    # middle leaves nothing to walk
    assert list(_vecgf.prefix_values([], [])) == [()]
    assert list(_vecgf.prefix_values([2, 0, 3], [1, 1, 1])) == []
    assert [g.size for g in _vecgf.position_arrays([3, 0, 2], [2, 2, 2], np.int64)] == [0, 0, 0]
    assert _vecgf.position_arrays([], [], np.int64) == []


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
    shape = (k, n - k); every other plan is unchanged."""
    original = census._scan_minor_plan

    def plan(k, nk):
        full = original(k, nk)
        return full[:i] + full[i + 1:] if (k, nk) == shape else full

    monkeypatch.setattr(census, "_scan_minor_plan", plan)


def test_every_dropped_scan_minor_is_seen(monkeypatch):
    # each minor of the scan's plan, dropped in turn, fails a shipped check:
    # the filter where it runs, the orbit divisibility n! | gamma-tilde *
    # |PGL(k, q)| at (3,7) for q = 7, 8, and duality, gamma(4,7) = gamma(3,7)
    def plan_size(k, n):
        return len(census._scan_minor_plan(k, n - k))

    for k, n, q in ((3, 6, 5), (4, 6, 5)):
        gf = field_of_order(q)
        expected = count_mds_grassmannian_filter(k, n, gf).gamma
        for i in range(plan_size(k, n)):
            with monkeypatch.context() as m:
                _scan_dropping(m, (k, n - k), i)
                assert count_mds_matrix_scan(k, n, gf).gamma != expected, (k, n, i)
    for q in (7, 8):
        gf = field_of_order(q)
        for i in range(plan_size(3, 7)):
            with monkeypatch.context() as m:
                _scan_dropping(m, (3, 4), i)
                with pytest.raises(DivisibilityViolation):
                    count_mds_matrix_scan(3, 7, gf)
    gf = field_of_order(7)
    dual = count_mds_matrix_scan(3, 7, gf).gamma
    assert count_mds_matrix_scan(4, 7, gf).gamma == dual
    for i in range(plan_size(4, 7)):
        with monkeypatch.context() as m:
            _scan_dropping(m, (4, 3), i)
            assert count_mds_matrix_scan(4, 7, gf).gamma != dual, i
