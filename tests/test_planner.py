"""Configuration planner: minimal-n search and excess distribution."""

import functools
import math

import numpy as np
import pytest

import fecpart.planner as planner
from fecpart.codec import MAX_CODE_LENGTH, CodeSpec
from fecpart.lossmodel import BecChannel, analytic_plr, partitioned_plr
from fecpart.planner import (
    CapacityError,
    PlanRequest,
    distribute_excess,
    min_n_for_target,
    plan,
)

from fig2_golden import FIG2_K_RANGE, FIG2_PE_VALUES, expected_excess

TABLE1 = {
    40: {0.01: 44, 0.03: 48, 0.05: 50, 0.07: 53, 0.09: 55, 0.1: 56},
    80: {0.01: 86, 0.03: 91, 0.05: 95, 0.07: 98, 0.09: 102, 0.1: 104},
}


def test_min_n_reference_points():
    assert min_n_for_target(40, BecChannel(0.01), 1e-5).n == 44
    assert min_n_for_target(80, BecChannel(0.1), 1e-5).n == 104


@pytest.mark.parametrize("k", sorted(TABLE1))
def test_min_n_full_reference_rows(k):
    for p_e, n in TABLE1[k].items():
        assert min_n_for_target(k, BecChannel(p_e), 1e-5).n == n, (k, p_e)


def test_min_n_zero_channel_gives_smallest_code():
    spec = min_n_for_target(40, BecChannel(0.0), 1e-5)
    assert (spec.n, spec.k) == (41, 40)


def test_min_n_is_minimal():
    for k in (40, 80):
        for p_e, n in TABLE1[k].items():
            ch = BecChannel(p_e)
            assert analytic_plr(CodeSpec(n, k), ch).plr <= 1e-5
            if n - 1 > k:
                assert analytic_plr(CodeSpec(n - 1, k), ch).plr > 1e-5


def test_min_n_capacity_error():
    with pytest.raises(CapacityError):
        min_n_for_target(200, BecChannel(0.3), 1e-9)
    with pytest.raises(CapacityError):
        min_n_for_target(10, BecChannel(1.0), 1e-5)


def test_min_n_rejects_bad_k():
    with pytest.raises(ValueError):
        min_n_for_target(0, BecChannel(0.1), 1e-5)


def test_min_n_rejects_a_target_outside_0_1():
    # checked before the search, as PlanRequest checks it: the field bound is
    # not at fault, so the error must not be a CapacityError
    for target in (float("nan"), 0.0, -1e-5, 1.0, 2.0):
        with pytest.raises(ValueError) as err:
            min_n_for_target(40, BecChannel(0.1), target)
        assert not isinstance(err.value, CapacityError), target


def test_distribute_excess_zero_when_already_within_delta():
    ps = distribute_excess(CodeSpec(44, 40), BecChannel(0.01), 0.001)
    assert ps.excess == 0


def test_distribute_excess_zero_channel():
    ps = distribute_excess(CodeSpec(48, 40), BecChannel(0.0), 0.001)
    assert ps.excess == 0


def test_distribute_excess_meets_delta_with_minimal_excess():
    parent = CodeSpec(25, 20)
    ch = BecChannel(0.1)
    delta = 0.001
    planned = distribute_excess(parent, ch, delta)
    ps = planned.ps
    plain = analytic_plr(parent, ch).plr
    assert planned.plr == partitioned_plr(ps, ch).plr
    assert planned.plr - plain <= delta
    if ps.excess > 0:
        from fecpart.partition import split

        weaker = split(parent, ps.excess - 1)
        assert partitioned_plr(weaker, ch).plr - plain > delta


def test_distribute_excess_each_step_lowers_plr():
    parent = CodeSpec(25, 20)
    ch = BecChannel(0.1)
    from fecpart.partition import split

    excess = distribute_excess(parent, ch, 0.001).excess
    values = [partitioned_plr(split(parent, x), ch).plr for x in range(excess + 1)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_distribute_excess_single_parity_parent_skips_invalid_splits():
    # p=1 cannot split at excess 0 or 1; the first usable split is excess=2
    ps = distribute_excess(CodeSpec(21, 20), BecChannel(0.0), 0.001).ps
    assert ps.excess == 2
    assert (ps.first.p, ps.second.p) == (2, 1)


def test_distribute_excess_validates_delta():
    # rejected up front: a NaN that reached the excess scan would end in a
    # CapacityError (itself a ValueError) that blames the field bound
    for delta in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="delta"):
            distribute_excess(CodeSpec(48, 40), BecChannel(0.1), delta)


def test_plan_reference_points():
    result = plan(PlanRequest(k=40, ch=BecChannel(0.05)))
    assert (result.spec.n, result.spec.k) == (50, 40)
    assert result.ri == pytest.approx(10 / 40)
    result = plan(PlanRequest(k=80, ch=BecChannel(0.07)))
    assert (result.spec.n, result.spec.k) == (98, 80)
    assert result.partition is None


def test_plan_result_invariants():
    req = PlanRequest(k=40, ch=BecChannel(0.01), partition=True)
    result = plan(req)
    assert result.plr <= req.plr_target
    assert result.partition is not None
    assert result.partition.plr - result.plr <= req.delta
    # stepping distribute_excess for the planned (44, 40) parent: the
    # zero-excess partition is already within delta (1.86e-4 vs 9.05e-6)
    assert result.partition.excess == 0
    assert (result.partition.ps.first.n, result.partition.ps.first.k) == (22, 20)


def test_plan_request_validation():
    with pytest.raises(ValueError):
        PlanRequest(k=40, ch=BecChannel(0.1), plr_target=0.0)
    for delta in (0.0, float("nan")):
        with pytest.raises(ValueError):
            PlanRequest(k=40, ch=BecChannel(0.1), delta=delta)


def test_plan_request_checks_k_against_the_field_limit():
    # k = 255 left no room for parity: it used to end in a CapacityError
    # that blamed the loss target
    for k in (0, -3, 255, 300):
        with pytest.raises(ValueError, match="1..254") as info:
            PlanRequest(k=k, ch=BecChannel(0.1))
        assert not isinstance(info.value, CapacityError)
    with pytest.raises(TypeError):
        PlanRequest(k=10.5, ch=BecChannel(0.1))
    assert PlanRequest(k=254, ch=BecChannel(0.0)).k == 254
    assert type(PlanRequest(k=np.int64(40), ch=BecChannel(0.1)).k) is int


def test_plan_request_rejects_a_partition_of_one_source():
    # k = 1 has no two-way split: the request is refused before any minimal-n search
    for k in (1, np.int64(1)):
        with pytest.raises(ValueError, match="two-way split needs k >= 2"):
            PlanRequest(k=k, ch=BecChannel(0.05), partition=True)
    assert PlanRequest(k=1, ch=BecChannel(0.05)).k == 1
    result = plan(PlanRequest(k=2, ch=BecChannel(0.05), partition=True))
    assert result.partition.ps.parts == (CodeSpec(3, 1), CodeSpec(3, 1))


def test_plan_reports_the_witness_from_its_scan():
    # n_scanned counts the codes evaluated: for n - k = 15, p = 1, 2, 4, 8,
    # 16, then 12, 14 and 15 (an upward scan would evaluate 15)
    cases = ((40, 0.09, 1e-5, 8), (80, 0.07, 1e-6, 10), (20, 0.3, 1e-3, 10))
    for k, p_e, target, evaluated in cases:
        ch = BecChannel(p_e)
        result = plan(PlanRequest(k=k, ch=ch, plr_target=target))
        n = result.spec.n
        assert result.n_scanned == evaluated
        assert result.plr == analytic_plr(result.spec, ch).plr
        assert result.witness_plr == analytic_plr(CodeSpec(n - 1, k), ch).plr
        assert result.witness_plr > target


def test_plan_witness_is_none_for_the_smallest_code():
    result = plan(PlanRequest(k=40, ch=BecChannel(0.0)))
    assert result.spec == CodeSpec(41, 40)
    assert (result.witness_plr, result.n_scanned) == (None, 1)


def test_excess_grid_matches_golden_data():
    delta = 0.001
    for p_e in FIG2_PE_VALUES:
        ch = BecChannel(p_e)
        for k in FIG2_K_RANGE:
            ps = distribute_excess(CodeSpec(k + 5, k), ch, delta)
            assert ps.excess == expected_excess(p_e, k), (p_e, k)


# the differential sweep: k at both ends of the field, channels from lossless
# to nearly always erased, fixed targets down to 1e-280, and per (k, p_e)
# the exact PLR of three seeded random codes and its float neighbours
SWEEP_K = (1, 2, 3, 40, 100, 200, 253, 254)
SWEEP_P_E = (0.0, 1e-6, 1e-3, 0.05, 0.3, 0.9, 0.999)
SWEEP_TARGETS = (1e-1, 1e-2, 1e-3, 1e-5, 1e-9, 1e-15, 1e-30, 1e-60, 1e-100,
                 1e-160, 1e-220, 1e-280)


@functools.lru_cache(maxsize=None)
def cached_plr(n, k, p_e):
    # analytic_plr's own report, computed once per code for the whole sweep
    return analytic_plr(CodeSpec(n, k), BecChannel(p_e))


def sweep():
    rng = np.random.default_rng(2022)
    for k in SWEEP_K:
        for p_e in SWEEP_P_E:
            targets = list(SWEEP_TARGETS)
            for n in rng.integers(k + 1, MAX_CODE_LENGTH + 1, size=3):
                plr = cached_plr(int(n), k, p_e).plr
                targets += [math.nextafter(plr, 0.0), plr, math.nextafter(plr, 1.0)]
            for target in targets:
                if 0.0 < target < 1.0:
                    yield k, p_e, target


def scan(k, p_e, target):
    """The upward scan the search replaced: the first n that meets target."""
    for n in range(k + 1, MAX_CODE_LENGTH + 1):
        if cached_plr(n, k, p_e).plr <= target:
            return n
    return None


@pytest.fixture
def plr_calls(monkeypatch):
    """The codes the planner evaluates, served from the sweep's cache."""
    calls = []

    def counted(code, ch):
        calls.append(code)
        return cached_plr(code.n, code.k, ch.p_e)

    monkeypatch.setattr(planner, "analytic_plr", counted)
    return calls


def test_search_gives_the_scan_answers(plr_calls):
    # Below p_e * (1 - 1e-9) the computed PLR falls monotonically in n and
    # the answers must be the scan's floats.  Closer to p_e every code's PLR
    # is p_e up to rounding, and the scan's first hit can be a rounding dip,
    # so there only the contract holds: the result meets the target and
    # n - 1 misses it, and CapacityError is raised exactly when C(255, k)
    # misses it.
    for k, p_e, target in sweep():
        case = (k, p_e, target)
        try:
            result = plan(PlanRequest(k=k, ch=BecChannel(p_e), plr_target=target))
        except CapacityError:
            result = None
        if target < p_e * (1 - 1e-9):
            n = scan(k, p_e, target)
            if n is None:
                assert result is None, case
                continue
            assert result is not None and result.spec == CodeSpec(n, k), case
            assert result.plr == cached_plr(n, k, p_e).plr, case
            witness = cached_plr(n - 1, k, p_e).plr if n > k + 1 else None
            assert result.witness_plr == witness, case
        else:
            top_misses = cached_plr(MAX_CODE_LENGTH, k, p_e).plr > target
            assert (result is None) == top_misses, case
            if result is None:
                continue
            n = result.spec.n
            assert result.plr == cached_plr(n, k, p_e).plr <= target, case
            if n > k + 1:
                assert result.witness_plr == cached_plr(n - 1, k, p_e).plr > target, case


def test_search_cost_is_logarithmic(plr_calls):
    for k, p_e, target in sweep():
        plr_calls.clear()
        try:
            n = min_n_for_target(k, BecChannel(p_e), target).n
        except CapacityError:
            bound = math.ceil(math.log2(MAX_CODE_LENGTH - k)) + 1
        else:
            bound = 2 * math.ceil(math.log2(n - k)) + 1
        assert len(plr_calls) <= bound, (k, p_e, target, len(plr_calls))
    # test_min_n_capacity_error's request: an upward scan evaluates 55 codes
    plr_calls.clear()
    with pytest.raises(CapacityError):
        min_n_for_target(200, BecChannel(0.3), 1e-9)
    assert len(plr_calls) <= 7
