"""Loss-rate model vs independent oracles: exact rationals, enumeration, MC."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import fecpart.lossmodel as lossmodel
from fecpart.codec import CodeSpec, PacketBlock, UnrecoverableBlockError, build_generator, decode, encode
from fecpart.lossmodel import (
    BecChannel,
    LossPmf,
    PlrReport,
    analytic_plr,
    binomial_pmf,
    brute_force_plr,
    loss_pmf,
    monte_carlo_plr,
    partitioned_loss_pmf,
    partitioned_plr,
)
from fecpart.partition import split
from fecpart.planner import min_n_for_target

from fig2_golden import FIG2_K_RANGE, FIG2_PE_VALUES


def binomial_fraction(n, e, p_num, p_den):
    """Exact rational binomial point mass."""
    p = Fraction(p_num, p_den)
    return math.comb(n, e) * p**e * (1 - p) ** (n - e)


def pmf_by_enumeration(spec, p_e):
    """Loss distribution from brute-force enumeration of every pattern.

    Decoding fails iff fewer than k packets survive; a failed block loses
    exactly its erased source packets.  Independent of the analytic sums.
    """
    probs = np.zeros(spec.k + 1)
    for pattern in itertools.product((0, 1), repeat=spec.n):
        e = sum(pattern)
        weight = p_e**e * (1 - p_e) ** (spec.n - e)
        lost = sum(pattern[:spec.k]) if e > spec.p else 0
        probs[lost] += weight
    return probs


def test_binomial_trivial_cases():
    assert binomial_pmf(10, 0, BecChannel(0.0)) == 1.0
    assert binomial_pmf(10, 3, BecChannel(0.0)) == 0.0
    assert binomial_pmf(10, 10, BecChannel(1.0)) == 1.0
    assert binomial_pmf(4, 2, BecChannel(0.5)) == pytest.approx(0.375, abs=1e-15)


def test_binomial_matches_exact_rational():
    exact = float(binomial_fraction(44, 5, 1, 100))
    assert binomial_pmf(44, 5, BecChannel(0.01)) == pytest.approx(exact, rel=1e-12)


def test_binomial_log_space_matches_exact_rational():
    # n > 60 takes the log-space path
    for n, e, num, den in ((80, 7, 3, 100), (200, 0, 1, 10), (255, 40, 1, 4)):
        exact = float(binomial_fraction(n, e, num, den))
        got = binomial_pmf(n, e, BecChannel(num / den))
        assert got == pytest.approx(exact, rel=1e-10), (n, e)


def test_binomial_sums_to_one():
    for n in (7, 44, 100):
        total = sum(binomial_pmf(n, e, BecChannel(0.13)) for e in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_binomial_rejects_bad_support():
    with pytest.raises(ValueError):
        binomial_pmf(5, 6, BecChannel(0.1))
    with pytest.raises(ValueError):
        binomial_pmf(5, -1, BecChannel(0.1))


def test_channel_validation():
    with pytest.raises(ValueError):
        BecChannel(-0.1)
    with pytest.raises(ValueError):
        BecChannel(1.1)


def test_loss_pmf_no_erasures():
    pmf = loss_pmf(CodeSpec(6, 4), BecChannel(0.0))
    assert pmf.probabilities[0] == 1.0
    assert np.all(pmf.probabilities[1:] == 0.0)


@pytest.mark.parametrize("n,k", [(5, 4), (6, 4), (8, 5), (9, 3)])
@pytest.mark.parametrize("p_e", [0.1, 0.35])
def test_loss_pmf_matches_enumeration(n, k, p_e):
    spec = CodeSpec(n, k)
    got = loss_pmf(spec, BecChannel(p_e)).probabilities
    expected = pmf_by_enumeration(spec, p_e)
    assert np.allclose(got, expected, atol=1e-13)
    assert got.sum() == pytest.approx(1.0, abs=1e-9)


def lost_sources_per_term(spec, ch):
    """The loss distribution as one formula per (i, e) term, reference only.

    Evaluates the binomial mass and every binomial coefficient afresh for
    each term; `loss_pmf` takes them from per-code tables and must give the
    same floats, to the bit.
    """
    n, k, p = spec.n, spec.k, spec.p
    probs = np.zeros(k + 1)
    probs[0] = sum(binomial_pmf(n, e, ch) for e in range(p + 1))
    for i in range(1, k + 1):
        total = 0.0
        for e in range(max(p + 1, i), p + i + 1):
            hyper = math.comb(k, i) * math.comb(p, e - i) / math.comb(n, e)
            total += binomial_pmf(n, e, ch) * hyper
        probs[i] = total
    return probs


# n <= 60 takes binomial_pmf's direct product, n > 60 its log space
@pytest.mark.parametrize("n", [2, 13, 60, 61, 108, 255])
@pytest.mark.parametrize("p_e", [0.0, 1.0, 1e-4, 0.02, 0.5])
def test_loss_pmf_bit_identical_to_per_term_formula(n, p_e):
    ch = BecChannel(p_e)
    for k in sorted({1, n // 2 or 1, n - 1}):
        spec = CodeSpec(n, k)
        got = loss_pmf(spec, ch).probabilities
        assert np.array_equal(got, lost_sources_per_term(spec, ch)), (n, k, p_e)


@pytest.mark.parametrize("n,k", [(2, 1), (44, 40), (108, 100), (255, 128)])
def test_loss_pmf_evaluates_each_erasure_count_once(monkeypatch, n, k):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return binomial_pmf(*args)

    monkeypatch.setattr(lossmodel, "binomial_pmf", counted)
    loss_pmf(CodeSpec(n, k), BecChannel(0.02))
    assert len(calls) <= n + 1
    assert sorted(set(calls)) == list(range(n + 1))


def test_plr_zero_channel():
    assert analytic_plr(CodeSpec(44, 40), BecChannel(0.0)).plr == 0.0


def test_plr_certain_erasure():
    assert analytic_plr(CodeSpec(6, 4), BecChannel(1.0)).plr == pytest.approx(1.0)


def test_degenerate_no_parity_limit_is_channel_rate():
    # p = 0 is not a representable CodeSpec; extend the formulas by hand:
    # with no parity every erased source packet is lost, so PLR == p_e.
    k = 7
    for p_e in (0.05, 0.3, 0.8):
        probs = np.zeros(k + 1)
        probs[0] = binomial_pmf(k, 0, BecChannel(p_e))
        for i in range(1, k + 1):
            # e ranges over max(p+1, i) .. p+i with p = 0: the single term e = i
            probs[i] = binomial_pmf(k, i, BecChannel(p_e)) * (
                math.comb(k, i) * math.comb(0, 0) / math.comb(k, i)
            )
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        plr = float(np.arange(k + 1) @ probs) / k
        assert plr == pytest.approx(p_e, rel=1e-12)


def test_table1_spec_meets_target():
    assert analytic_plr(CodeSpec(44, 40), BecChannel(0.01)).plr <= 1e-5


def test_partitioned_pmf_no_erasures():
    ps = split(CodeSpec(12, 8))
    pmf = partitioned_loss_pmf(ps, BecChannel(0.0))
    assert pmf.probabilities[0] == 1.0


def test_partitioned_pmf_symmetric_halves_swap_invariant():
    ps = split(CodeSpec(12, 8))
    swapped = type(ps)(parent=ps.parent, first=ps.second, second=ps.first)
    ch = BecChannel(0.2)
    assert np.allclose(
        partitioned_loss_pmf(ps, ch).probabilities,
        partitioned_loss_pmf(swapped, ch).probabilities,
    )


def joint_pmf_by_enumeration(ps, p_e):
    """Two-block exhaustive oracle for the partitioned loss distribution."""
    k = ps.parent.k
    probs = np.zeros(k + 1)
    for pat1 in itertools.product((0, 1), repeat=ps.first.n):
        e1 = sum(pat1)
        lost1 = sum(pat1[:ps.first.k]) if e1 > ps.first.p else 0
        w1 = p_e**e1 * (1 - p_e) ** (ps.first.n - e1)
        for pat2 in itertools.product((0, 1), repeat=ps.second.n):
            e2 = sum(pat2)
            lost2 = sum(pat2[:ps.second.k]) if e2 > ps.second.p else 0
            w2 = p_e**e2 * (1 - p_e) ** (ps.second.n - e2)
            probs[lost1 + lost2] += w1 * w2
    return probs


def test_partitioned_pmf_matches_joint_enumeration():
    ps = split(CodeSpec(12, 8))  # halves (6, 4) + (6, 4): 2^12 joint patterns
    got = partitioned_loss_pmf(ps, BecChannel(0.1)).probabilities
    expected = joint_pmf_by_enumeration(ps, 0.1)
    assert np.allclose(got, expected, atol=1e-13)


def test_partitioned_plr_matches_joint_enumeration():
    ps = split(CodeSpec(12, 8))
    got = partitioned_plr(ps, BecChannel(0.1)).plr
    expected = float(np.arange(9) @ joint_pmf_by_enumeration(ps, 0.1)) / 8
    assert got == pytest.approx(expected, abs=1e-12)


def test_partitioned_plr_zero_channel():
    assert partitioned_plr(split(CodeSpec(12, 8)), BecChannel(0.0)).plr == 0.0


def test_partitioning_not_better_than_parent_here():
    parent = CodeSpec(48, 40)
    ch = BecChannel(0.03)
    assert partitioned_plr(split(parent), ch).plr >= analytic_plr(parent, ch).plr


def test_partitioned_plr_equals_weighted_half_average():
    ch = BecChannel(0.07)
    for parent, excess in ((CodeSpec(13, 9), 0), (CodeSpec(20, 11), 1), (CodeSpec(48, 40), 2)):
        ps = split(parent, excess)
        direct = partitioned_plr(ps, ch).plr
        weighted = (
            ps.first.k * analytic_plr(ps.first, ch).plr
            + ps.second.k * analytic_plr(ps.second, ch).plr
        ) / parent.k
        assert direct == pytest.approx(weighted, abs=1e-12)
    # the mean of the convolved distribution is an independent route to the
    # same PLR; checked over the fig2 grid with excess 0..3
    for p_e in FIG2_PE_VALUES:
        ch = BecChannel(p_e)
        for k in FIG2_K_RANGE:
            for excess in range(4):
                ps = split(CodeSpec(k + 5, k), excess)
                assert math.isclose(
                    partitioned_loss_pmf(ps, ch).mean / k,
                    partitioned_plr(ps, ch).plr,
                    rel_tol=1e-9,
                    abs_tol=1e-12,
                ), (p_e, k, excess)


def test_analytic_entry_points_take_either_kind_of_code():
    assert lossmodel.partitioned_loss_pmf is loss_pmf
    assert lossmodel.partitioned_plr is analytic_plr
    ch = BecChannel(0.15)
    ps = split(CodeSpec(11, 7), 1)
    plr = analytic_plr(ps, ch).plr
    assert plr == pytest.approx(partitioned_plr(ps, ch).plr, abs=1e-12)
    assert plr == pytest.approx(brute_force_plr(ps, ch).plr, abs=1e-12)
    convolved = np.convolve(loss_pmf(ps.first, ch).probabilities,
                            loss_pmf(ps.second, ch).probabilities)
    assert np.array_equal(loss_pmf(ps, ch).probabilities, convolved)
    spec = CodeSpec(12, 7)
    assert partitioned_plr(spec, ch) == analytic_plr(spec, ch)


def exact_plr(n, k, p_e):
    """PLR from exact rationals: (1/n) * sum over e > p of e * P(e erasures).

    A block with e > p erasures loses its erased sources, k/n of them on
    average, so E[lost] / k is the sum below over n.
    """
    p_e = Fraction(p_e)
    lost = sum(e * math.comb(n, e) * p_e**e * (1 - p_e) ** (n - e)
               for e in range(n - k + 1, n + 1))
    return lost / n


@pytest.mark.parametrize("n", [207, 213, 214])
def test_plr_log_space_branch_where_direct_product_underflows(n):
    # these PLRs lie near 1e-264..1e-283, where p_e**e underflows to 0 in
    # the direct product but not in log space
    got = analytic_plr(CodeSpec(n, 100), BecChannel(0.001)).plr
    assert got > 0.0
    assert math.isclose(got, float(exact_plr(n, 100, 0.001)), rel_tol=1e-9)


def test_min_n_finds_the_exact_answer_below_the_direct_products_range():
    assert min_n_for_target(100, BecChannel(0.001), 1e-280).n == 214


def test_brute_force_trivial_channels():
    assert brute_force_plr(CodeSpec(6, 4), BecChannel(0.0)).plr == 0.0
    assert brute_force_plr(CodeSpec(6, 4), BecChannel(1.0)).plr == 1.0


def test_brute_force_equals_analytic():
    ch = BecChannel(0.1)
    for spec in (CodeSpec(5, 4), CodeSpec(9, 4), CodeSpec(12, 7)):
        assert brute_force_plr(spec, ch).plr == pytest.approx(
            analytic_plr(spec, ch).plr, abs=1e-12
        )


def test_brute_force_partitioned_equals_analytic():
    ch = BecChannel(0.15)
    ps = split(CodeSpec(11, 7), excess=1)
    assert brute_force_plr(ps, ch).plr == pytest.approx(
        partitioned_plr(ps, ch).plr, abs=1e-12
    )


def test_brute_force_bound():
    with pytest.raises(ValueError):
        brute_force_plr(CodeSpec(30, 20), BecChannel(0.1))
    with pytest.raises(ValueError):
        brute_force_plr(split(CodeSpec(26, 20)), BecChannel(0.1))


def test_plr_monotone_in_n_and_pe():
    for k in (10, 20, 40):
        for p_e in (0.01, 0.05, 0.1, 0.2, 0.3):
            plrs = [analytic_plr(CodeSpec(k + p, k), BecChannel(p_e)).plr
                    for p in range(1, 9)]
            assert all(a >= b - 1e-15 for a, b in zip(plrs, plrs[1:])), (k, p_e)
    for k in (10, 20, 40):
        for p in (2, 5, 8):
            spec = CodeSpec(k + p, k)
            plrs = [analytic_plr(spec, BecChannel(p_e)).plr
                    for p_e in (0.01, 0.05, 0.1, 0.2, 0.3)]
            assert all(a <= b + 1e-15 for a, b in zip(plrs, plrs[1:])), (k, p)


def test_loss_pmf_normalization_validated():
    with pytest.raises(ValueError):
        LossPmf(CodeSpec(6, 4), np.array([0.5, 0.4, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        LossPmf(CodeSpec(6, 4), np.array([1.5, -0.5, 0.0, 0.0, 0.0]))
    for probs in ([np.nan] * 5, [np.nan, 1.0, 0.0, 0.0, 0.0]):  # NaN compares false
        with pytest.raises(ValueError):
            LossPmf(CodeSpec(6, 4), np.array(probs))


def test_plr_report_range_validated():
    with pytest.raises(ValueError):
        PlrReport(plr=1.5, method="analytic")


def test_monte_carlo_zero_channel_is_exact_zero():
    rep = monte_carlo_plr(CodeSpec(6, 4), BecChannel(0.0), trials=1000, seed=1)
    assert rep.plr == 0.0
    assert rep.half_width == 0.0


def test_monte_carlo_deterministic_for_seed():
    a = monte_carlo_plr(CodeSpec(6, 4), BecChannel(0.2), trials=20000, seed=42)
    b = monte_carlo_plr(CodeSpec(6, 4), BecChannel(0.2), trials=20000, seed=42)
    assert (a.plr, a.half_width) == (b.plr, b.half_width)
    c = monte_carlo_plr(CodeSpec(6, 4), BecChannel(0.2), trials=20000, seed=43)
    assert (a.plr, a.half_width) != (c.plr, c.half_width)


def test_monte_carlo_consistent_with_analytic():
    spec = CodeSpec(8, 5)
    ch = BecChannel(0.2)
    rep = monte_carlo_plr(spec, ch, trials=200_000, seed=7)
    assert abs(rep.plr - analytic_plr(spec, ch).plr) <= 3 * rep.half_width


def test_monte_carlo_partitioned_consistent_with_analytic():
    ps = split(CodeSpec(12, 8), excess=1)
    ch = BecChannel(0.15)
    rep = monte_carlo_plr(ps, ch, trials=100_000, seed=11)
    assert abs(rep.plr - partitioned_plr(ps, ch).plr) <= 3 * rep.half_width


def test_monte_carlo_rejects_bad_trials():
    with pytest.raises(ValueError):
        monte_carlo_plr(CodeSpec(6, 4), BecChannel(0.1), trials=0, seed=1)


def record_solves(monkeypatch, seen):
    # route the validator's batched solves through a recorder: each solved
    # pattern appends (part spec, erased slots) to `seen`
    real_decode_batch = lossmodel.decode_batch

    def recording_decode_batch(gen, received, erased):
        assert received.shape[:2] == erased.shape == (len(erased), gen.spec.n)
        seen.extend((gen.spec, tuple(np.flatnonzero(row).tolist())) for row in erased)
        return real_decode_batch(gen, received, erased)

    monkeypatch.setattr(lossmodel, "decode_batch", recording_decode_batch)


def test_monte_carlo_verifies_erasures_beyond_slot_63(monkeypatch):
    # every pattern handed to the codec must carry all of its erasures,
    # including those at slots >= 64 of a code longer than 64 packets
    seen = []
    record_solves(monkeypatch, seen)
    spec = CodeSpec(100, 90)
    monte_carlo_plr(spec, BecChannel(0.05), 2000, 1)
    assert seen
    assert all(any(i < spec.k for i in missing) for _, missing in seen)
    assert max(max(missing) for _, missing in seen) >= 64


def test_monte_carlo_verifies_each_part_on_its_own(monkeypatch):
    # a split code is verified part by part: each solve gets one part's
    # blocks, each distinct (part, pattern) once, and a part's pattern is
    # verified even in trials where the other part failed
    ps = split(CodeSpec(12, 8), excess=1)  # parts C(7, 4) and C(6, 4)
    seen = []
    record_solves(monkeypatch, seen)
    trials, seed, p_e = 5000, 2, 0.3
    monte_carlo_plr(ps, BecChannel(p_e), trials, seed)
    assert seen
    assert all(spec in ps.parts for spec, _ in seen)
    assert len(set(seen)) == len(seen)

    # the simulator's draw: one row of n1 + n2 slots per trial, in order
    first, second = ps.parts
    masks = np.random.default_rng(seed).random((trials, first.n + second.n)) < p_e
    ours, other = masks[:, : first.n], masks[:, first.n :]
    rows = ours[
        (ours.sum(axis=1) <= first.p)
        & ours[:, : first.k].any(axis=1)
        & (other.sum(axis=1) > second.p)
    ]
    assert len(rows)
    verified = {missing for spec, missing in seen if spec == first}
    assert all(tuple(np.flatnonzero(row).tolist()) in verified for row in rows)


def test_monte_carlo_fails_on_one_corrupted_byte(monkeypatch):
    # the batched check can fail: one flipped byte in one recovered block
    # of one solve must raise
    real_decode_batch = lossmodel.decode_batch

    def corrupting_decode_batch(gen, received, erased):
        sources = real_decode_batch(gen, received, erased)
        block, slot = len(sources) // 2, int(np.flatnonzero(erased[len(sources) // 2])[0])
        sources[block, slot, 1] ^= 0x40
        return sources

    monkeypatch.setattr(lossmodel, "decode_batch", corrupting_decode_batch)
    with pytest.raises(AssertionError, match="corrupted"):
        monte_carlo_plr(CodeSpec(44, 40), BecChannel(0.1), 2000, 5)


def test_monte_carlo_checks_the_packet_path(monkeypatch):
    # one pattern per part also goes through `decode`; a corrupted packet
    # there must raise as well
    real_decode = lossmodel.decode

    def corrupting_decode(gen, received):
        packets = real_decode(gen, received)
        return [bytes([packets[0][0] ^ 1]) + packets[0][1:]] + packets[1:]

    monkeypatch.setattr(lossmodel, "decode", corrupting_decode)
    with pytest.raises(AssertionError, match="corrupted"):
        monte_carlo_plr(split(CodeSpec(12, 8), excess=1), BecChannel(0.3), 500, 2)


def test_monte_carlo_counts_the_patterns_it_verified():
    # patterns_verified is the number of distinct (part, pattern) pairs a
    # part can recover that hit its sources, and patterns_total the number
    # of such part-trials before dedup, both recomputed from the same draw
    for code, p_e, trials, seed in (
        (CodeSpec(44, 40), 0.1, 3000, 8),
        (split(CodeSpec(12, 8), excess=1), 0.3, 5000, 2),
        (CodeSpec(100, 90), 0.05, 2000, 1),
    ):
        width = sum(part.n for part in code.parts)
        masks = np.random.default_rng(seed).random((trials, width)) < p_e
        expected = total = offset = 0
        for part in code.parts:
            block = masks[:, offset : offset + part.n]
            offset += part.n
            keep = (block.sum(axis=1) <= part.p) & block[:, : part.k].any(axis=1)
            expected += len({tuple(row) for row in block[keep]})
            total += int(keep.sum())
        report = monte_carlo_plr(code, BecChannel(p_e), trials, seed)
        assert 0 < expected < total
        assert (report.patterns_verified, report.patterns_total) == (expected, total)
    for other in (analytic_plr(CodeSpec(6, 4), BecChannel(0.1)),
                  brute_force_plr(CodeSpec(6, 4), BecChannel(0.1))):
        assert (other.patterns_verified, other.patterns_total) == (None, None)


@pytest.mark.parametrize("code, p_e, trials, seed, expected", [
    # the three codes perfbench simulates, and one run of two draw chunks
    (CodeSpec(44, 40), 0.1, 1000, 1, (0.0617, 0.004516905335493517, 530, 544)),
    (split(CodeSpec(48, 40)), 0.05, 1000, 1, (0.000775, 0.0005842747778366066, 571, 1308)),
    (CodeSpec(108, 100), 0.02, 1000, 1, (8e-05, 0.0001568, 717, 871)),
    (CodeSpec(20, 16), 0.1, 70000, 5, (0.01140625, 0.00040944893470837523, 4854, 54091)),
])
def test_monte_carlo_reports_are_pinned(code, p_e, trials, seed, expected):
    # every field of the report, exactly: a faster validator must count the
    # same losses and verify the same distinct patterns
    if trials > 1000:
        assert trials > lossmodel._CHUNK  # the last case spans two draw chunks
    plr, half_width, verified, total = expected
    assert monte_carlo_plr(code, BecChannel(p_e), trials, seed) == PlrReport(
        plr=plr, method="monte_carlo", trials=trials, half_width=half_width,
        patterns_verified=verified, patterns_total=total)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 14, 32])
def test_distinct_rows_match_numpy_unique(width):
    # the validator's dedup gives np.unique's rows in np.unique's order,
    # also where rows agree in their first 8-byte word and differ after it;
    # bytes 0, 127 and 254 check that the keys compare as unsigned
    rng = np.random.default_rng(width)
    rows = rng.integers(0, 3, (500, width), dtype=np.uint8) * np.uint8(0x7F)
    rows[250:, : min(width, 8)] = rows[0, : min(width, 8)]
    assert np.array_equal(lossmodel._distinct_rows(rows), np.unique(rows, axis=0))
    empty = np.zeros((0, width), np.uint8)
    assert lossmodel._distinct_rows(empty).shape == (0, width)


def test_monte_carlo_memory_flat_in_trials():
    # trials are simulated in fixed-size chunks, so four times the trials
    # must not take four times the memory
    peaks = []
    for trials in (1 << 17, 1 << 19):
        tracemalloc.start()
        try:
            monte_carlo_plr(CodeSpec(6, 4), BecChannel(0.05), trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_zero_excess_partition_penalty_sign_observation():
    # observation, not a theorem: with no excess parity, partitioning is
    # expected never to beat the parent code; report any exception rather
    # than asserting it
    negatives = []
    for p_e in (0.01, 0.05, 0.1):
        ch = BecChannel(p_e)
        for k in range(10, 111):
            parent = CodeSpec(k + 5, k)
            diff = partitioned_plr(split(parent), ch).plr - analytic_plr(parent, ch).plr
            if diff < 0:
                negatives.append((p_e, k, diff))
    print(f"zero-excess penalty sign: {len(negatives)} negative cells of 303")
    for cell in negatives:
        print("  unexpected negative penalty:", cell)


def test_decoder_failure_losses_equal_erased_sources():
    # the Monte-Carlo driver counts unrecoverable patterns from the erasure
    # mask; this pins that shortcut to what the decoder actually reports
    spec = CodeSpec(8, 5)
    gen = build_generator(spec)
    rng = np.random.default_rng(13)
    payloads = [rng.integers(0, 256, 4, dtype=np.uint8).tobytes() for _ in range(5)]
    coded = encode(gen, PacketBlock.source(spec, payloads))
    for count in range(spec.p + 1, spec.n + 1):
        for pattern in itertools.combinations(range(spec.n), count):
            with pytest.raises(UnrecoverableBlockError) as exc_info:
                decode(gen, coded.erase(pattern))
            expected = tuple(i for i in pattern if i < spec.k)
            assert exc_info.value.lost_source_indices == expected
