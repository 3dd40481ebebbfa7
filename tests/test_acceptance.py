"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The PASS/FAIL lines print to the terminal as the criteria execute, also
under pytest's default output capture.  Comparative timing criteria are
ratios measured within a single test on the same machine; absolute
milliseconds are never asserted.
"""

import itertools

import numpy as np
import pytest

from fecpart.bench import BenchConfig, run_bench
from fecpart.cli import main
from fecpart.codec import (
    CodeSpec,
    PacketBlock,
    UnrecoverableBlockError,
    _coefficients,
    build_generator,
    decode,
    encode,
    mac_counter,
)
from fecpart.gf256 import SingularMatrixError, identity, mat_invert, mat_mul
from fecpart.lossmodel import (
    BecChannel,
    analytic_plr,
    brute_force_plr,
    monte_carlo_plr,
    partitioned_plr,
)
from fecpart.partition import encode_partitioned, half_generators, split
from fecpart.planner import distribute_excess

from fig2_golden import FIG2_K_RANGE, FIG2_PE_VALUES, expected_excess


@pytest.fixture
def report(capsys):
    # the per-criterion PASS/FAIL line must reach the terminal even when
    # pytest captures test output
    def _report(num, name, ok, detail=""):
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
        return ok

    return _report


def all_specs_up_to(n_max):
    return [CodeSpec(n, k) for n in range(2, n_max + 1) for k in range(1, n)]


def test_criterion_1_table1_reproduction(capsys, report):
    code = main(["reproduce", "table1"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    expected = [
        "k,0.01,0.03,0.05,0.07,0.09,0.1",
        "40,44,48,50,53,55,56",
        "80,86,91,95,98,102,104",
    ]
    ok = code == 0 and lines == expected
    report(1, "table1 reproduction (integer-exact)", ok, f"exit={code}")
    assert ok, lines


def test_criterion_2_formula_vs_oracle_equivalence(report):
    channels = [BecChannel(pe) for pe in (0.01, 0.1, 0.3, 0.5)]
    worst_plain = 0.0
    for spec in all_specs_up_to(12):
        for ch in channels:
            diff = abs(analytic_plr(spec, ch).plr - brute_force_plr(spec, ch).plr)
            worst_plain = max(worst_plain, diff)

    partitions = {}
    for n in range(3, 14):
        for k in range(1, n):
            for excess in range(4):
                try:
                    ps = split(CodeSpec(n, k), excess)
                except ValueError:
                    continue
                if ps.first.n + ps.second.n <= 14:
                    key = (ps.first.n, ps.first.k, ps.second.n, ps.second.k)
                    partitions.setdefault(key, ps)
    worst_part = 0.0
    for ps in partitions.values():
        for ch in channels:
            diff = abs(partitioned_plr(ps, ch).plr - brute_force_plr(ps, ch).plr)
            worst_part = max(worst_part, diff)

    ok = worst_plain <= 1e-12 and worst_part <= 1e-12
    report(2, "formula equals enumeration oracle",
           ok, f"worst plain {worst_plain:.2e}, partitioned {worst_part:.2e} "
               f"over {len(partitions)} partitions; tol 1e-12")
    assert ok


def test_criterion_3_codec_roundtrip_property(report):
    rng = np.random.default_rng(2024)
    checked = 0
    for spec in all_specs_up_to(12):
        gen = build_generator(spec)
        payloads = [rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
                    for _ in range(spec.k)]
        coded = encode(gen, PacketBlock.source(spec, payloads))
        for count in range(spec.n + 1):
            for pattern in itertools.combinations(range(spec.n), count):
                checked += 1
                if spec.n - count >= spec.k:
                    assert decode(gen, coded.erase(pattern)) == payloads, (spec, pattern)
                else:
                    with pytest.raises(UnrecoverableBlockError):
                        decode(gen, coded.erase(pattern))

    big = CodeSpec(120, 100)
    gen = build_generator(big)
    payloads = [rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
                for _ in range(big.k)]
    coded = encode(gen, PacketBlock.source(big, payloads))
    for _ in range(1000):
        count = int(rng.integers(1, big.p + 1))
        pattern = rng.choice(big.n, size=count, replace=False).tolist()
        assert decode(gen, coded.erase(pattern)) == payloads, pattern

    report(3, "codec round-trip/failure property",
           True, f"{checked} exhaustive patterns (n<=12) + 1000 random on C(120,100)")


def test_criterion_4_mds_property(report):
    # every k-row submatrix of every code with n <= 12, inverted in full as
    # one batch per code
    for spec in all_specs_up_to(12):
        gen = build_generator(spec)
        rows = np.array(list(itertools.combinations(range(spec.n), spec.k)))
        try:
            mat_invert(gen.matrix[rows])
        except SingularMatrixError as err:
            report(4, "every k-row submatrix invertible", False, f"{spec}: {err}")
            raise

    # A k-row set R of a systematic generator is invertible exactly when the
    # decoder's e x e block B = G[P, E] is: R's identity rows fix its kept
    # sources, which leaves R's parity rows P on the e missing source columns
    # E.  The decoder's coefficients D = _coefficients(gen, <mask of the
    # slots not in R>, e) read P through their last e columns, D[:, P],
    # which must hold B's inverse, so D[:, P] B = I proves B invertible.
    # The first 10 samples are also inverted in full, as identity-heavy
    # 200 x 200 matrices.
    big = CodeSpec(255, 200)
    gen = build_generator(big)
    rng = np.random.default_rng(99)
    for i in range(1000):
        rows = np.sort(rng.choice(big.n, size=big.k, replace=False))
        parity, lost = rows[rows >= big.k], np.setdiff1d(np.arange(big.k), rows)
        erased = np.ones((1, big.n), dtype=bool)
        erased[0, rows] = False
        d = _coefficients(gen, erased, len(lost))[2][0]
        try:
            if i < 10:
                mat_invert(gen.matrix[rows])
            product = mat_mul(d[:, big.k - len(parity):], gen.matrix[parity][:, lost])
            assert np.array_equal(product, identity(len(lost))), "D[:, P] G[P, E] != I"
        except (SingularMatrixError, AssertionError):
            report(4, "every k-row submatrix invertible", False, f"sample {i}")
            raise

    report(4, "every k-row submatrix invertible",
           True, "exhaustive n<=12 + 1000 random on C(255,200)")


def test_criterion_5_monte_carlo_consistency(report):
    spec = CodeSpec(44, 40)
    ch = BecChannel(0.1)
    rep = monte_carlo_plr(spec, ch, trials=1_000_000, seed=20260808)
    exact = analytic_plr(spec, ch).plr
    diff = abs(rep.plr - exact)
    ok = diff <= 3 * rep.half_width
    report(5, "monte-carlo within 3 half-widths",
           ok, f"|{rep.plr:.6f} - {exact:.6f}| = {diff:.2e} vs {3 * rep.half_width:.2e}")
    assert ok


def test_criterion_6_complexity_halving(report):
    cfg = BenchConfig(k_values=(100,), parity=8, packet_size=1500, iterations=100)
    # both modes of a phase are timed in one interleaved sweep
    median = {(pt.mode, pt.phase): pt.median_ms
              for pt in run_bench(cfg, phases=("encode", "decode"))}
    enc_ratio = median["partitioned", "encode"] / median["plain", "encode"]
    dec_ratio = median["partitioned", "decode"] / median["plain", "decode"]
    ok = enc_ratio <= 0.6 and dec_ratio <= 0.6
    report(6, "partitioning halves encode/decode time",
           ok, f"encode ratio {enc_ratio:.3f}, decode ratio {dec_ratio:.3f}, bound 0.6")
    assert ok


def test_criterion_7_inversion_negligible(report):
    cfg = BenchConfig(k_values=(100,), parity=8, packet_size=1500, iterations=100)
    # decode and its isolated inversion are timed in one interleaved sweep
    decode, invert = run_bench(cfg, modes=("plain",), phases=("decode", "invert"))
    decode_ms, invert_ms = decode.median_ms, invert.median_ms
    ratio = invert_ms / decode_ms
    ok = ratio <= 0.10
    report(7, "isolated inversion <= 10% of decode",
           ok, f"invert {invert_ms:.3f} ms / decode {decode_ms:.3f} ms = {ratio:.3f}")
    assert ok


def test_criterion_8_excess_distribution_grid(report):
    delta = 0.001
    grid = {}
    for pe in FIG2_PE_VALUES:
        ch = BecChannel(pe)
        for k in FIG2_K_RANGE:
            grid[(pe, k)] = distribute_excess(CodeSpec(k + 5, k), ch, delta).excess
    zeros = sum(1 for x in grid.values() if x == 0)
    majority_zero = zeros > len(grid) / 2
    matches_golden = all(
        excess == expected_excess(pe, k) for (pe, k), excess in grid.items()
    )
    ok = majority_zero and matches_golden
    report(8, "excess grid: majority zero + golden match",
           ok, f"{zeros}/{len(grid)} cells need no excess; golden={'ok' if matches_golden else 'DRIFT'}")
    assert ok


def test_criterion_9_mac_accounting(report):
    rng = np.random.default_rng(5)
    results = []
    for n, k in ((108, 100), (48, 40), (14, 9)):
        spec = CodeSpec(n, k)
        gen = build_generator(spec)
        payloads = [rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
                    for _ in range(k)]
        source = PacketBlock.source(spec, payloads)
        mac_counter.reset()
        encode(gen, source)
        plain_ok = mac_counter.per_byte == spec.p * spec.k
        results.append(plain_ok)

        ps = split(spec, excess=1)
        gens = half_generators(ps)
        mac_counter.reset()
        encode_partitioned(ps, source, gens)
        part_ok = (
            mac_counter.per_byte
            == ps.first.p * ps.first.k + ps.second.p * ps.second.k
        )
        results.append(part_ok)
    ok = all(results)
    report(9, "encode MACs are exactly p*k and p1k1+p2k2", ok)
    assert ok
