"""Timing harness: configuration, CSV shape, the erasures each phase times.

Comparative timing claims (halving, inversion negligibility) live in the
acceptance suite; here we only exercise the machinery at toy sizes.
"""

import dataclasses
import re

import numpy as np
import pytest

import fecpart.bench as bench_mod
from fecpart.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchPoint,
    run_bench,
    to_csv,
)
from fecpart.codec import CodeSpec, build_generator, decode, encode

TINY = dict(parity=4, packet_size=64, iterations=10)


def test_config_validation():
    # only settings that change the timings: the payload bytes never do
    assert [f.name for f in dataclasses.fields(BenchConfig)] == [
        "k_values", "parity", "packet_size", "iterations"]
    BenchConfig(k_values=(10,), **TINY)
    with pytest.raises(ValueError):
        BenchConfig(k_values=(), **TINY)
    with pytest.raises(ValueError):
        BenchConfig(k_values=(10,), parity=4, packet_size=64, iterations=0)
    with pytest.raises(ValueError):
        BenchConfig(k_values=(0,), **TINY)


def test_bench_encode_points():
    cfg = BenchConfig(k_values=(8, 12), **TINY)
    points = run_bench(cfg, modes=("plain",), phases=("encode",))
    assert [pt.k for pt in points] == [8, 12]
    for pt in points:
        assert pt.phase == "encode" and pt.mode == "plain"
        assert pt.median_ms > 0
        assert pt.mad_ms >= 0
        assert (pt.iterations, pt.packet_size, pt.parity) == (10, 64, 4)


def test_bench_decode_modes():
    cfg = BenchConfig(k_values=(8,), **TINY)
    points = run_bench(cfg, phases=("decode",))
    assert [pt.mode for pt in points] == ["plain", "partitioned"]
    for pt in points:
        assert pt.phase == "decode"
        assert pt.median_ms > 0


def test_bench_rejects_unknown_mode():
    cfg = BenchConfig(k_values=(8,), **TINY)
    with pytest.raises(ValueError):
        run_bench(cfg, modes=("turbo",))
    with pytest.raises(ValueError):
        run_bench(cfg, phases=("transcode",))


def test_run_bench_refuses_codes_it_cannot_build(monkeypatch):
    # every cell's code is checked before any point is built: no split at
    # parity 1 or k = 1, no code longer than 255; one error names every k
    def no_point(cfg, k, mode):
        raise AssertionError("a point was built")

    monkeypatch.setattr(bench_mod, "_point", no_point)
    for modes, k_values, parity, bad in [
        (("plain", "partitioned"), (1, 2, 8), 1, "k=[1, 2, 8]"),
        (("partitioned",), (1, 8, 9), 4, "k=[1]"),
        (("plain",), (200, 247, 248, 250), 8, "k=[248, 250]"),
    ]:
        cfg = BenchConfig(k_values=k_values, parity=parity, packet_size=64, iterations=10)
        with pytest.raises(ValueError, match=re.escape(f"{bad} with parity {parity}")):
            run_bench(cfg, modes=modes)
    # the plain mode needs no split, so parity 1 and k = 1 are fine there
    monkeypatch.undo()
    cfg = BenchConfig(k_values=(1, 2), parity=1, packet_size=64, iterations=10)
    assert len(run_bench(cfg, modes=("plain",), phases=("encode",))) == 2


def test_bench_invert_point():
    cfg = BenchConfig(k_values=(8,), **TINY)
    pt, part = run_bench(cfg, phases=("invert",))
    assert pt.phase == "invert" and pt.mode == "plain"
    assert pt.median_ms > 0
    assert pt.packet_size == 0
    assert part.mode == "partitioned" and part.packet_size == 0


def test_bench_invert_k_equal_one():
    cfg = BenchConfig(k_values=(1,), **TINY)
    (pt,) = run_bench(cfg, modes=("plain",), phases=("invert",))
    assert pt.median_ms > 0


@pytest.mark.parametrize("erased", [None])
def test_invert_phase_solves_the_decode_phase_erasures(monkeypatch, erased):
    # the invert phase times the coefficient step of every decode the decode
    # phase runs, on the same erased slots
    cfg = BenchConfig(k_values=(8,), **TINY)
    solved, received = set(), set()
    real_coefficients = bench_mod._coefficients

    def record(gen, mask, e):
        solved.add((gen.spec, tuple(np.flatnonzero(mask[0]).tolist())))
        return real_coefficients(gen, mask, e)

    def seen(blocks):
        received.update((rx.spec, tuple(rx.missing_indices)) for rx in blocks if rx.missing_indices)

    monkeypatch.setattr(bench_mod, "_coefficients", record)
    monkeypatch.setattr(bench_mod, "decode", lambda gen, rx: seen([rx]))
    monkeypatch.setattr(bench_mod, "decode_partitioned", lambda code, blocks, gens: seen(blocks))
    run_bench(cfg, phases=("decode", "invert"))
    assert solved and solved == received
    # each part loses min(p, k) sources, as many as it repairs
    assert {(spec, len(slots)) for spec, slots in solved} == {
        (CodeSpec(12, 8), 4), (CodeSpec(6, 4), 2)}


def test_each_point_is_built_once(monkeypatch):
    # one generator set per (mode, k) point, shared by all three phases
    built = []
    real_half_generators = bench_mod.half_generators

    def count(code):
        built.append(code)
        return real_half_generators(code)

    monkeypatch.setattr(bench_mod, "half_generators", count)
    run_bench(BenchConfig(k_values=(8, 12), **TINY))
    assert len(built) == 4


def test_run_bench_grid_size():
    cfg = BenchConfig(k_values=(8, 12), **TINY)
    points = run_bench(cfg, modes=("plain", "partitioned"), phases=("encode",))
    assert len(points) == 4
    points = run_bench(cfg)  # both modes, all three phases
    assert len(points) == 12


def test_encode_time_linear_in_k():
    # doubling k at fixed parity should double the median, give or take 30%
    cfg = BenchConfig(k_values=(40, 80), parity=8, packet_size=1500, iterations=20)
    small, large = run_bench(cfg, modes=("plain",), phases=("encode",))
    ratio = large.median_ms / small.median_ms
    assert 1.4 <= ratio <= 2.6, ratio


def test_decode_within_twice_encode():
    cfg = BenchConfig(k_values=(50,), parity=8, packet_size=1500, iterations=20)
    enc, dec = run_bench(cfg, modes=("plain",), phases=("encode", "decode"))
    assert dec.median_ms <= 2 * enc.median_ms


def test_decode_fast_path_is_much_cheaper():
    # a block that lost no source decodes on the fast path, well under the
    # bench's worst-case decode of the same code and payload
    cfg = BenchConfig(k_values=(50,), parity=8, packet_size=1500, iterations=20)
    spec = CodeSpec(58, 50)
    gen = build_generator(spec)
    clean = encode(gen, bench_mod._source_block(cfg, spec))
    (erased, _), (fast, _) = bench_mod._measure(
        [bench_mod._point(cfg, 50, "plain")["decode"], lambda: decode(gen, clean)],
        cfg.iterations)
    assert fast <= 0.5 * erased


def test_csv_header_and_shape():
    assert CSV_HEADER == "k,mode,phase,median_ms,mad_ms,iterations,packet_size,parity"
    pt = BenchPoint(10, "plain", "encode", 1.25, 0.5, 10, 64, 4)
    text = to_csv([pt])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "10,plain,encode,1.250000,0.500000,10,64,4"
    assert text.endswith("\n")
