"""Timing harness: configuration, CSV shape, payload determinism.

Comparative timing claims (halving, inversion negligibility) live in the
acceptance suite; here we only exercise the machinery at toy sizes.
"""

import pytest

from fecpart.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchPoint,
    run_bench,
    to_csv,
    _source_block,
)
from fecpart.codec import CodeSpec

TINY = dict(parity=4, packet_size=64, iterations=10)


def test_config_validation():
    BenchConfig(k_values=(10,), **TINY)
    with pytest.raises(ValueError):
        BenchConfig(k_values=(), **TINY)
    with pytest.raises(ValueError):
        BenchConfig(k_values=(10,), parity=4, packet_size=64, iterations=0)
    with pytest.raises(ValueError):
        BenchConfig(k_values=(10,), parity=4, packet_size=64, iterations=10, erased=5)
    with pytest.raises(ValueError):
        BenchConfig(k_values=(0,), **TINY)


def test_erasures_default_to_parity():
    cfg = BenchConfig(k_values=(10,), **TINY)
    assert cfg.erasures == 4
    cfg = BenchConfig(k_values=(10,), parity=4, packet_size=64, iterations=10, erased=2)
    assert cfg.erasures == 2


def test_same_seed_gives_identical_payloads():
    cfg = BenchConfig(k_values=(10,), **TINY, seed=5)
    spec = CodeSpec(14, 10)
    a = _source_block(cfg, spec)
    b = _source_block(cfg, spec)
    assert a.packets == b.packets
    other = BenchConfig(k_values=(10,), **TINY, seed=6)
    assert _source_block(other, spec).packets != a.packets


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
    base = dict(k_values=(50,), parity=8, packet_size=1500, iterations=20)
    (erased,) = run_bench(BenchConfig(**base), modes=("plain",), phases=("decode",))
    (clean,) = run_bench(BenchConfig(**base, erased=0), modes=("plain",), phases=("decode",))
    assert clean.median_ms <= 0.5 * erased.median_ms


def test_csv_header_and_shape():
    assert CSV_HEADER == "k,mode,phase,median_ms,mad_ms,iterations,packet_size,parity"
    pt = BenchPoint(10, "plain", "encode", 1.25, 0.5, 10, 64, 4)
    text = to_csv([pt])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "10,plain,encode,1.250000,0.500000,10,64,4"
    assert text.endswith("\n")
