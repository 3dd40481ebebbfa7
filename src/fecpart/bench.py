"""Timing harness for encode/decode cost with and without partitioning.

Measures wall time per operation over a sweep of block lengths, reporting
median and median absolute deviation (scheduler noise on small boards is
heavy-tailed, so means mislead).  The points of one sweep are timed
round-robin, so they share the machine's state.  Timed regions cover the
codec call only: generator construction, payload allocation and RNG all
happen outside.
Decode is timed in its worst case, with every erasure hitting a source
packet so the decoder must invert and reconstruct.

The isolated "invert" phase times exactly the matrix-inversion step the
decoder performs for that worst case (building and inverting the reduced
decoding matrix).  Comparisons should always be ratios of points from the
same run on the same machine; absolute milliseconds do not transfer.

Measurement is strictly single-threaded: time one process, one thread, and
nothing concurrent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .codec import (
    CodeSpec,
    PacketBlock,
    build_generator,
    decode,
    decoding_matrix,
    encode,
)
from .gf256 import mat_invert
from .partition import decode_partitioned, encode_partitioned, half_generators, split

WARMUP_ITERATIONS = 10

MODES = ("plain", "partitioned")
PHASES = ("encode", "decode", "invert")


@dataclass(frozen=True)
class BenchConfig:
    k_values: tuple
    parity: int = 8
    packet_size: int = 1500
    iterations: int = 100
    erased: int | None = None  # decode erasures; defaults to parity
    seed: int = 0

    def __post_init__(self):
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k_values must be a nonempty list of k >= 1")
        if self.parity < 1:
            raise ValueError("parity must be >= 1")
        if self.packet_size < 1:
            raise ValueError("packet_size must be >= 1")
        if self.iterations < 10:
            raise ValueError(f"iterations must be >= 10, got {self.iterations}")
        if self.erased is not None and not 0 <= self.erased <= self.parity:
            raise ValueError("erased must be between 0 and parity")

    @property
    def erasures(self) -> int:
        return self.parity if self.erased is None else self.erased


@dataclass(frozen=True)
class BenchPoint:
    k: int
    mode: str  # "plain" | "partitioned"
    phase: str  # "encode" | "decode" | "invert"
    median_ms: float
    mad_ms: float
    iterations: int
    packet_size: int
    parity: int


CSV_HEADER = "k,mode,phase,median_ms,mad_ms,iterations,packet_size,parity"


def to_csv(points) -> str:
    """Render bench points as CSV with the documented header."""
    lines = [CSV_HEADER]
    for pt in points:
        lines.append(
            f"{pt.k},{pt.mode},{pt.phase},{pt.median_ms:.6f},{pt.mad_ms:.6f},"
            f"{pt.iterations},{pt.packet_size},{pt.parity}"
        )
    return "\n".join(lines) + "\n"


def _measure(fns, iterations: int) -> list:
    """Median and MAD of per-call wall time, in ms, for each callable.

    After warm-up the callables are timed round-robin, one call each per
    round, so a drift in machine speed during the sweep moves every point
    alike rather than skewing the ratios between them.
    """
    for fn in fns:
        for _ in range(WARMUP_ITERATIONS):
            fn()
    samples = np.empty((len(fns), iterations))
    for i in range(iterations):
        for j, fn in enumerate(fns):
            start = time.perf_counter_ns()
            fn()
            samples[j, i] = time.perf_counter_ns() - start
    medians = np.median(samples, axis=1)
    mads = np.median(np.abs(samples - medians[:, None]), axis=1)
    return [(float(m) / 1e6, float(d) / 1e6) for m, d in zip(medians, mads)]


def _payloads(rng, k: int, size: int) -> list:
    return [rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(k)]


def _source_block(cfg: BenchConfig, spec: CodeSpec):
    rng = np.random.default_rng(cfg.seed)
    return PacketBlock.source(spec, _payloads(rng, spec.k, cfg.packet_size))


def _encode_call(cfg: BenchConfig, k: int, mode: str):
    spec = CodeSpec(k + cfg.parity, k)
    source = _source_block(cfg, spec)
    if mode == "plain":
        gen = build_generator(spec)
        return lambda: encode(gen, source)
    ps = split(spec)
    gens = half_generators(ps)
    return lambda: encode_partitioned(ps, source, gens)


def _erase_sources(block, count: int):
    # worst case for the decoder: every erasure hits a source packet
    return block.erase(range(count))


def _decode_call(cfg: BenchConfig, k: int, mode: str):
    spec = CodeSpec(k + cfg.parity, k)
    source = _source_block(cfg, spec)
    e = min(cfg.erasures, k)
    if mode == "plain":
        gen = build_generator(spec)
        rx = _erase_sources(encode(gen, source), e)
        return lambda: decode(gen, rx)
    ps = split(spec)
    gens = half_generators(ps)
    coded1, coded2 = encode_partitioned(ps, source, gens)
    rx1 = _erase_sources(coded1, min((e + 1) // 2, ps.first.k))
    rx2 = _erase_sources(coded2, min(e // 2, ps.second.k))
    return lambda: decode_partitioned(ps, (rx1, rx2), gens)


def _bench_sweep(cfg: BenchConfig, mode: str, phase: str, make_call) -> list:
    _check_mode(mode)
    fns = [make_call(cfg, k, mode) for k in cfg.k_values]
    return [
        BenchPoint(k, mode, phase, median, mad, cfg.iterations,
                   cfg.packet_size, cfg.parity)
        for k, (median, mad) in zip(cfg.k_values, _measure(fns, cfg.iterations))
    ]


def bench_encode(cfg: BenchConfig, mode: str) -> list:
    """Encode wall time per k, on fixed seeded payloads."""
    return _bench_sweep(cfg, mode, "encode", _encode_call)


def bench_decode(cfg: BenchConfig, mode: str) -> list:
    """Decode wall time per k with cfg.erasures source packets erased."""
    return _bench_sweep(cfg, mode, "decode", _decode_call)


def bench_invert(k: int, iterations: int, parity: int = 8,
                 mode: str = "plain") -> BenchPoint:
    """Isolated cost of the decoder's matrix-inversion step at block length k.

    Times building and inverting the reduced decoding matrix for the
    worst-case erasure pattern (as many source erasures as the code can
    repair); generator construction stays outside the timed region.  For
    the partitioned mode both halves' inversions are timed together, since
    a partitioned decode performs both.
    """
    _check_mode(mode)
    if iterations < 10:
        raise ValueError(f"iterations must be >= 10, got {iterations}")
    spec = CodeSpec(k + parity, k)
    if mode == "plain":
        gen = build_generator(spec)
        erased = range(min(parity, k))
        fn = lambda: mat_invert(decoding_matrix(gen, erased))
    else:
        ps = split(spec)
        g1, g2 = half_generators(ps)
        erased1 = range(min(ps.first.p, ps.first.k))
        erased2 = range(min(ps.second.p, ps.second.k))

        def fn():
            mat_invert(decoding_matrix(g1, erased1))
            mat_invert(decoding_matrix(g2, erased2))

    ((median, mad),) = _measure([fn], iterations)
    return BenchPoint(k, mode, "invert", median, mad, iterations, 0, parity)


def run_bench(cfg: BenchConfig, modes=MODES, phases=PHASES) -> list:
    """Full sweep over the requested modes and phases, in stable order."""
    points = []
    for mode in modes:
        _check_mode(mode)
        for phase in phases:
            if phase == "encode":
                points.extend(bench_encode(cfg, mode))
            elif phase == "decode":
                points.extend(bench_decode(cfg, mode))
            elif phase == "invert":
                points.extend(
                    bench_invert(k, cfg.iterations, cfg.parity, mode)
                    for k in cfg.k_values
                )
            else:
                raise ValueError(f"unknown phase {phase!r}")
    return points


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
