"""Timing harness for encode/decode cost with and without partitioning.

Measures wall time per operation over a sweep of block lengths, reporting
median and median absolute deviation (scheduler noise on small boards is
heavy-tailed, so means mislead).  `run_bench` is the one entry point: it
times every requested (mode, phase, k) point in one round-robin sweep, so
all points share the machine's state.  Timed regions cover the public codec
call only (`encode`/`decode` plain, `encode_partitioned`/
`decode_partitioned` partitioned): generator construction, payload
allocation and RNG all happen outside.
Decode is timed in its worst case, every erasure hitting a source packet
(dealt over the code's parts).  The "invert" phase times, on those same
erasures, the decoder's closed-form stand-in for an inversion: the step
`codec._coefficients` of each part that loses a source, touching no
payload.  Compare only ratios of points from one run on one machine.

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
    _coefficients,
    build_generator,
    decode,
    encode,
)
from .partition import decode_partitioned, encode_partitioned, split

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


def _code(cfg: BenchConfig, k: int, mode: str):
    # one point's parent code, the code its mode runs, and one generator per part
    spec = CodeSpec(k + cfg.parity, k)
    code = spec if mode == "plain" else split(spec)
    return spec, code, tuple(build_generator(part) for part in code.parts)


def _encode_call(cfg: BenchConfig, k: int, mode: str):
    spec, code, gens = _code(cfg, k, mode)
    source = _source_block(cfg, spec)
    if mode == "plain":
        (gen,) = gens
        return lambda: encode(gen, source)
    return lambda: encode_partitioned(code, source, gens)


def _worst_case(cfg: BenchConfig, code) -> tuple:
    # every erasure hits a source packet: the erasures are dealt over the
    # parts first part first, part j of m taking (e+m-1-j)//m, capped at its
    # k; each part loses the sources in its first that many slots
    e, m = cfg.erasures, len(code.parts)
    return tuple(min((e + m - 1 - j) // m, part.k) for j, part in enumerate(code.parts))


def _decode_call(cfg: BenchConfig, k: int, mode: str):
    spec, code, gens = _code(cfg, k, mode)
    source = _source_block(cfg, spec)
    lost = _worst_case(cfg, code)
    if mode == "plain":
        (gen,) = gens
        rx = encode(gen, source).erase(range(lost[0]))
        return lambda: decode(gen, rx)
    coded = encode_partitioned(code, source, gens)
    received = tuple(block.erase(range(e)) for block, e in zip(coded, lost, strict=True))
    return lambda: decode_partitioned(code, received, gens)


def _invert_call(cfg: BenchConfig, k: int, mode: str):
    # the coefficient step of each part's decode, on its one-row erasure
    # mask; a part that loses no source takes decode's fast path and no step
    _, code, gens = _code(cfg, k, mode)
    lost = _worst_case(cfg, code)
    solves = [(gen, np.arange(part.n)[None] < e, e)
              for part, gen, e in zip(code.parts, gens, lost, strict=True) if e]

    def fn():
        for solve in solves:
            _coefficients(*solve)

    return fn


_CALLS = {"encode": _encode_call, "decode": _decode_call, "invert": _invert_call}


def run_bench(cfg: BenchConfig, modes=MODES, phases=PHASES) -> list:
    """Time every requested (mode, phase, k) point in one round-robin sweep.

    All points share the machine's state, so ratios between any two of them
    (partitioned vs plain, invert vs decode) are taken under the same
    conditions.  Points come out ordered by mode, then phase, then k;
    invert points report packet_size 0, since they touch no payload.
    """
    for kind, names, known in (("mode", modes, MODES), ("phase", phases, PHASES)):
        for name in names:
            if name not in known:
                raise ValueError(f"unknown {kind} {name!r}")
    cells = [(mode, phase, k) for mode in modes for phase in phases for k in cfg.k_values]
    fns = [_CALLS[phase](cfg, k, mode) for mode, phase, k in cells]
    return [
        BenchPoint(k, mode, phase, median, mad, cfg.iterations,
                   0 if phase == "invert" else cfg.packet_size, cfg.parity)
        for (mode, phase, k), (median, mad) in zip(cells, _measure(fns, cfg.iterations))
    ]
