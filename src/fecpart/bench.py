"""Timing harness for encode/decode cost with and without partitioning.

Measures wall time per operation over a sweep of block lengths, reporting
median and median absolute deviation (scheduler noise on small boards is
heavy-tailed, so means mislead).  `run_bench` is the one entry point: it
builds each (mode, k) point once, then times every requested (mode, phase,
k) cell in one round-robin sweep, so all cells share the machine's state
and every phase of a point times calls on the same code, generators,
payload and erasures.  Timed regions cover the public codec call only
(`encode`/`decode` plain, `encode_partitioned`/`decode_partitioned`
partitioned); all building happens outside.  Decode is timed in its worst
case: as many erasures as the parent has parity, every one hitting a source
packet (dealt over the code's parts).  The payload bytes are fixed, since
they do not change the work.  The "invert" phase times, on those same
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

from .codec import CodeSpec, PacketBlock, _coefficients, decode, encode
from .partition import decode_partitioned, encode_partitioned, half_generators, split

WARMUP_ITERATIONS = 10

MODES = ("plain", "partitioned")
PHASES = ("encode", "decode", "invert")


@dataclass(frozen=True)
class BenchConfig:
    """A sweep: the block lengths k, each coded C(k + parity, k), plain or
    split, over packets of packet_size bytes, timed `iterations` times."""

    k_values: tuple
    parity: int = 8
    packet_size: int = 1500
    iterations: int = 100

    def __post_init__(self):
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k_values must be a nonempty list of k >= 1")
        if self.parity < 1:
            raise ValueError("parity must be >= 1")
        if self.packet_size < 1:
            raise ValueError("packet_size must be >= 1")
        if self.iterations < 10:
            raise ValueError(f"iterations must be >= 10, got {self.iterations}")


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


def _source_block(cfg: BenchConfig, spec: CodeSpec):
    # a fixed seed: the bytes never change the work, since mat_mul gathers
    # one table entry per MAC whatever they are and _coefficients reads only
    # the erasure mask
    rng = np.random.default_rng(0)
    payloads = [rng.integers(0, 256, cfg.packet_size, dtype=np.uint8).tobytes()
                for _ in range(spec.k)]
    return PacketBlock.source(spec, payloads)


def _code(cfg: BenchConfig, k: int, mode: str):
    # a point's parent code C(k + parity, k) and the code its mode runs: the
    # parent itself, or its split
    spec = CodeSpec(k + cfg.parity, k)
    return spec, spec if mode == "plain" else split(spec)


def _worst_case(cfg: BenchConfig, code) -> tuple:
    # all `parity` erasures hit source packets: they are dealt over the
    # parts first part first, part j of m taking (e+m-1-j)//m, capped at its
    # k; each part loses the sources in its first that many slots
    e, m = cfg.parity, len(code.parts)
    return tuple(min((e + m - 1 - j) // m, part.k) for j, part in enumerate(code.parts))


def _point(cfg: BenchConfig, k: int, mode: str) -> dict:
    # the timed call of each phase at one (mode, k) point, all on one code,
    # one generator per part, one payload and one worst-case erasure set
    spec, code = _code(cfg, k, mode)
    gens = half_generators(code)
    source = _source_block(cfg, spec)
    lost = _worst_case(cfg, code)
    if mode == "plain":
        (gen,) = gens
        rx = encode(gen, source).erase(range(lost[0]))
        calls = {"encode": lambda: encode(gen, source), "decode": lambda: decode(gen, rx)}
    else:
        coded = encode_partitioned(code, source, gens)
        received = tuple(block.erase(range(e)) for block, e in zip(coded, lost, strict=True))
        calls = {"encode": lambda: encode_partitioned(code, source, gens),
                 "decode": lambda: decode_partitioned(code, received, gens)}
    # invert: the coefficient step of each part's decode, on its one-row
    # erasure mask; a part that loses no source takes decode's fast path
    solves = [(gen, np.arange(part.n)[None] < e, e)
              for part, gen, e in zip(code.parts, gens, lost, strict=True) if e]

    def invert():
        for solve in solves:
            _coefficients(*solve)

    return {**calls, "invert": invert}


def _check_codes(cfg: BenchConfig, modes) -> None:
    # every (mode, k) cell's code must exist: C(k + parity, k), and its
    # split in partitioned mode; one ValueError names every k that fails
    bad, reason = [], None
    for k in cfg.k_values:
        try:
            for mode in modes:
                _code(cfg, k, mode)
        except ValueError as exc:
            bad.append(k)
            reason = reason or exc
    if bad:
        raise ValueError(f"cannot bench k={bad} with parity {cfg.parity}: {reason}")


def run_bench(cfg: BenchConfig, modes=MODES, phases=PHASES) -> list:
    """Time every requested (mode, phase, k) point in one round-robin sweep.

    All points share the machine's state, so ratios between any two of them
    (partitioned vs plain, invert vs decode) are taken under the same
    conditions.  Points come out ordered by mode, then phase, then k;
    invert points report packet_size 0, since they touch no payload.

    Raises ValueError, before anything is built or timed, for an unknown
    mode or phase and for k values whose code does not exist: n = k +
    parity above 255, or, in partitioned mode, no split (k = 1 or parity 1).
    """
    for kind, names, known in (("mode", modes, MODES), ("phase", phases, PHASES)):
        for name in names:
            if name not in known:
                raise ValueError(f"unknown {kind} {name!r}")
    _check_codes(cfg, modes)
    built = {(mode, k): _point(cfg, k, mode) for mode in modes for k in cfg.k_values}
    cells = [(mode, phase, k) for mode in modes for phase in phases for k in cfg.k_values]
    fns = [built[mode, k][phase] for mode, phase, k in cells]
    return [
        BenchPoint(k, mode, phase, median, mad, cfg.iterations,
                   0 if phase == "invert" else cfg.packet_size, cfg.parity)
        for (mode, phase, k), (median, mad) in zip(cells, _measure(fns, cfg.iterations))
    ]
