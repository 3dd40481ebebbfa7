"""Residual packet-loss-rate model for MDS codes on a binary erasure channel.

For a C(n, k) code on a BEC, decoding fails exactly when more than p = n - k
packets are erased, in which case the erased source packets (and only those)
stay lost.  The analytic model gives the distribution of the number of lost
source packets per block: the recoverable region contributes all its mass to
zero, and for i >= 1 lost sources the erasure count e must lie in
max(p+1, i) <= e <= p+i, with the i losses placed among the k source
positions hypergeometrically.  The residual PLR is the mean of that
distribution divided by k.

Every code is a tuple of independent parts (`code.parts`): a plain code is
its own one part, a partitioned code its two halves.  Expected losses add
over the parts, so a partitioned code's PLR is the parts' PLRs weighted by
their k; its loss distribution, the convolution of the parts', is needed
only where a distribution is reported.

Two independent validation paths live alongside the formulas: exact
brute-force enumeration of every erasure pattern (small n), and a seeded
Monte-Carlo driver that pushes real packets through the actual codec, part
by part.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import CodeSpec, PacketBlock, build_generator, decode, encode
from .partition import PartitionSpec
# not called here; perfbench/tracing.py wraps these names on this module
from .partition import decode_partitioned, encode_partitioned, half_generators  # noqa: F401

BRUTE_FORCE_MAX_N = 24
_LOG_SPACE_THRESHOLD = 60
# rows (patterns or trials) per vectorised step, so memory stays flat
_CHUNK = 1 << 16


@dataclass(frozen=True)
class BecChannel:
    """Memoryless channel erasing each packet independently with prob p_e."""

    p_e: float

    def __post_init__(self):
        if not 0.0 <= self.p_e <= 1.0:
            raise ValueError(f"erasure probability must be in [0, 1], got {self.p_e}")


@dataclass(frozen=True)
class LossPmf:
    """Distribution of the number of lost source packets in one block."""

    code: object  # CodeSpec or PartitionSpec
    probabilities: np.ndarray  # index i = P(exactly i source packets lost)

    def __post_init__(self):
        probs = self.probabilities
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @property
    def mean(self) -> float:
        return float(np.arange(len(self.probabilities)) @ self.probabilities)


@dataclass(frozen=True)
class PlrReport:
    """A residual packet loss rate and how it was obtained."""

    plr: float
    method: str  # "analytic" | "brute_force" | "monte_carlo"
    trials: int | None = None
    half_width: float | None = None  # 95% CI half-width (monte_carlo only)

    def __post_init__(self):
        if not 0.0 <= self.plr <= 1.0:
            raise ValueError(f"PLR must be in [0, 1], got {self.plr}")


def binomial_pmf(n: int, e: int, ch: BecChannel) -> float:
    """P(exactly e erasures among n packets)."""
    if not 0 <= e <= n:
        raise ValueError(f"need 0 <= e <= n, got e={e} n={n}")
    p = ch.p_e
    if p == 0.0:
        return 1.0 if e == 0 else 0.0
    if p == 1.0:
        return 1.0 if e == n else 0.0
    if n <= _LOG_SPACE_THRESHOLD:
        return math.comb(n, e) * p**e * (1.0 - p) ** (n - e)
    # log space: the direct product underflows long before the mass does
    log_comb = math.lgamma(n + 1) - math.lgamma(e + 1) - math.lgamma(n - e + 1)
    return math.exp(log_comb + e * math.log(p) + (n - e) * math.log1p(-p))


def loss_pmf(spec: CodeSpec, ch: BecChannel) -> LossPmf:
    """Distribution of lost source packets for a plain C(n, k) code."""
    n, k, p = spec.n, spec.k, spec.p
    probs = np.zeros(k + 1)
    probs[0] = sum(binomial_pmf(n, e, ch) for e in range(p + 1))
    for i in range(1, k + 1):
        total = 0.0
        for e in range(max(p + 1, i), p + i + 1):
            hyper = math.comb(k, i) * math.comb(p, e - i) / math.comb(n, e)
            total += binomial_pmf(n, e, ch) * hyper
        probs[i] = total
    return LossPmf(spec, probs)


def partitioned_loss_pmf(ps: PartitionSpec, ch: BecChannel) -> LossPmf:
    """Distribution of lost source packets for a partitioned code.

    The parts fail independently, so the joint loss count is the
    convolution of the per-part distributions (np.convolve applies exactly
    the per-part support bounds).
    """
    pmfs = (loss_pmf(part, ch).probabilities for part in ps.parts)
    return LossPmf(ps, functools.reduce(np.convolve, pmfs))


def analytic_plr(spec: CodeSpec, ch: BecChannel) -> PlrReport:
    """Residual PLR of a plain code: E[lost sources] / k."""
    return PlrReport(plr=loss_pmf(spec, ch).mean / spec.k, method="analytic")


def partitioned_plr(ps: PartitionSpec, ch: BecChannel) -> PlrReport:
    """Residual PLR of a partitioned code, normalized by the parent k.

    Expected losses add over the independent parts, so this is the parts'
    PLRs weighted by their k: (k1*PLR1 + k2*PLR2) / k.
    """
    lost = sum(part.k * analytic_plr(part, ch).plr for part in ps.parts)
    return PlrReport(plr=lost / ps.parent.k, method="analytic")


def _pattern_weights(erasures: np.ndarray, n: int, p_e: float) -> np.ndarray:
    if p_e == 0.0:
        return (erasures == 0).astype(np.float64)
    if p_e == 1.0:
        return (erasures == n).astype(np.float64)
    return p_e**erasures * (1.0 - p_e) ** (n - erasures.astype(np.float64))


def brute_force_plr(code, ch: BecChannel) -> PlrReport:
    """Exact residual PLR by enumerating every erasure pattern.

    Independent of the analytic formulas: each pattern is weighted by
    p_e^e (1-p_e)^(n-e) and a part with fewer than its k survivors loses
    exactly its erased source packets.  Only feasible for total n <= 24.
    """
    parts = code.parts
    n_total = sum(part.n for part in parts)
    if n_total > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"total n={n_total} exceeds enumeration bound {BRUTE_FORCE_MAX_N}"
        )

    expected = 0.0
    for start in range(0, 1 << n_total, _CHUNK):
        patterns = np.arange(start, min(start + _CHUNK, 1 << n_total), dtype=np.uint32)
        lost = np.zeros(patterns.shape, dtype=np.int64)
        shift = 0
        for part in parts:
            bits = (patterns >> shift) & np.uint32((1 << part.n) - 1)
            e_part = np.bitwise_count(bits)
            src_losses = np.bitwise_count(bits & np.uint32((1 << part.k) - 1))
            lost += np.where(e_part > part.p, src_losses, 0)
            shift += part.n
        erasures = np.bitwise_count(patterns)
        expected += float(_pattern_weights(erasures, n_total, ch.p_e) @ lost)
    return PlrReport(plr=expected / sum(part.k for part in parts), method="brute_force")


def _random_payloads(rng, count: int, size: int = 4) -> tuple:
    return tuple(rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(count))


def _verify_patterns(part: CodeSpec, packed: np.ndarray, rng) -> None:
    # decode each packed erasure row of this part once and check the payloads
    gen = build_generator(part)
    payloads = _random_payloads(rng, part.k)
    coded = encode(gen, PacketBlock.source(part, payloads))
    for row in np.unpackbits(packed, axis=1, count=part.n):
        idx = np.flatnonzero(row).tolist()
        if decode(gen, coded.erase(idx)) != list(payloads):
            raise AssertionError(f"decode of {part} corrupted data for pattern {idx}")


def monte_carlo_plr(code, ch: BecChannel, trials: int, seed: int) -> PlrReport:
    """Empirical residual PLR from seeded simulation through the real codec.

    Each trial erases each of the code's packets (all parts, in order)
    independently; the draws come from one seeded generator in fixed
    chunks of trials, so memory does not grow with the trial count and
    results do not depend on the chunking.  A part whose erasures exceed
    its parity loses exactly its erased source packets, the same set the
    decoder's error reports (that equivalence is unit-tested); counting
    those from the mask keeps million-trial runs affordable.  Every
    *distinct* erasure pattern of a part that the part can recover and
    that hits its sources is decoded once through the actual encoder and
    decoder, and the recovered payloads are verified.

    Reports the mean per-trial loss fraction and the 95%
    normal-approximation half-width of that mean.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    parts = code.parts
    width = sum(part.n for part in parts)
    # per part: its distinct recoverable, source-hitting patterns, bit-packed
    distinct = [np.zeros((0, (part.n + 7) // 8), dtype=np.uint8) for part in parts]
    lost_sum = lost_squares = 0
    for start in range(0, trials, _CHUNK):
        masks = rng.random((min(_CHUNK, trials - start), width)) < ch.p_e
        lost = np.zeros(len(masks), dtype=np.int64)
        offset = 0
        for j, part in enumerate(parts):
            block = masks[:, offset : offset + part.n]
            offset += part.n
            recoverable = block.sum(axis=1) <= part.p
            sources = block[:, : part.k]
            lost += np.where(recoverable, 0, sources.sum(axis=1))
            hit = np.packbits(block[recoverable & sources.any(axis=1)], axis=1)
            distinct[j] = np.unique(np.concatenate((distinct[j], hit)), axis=0)
        lost_sum += int(lost.sum())
        lost_squares += int(lost @ lost)
    for part, packed in zip(parts, distinct):
        if len(packed):
            _verify_patterns(part, packed, rng)

    k_norm = sum(part.k for part in parts)
    plr = lost_sum / (k_norm * trials)
    half_width = 0.0
    if trials > 1:
        # sample variance of the per-trial lost count, exact in integers
        variance = (trials * lost_squares - lost_sum**2) / (trials * (trials - 1))
        half_width = 1.96 * math.sqrt(variance) / k_norm / math.sqrt(trials)
    return PlrReport(plr=plr, method="monte_carlo", trials=trials, half_width=half_width)
