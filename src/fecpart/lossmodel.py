"""Residual packet-loss-rate model for MDS codes on a binary erasure channel.

For a C(n, k) code on a BEC, decoding fails exactly when more than p = n - k
packets are erased, in which case the erased source packets (and only those)
stay lost.  The analytic model gives the distribution of the number of lost
source packets per block: the recoverable region contributes all its mass to
zero, and for i >= 1 lost sources the erasure count e must lie in
max(p+1, i) <= e <= p+i, with the i losses placed among the k source
positions hypergeometrically.  The residual PLR is the mean of that
distribution divided by k.

A partitioned code loses the sum of two independent per-half counts, so its
distribution is the discrete convolution of the halves'.

Two independent validation paths live alongside the formulas: exact
brute-force enumeration of every erasure pattern (small n), and a seeded
Monte-Carlo driver that pushes real packets through the actual codec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import CodeSpec, PacketBlock, build_generator, decode, encode
from .partition import PartitionSpec, decode_partitioned, encode_partitioned, half_generators

BRUTE_FORCE_MAX_N = 24
_LOG_SPACE_THRESHOLD = 60
_CHUNK = 1 << 20


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

    The halves fail independently, so the joint loss count is the
    convolution of the per-half distributions (np.convolve applies exactly
    the per-half support bounds).
    """
    pmf1 = loss_pmf(ps.first, ch).probabilities
    pmf2 = loss_pmf(ps.second, ch).probabilities
    return LossPmf(ps, np.convolve(pmf1, pmf2))


def analytic_plr(spec: CodeSpec, ch: BecChannel) -> PlrReport:
    """Residual PLR of a plain code: E[lost sources] / k."""
    return PlrReport(plr=loss_pmf(spec, ch).mean / spec.k, method="analytic")


def partitioned_plr(ps: PartitionSpec, ch: BecChannel) -> PlrReport:
    """Residual PLR of a partitioned code, normalized by the parent k.

    Computed from the convolved distribution; by linearity it must equal
    the per-half weighted average (k1*PLR1 + k2*PLR2) / k, which is checked
    here as an internal consistency guard.
    """
    k = ps.parent.k
    plr = partitioned_loss_pmf(ps, ch).mean / k
    per_half = (
        ps.first.k * analytic_plr(ps.first, ch).plr
        + ps.second.k * analytic_plr(ps.second, ch).plr
    ) / k
    if not math.isclose(plr, per_half, rel_tol=1e-9, abs_tol=1e-12):
        raise AssertionError(
            f"convolution PLR {plr} disagrees with per-half average {per_half}"
        )
    return PlrReport(plr=plr, method="analytic")


def _pattern_weights(erasures: np.ndarray, n: int, p_e: float) -> np.ndarray:
    if p_e == 0.0:
        return (erasures == 0).astype(np.float64)
    if p_e == 1.0:
        return (erasures == n).astype(np.float64)
    return p_e**erasures * (1.0 - p_e) ** (n - erasures.astype(np.float64))


def brute_force_plr(code, ch: BecChannel) -> PlrReport:
    """Exact residual PLR by enumerating every erasure pattern.

    Independent of the analytic formulas: each pattern is weighted by
    p_e^e (1-p_e)^(n-e) and a block with fewer than k survivors loses
    exactly its erased source packets.  Only feasible for total n <= 24.
    """
    if isinstance(code, PartitionSpec):
        halves = (code.first, code.second)
        k_norm = code.parent.k
    else:
        halves = (code,)
        k_norm = code.k
    n_total = sum(h.n for h in halves)
    if n_total > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"total n={n_total} exceeds enumeration bound {BRUTE_FORCE_MAX_N}"
        )

    expected = 0.0
    for start in range(0, 1 << n_total, _CHUNK):
        patterns = np.arange(start, min(start + _CHUNK, 1 << n_total), dtype=np.uint32)
        lost = np.zeros(patterns.shape, dtype=np.int64)
        shift = 0
        for h in halves:
            bits = (patterns >> shift) & np.uint32((1 << h.n) - 1)
            e_half = np.bitwise_count(bits)
            src_losses = np.bitwise_count(bits & np.uint32((1 << h.k) - 1))
            lost += np.where(e_half > h.p, src_losses, 0)
            shift += h.n
        erasures = np.bitwise_count(patterns)
        expected += float(_pattern_weights(erasures, n_total, ch.p_e) @ lost)
    return PlrReport(plr=expected / k_norm, method="brute_force")


def _draw_masks(rng, trials: int, width: int, p_e: float) -> np.ndarray:
    masks = np.empty((trials, width), dtype=bool)
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        masks[start:stop] = rng.random((stop - start, width)) < p_e
    return masks


def _distinct_patterns(masks: np.ndarray) -> list:
    # the erased slot indices of each distinct mask row, whatever its width;
    # rows are packed to bytes first so the dedup sorts short keys
    packed = np.unique(np.packbits(masks, axis=1), axis=0)
    rows = np.unpackbits(packed, axis=1, count=masks.shape[1])
    return [np.flatnonzero(row).tolist() for row in rows]


def _random_payloads(rng, count: int, size: int = 4) -> tuple:
    return tuple(rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(count))


def monte_carlo_plr(code, ch: BecChannel, trials: int, seed: int) -> PlrReport:
    """Empirical residual PLR from seeded simulation through the real codec.

    Draws i.i.d. per-packet erasures for every trial in one deterministic
    block (results do not depend on evaluation order), then decodes each
    *distinct* recoverable erasure pattern once through the actual
    encoder/decoder, verifying the recovered payloads; outcomes are weighed
    by how often each pattern occurred.  Unrecoverable patterns lose
    exactly their erased source packets, the same set the decoder's error
    reports (that equivalence is unit-tested); counting those from the
    mask keeps million-trial runs affordable.

    Reports the mean per-trial loss fraction and the 95%
    normal-approximation half-width of that mean.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)

    if isinstance(code, PartitionSpec):
        n1, k1, p1 = code.first.n, code.first.k, code.first.p
        n2, k2, p2 = code.second.n, code.second.k, code.second.p
        k_norm = code.parent.k
        masks = _draw_masks(rng, trials, n1 + n2, ch.p_e)
        e1 = masks[:, :n1].sum(axis=1)
        e2 = masks[:, n1:].sum(axis=1)
        src_hit = masks[:, :k1].any(axis=1) | masks[:, n1 : n1 + k2].any(axis=1)
        src_lost = masks[:, :k1].sum(axis=1) * (e1 > p1) + masks[
            :, n1 : n1 + k2
        ].sum(axis=1) * (e2 > p2)
        recoverable = (e1 <= p1) & (e2 <= p2)
        losses = np.where(recoverable, 0, src_lost).astype(np.float64)

        to_decode = recoverable & src_hit
        if to_decode.any():
            gens = half_generators(code)
            payloads = _random_payloads(rng, k_norm)
            source = PacketBlock.source(code.parent, payloads)
            coded = encode_partitioned(code, source, gens)
            for idx in _distinct_patterns(masks[to_decode]):
                rx1 = coded[0].erase([i for i in idx if i < n1])
                rx2 = coded[1].erase([i - n1 for i in idx if i >= n1])
                recovered = decode_partitioned(code, (rx1, rx2), gens)
                if recovered != list(payloads):
                    raise AssertionError(
                        f"partitioned decode corrupted data for pattern {idx}"
                    )
    else:
        spec = code
        k_norm = spec.k
        masks = _draw_masks(rng, trials, spec.n, ch.p_e)
        e_total = masks.sum(axis=1)
        recoverable = e_total <= spec.p
        losses = np.where(recoverable, 0, masks[:, : spec.k].sum(axis=1)).astype(
            np.float64
        )

        to_decode = recoverable & masks[:, : spec.k].any(axis=1)
        if to_decode.any():
            gen = build_generator(spec)
            payloads = _random_payloads(rng, spec.k)
            coded = encode(gen, PacketBlock.source(spec, payloads))
            for idx in _distinct_patterns(masks[to_decode]):
                recovered = decode(gen, coded.erase(idx))
                if recovered != list(payloads):
                    raise AssertionError(f"decode corrupted data for pattern {idx}")

    fractions = losses / k_norm
    plr = float(fractions.mean())
    half_width = (
        1.96 * float(fractions.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    )
    return PlrReport(plr=plr, method="monte_carlo", trials=trials, half_width=half_width)
