"""Residual packet-loss-rate model for MDS codes on a binary erasure channel.

For a C(n, k) code on a BEC, decoding fails exactly when more than p = n - k
packets are erased, in which case the erased source packets (and only those)
stay lost.  The analytic model gives the distribution of the number of lost
source packets per block: the recoverable region contributes all its mass to
zero, and for i >= 1 lost sources the erasure count e must lie in
max(p+1, i) <= e <= p+i, with the i losses placed among the k source
positions hypergeometrically.  The residual PLR is the mean of that
distribution divided by k.

The sum has O(k·p) (i, e) terms but only n+1 distinct erasure counts: the
binomial masses P(e), e = 0..n, and the coefficients C(n, e), C(p, d) are
computed once per code, C(k, i) once per i, and each term is just their
product, so a code's distribution costs n+1 `binomial_pmf` calls.

Every code is a tuple of independent parts (`code.parts`): a plain code is
its own one part, a partitioned code its two halves.  Each entry point
takes either kind of code.  A code's loss distribution is the convolution
of its parts'; its PLR needs only their means, which add, over the summed
k of the parts.

Two independent validation paths live alongside the formulas: exact
brute-force enumeration of every erasure pattern (small n), and a seeded
Monte-Carlo driver that pushes real packets through the actual codec, part
by part: each part's distinct erasure patterns go through the codec's
batched erasure solve, the one `decode` runs, a chunk per call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import CodeSpec, PacketBlock, build_generator, decode, decode_batch, encode
# not called here; perfbench/tracing.py wraps these names on this module
from .partition import decode_partitioned, encode_partitioned, half_generators  # noqa: F401

BRUTE_FORCE_MAX_N = 24
_LOG_SPACE_THRESHOLD = 60
# rows (patterns or trials) per vectorised step, so memory stays flat
_CHUNK = 1 << 16
# erasure patterns per `decode_batch` call of the Monte-Carlo validator
_SOLVE_CHUNK = 1 << 12


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
        # written so that NaN, which compares false, fails both checks
        if not (probs >= 0).all():
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-9:
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
    # distinct erasure patterns decoded and checked (monte_carlo only)
    patterns_verified: int | None = None
    # part-trials whose pattern was recoverable and hit the part's sources,
    # before dedup (monte_carlo only): patterns_verified of them were decoded
    patterns_total: int | None = None

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
    # the direct product is the faster path wherever it cannot underflow
    if n <= _LOG_SPACE_THRESHOLD:
        return math.comb(n, e) * p**e * (1.0 - p) ** (n - e)
    # log space: the direct product underflows long before the mass does
    log_comb = math.lgamma(n + 1) - math.lgamma(e + 1) - math.lgamma(n - e + 1)
    return math.exp(log_comb + e * math.log(p) + (n - e) * math.log1p(-p))


def _lost_sources(spec: CodeSpec, ch: BecChannel) -> np.ndarray:
    # P(exactly i source packets lost) for one C(n, k) part, i = 0..k.
    # Per code: the n+1 erasure-count probabilities and the C(n, e) and
    # C(p, d) tables; per i: C(k, i); per (i, e) term: only the products,
    # taken in the per-term formula's order and summed in its order, so
    # every probability is the same float as that formula's (the tests
    # keep it as the reference).
    n, k, p = spec.n, spec.k, spec.p
    pmf = [binomial_pmf(n, e, ch) for e in range(n + 1)]
    comb_n = [math.comb(n, e) for e in range(n + 1)]
    comb_p = [math.comb(p, d) for d in range(p + 1)]
    probs = np.zeros(k + 1)
    probs[0] = sum(pmf[: p + 1])
    for i in range(1, k + 1):
        comb_ki = math.comb(k, i)
        total = 0.0
        for e in range(max(p + 1, i), p + i + 1):
            hyper = comb_ki * comb_p[e - i] / comb_n[e]
            total += pmf[e] * hyper
        probs[i] = total
    return probs


def loss_pmf(code, ch: BecChannel) -> LossPmf:
    """Distribution of lost source packets per block of any code.

    The parts fail independently, so the loss count is the convolution of
    the per-part distributions (np.convolve applies exactly the per-part
    support bounds); a plain code is its own one part.
    """
    per_part = (_lost_sources(part, ch) for part in code.parts)
    return LossPmf(code, functools.reduce(np.convolve, per_part))


def analytic_plr(code, ch: BecChannel) -> PlrReport:
    """Residual PLR of any code: E[lost sources] / k.

    Expected losses add over the independent parts, so each part's mean
    comes from its own distribution and no convolution is needed.
    """
    lost = sum(loss_pmf(part, ch).mean for part in code.parts)
    return PlrReport(plr=lost / sum(part.k for part in code.parts), method="analytic")


# names kept for callers that read the partitioned code's model by name
partitioned_loss_pmf = loss_pmf
partitioned_plr = analytic_plr


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
        erasures = np.bitwise_count(patterns).astype(np.float64)
        weights = ch.p_e**erasures * (1.0 - ch.p_e) ** (n_total - erasures)
        expected += float(weights @ lost)
    return PlrReport(plr=expected / sum(part.k for part in parts), method="brute_force")


def _random_payloads(rng, count: int, size: int = 4) -> tuple:
    return tuple(row.tobytes() for row in rng.integers(0, 256, (count, size), dtype=np.uint8))


def _verify_patterns(part: CodeSpec, packed: np.ndarray, rng) -> None:
    # solve every packed erasure row of this part through the codec, a chunk
    # of rows per call, and check each block's recovered sources
    gen = build_generator(part)
    payloads = _random_payloads(rng, part.k)
    coded = encode(gen, PacketBlock.source(part, payloads))
    block = np.frombuffer(b"".join(coded.packets), dtype=np.uint8).reshape(part.n, -1)
    for start in range(0, len(packed), _SOLVE_CHUNK):
        erased = np.unpackbits(packed[start : start + _SOLVE_CHUNK], axis=1, count=part.n)
        erased = erased.view(bool)
        received = np.where(erased[:, :, None], np.uint8(0), block)
        sources = decode_batch(gen, received, erased)
        wrong = np.flatnonzero((sources != block[: part.k]).any(axis=(1, 2)))
        if wrong.size:
            idx = np.flatnonzero(erased[wrong[0]]).tolist()
            raise AssertionError(f"decode of {part} corrupted data for pattern {idx}")
    # the first pattern also takes the packet path (PacketBlock in, bytes
    # out) of `decode`, which packs it for the same solve
    idx = np.flatnonzero(np.unpackbits(packed[0], count=part.n)).tolist()
    if decode(gen, coded.erase(idx)) != list(payloads):
        raise AssertionError(f"decode of {part} corrupted data for pattern {idx}")


def monte_carlo_plr(code, ch: BecChannel, trials: int, seed: int) -> PlrReport:
    """Empirical residual PLR from seeded simulation through the real codec.

    Each trial erases each of the code's packets (all parts, in order)
    independently; the draws come from one seeded generator in fixed
    chunks of trials, so memory does not grow with the trial count and
    results do not depend on the chunking.  A part whose erasures exceed
    its parity loses exactly its erased source packets, the set the
    decoder's error reports (unit-tested), counted from the mask so that
    million-trial runs stay fast.  Every *distinct* pattern of a part that
    it can recover and that hits its sources is encoded, solved by
    `decode_batch` (a chunk of patterns per call) and verified.

    Reports the mean per-trial loss fraction, the 95% normal-approximation
    half-width of that mean, the number of distinct patterns verified and
    the number of part-trials they stand for.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    parts = code.parts
    width = sum(part.n for part in parts)
    # per part: its distinct recoverable, source-hitting patterns, bit-packed
    distinct = [np.zeros((0, (part.n + 7) // 8), dtype=np.uint8) for part in parts]
    lost_sum = lost_squares = hits = 0
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
            hits += len(hit)
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
    return PlrReport(
        plr=plr,
        method="monte_carlo",
        trials=trials,
        half_width=half_width,
        patterns_verified=sum(map(len, distinct)),
        patterns_total=hits,
    )
