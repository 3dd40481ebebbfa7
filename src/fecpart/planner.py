"""Code-configuration search against a residual-loss-rate target.

Two searches: the smallest n whose C(n, k) code meets a PLR target on a
given channel, and the number of excess parity packets a partitioned code
needs before its PLR comes within a tolerance delta of the unpartitioned
code's.  PLR falls as n grows, so the first search need not evaluate every
code: it doubles the parity count p = n - k until a code meets the target
(exponential search; Bentley & Yao, "An almost optimal algorithm for
unbounded searching", IPL 1976), then bisects between the last code that
missed and the first that met it.  The code it returns and the witness
C(n-1, k), which misses, are both among the codes it evaluated, so `plan`
reports both PLRs and the number of codes evaluated at no extra cost.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .codec import MAX_CODE_LENGTH, CodeSpec
from .lossmodel import BecChannel, analytic_plr, partitioned_plr
from .partition import PartitionSpec, split, split_shape


class CapacityError(ValueError):
    """The search ran into the GF(256) codeword-length limit."""


def _block_length(k) -> int:
    # an integer k that leaves room for at least one parity packet in the
    # field, checked as CodeSpec checks its sizes
    k = operator.index(k)
    if not 1 <= k <= MAX_CODE_LENGTH - 1:
        raise ValueError(
            f"k={k} is outside 1..{MAX_CODE_LENGTH - 1}: a code needs "
            f"n = k + p <= {MAX_CODE_LENGTH} (the GF(256) limit) and p >= 1"
        )
    return k


def _check_target(plr_target) -> None:
    # a loss rate a code can both meet and miss; NaN fails this too
    if not 0.0 < plr_target < 1.0:
        raise ValueError(f"plr_target must be in (0, 1), got {plr_target}")


@dataclass(frozen=True)
class PlanRequest:
    """What to plan: block length, channel, loss target, partitioning."""

    k: int
    ch: BecChannel
    plr_target: float = 1e-5
    delta: float = 0.001
    partition: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k", _block_length(self.k))
        if self.partition and self.k < 2:
            raise ValueError(f"a two-way split needs k >= 2, got k={self.k}")
        _check_target(self.plr_target)
        if not self.delta > 0.0:  # NaN fails this too
            raise ValueError(f"delta must be > 0, got {self.delta}")


@dataclass(frozen=True)
class PartitionPlan:
    """A planned partition with its PLR and the excess that bought it."""

    ps: PartitionSpec
    plr: float

    @property
    def excess(self) -> int:
        return self.ps.excess


@dataclass(frozen=True)
class PlanResult:
    """The planned code with its PLR, its witness's PLR and the search cost."""

    spec: CodeSpec
    plr: float
    ri: float  # redundancy ratio p/k, reporting only
    # PLR of the witness C(n-1, k), which misses the target; None if n = k+1
    witness_plr: float | None
    # codes the minimal-n search evaluated: 1 if n = k+1, else at most
    # 2*ceil(log2(n-k))+1
    n_scanned: int
    partition: PartitionPlan | None = None


def min_n_for_target(
    k: int, ch: BecChannel, plr_target: float, *, plrs: dict | None = None
) -> CodeSpec:
    """Smallest n > k whose C(n, k) code has PLR <= plr_target on `ch`.

    Probes p = n - k = 1, 2, 4, ... (the last probe capped at the field
    bound) until a code meets the target, then bisects between the last
    miss and that first hit.  An answer costs at most 2*ceil(log2(n-k))+1
    PLR evaluations, a CapacityError ceil(log2(255-k))+1, and C(n-1, k) is
    always one of the evaluated codes.  Adding a parity packet never
    increases the PLR, so for a target below p_e * (1 - 1e-9) the result
    is the first n an upward scan would reach (the tests check this over a
    sweep of k, p_e and targets).  Closer to p_e every code's computed PLR
    is p_e up to rounding and need not fall with n: the result still meets
    the target and C(n-1, k) still misses it, but a scan could stop earlier
    on a rounding dip.  Raises ValueError unless 0 < plr_target < 1, and
    CapacityError if C(255, k) misses the target.  If `plrs` is given, the
    PLR of every evaluated code is stored in it under its n.
    """
    k = _block_length(k)
    _check_target(plr_target)
    if ch.p_e >= 1.0:
        raise CapacityError("every packet is erased; no code can meet a target")
    if plrs is None:
        plrs = {}

    def meets(p):
        n = k + p
        plrs[n] = analytic_plr(CodeSpec(n, k), ch).plr
        return plrs[n] <= plr_target

    top = MAX_CODE_LENGTH - k
    miss, p = 0, 1  # p = 0 stands for "no code", which always misses
    while not meets(p):
        if p == top:
            raise CapacityError(
                f"no n <= {MAX_CODE_LENGTH} meets PLR <= {plr_target} for "
                f"k={k}, p_e={ch.p_e}"
            )
        miss, p = p, min(2 * p, top)
    hit = p
    while hit - miss > 1:
        mid = (miss + hit) // 2
        if meets(mid):
            hit = mid
        else:
            miss = mid
    return CodeSpec(k + hit, k)


def distribute_excess(parent: CodeSpec, ch: BecChannel, delta: float) -> PartitionPlan:
    """Smallest-excess partition of `parent` within `delta` of its PLR.

    Starting from a zero-excess split, adds one excess parity packet at a
    time (alternating halves, first half first) until the partitioned PLR
    exceeds the parent's by at most delta, and returns that split with the
    PLR it was measured at.  Each added packet must strictly lower the
    partitioned PLR unless it is already 0; excess counts whose split would
    leave a half without parity (only possible for p = 1) are skipped.
    """
    if not delta > 0.0:  # NaN fails this too
        raise ValueError(f"delta must be > 0, got {delta}")
    plain = analytic_plr(parent, ch).plr
    previous = None
    excess = 0
    while True:
        k1, p1, k2, p2 = split_shape(parent, excess)
        if max(k1 + p1, k2 + p2) > MAX_CODE_LENGTH:
            raise CapacityError(
                f"partition of {parent} hit the field bound at excess={excess}"
            )
        if min(p1, p2) < 1:
            excess += 1  # a half would have zero parity; not a usable code
            continue
        ps = split(parent, excess)
        part = partitioned_plr(ps, ch).plr
        if part - plain <= delta:
            return PartitionPlan(ps, part)
        if previous is not None and part >= previous and part > 0.0:
            raise AssertionError(
                f"excess packet {excess} did not lower the partitioned PLR "
                f"({previous} -> {part})"
            )
        previous = part
        excess += 1


def plan(req: PlanRequest) -> PlanResult:
    """Pick the minimal code for `req`, partitioning it if requested.

    The code's PLR, the witness's and the number of codes evaluated all
    come from the one minimal-n search, and the partition's PLR from the
    excess search.
    """
    plrs = {}
    spec = min_n_for_target(req.k, req.ch, req.plr_target, plrs=plrs)
    partition = distribute_excess(spec, req.ch, req.delta) if req.partition else None
    return PlanResult(
        spec=spec,
        plr=plrs[spec.n],
        ri=spec.p / spec.k,
        witness_plr=plrs.get(spec.n - 1),
        n_scanned=len(plrs),
        partition=partition,
    )
