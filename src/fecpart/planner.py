"""Code-configuration search against a residual-loss-rate target.

Two searches: the smallest n whose C(n, k) code meets a PLR target on a
given channel (PLR is monotone in n, so a linear upward scan finds the
minimum and yields the n-1 witness for free; `plan` reports both the
witness's PLR and the number of n scanned), and the number of excess
parity packets a partitioned code needs before its PLR comes within a
tolerance delta of the unpartitioned code's.
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
    spec: CodeSpec
    plr: float
    ri: float  # redundancy ratio p/k, reporting only
    # PLR of the witness C(n-1, k), which misses the target; None if n = k+1
    witness_plr: float | None
    n_scanned: int  # codes the n-scan evaluated, n = k+1 .. spec.n
    partition: PartitionPlan | None = None


def min_n_for_target(
    k: int, ch: BecChannel, plr_target: float, *, plrs: list | None = None
) -> CodeSpec:
    """Smallest n > k whose C(n, k) code has PLR <= plr_target on `ch`.

    Scans upward from n = k+1; the first hit is minimal because adding a
    parity packet never increases the PLR.  Raises ValueError unless
    0 < plr_target < 1, and CapacityError if no n within the field bound
    reaches it.  If `plrs` is given, the PLR of every scanned n is appended
    to it in scan order, so the last entry is the result's and the one
    before it the witness's.
    """
    k = _block_length(k)
    _check_target(plr_target)
    if ch.p_e >= 1.0:
        raise CapacityError("every packet is erased; no code can meet a target")
    for n in range(k + 1, MAX_CODE_LENGTH + 1):
        plr = analytic_plr(CodeSpec(n, k), ch).plr
        if plrs is not None:
            plrs.append(plr)
        if plr <= plr_target:
            return CodeSpec(n, k)
    raise CapacityError(
        f"no n <= {MAX_CODE_LENGTH} meets PLR <= {plr_target} for k={k}, "
        f"p_e={ch.p_e}"
    )


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

    The code's PLR, the witness's and the scan length all come from the
    one n-scan, and the partition's PLR from the excess search.
    """
    plrs = []
    spec = min_n_for_target(req.k, req.ch, req.plr_target, plrs=plrs)
    partition = distribute_excess(spec, req.ch, req.delta) if req.partition else None
    return PlanResult(
        spec=spec,
        plr=plrs[-1],
        ri=spec.p / spec.k,
        witness_plr=plrs[-2] if len(plrs) > 1 else None,
        n_scanned=len(plrs),
        partition=partition,
    )
