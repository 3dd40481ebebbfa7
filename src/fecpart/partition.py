"""Code partitioning: one C(n, k) code split into two half-length codes.

Splitting halves the per-block arithmetic (encode drops from k*p to about
k*p/2 MACs per byte) because each half encodes and decodes independently,
at the price of the halves no longer pooling their parity: a half that
loses more packets than its own parity count fails even if the other half
had spares.  Extra "excess" parity packets can be added to buy back the
lost protection.

A partitioned code's `parts` are its two halves, in source order, as a plain
code's `parts` are the code itself; encode and decode run once per part,
each part on its own slice of the parent's source packets.  As `encode`
takes its one generator, the split coder takes one per part, built once by
`half_generators` and reused for every block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import (
    CodeSpec,
    PacketBlock,
    UnrecoverableBlockError,
    build_generator,
    decode,
    encode,
)


@dataclass(frozen=True)
class PartitionSpec:
    """A parent code split into two independent halves.

    k splits as (ceil(k/2), floor(k/2)).  The halves' parity beyond the
    parent's p is the `excess`, derived from the halves and never negative;
    `split` deals it out alternately, first (larger) half first.
    """

    parent: CodeSpec
    first: CodeSpec
    second: CodeSpec

    def __post_init__(self):
        k = self.parent.k
        if (self.first.k, self.second.k) != ((k + 1) // 2, k // 2):
            raise ValueError(
                f"halves must split k={k} as ceil/floor, got "
                f"k1={self.first.k} k2={self.second.k}"
            )
        if self.excess < 0:
            raise ValueError(
                f"halves carry less parity ({self.first.p + self.second.p}) "
                f"than the parent ({self.parent.p})"
            )

    @property
    def excess(self) -> int:
        """Parity packets the halves carry beyond the parent's p."""
        return self.first.p + self.second.p - self.parent.p

    @property
    def parts(self) -> tuple:
        """The independently coded halves, in parent source order."""
        return (self.first, self.second)


def split_shape(parent: CodeSpec, excess: int) -> tuple:
    """The (k1, p1, k2, p2) a split would produce, without validating it.

    Block length and base parity split as ceiling/floor; excess packets go
    alternately to the halves, first half first.
    """
    if excess < 0:
        raise ValueError("excess must be >= 0")
    k1 = (parent.k + 1) // 2
    k2 = parent.k // 2
    p1 = (parent.p + 1) // 2 + (excess + 1) // 2
    p2 = parent.p // 2 + excess // 2
    return k1, p1, k2, p2


def split(parent: CodeSpec, excess: int = 0) -> PartitionSpec:
    """Split `parent` into two halves with `excess` extra parity packets.

    Raises ValueError if a half would end up with no parity at all (only
    possible for single-parity parents at small excess).
    """
    k1, p1, k2, p2 = split_shape(parent, excess)
    if min(p1, p2) < 1 or min(k1, k2) < 1:
        raise ValueError(
            f"cannot split {parent}: halves would be k1={k1},p1={p1} "
            f"k2={k2},p2={p2}; every half needs k >= 1 and p >= 1"
        )
    return PartitionSpec(
        parent=parent,
        first=CodeSpec(k1 + p1, k1),
        second=CodeSpec(k2 + p2, k2),
    )


def half_generators(code) -> tuple:
    """Generators for every part of any code (build once, reuse across blocks)."""
    return tuple(build_generator(part) for part in code.parts)


def encode_partitioned(ps: PartitionSpec, source: PacketBlock, gens: tuple) -> tuple:
    """Encode a parent source block through both halves independently.

    The first k1 source packets feed the first code, the rest the second;
    total cost is k1*p1 + k2*p2 MACs per byte, about half the parent's k*p
    when excess is zero.  `gens` are the halves' generators, from
    `half_generators(ps)`.  `source` must be a full source block of the
    parent.
    """
    if source.spec != ps.parent:
        raise ValueError(f"source block of {source.spec} given to the split of {ps.parent}")
    if len(source.packets) != ps.parent.k or None in source.packets:
        raise ValueError(f"need exactly {ps.parent.k} present source packets")
    coded, offset = [], 0
    for part, gen in zip(ps.parts, gens, strict=True):
        packets = source.packets[offset : offset + part.k]
        coded.append(encode(gen, PacketBlock(part, source.packet_size, packets)))
        offset += part.k
    return tuple(coded)


def decode_partitioned(ps: PartitionSpec, received: tuple, gens: tuple) -> list:
    """Decode both half blocks and reassemble the parent source order.

    Each half decodes independently with its generator from `gens`.  If
    either half is unrecoverable the combined UnrecoverableBlockError
    carries the lost source indices from both halves, expressed as parent
    positions (second-half indices are offset by k1).  Raises ValueError
    unless `received` and `gens` hold exactly one entry per half.
    """
    recovered, lost, offset = [], [], 0
    for part, gen, rx in zip(ps.parts, gens, received, strict=True):
        try:
            recovered += decode(gen, rx)
        except UnrecoverableBlockError as err:
            lost.extend(offset + i for i in err.lost_source_indices)
        offset += part.k
    if lost:
        received_total = sum(len(rx.present_indices) for rx in received)
        raise UnrecoverableBlockError(lost, received_total, ps.parent.k)
    return recovered
