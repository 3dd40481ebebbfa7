"""Systematic MDS erasure codec at packet granularity.

A C(n, k) code turns k equal-size source packets into n packets (the k
sources verbatim plus p = n - k parity packets); any k received packets
reconstruct the sources.  The generator is a Vandermonde matrix on points
0..n-1 normalized so its top k x k block is the identity, the standard
construction for packet FEC, which makes every k x k row-submatrix
invertible.

Per byte position, encoding costs exactly p*k symbol multiply-accumulates
and erasure decoding e*k (e = number of lost source packets).  Encoding is
one GF(256) matrix product (`gf256.mat_mul`) and decoding two; each call
adds its exact count, p*k or e*k, to the module-level `mac_counter` in one
step, so tests and benchmarks can verify the arithmetic cost rather than
trust the O() claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf256 import gf_pow, mat_invert, mat_mul

MAX_CODE_LENGTH = 255  # one codeword symbol per nonzero field element


class UnrecoverableBlockError(Exception):
    """Too few packets survived to reconstruct a block.

    `lost_source_indices` lists the source positions (block-relative, or
    parent-relative for partitioned blocks) whose data is gone.
    """

    def __init__(self, lost_source_indices, received: int, needed: int):
        self.lost_source_indices = tuple(sorted(lost_source_indices))
        self.received = received  # packets that survived, across the whole block
        self.needed = needed  # source packets the block carries
        lost = self.lost_source_indices
        super().__init__(
            f"unrecoverable block: {len(lost)} of {needed} source packets lost "
            f"(indices {list(lost)})"
        )


class MulAccCounter:
    """Running count of symbol multiply-accumulates per byte position.

    Each coefficient-times-packet vector operation counts as one MAC per
    byte.  Diagnostic aid only: not synchronized, so reset/read it from a
    single thread.
    """

    __slots__ = ("per_byte",)

    def __init__(self):
        self.per_byte = 0

    def reset(self):
        self.per_byte = 0


mac_counter = MulAccCounter()


@dataclass(frozen=True)
class CodeSpec:
    """An (n, k) systematic MDS code: k sources, p = n - k parity packets."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got n={self.n} k={self.k}")
        if self.n > MAX_CODE_LENGTH:
            raise ValueError(
                f"n={self.n} exceeds the GF(256) limit of {MAX_CODE_LENGTH}"
            )

    @property
    def p(self) -> int:
        return self.n - self.k

    @property
    def parts(self) -> tuple:
        """The independently coded parts: a plain code is its own one part."""
        return (self,)


@dataclass(frozen=True)
class GeneratorMatrix:
    """n x k systematic generator; rows 0..k-1 are the identity."""

    spec: CodeSpec
    matrix: np.ndarray

    @property
    def parity_rows(self) -> np.ndarray:
        return self.matrix[self.spec.k:]


@dataclass(frozen=True)
class PacketBlock:
    """A block of packets, some of which may be erased (None).

    Holds either k slots (a source block) or n slots (a coded block).
    All present packets must be packet_size bytes.
    """

    spec: CodeSpec
    packet_size: int
    packets: tuple

    def __post_init__(self):
        if len(self.packets) not in (self.spec.k, self.spec.n):
            raise ValueError(
                f"block must have k={self.spec.k} or n={self.spec.n} slots, "
                f"got {len(self.packets)}"
            )
        for pkt in self.packets:
            if pkt is not None and len(pkt) != self.packet_size:
                raise ValueError(
                    f"packet size mismatch: expected {self.packet_size}, "
                    f"got {len(pkt)}"
                )

    @classmethod
    def source(cls, spec: CodeSpec, payloads) -> "PacketBlock":
        payloads = [bytes(p) for p in payloads]
        if len(payloads) != spec.k:
            raise ValueError(f"expected {spec.k} source packets, got {len(payloads)}")
        if not payloads[0]:
            raise ValueError("packets must be non-empty")
        return cls(spec, len(payloads[0]), tuple(payloads))

    def erase(self, indices) -> "PacketBlock":
        """Copy of this block with the given slots erased.

        Raises ValueError if an index is not a slot of this block.
        """
        gone = set(indices)
        if gone and not (0 <= min(gone) and max(gone) < len(self.packets)):
            raise ValueError(
                f"erase indices must lie in 0..{len(self.packets) - 1}, "
                f"got {sorted(gone)}"
            )
        packets = tuple(
            None if i in gone else pkt for i, pkt in enumerate(self.packets)
        )
        return PacketBlock(self.spec, self.packet_size, packets)

    @property
    def present_indices(self) -> list:
        return [i for i, pkt in enumerate(self.packets) if pkt is not None]

    @property
    def missing_indices(self) -> list:
        return [i for i, pkt in enumerate(self.packets) if pkt is None]


def build_generator(spec: CodeSpec) -> GeneratorMatrix:
    """Deterministic systematic MDS generator for `spec`.

    Vandermonde on evaluation points 0..n-1 (any k distinct points give an
    invertible square block), right-multiplied by the inverse of its top
    k x k block so the prefix becomes the identity.
    """
    n, k = spec.n, spec.k
    vand = np.empty((n, k), dtype=np.uint8)
    for i in range(n):
        for j in range(k):
            vand[i, j] = gf_pow(i, j)
    top_inv = mat_invert(vand[:k, :k])
    matrix = mat_mul(vand, top_inv)
    matrix.setflags(write=False)
    return GeneratorMatrix(spec, matrix)


def _stack(packets, indices, size: int) -> np.ndarray:
    # the chosen packets as the rows of one (len(indices), size) uint8 array
    joined = b"".join([packets[i] for i in indices])
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(indices), size)


def encode(gen: GeneratorMatrix, source: PacketBlock) -> PacketBlock:
    """Encode k source packets into n packets (sources + parity).

    The k source packets pass through byte-identical; the parity packets
    are the GF(256) product of the generator's parity rows with the k x L
    source array (p*k MACs per byte in total).
    """
    spec = gen.spec
    if len(source.packets) != spec.k or None in source.packets:
        raise ValueError(f"encode needs exactly {spec.k} present source packets")
    sources = _stack(source.packets, range(spec.k), source.packet_size)
    parity = mat_mul(gen.parity_rows, sources)
    mac_counter.per_byte += spec.p * spec.k
    return PacketBlock(
        spec, source.packet_size, source.packets + tuple(row.tobytes() for row in parity)
    )


def _parity_rows(gen: GeneratorMatrix, gone: set, e: int) -> list:
    # the decoder's row choice beyond the surviving (identity) source rows:
    # the first e surviving parity rows, in ascending index
    rows = [i for i in range(gen.spec.k, gen.spec.n) if i not in gone][:e]
    if len(rows) < e:
        raise ValueError(f"{e} erased sources exceed {len(rows)} surviving parity packets")
    return rows


def decoding_matrix(gen: GeneratorMatrix, erased) -> np.ndarray:
    """The e x e matrix the decoder inverts for a given set of erased slots.

    The decoder solves with the surviving source rows, which are identity
    rows, plus the first e surviving parity rows, so the k x k system
    reduces exactly to this block: those parity rows restricted to the e
    erased source columns.  `decode` builds its block here; passing erased
    sources only gives the worst case the benchmark isolates, where every
    parity packet survived and the first e parity rows are used.

    Raises ValueError if a slot lies outside 0..n-1 or fewer than k packets
    survive.
    """
    gone = set(erased)
    if gone and not (0 <= min(gone) and max(gone) < gen.spec.n):
        raise ValueError(f"erased slots must lie in 0..{gen.spec.n - 1}, got {sorted(gone)}")
    missing = sorted(i for i in gone if i < gen.spec.k)
    return gen.matrix[_parity_rows(gen, gone, len(missing))][:, missing]


def decode(gen: GeneratorMatrix, received: PacketBlock) -> list:
    """Recover the k source packets from any >= k received packets.

    If every source packet survived they are returned as-is with no matrix
    work.  Otherwise the decoder uses k rows (surviving sources, then the
    first e surviving parity rows) and solves for the missing sources
    only: because the source rows are identity rows, the k x k submatrix
    inversion reduces to inverting the e x e block built by
    `decoding_matrix`.  Two matrix products then recover the sources: the
    selected parity minus the surviving sources' share (e*(k-e) MACs per
    byte), times the inverted block (e*e), so e*k MACs per byte in all.
    """
    spec = gen.spec
    k = spec.k
    if len(received.packets) != spec.n:
        raise ValueError(f"decode needs a coded block with {spec.n} slots")
    packets = received.packets
    missing = received.missing_indices
    missing_src = [i for i in missing if i < k]
    if len(missing) > spec.p:
        raise UnrecoverableBlockError(missing_src, spec.n - len(missing), k)
    if not missing_src:
        return list(packets[:k])

    surviving = [i for i in range(k) if packets[i] is not None]
    parity_rows = _parity_rows(gen, set(missing), len(missing_src))
    size = received.packet_size
    # rhs_i = y_i - sum over surviving sources s of G[row_i, s] * x_s
    rhs = _stack(packets, parity_rows, size) ^ mat_mul(
        gen.matrix[parity_rows][:, surviving], _stack(packets, surviving, size)
    )
    lost = mat_mul(mat_invert(decoding_matrix(gen, missing)), rhs)
    mac_counter.per_byte += len(missing_src) * k
    recovered = iter(lost)
    return [
        pkt if pkt is not None else next(recovered).tobytes() for pkt in packets[:k]
    ]
