"""Systematic MDS erasure codec at packet granularity.

A C(n, k) code turns k equal-size source packets into n packets (the k
sources verbatim plus p = n - k parity packets); any k received packets
reconstruct the sources.  The generator is a Vandermonde matrix on points
0..n-1 normalized so its top k x k block is the identity, the standard
construction for packet FEC, which makes every k x k row-submatrix
invertible.  Row i of the normalized matrix evaluates at point i the
polynomial that interpolates the sources at points 0..k-1, so the parity
rows are the Lagrange basis values G[i, j] = prod over m < k, m != j of
(i ^ m) / (j ^ m), which `build_generator` computes in closed form.

Per byte position, encoding costs exactly p*k symbol multiply-accumulates
and erasure decoding e*k (e = number of lost source packets).  Encoding is
one GF(256) matrix product (`gf256.mat_mul`).  Decoding is one erasure
solve over arrays, `decode_batch`, which recovers a batch of blocks with
one batched inversion and two batched products per erased-source count;
`decode` is its one-block case for a PacketBlock.  Each call adds its exact
count (p*k, or e*k per block) to the module-level `mac_counter` in one
step, so tests and benchmarks can verify the arithmetic cost rather than
trust the O() claim.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .gf256 import EXP_TABLE, LOG_TABLE, identity, mat_invert, mat_mul

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
        # integers only (numpy ints too, stored as int): a float size raises
        # TypeError here rather than building a code of fractional length
        for name in ("n", "k"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
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


def _slots(indices, count: int) -> set:
    # the slots of a count-slot block as a set of ints: as in CodeSpec, a
    # numpy int passes and a float, which would match no slot, raises TypeError
    slots = {operator.index(i) for i in indices}
    if slots and not (0 <= min(slots) and max(slots) < count):
        raise ValueError(f"slots must lie in 0..{count - 1}, got {sorted(slots)}")
    return slots


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

        Raises ValueError if an index is not a slot of this block and
        TypeError if it is not an integer.
        """
        gone = _slots(indices, len(self.packets))
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
    """Deterministic systematic MDS generator for `spec`, in closed form.

    The matrix is V * V_top^-1, with V the Vandermonde matrix on the
    evaluation points 0..n-1 (any k distinct points give an invertible
    square block) and V_top its top k x k block, so the prefix is the
    identity.  Row i of that product evaluates at point i the polynomial of
    degree < k that takes the source values at points 0..k-1, so a parity
    row holds the Lagrange basis values at i:

        G[i, j] = prod over m < k, m != j of (i ^ m) / (j ^ m)

    for i in k..n-1 and j in 0..k-1 (a difference of two points is their
    XOR in GF(2^8)).  In logs that is EXP[S_i - LOG[i ^ j] - T_j], with S_i
    the sum of LOG[i ^ m] over all m < k and T_j that of LOG[j ^ m] over
    m != j: one p x k and one k x k log-table gather and two row sums, with
    no inversion and no matrix product.
    """
    n, k = spec.n, spec.k
    points = np.arange(k)
    # i ^ m is never 0 for a parity point i; LOG[j ^ j] = LOG[0] = 0, so the
    # k x k row sums skip m = j by themselves
    num = LOG_TABLE[np.arange(k, n)[:, None] ^ points]
    den = LOG_TABLE[points[:, None] ^ points].sum(axis=1)
    parity = EXP_TABLE[(num.sum(axis=1)[:, None] - num - den) % 255]
    matrix = np.concatenate([identity(k), parity])
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


def _select(gen: GeneratorMatrix, erased: np.ndarray, e: int) -> tuple:
    # for (B, n) erasure masks that each erase e sources and at most p
    # slots: the decoder's rows beyond the surviving (identity) source rows,
    # which are the first e surviving parity rows, the erased source columns
    # and the surviving ones, each as a (B, count) array in ascending order
    # (stable sorts of the masks put the wanted slots first, in slot order)
    k = gen.spec.k
    rows = k + np.argsort(erased[:, k:], axis=1, kind="stable")[:, :e]
    sources = np.argsort(~erased[:, :k], axis=1, kind="stable")
    return rows, sources[:, :e], sources[:, e:]


def decoding_matrix(gen: GeneratorMatrix, erased) -> np.ndarray:
    """The e x e matrix the decoder inverts for a given set of erased slots.

    The decoder solves with the surviving source rows, which are identity
    rows, plus the first e surviving parity rows, so the k x k system
    reduces exactly to this block: those parity rows restricted to the e
    erased source columns.  This is the one-pattern case of the selection
    `decode_batch` makes; passing erased sources only gives the worst case
    the benchmark isolates, where every parity packet survived and the
    first e parity rows are used.

    Raises ValueError if a slot lies outside 0..n-1 or fewer than k packets
    survive, and TypeError if a slot is not an integer.
    """
    spec = gen.spec
    gone = _slots(erased, spec.n)
    if len(gone) > spec.p:
        raise ValueError(f"{len(gone)} erased slots leave fewer than k={spec.k} packets")
    mask = np.zeros((1, spec.n), dtype=bool)
    mask[0, list(gone)] = True
    rows, cols, _ = _select(gen, mask, int(mask[0, : spec.k].sum()))
    return gen.matrix[rows[0, :, None], cols[0]]


def _solve(gen: GeneratorMatrix, received: np.ndarray, erased: np.ndarray, e: int) -> tuple:
    # the erasure solve for (B, n, L) blocks that each erase e sources:
    # their erased source columns, (B, e), and those sources, (B, e, L)
    rows, cols, kept = _select(gen, erased, e)
    blocks = mat_invert(gen.matrix[rows[:, :, None], cols[:, None, :]])
    # rhs_i = y_i - sum over surviving sources s of G[row_i, s] * x_s
    picked = received[np.arange(len(received))[:, None], np.concatenate([rows, kept], axis=1)]
    rhs = picked[:, :e] ^ mat_mul(gen.matrix[rows[:, :, None], kept[:, None, :]], picked[:, e:])
    mac_counter.per_byte += len(received) * e * gen.spec.k
    return cols, mat_mul(blocks, rhs)


def decode_batch(gen: GeneratorMatrix, received: np.ndarray, erased: np.ndarray) -> np.ndarray:
    """Recover the sources of B coded blocks at once.

    `received` is a (B, n, L) uint8 array of coded blocks and `erased` the
    (B, n) boolean mask of their lost slots, which are never read (zero
    them, so that a solve that read one would show); every block must keep
    at least k of its n packets.  Returns the (B, k, L) sources.

    The blocks are grouped by e, their number of erased sources.  Each
    block solves with its surviving source rows, which are identity rows,
    plus its first e surviving parity rows, so its k x k system reduces to
    the e x e block of those parity rows on its erased source columns
    (`decoding_matrix`).  A group inverts all its blocks in one batched
    Gauss-Jordan and recovers its sources with two batched products: the
    selected parity minus the surviving sources' share, e*(k-e) MACs per
    byte, times the inverted blocks, e*e.  A block's recovery costs e*k
    MACs per byte, and each call adds the sum over its blocks to
    `mac_counter`.
    """
    spec = gen.spec
    k = spec.k
    received = np.asarray(received)
    erased = np.asarray(erased, dtype=bool)
    if received.dtype != np.uint8 or received.ndim != 3 or received.shape[1] != spec.n:
        raise ValueError(f"received must be a (B, {spec.n}, L) uint8 array, got "
                         f"{received.dtype} {received.shape}")
    if erased.shape != received.shape[:2]:
        raise ValueError(f"erased must have shape {received.shape[:2]}, got {erased.shape}")
    if (erased.sum(axis=1) > spec.p).any():
        raise ValueError(f"a block lost more than the {spec.p} packets {spec} can lose")
    sources = received[:, :k].copy()
    counts = erased[:, :k].sum(axis=1)
    for e in np.unique(counts[counts > 0]).tolist():
        group = np.flatnonzero(counts == e)
        cols, lost = _solve(gen, received[group], erased[group], e)
        sources[group[:, None], cols] = lost
    return sources


def decode(gen: GeneratorMatrix, received: PacketBlock) -> list:
    """Recover the k source packets from any >= k received packets.

    If every source packet survived they are returned as-is with no matrix
    work.  Otherwise the block is packed as a batch of one and goes through
    the erasure solve of `decode_batch`, at e*k MACs per byte (e = number
    of lost source packets); the surviving sources are returned as the same
    objects and only the recovered ones are new.

    Raises ValueError if the block is not a coded block of `gen`'s code and
    UnrecoverableBlockError if fewer than k packets survived.
    """
    spec = gen.spec
    k = spec.k
    if received.spec != spec:
        raise ValueError(f"block of {received.spec} given to the decoder of {spec}")
    if len(received.packets) != spec.n:
        raise ValueError(f"decode needs a coded block with {spec.n} slots")
    packets = received.packets
    missing = received.missing_indices
    missing_src = [i for i in missing if i < k]
    if len(missing) > spec.p:
        raise UnrecoverableBlockError(missing_src, spec.n - len(missing), k)
    if not missing_src:
        return list(packets[:k])

    size = received.packet_size
    zeros = bytes(size)
    joined = b"".join([zeros if pkt is None else pkt for pkt in packets])
    block = np.frombuffer(joined, dtype=np.uint8).reshape(1, spec.n, size)
    erased = np.zeros((1, spec.n), dtype=bool)
    erased[0, missing] = True
    _, lost = _solve(gen, block, erased, len(missing_src))
    recovered = iter(lost[0])
    return [
        pkt if pkt is not None else next(recovered).tobytes() for pkt in packets[:k]
    ]
