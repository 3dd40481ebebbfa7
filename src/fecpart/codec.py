"""Systematic MDS erasure codec at packet granularity.

A C(n, k) code turns k equal-size source packets into n packets (the k
sources verbatim plus p = n - k parity packets); any k received packets
reconstruct the sources.  The generator is a Vandermonde matrix on points
0..n-1 normalized so its top k x k block is the identity, the standard
construction for packet FEC.  Row i of it evaluates at point i the
polynomial that interpolates the sources at points 0..k-1; any k received
packets fix that polynomial too, so one closed form (`_lagrange`, the
Lagrange basis values) gives both the parity rows and the decoder's
coefficients, and nothing here inverts a matrix.

Per byte position, encoding costs exactly p*k symbol multiply-accumulates
and erasure decoding e*k (e = number of lost source packets), each one
GF(256) matrix product (`gf256.mat_mul`).  Both decoders get coefficients
from `_coefficients`: `decode_batch` for a batch of blocks, one product per
erased-source count, and `decode` for one PacketBlock, joining only the k
slots they read (`PacketBlock.rows`, the one packets-to-array conversion),
never an erased one.  Each call adds its exact count to the module-level
`mac_counter` in one step, so tests and benchmarks can verify the
arithmetic cost rather than trust the O() claim.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .gf256 import EXP_TABLE, LOG_TABLE, identity, mat_mul
# not called here; perfbench/tracing.py wraps this name on this module
from .gf256 import mat_invert  # noqa: F401

MAX_CODE_LENGTH = 255  # one codeword symbol per nonzero field element
# the antilog table over three periods: a log in -510..254 indexes it at +510
_EXP3 = np.tile(EXP_TABLE[:255], 3)
_LOG16 = LOG_TABLE.astype(np.int16)


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
    log_sums: np.ndarray  # per point y < n: the sum of LOG[y ^ m] over sources m < k

    @property
    def parity_rows(self) -> np.ndarray:
        return self.matrix[self.spec.k:]


@dataclass(frozen=True)
class PacketBlock:
    """A block of packets, some of which may be erased (None).

    Holds either k slots (a source block) or n slots (a coded block).
    All present packets must be packet_size >= 1 bytes.
    """

    spec: CodeSpec
    packet_size: int
    packets: tuple

    def __post_init__(self):
        # a tuple and an int, as in CodeSpec, whatever the caller passed
        object.__setattr__(self, "packets", tuple(self.packets))
        object.__setattr__(self, "packet_size", operator.index(self.packet_size))
        if self.packet_size < 1:
            raise ValueError(f"packet_size must be >= 1, got {self.packet_size}")
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
        return cls(spec, len(payloads[0]), payloads)

    def erase(self, indices) -> "PacketBlock":
        """Copy of this block with the given slots erased.

        Raises ValueError if an index is not a slot of this block and
        TypeError if it is not an integer.
        """
        # as in CodeSpec, a numpy int passes; a float would match no slot
        gone = {operator.index(i) for i in indices}
        if gone and not (0 <= min(gone) and max(gone) < len(self.packets)):
            raise ValueError(f"slots must lie in 0..{len(self.packets) - 1}, got {sorted(gone)}")
        packets = tuple(
            None if i in gone else pkt for i, pkt in enumerate(self.packets)
        )
        return PacketBlock(self.spec, self.packet_size, packets)

    def rows(self, indices) -> np.ndarray:
        """The packets in the given slots, in order, as a read-only uint8 array.

        Its shape is (len(indices), packet_size); this is the package's one
        packets-to-array conversion.  Raises TypeError on an erased slot.
        """
        joined = b"".join([self.packets[i] for i in indices])
        return np.frombuffer(joined, dtype=np.uint8).reshape(len(indices), self.packet_size)

    @property
    def present_indices(self) -> list:
        return [i for i, pkt in enumerate(self.packets) if pkt is not None]

    @property
    def missing_indices(self) -> list:
        return [i for i, pkt in enumerate(self.packets) if pkt is None]


def _lagrange(log_sums, targets, nodes, dropped, added) -> np.ndarray:
    # the Lagrange basis values C[x, r] = prod over m in R, m != r of
    # (x ^ m) / (r ^ m), (..., t, k), at points x (..., t) not in the node
    # sets R (..., k), each the sources minus `dropped` plus `added` (..., d).
    # Its log is F(x) - LOG[x ^ r] - F(r), where F(y) = sum of LOG[y ^ m]
    # over m in R (LOG[0] = 0 drops m = y) is log_sums[y] corrected for the
    # moved points; uint8 points and int16 logs keep the big arrays small
    d = dropped.shape[-1]
    points = np.concatenate([targets, nodes], axis=-1)
    logs = log_sums[points]
    points = points.astype(np.uint8)
    moved = np.concatenate([dropped, added], axis=-1).astype(np.uint8)
    terms = _LOG16.take(moved[..., :, None] ^ points[..., None, :])
    logs -= terms[..., :d, :].sum(axis=-2)
    logs += terms[..., d:, :].sum(axis=-2)
    logs = (logs % 255).astype(np.int16)
    t = targets.shape[-1]
    exponents = _LOG16.take(points[..., :t, None] ^ points[..., None, t:])
    np.subtract(logs[..., :t, None] + 510, exponents, out=exponents)
    exponents -= logs[..., None, t:]
    return _EXP3.take(exponents)


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
    XOR in GF(2^8)): the decoder's `_lagrange` with the sources as nodes,
    from the row sums `log_sums` of one n x k log-table gather, with no
    inversion and no matrix product.
    """
    n, k = spec.n, spec.k
    log_sums = LOG_TABLE[np.arange(n)[:, None] ^ np.arange(k)].sum(axis=1)
    log_sums.setflags(write=False)
    none = np.zeros(0, dtype=np.intp)
    parity = _lagrange(log_sums, np.arange(k, n), np.arange(k), none, none)
    matrix = np.concatenate([identity(k), parity])
    matrix.setflags(write=False)
    return GeneratorMatrix(spec, matrix, log_sums)


def encode(gen: GeneratorMatrix, source: PacketBlock) -> PacketBlock:
    """Encode k source packets into n packets (sources + parity).

    The k source packets pass through byte-identical; the parity packets
    are the GF(256) product of the generator's parity rows with the k x L
    source array (p*k MACs per byte in total).  Raises ValueError unless
    `source` is a full source block of `gen`'s code.
    """
    spec = gen.spec
    if source.spec != spec:
        raise ValueError(f"source block of {source.spec} given to the encoder of {spec}")
    if len(source.packets) != spec.k or None in source.packets:
        raise ValueError(f"encode needs exactly {spec.k} present source packets")
    sources = source.rows(range(spec.k))
    parity = mat_mul(gen.parity_rows, sources)
    mac_counter.per_byte += spec.p * spec.k
    return PacketBlock(
        spec, source.packet_size, source.packets + tuple(row.tobytes() for row in parity)
    )


def _coefficients(gen: GeneratorMatrix, erased: np.ndarray, e: int) -> tuple:
    # for (B, n) masks that each erase e sources and at most p slots: the
    # erased sources E (B, e), the slots R read (B, k): the kept sources,
    # then the first e surviving parity (stable sorts of the masks put the
    # wanted slots first, in order), and C[E, R] (B, e, k), the rows of
    # G[R]^-1 for E: x_E = C[E, R] y_R
    k = gen.spec.k
    parity = k + np.argsort(erased[:, k:], axis=1, kind="stable")[:, :e]
    sources = np.argsort(~erased[:, :k], axis=1, kind="stable")
    lost, nodes = sources[:, :e], np.concatenate([sources[:, e:], parity], axis=1)
    # slices of about 2^14 entries keep _lagrange's temporaries cache-sized
    step = max(1, (1 << 14) // (e * (k + e) + 1))
    slices = [slice(i, i + step) for i in range(0, len(lost), step)]
    coefficients = [_lagrange(gen.log_sums, lost[i], nodes[i], lost[i], parity[i]) for i in slices]
    return lost, nodes, np.concatenate(coefficients)


def decode_batch(gen: GeneratorMatrix, received: np.ndarray, erased: np.ndarray) -> np.ndarray:
    """Recover the sources of B coded blocks at once.

    `received` is a (B, n, L) uint8 array of coded blocks and `erased` the
    (B, n) boolean mask of their lost slots, which are never read (zero
    them, so that a solve that read one would show); every block must keep
    at least k of its n packets.  Returns the (B, k, L) sources.

    The blocks are grouped by e, their number of erased sources.  A block's
    erased sources are the values at their points of the polynomial that its
    kept sources and first e surviving parity packets interpolate: a group
    gets those Lagrange coefficients in closed form (the rows of G[R]^-1
    for its erased sources, R the k slots read), gathers only those slots,
    and recovers its sources with one batched product, e*k MACs per byte
    per block, added to `mac_counter`.
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
        lost, nodes, coefficients = _coefficients(gen, erased[group], e)
        sources[group[:, None], lost] = mat_mul(coefficients, received[group[:, None], nodes])
        mac_counter.per_byte += len(group) * e * k
    return sources


def decode(gen: GeneratorMatrix, received: PacketBlock) -> list:
    """Recover the k source packets from any >= k received packets.

    If every source packet survived they are returned as-is with no matrix
    work.  Otherwise only the k slots that `decode_batch`'s coefficients
    read (the kept sources, then the first e surviving parity) are joined,
    for one product at e*k MACs per byte (e = number of lost sources).  An
    erased slot holds None, so a solve that reached one would raise.  The
    surviving sources are returned as the same objects.

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

    erased = np.zeros((1, spec.n), dtype=bool)
    erased[0, missing] = True
    _, nodes, coefficients = _coefficients(gen, erased, len(missing_src))
    recovered = iter(mat_mul(coefficients[0], received.rows(nodes[0].tolist())))
    mac_counter.per_byte += len(missing_src) * k
    return [
        pkt if pkt is not None else next(recovered).tobytes() for pkt in packets[:k]
    ]
