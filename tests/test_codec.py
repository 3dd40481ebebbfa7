"""Systematic MDS codec: generator construction, encode, decode."""

import itertools

import numpy as np
import pytest

import fecpart.codec as codec_mod
import fecpart.gf256 as gf256_mod
from fecpart.codec import (
    CodeSpec,
    PacketBlock,
    UnrecoverableBlockError,
    build_generator,
    decode,
    decode_batch,
    encode,
    mac_counter,
)
from fecpart.gf256 import SingularMatrixError, gf_mul, gf_pow, identity, mat_invert, mat_mul
from fecpart.partition import decode_partitioned, encode_partitioned, half_generators, split


def random_payloads(rng, k, size=64):
    return [rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(k)]


def coefficients(gen, erased):
    # the decoder's coefficient step for one pattern of erased slots: the
    # erased sources E, the slots R it reads and C[E, R]
    mask = np.zeros((1, gen.spec.n), dtype=bool)
    mask[0, erased] = True
    lost, nodes, c = codec_mod._coefficients(gen, mask, int(mask[0, : gen.spec.k].sum()))
    return lost[0], nodes[0], c[0]


def test_code_spec_validation():
    CodeSpec(255, 254)
    with pytest.raises(ValueError):
        CodeSpec(4, 4)
    with pytest.raises(ValueError):
        CodeSpec(4, 0)
    with pytest.raises(ValueError):
        CodeSpec(256, 100)
    assert CodeSpec(6, 4).p == 2


def test_code_spec_rejects_non_integer_sizes():
    # a float size would otherwise build a code with a fractional p
    for n, k in ((44.5, 40), (44, 40.0), (44.0, 40), ("44", 40)):
        with pytest.raises(TypeError):
            CodeSpec(n, k)
    spec = CodeSpec(np.int64(44), np.uint8(40))
    assert spec == CodeSpec(44, 40)
    assert (type(spec.n), type(spec.k), spec.p) == (int, int, 4)


def test_generator_systematic_prefix():
    gen = build_generator(CodeSpec(5, 4))
    assert gen.matrix.shape == (5, 4)
    assert np.array_equal(gen.matrix[:4], identity(4))


def test_generator_deterministic():
    a = build_generator(CodeSpec(9, 5)).matrix
    b = build_generator(CodeSpec(9, 5)).matrix
    assert np.array_equal(a, b)


def test_generator_matches_gf_pow_definition():
    # the generator is the Vandermonde matrix of i**j (gf_pow, 0**0 = 1)
    # times the inverse of its top k x k block, bit for bit: every small
    # code, the codes the benchmarks build and the extremes of n = 255
    specs = [CodeSpec(n, k) for n in range(2, 13) for k in range(1, n)]
    specs += [CodeSpec(n, k) for n, k in ((24, 20), (44, 40), (54, 50), (108, 100),
                                          (120, 100), (255, 200))]
    specs += [CodeSpec(255, k) for k in (1, 2, 128, 247, 254)]
    for spec in specs:
        vand = np.array(
            [[gf_pow(i, j) for j in range(spec.k)] for i in range(spec.n)], dtype=np.uint8
        )
        expected = mat_mul(vand, mat_invert(vand[: spec.k]))
        assert np.array_equal(build_generator(spec).matrix, expected), spec


def forbid_inversion(monkeypatch):
    # make every reachable name of the Gauss-Jordan inverse raise
    def forbidden(*args):
        raise AssertionError("a matrix inversion ran")

    monkeypatch.setattr(codec_mod, "mat_invert", forbidden)
    monkeypatch.setattr(gf256_mod, "mat_invert", forbidden)


def test_generator_needs_no_inversion_or_product(monkeypatch):
    # the parity rows are built in closed form, not as V * V_top^-1
    def forbidden(*args):
        raise AssertionError("build_generator ran a matrix product")

    forbid_inversion(monkeypatch)
    monkeypatch.setattr(codec_mod, "mat_mul", forbidden)
    gen = build_generator(CodeSpec(255, 200))
    assert gen.matrix.shape == (255, 200)


def test_generator_all_submatrices_invertible():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    for rows in itertools.combinations(range(spec.n), spec.k):
        mat_invert(gen.matrix[list(rows)])  # raises SingularMatrixError on failure


def test_parity_entries_all_nonzero():
    # a zero parity entry would make some submatrix singular
    gen = build_generator(CodeSpec(12, 8))
    assert np.all(gen.parity_rows != 0)


def test_encode_systematic():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(0), 4)
    block = encode(gen, PacketBlock.source(spec, payloads))
    assert list(block.packets[:4]) == payloads
    assert len(block.packets) == 6


def test_encode_zero_source_gives_zero_parity():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    block = encode(gen, PacketBlock.source(spec, [bytes(32)] * 4))
    assert all(pkt == bytes(32) for pkt in block.packets)


def test_encode_matches_per_byte_dot_product_oracle():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(5), 4)
    block = encode(gen, PacketBlock.source(spec, payloads))
    for r in range(spec.k, spec.n):
        expected = bytearray(64)
        for pos in range(64):
            acc = 0
            for j in range(spec.k):
                acc ^= gf_mul(int(gen.matrix[r, j]), payloads[j][pos])
            expected[pos] = acc
        assert block.packets[r] == bytes(expected)


def test_encode_rejects_wrong_packet_count_or_size():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    with pytest.raises(ValueError):
        PacketBlock.source(spec, [b"abc"] * 3)
    with pytest.raises(ValueError):
        PacketBlock.source(spec, [b"abc", b"abc", b"abc", b"abcd"])
    # a source block of another code, even one with the same k
    for other in (CodeSpec(8, 4), CodeSpec(5, 4), CodeSpec(6, 5)):
        payloads = random_payloads(np.random.default_rng(7), other.k, size=3)
        with pytest.raises(ValueError):
            encode(gen, PacketBlock.source(other, payloads))


def test_packet_block_erase_and_indices():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    block = encode(gen, PacketBlock.source(spec, random_payloads(np.random.default_rng(1), 4)))
    erased = block.erase([1, 5])
    assert erased.missing_indices == [1, 5]
    assert erased.present_indices == [0, 2, 3, 4]
    for bad in ([6], [-1], [200], [3, 6]):  # not slots of this block
        with pytest.raises(ValueError):
            block.erase(bad)
    for bad in ([1.5], [1.0], [2, 0.5]):  # not integers: raised, not dropped
        with pytest.raises(TypeError):
            block.erase(bad)
    assert block.erase(np.array([1, 5])).missing_indices == [1, 5]  # numpy ints pass


def test_packet_block_rows_in_the_given_order():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    block = encode(gen, PacketBlock.source(spec, random_payloads(np.random.default_rng(3), 4, size=5)))
    for indices in ([5, 0, 3], range(6), np.array([2, 2]), []):
        rows = block.rows(indices)
        assert rows.dtype == np.uint8 and rows.shape == (len(indices), 5)
        assert [row.tobytes() for row in rows] == [block.packets[i] for i in indices]
        assert not rows.flags.writeable
    with pytest.raises(TypeError):  # an erased slot holds no packet to read
        block.erase([3]).rows([0, 3])


def test_packet_block_holds_a_tuple_and_an_int_size():
    # a list of packets is held as a tuple, so the frozen block hashes and
    # encodes, and the size is an integer of at least one byte
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(2), 4, size=8)
    block = PacketBlock(spec, np.int64(8), list(payloads))
    assert block.packets == tuple(payloads) and type(block.packet_size) is int
    assert hash(block) == hash(PacketBlock.source(spec, payloads))
    assert decode(gen, encode(gen, block)) == payloads
    for size in (-1, 0):
        with pytest.raises(ValueError):
            PacketBlock(spec, size, (None,) * 4)
    with pytest.raises(ValueError):
        PacketBlock(spec, 0, (b"",) * 4)
    with pytest.raises(TypeError):
        PacketBlock(spec, 1.5, (None,) * 4)
    with pytest.raises(ValueError):  # empty packets
        PacketBlock.source(spec, [b""] * 4)


def test_packet_block_source_refuses_an_integer_payload():
    # bytes(5) is five zero bytes: an integer is a size, never a payload
    spec = CodeSpec(4, 2)
    for bad in ([5, 5], [np.int64(5)] * 2, [b"abcde", 5], [True, True]):
        with pytest.raises(TypeError, match="integer"):
            PacketBlock.source(spec, bad)
    # bytes-like payloads still pass, and bytes are kept, not copied
    payloads = [b"abcde", bytearray(b"fghij")]
    block = PacketBlock.source(spec, payloads)
    assert block.packets[0] is payloads[0] and block.packets[1] == b"fghij"
    assert PacketBlock.source(spec, [np.arange(3, dtype=np.uint8)] * 2).packets == (b"\x00\x01\x02",) * 2


def test_decode_never_reads_an_erased_slot(monkeypatch):
    # hand the solve an erased slot in place of a kept one: the join of the
    # slots it reads must raise, not stand in zeros and return wrong bytes
    spec = CodeSpec(8, 5)
    gen = build_generator(spec)
    block = encode(gen, PacketBlock.source(spec, random_payloads(np.random.default_rng(4), 5)))
    real_coefficients = codec_mod._coefficients

    def misread(gen, erased, e):
        lost, nodes, coefficients = real_coefficients(gen, erased, e)
        nodes = nodes.copy()
        nodes[0, 0] = lost[0, 0]
        return lost, nodes, coefficients

    monkeypatch.setattr(codec_mod, "_coefficients", misread)
    with pytest.raises(TypeError):
        decode(gen, block.erase([1, 6]))


def test_decode_returns_surviving_sources_as_received():
    # a lossy decode copies only what it recovers: every surviving source
    # is the very object the block carried
    spec = CodeSpec(12, 8)
    gen = build_generator(spec)
    block = encode(gen, PacketBlock.source(spec, random_payloads(np.random.default_rng(5), 8)))
    for pattern in ([0], [2, 7, 9], [1, 3, 4, 6]):
        received = block.erase(pattern)
        decoded = decode(gen, received)
        assert decoded == list(block.packets[: spec.k])
        assert all(decoded[i] is received.packets[i] for i in received.present_indices if i < spec.k)


def test_decode_fast_path_performs_no_inversion(monkeypatch):
    # with no source lost, plain and split decodes return the received
    # sources as they are: no inversion, no coefficient step (its closed-form
    # stand-in), no product, no MAC
    spec = CodeSpec(12, 8)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(16), spec.k, size=8)
    source = PacketBlock.source(spec, payloads)
    block = encode(gen, source)
    ps = split(spec)
    gens = half_generators(ps)
    halves = encode_partitioned(ps, source, gens)

    def forbidden(*args):
        raise AssertionError("the fast path ran a solve")

    forbid_inversion(monkeypatch)
    monkeypatch.setattr(codec_mod, "mat_mul", forbidden)
    monkeypatch.setattr(codec_mod, "_coefficients", forbidden)
    mac_counter.reset()
    for lost in ([], [8, 11]):  # nothing erased, then only parity
        rx = block.erase(lost)
        recovered = decode(gen, rx)
        assert recovered == payloads
        assert all(a is b for a, b in zip(recovered, rx.packets))
    for lost in (([], []), ([4], [5]), ([4, 5], [])):  # no half loses a source
        rx = tuple(half.erase(slots) for half, slots in zip(halves, lost))
        assert decode_partitioned(ps, rx, gens) == payloads
    assert mac_counter.per_byte == 0


def test_decoder_never_inverts(monkeypatch):
    # the decoder interpolates: every pattern of up to p erasures of C(8, 5)
    # decodes, block by block and as one batch, with no inversion reachable
    spec = CodeSpec(8, 5)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(13), spec.k, size=5)
    block = encode(gen, PacketBlock.source(spec, payloads))
    coded = coded_array(gen, payloads)
    patterns = [p for e in range(spec.p + 1) for p in itertools.combinations(range(spec.n), e)]
    erased = np.zeros((len(patterns), spec.n), dtype=bool)
    for row, pattern in zip(erased, patterns):
        row[list(pattern)] = True
    forbid_inversion(monkeypatch)
    for pattern in patterns:
        assert decode(gen, block.erase(pattern)) == payloads, pattern
    sources = decode_batch(gen, np.where(erased[:, :, None], np.uint8(0), coded), erased)
    assert np.array_equal(sources, np.broadcast_to(coded[: spec.k], sources.shape))


def test_decode_all_two_erasure_patterns():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(3), 4)
    block = encode(gen, PacketBlock.source(spec, payloads))
    for pattern in itertools.combinations(range(6), 2):
        assert decode(gen, block.erase(pattern)) == payloads, pattern


def test_decode_too_many_erasures_errors_with_lost_sources():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(4), 4)
    block = encode(gen, PacketBlock.source(spec, payloads))
    with pytest.raises(UnrecoverableBlockError) as exc_info:
        decode(gen, block.erase([0, 2, 5]))
    assert exc_info.value.lost_source_indices == (0, 2)
    assert exc_info.value.received == 3
    assert exc_info.value.needed == 4


def test_decode_never_returns_wrong_data_on_failure():
    spec = CodeSpec(7, 4)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(6), 4, size=16)
    block = encode(gen, PacketBlock.source(spec, payloads))
    for count in range(4, 8):
        for pattern in itertools.combinations(range(7), count):
            lost_src = tuple(i for i in pattern if i < 4)
            with pytest.raises(UnrecoverableBlockError) as exc_info:
                decode(gen, block.erase(pattern))
            assert exc_info.value.lost_source_indices == lost_src


def test_encode_mac_count_is_p_times_k():
    spec = CodeSpec(10, 7)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(8), 7, size=8)
    mac_counter.reset()
    encode(gen, PacketBlock.source(spec, payloads))
    assert mac_counter.per_byte == spec.p * spec.k


def test_decode_mac_count_is_e_times_k():
    spec = CodeSpec(10, 7)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(9), 7, size=8)
    block = encode(gen, PacketBlock.source(spec, payloads))
    for erased in ([0], [0, 3], [1, 2, 6]):
        mac_counter.reset()
        assert decode(gen, block.erase(erased)) == payloads
        assert mac_counter.per_byte == len(erased) * spec.k


def test_coefficients_invert_the_parity_block():
    gen = build_generator(CodeSpec(12, 8))
    lost, nodes, c = coefficients(gen, [1, 4, 6])
    assert lost.tolist() == [1, 4, 6] and c.shape == (3, 8)
    # on the parity rows it reads, its last e columns, C inverts the e x e
    # block G[P, E]
    parity = [8, 9, 10]
    assert nodes[-3:].tolist() == parity
    assert np.array_equal(mat_mul(c[:, -3:], gen.matrix[parity][:, lost]), identity(3))


def test_decode_rejects_source_sized_block():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    source = PacketBlock.source(spec, random_payloads(np.random.default_rng(10), 4))
    with pytest.raises(ValueError):
        decode(gen, source)


def test_roundtrip_medium_code_random_patterns():
    spec = CodeSpec(30, 24)
    gen = build_generator(spec)
    rng = np.random.default_rng(11)
    payloads = random_payloads(rng, spec.k, size=32)
    block = encode(gen, PacketBlock.source(spec, payloads))
    for _ in range(200):
        count = int(rng.integers(0, spec.p + 1))
        pattern = rng.choice(spec.n, size=count, replace=False)
        assert decode(gen, block.erase(pattern.tolist())) == payloads


def test_decode_rejects_block_of_another_code():
    # a C(10,8) block has n=10 slots like C(10,6), but it is not its code
    gen = build_generator(CodeSpec(10, 6))
    other = CodeSpec(10, 8)
    payloads = random_payloads(np.random.default_rng(12), 8)
    block = encode(build_generator(other), PacketBlock.source(other, payloads))
    with pytest.raises(ValueError):
        decode(gen, block.erase([0]))
    with pytest.raises(ValueError):
        decode(gen, block)


def coded_array(gen, payloads):
    block = encode(gen, PacketBlock.source(gen.spec, payloads))
    return block.rows(range(gen.spec.n))


def test_decode_batch_matches_decode_per_block():
    # every pattern of up to p erasures of C(9, 5), as one batch that
    # mixes erased-source counts e = 0..4
    spec = CodeSpec(9, 5)
    gen = build_generator(spec)
    payloads = random_payloads(np.random.default_rng(14), spec.k, size=6)
    coded = coded_array(gen, payloads)
    block = encode(gen, PacketBlock.source(spec, payloads))
    patterns = [p for e in range(spec.p + 1) for p in itertools.combinations(range(spec.n), e)]
    erased = np.zeros((len(patterns), spec.n), dtype=bool)
    for row, pattern in zip(erased, patterns):
        row[list(pattern)] = True
    received = np.where(erased[:, :, None], np.uint8(0), coded)
    mac_counter.reset()
    sources = decode_batch(gen, received, erased)
    assert mac_counter.per_byte == spec.k * int(erased[:, : spec.k].sum())
    assert sources.shape == (len(patterns), spec.k, 6)
    assert np.array_equal(sources, np.broadcast_to(coded[: spec.k], sources.shape))
    for pattern, got in zip(patterns, sources):
        assert [row.tobytes() for row in got] == decode(gen, block.erase(pattern))
    # the erased slots are never read
    garbage = np.where(erased[:, :, None], np.uint8(0xA5), coded)
    assert np.array_equal(decode_batch(gen, garbage, erased), sources)


def test_decode_batch_reads_non_contiguous_blocks():
    # the solve gathers whole packets, which must also work on views whose
    # bytes or slots are strided: every result equals the contiguous one's
    spec = CodeSpec(12, 8)
    gen = build_generator(spec)
    rng = np.random.default_rng(16)
    coded = coded_array(gen, random_payloads(rng, spec.k, size=5))
    erased = np.zeros((40, spec.n), dtype=bool)
    for row in erased:
        row[rng.choice(spec.n, rng.integers(0, spec.p + 1), replace=False)] = True
    received = np.where(erased[:, :, None], np.uint8(0), coded)
    expected = decode_batch(gen, received, erased)
    assert np.array_equal(expected, np.broadcast_to(coded[: spec.k], expected.shape))
    wide = np.zeros((40, 2 * spec.n, 10), np.uint8)
    for view in (wide[:, : spec.n, ::2], wide[:, ::2, 1::2], wide[:, ::-2, :5]):
        view[:] = received
        assert np.array_equal(decode_batch(gen, view, erased), expected)


def test_decode_batch_checks_shapes_and_code():
    spec = CodeSpec(6, 4)
    gen = build_generator(spec)
    coded = coded_array(gen, random_payloads(np.random.default_rng(15), spec.k, size=3))
    received = np.stack([coded, coded])
    erased = np.zeros((2, spec.n), dtype=bool)
    assert decode_batch(gen, received, erased).shape == (2, spec.k, 3)
    other = build_generator(CodeSpec(7, 4))
    bad = [
        (other, received, erased),  # blocks of another code
        (gen, received[:, :5], erased[:, :5]),  # too few slots
        (gen, received[0], erased[0]),  # not a batch
        (gen, received.astype(np.int64), erased),  # not bytes
        (gen, received, erased[:1]),  # mask of another batch
        (gen, received, np.ones((2, spec.n), dtype=bool)),  # more than p erased
    ]
    for args in bad:
        with pytest.raises(ValueError):
            decode_batch(*args)


def test_coefficients_use_first_surviving_parity_rows():
    # the decoder's rule: it reads the kept sources and the first e
    # surviving parity rows, in slot order, and nothing else
    gen = build_generator(CodeSpec(12, 8))
    for erased, read in (
        ([6, 1, 4], [0, 2, 3, 5, 7, 8, 9, 10]),
        ([0, 8, 10], [1, 2, 3, 4, 5, 6, 7, 9]),
        ([2, 3, 9], [0, 1, 4, 5, 6, 7, 8, 10]),
    ):
        _, nodes, c = coefficients(gen, erased)
        assert nodes.tolist() == read, erased
        assert (c != 0).all()


def test_coefficients_are_the_k_row_inverse():
    # on the k slots R it reads, C holds the rows of G[R]^-1 for the erased
    # sources, bit for bit: every R of every code with n <= 8, and the
    # first 10 row sets criterion 4 draws on C(255, 200)
    cases = []
    for n in range(2, 9):
        for k in range(1, n):
            gen = build_generator(CodeSpec(n, k))
            cases += [(gen, list(rows)) for rows in itertools.combinations(range(n), k)]
    big = build_generator(CodeSpec(255, 200))
    rng = np.random.default_rng(99)
    cases += [(big, rng.choice(255, size=200, replace=False)) for _ in range(10)]
    for gen, rows in cases:
        rows = np.sort(rows)
        lost, nodes, c = coefficients(gen, np.setdiff1d(np.arange(gen.spec.n), rows))
        assert np.array_equal(nodes, rows), rows
        assert np.array_equal(c, mat_invert(gen.matrix[rows])[lost]), rows
