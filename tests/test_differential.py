"""Differential sweep: random codes and splits against an independent reference.

Seeded random plain codes (k 1-60, p 1-12, packets of 1-40 bytes) and random
two-way splits of such codes (excess 0-3) go through `encode`/`decode`,
`decode_batch` and `encode_partitioned`/`decode_partitioned`.  Every part's
parity must equal the Vandermonde reference V * V_top^-1 times the sources,
both products taken with a scalar multiply-accumulate loop; decoded bytes
must equal the payloads, surviving sources must come back as the caller's
objects, a loss must name exactly the erased sources (in parent positions),
and `mac_counter` must read p*k, the sum of p_i*k_i, and e*k.  Each case
draws from its own generator, seeded [SEED, case], and a failure names both.
"""

import numpy as np
import pytest

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
from fecpart.gf256 import MUL_TABLE, gf_pow, mat_invert
from fecpart.partition import decode_partitioned, encode_partitioned, half_generators, split

SEED = 2022
PLAIN_CASES = 150
SPLIT_CASES = 100
_MUL = MUL_TABLE.tolist()  # test_gf256 checks every entry against the bitwise oracle


def scalar_product(a, b):
    # GF(2^8) matrix product, one scalar multiply-accumulate at a time
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i, row in enumerate(a.tolist()):
        for c, column in enumerate(b.T.tolist()):
            acc = 0
            for x, y in zip(row, column):
                acc ^= _MUL[x][y]
            out[i, c] = acc
    return out


def reference_parity_rows(spec):
    # the parity rows of V * V_top^-1, V the Vandermonde matrix on 0..n-1
    vandermonde = np.array([[gf_pow(i, j) for j in range(spec.k)] for i in range(spec.n)],
                           dtype=np.uint8)
    return scalar_product(vandermonde[spec.k :], mat_invert(vandermonde[: spec.k]))


def draw_code(rng, case):
    k, p = int(rng.integers(1, 61)), int(rng.integers(1, 13))
    case["code"] = CodeSpec(k + p, k)
    case["L"] = int(rng.integers(1, 41))
    return case["code"]


def draw_split(rng, case):
    while True:
        k, p = int(rng.integers(2, 61)), int(rng.integers(1, 13))
        try:
            case["code"] = split(CodeSpec(k + p, k), int(rng.integers(0, 4)))
        except ValueError:  # a half with no parity: draw again
            continue
        case["L"] = int(rng.integers(1, 41))
        return case["code"]


def erasures(rng, spec, most):
    # a random set of at most `most` of spec's n slots, sorted
    count = int(rng.integers(0, min(most, spec.n) + 1))
    return sorted(rng.choice(spec.n, count, replace=False).tolist())


def check_parity(gen, coded, sources):
    # coded: the n packets of one part's block; sources its k payloads
    spec = gen.spec
    reference = reference_parity_rows(spec)
    assert np.array_equal(gen.parity_rows, reference), "generator differs from V * V_top^-1"
    array = np.frombuffer(b"".join(sources), np.uint8).reshape(spec.k, -1)
    expected = [row.tobytes() for row in scalar_product(reference, array)]
    assert list(coded.packets[spec.k :]) == expected, "parity differs from the reference"
    assert all(a is b for a, b in zip(coded.packets, sources)), "sources not passed through"


def check_decode_batch(rng, gen, coded, sources, case):
    # a batch of random patterns within the part's parity, erased slots zeroed
    spec = gen.spec
    patterns = [erasures(rng, spec, spec.p) for _ in range(int(rng.integers(1, 9)))]
    case.setdefault("batch", []).append(patterns)
    block = np.frombuffer(b"".join(coded.packets), np.uint8).reshape(spec.n, -1)
    received = np.repeat(block[None], len(patterns), axis=0)
    erased = np.zeros(received.shape[:2], dtype=bool)
    for b, slots in enumerate(patterns):
        erased[b, slots] = True
    received[erased] = 0
    mac_counter.reset()
    recovered = decode_batch(gen, received, erased)
    assert np.array_equal(recovered, np.broadcast_to(block[: spec.k], recovered.shape))
    lost = sum(sum(1 for i in slots if i < spec.k) for slots in patterns)
    assert mac_counter.per_byte == lost * spec.k, "decode_batch MACs"


def run_cases(count, check):
    for index in range(count):
        case = {}
        try:
            check(np.random.default_rng([SEED, index]), case)
        except Exception as exc:
            pytest.fail(f"seed [{SEED}, {index}], case {case}: {exc!r}")


def test_plain_codes_match_the_reference():
    def check(rng, case):
        spec = draw_code(rng, case)
        payloads = [rng.bytes(case["L"]) for _ in range(spec.k)]
        gen = build_generator(spec)
        mac_counter.reset()
        coded = encode(gen, PacketBlock.source(spec, payloads))
        assert mac_counter.per_byte == spec.p * spec.k, "encode MACs"
        check_parity(gen, coded, payloads)
        check_decode_batch(rng, gen, coded, payloads, case)

        slots = case["erased"] = erasures(rng, spec, spec.p + 2)
        lost = [i for i in slots if i < spec.k]
        mac_counter.reset()
        if len(slots) > spec.p:
            with pytest.raises(UnrecoverableBlockError) as err:
                decode(gen, coded.erase(slots))
            assert err.value.lost_source_indices == tuple(lost)
            return
        recovered = decode(gen, coded.erase(slots))
        assert mac_counter.per_byte == len(lost) * spec.k, "decode MACs"
        assert recovered == payloads
        assert all(recovered[i] is payloads[i] for i in range(spec.k) if i not in lost)

    run_cases(PLAIN_CASES, check)


def test_splits_match_the_reference():
    def check(rng, case):
        ps = draw_split(rng, case)
        payloads = [rng.bytes(case["L"]) for _ in range(ps.parent.k)]
        gens = half_generators(ps)
        mac_counter.reset()
        coded = encode_partitioned(ps, PacketBlock.source(ps.parent, payloads), gens)
        assert mac_counter.per_byte == sum(part.p * part.k for part in ps.parts), "encode MACs"

        received, gone, lost, offset = [], [], [], 0
        for part, gen, block in zip(ps.parts, gens, coded):
            own = payloads[offset : offset + part.k]
            check_parity(gen, block, own)
            check_decode_batch(rng, gen, block, own, case)
            slots = erasures(rng, part, part.p + 2)
            case.setdefault("erased", []).append(slots)
            received.append(block.erase(slots))
            part_gone = [offset + i for i in slots if i < part.k]
            gone += part_gone
            if len(slots) > part.p:
                lost += part_gone
            offset += part.k

        mac_counter.reset()
        if lost:
            with pytest.raises(UnrecoverableBlockError) as err:
                decode_partitioned(ps, tuple(received), gens)
            assert err.value.lost_source_indices == tuple(lost)
            return
        recovered = decode_partitioned(ps, tuple(received), gens)
        # each part solves its own erased sources at e_i * k_i MACs
        macs = sum(sum(1 for i in slots if i < part.k) * part.k
                   for part, slots in zip(ps.parts, case["erased"]))
        assert mac_counter.per_byte == macs, "decode MACs"
        assert recovered == payloads
        assert all(recovered[i] is payloads[i] for i in range(ps.parent.k) if i not in gone)

    run_cases(SPLIT_CASES, check)
