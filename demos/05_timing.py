#!/usr/bin/env python3
"""Measure the cost reduction on this machine: encode/decode, plain vs split.

Times the codec on 1500-byte packets with 8 parity packets across block
lengths, then isolates the decoder's matrix-inversion step.  Expect the
partitioned timings near half the plain ones, and inversion to be noise
next to the per-byte matrix-product work.
"""

from fecpart import BenchConfig, bench_decode, bench_encode, bench_invert

cfg = BenchConfig(k_values=(25, 50, 100), parity=8, packet_size=1500, iterations=50)

plain_enc = {pt.k: pt.median_ms for pt in bench_encode(cfg, "plain")}
part_enc = {pt.k: pt.median_ms for pt in bench_encode(cfg, "partitioned")}
plain_dec = {pt.k: pt.median_ms for pt in bench_decode(cfg, "plain")}
part_dec = {pt.k: pt.median_ms for pt in bench_decode(cfg, "partitioned")}

print(f"{'k':>4} {'encode ms':>10} {'split ms':>9} {'ratio':>6}   "
      f"{'decode ms':>10} {'split ms':>9} {'ratio':>6}")
for k in cfg.k_values:
    print(f"{k:>4} {plain_enc[k]:>10.3f} {part_enc[k]:>9.3f} "
          f"{part_enc[k] / plain_enc[k]:>6.2f}   "
          f"{plain_dec[k]:>10.3f} {part_dec[k]:>9.3f} "
          f"{part_dec[k] / plain_dec[k]:>6.2f}")

inv = bench_invert(100, iterations=50, parity=8)
print(f"\nisolated decode-path inversion at k=100: {inv.median_ms:.3f} ms "
      f"({inv.median_ms / plain_dec[100] * 100:.1f}% of the full decode)")
print("the decoder's time goes into per-byte table lookups, not the inversion.")
