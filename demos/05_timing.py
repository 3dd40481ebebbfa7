#!/usr/bin/env python3
"""Measure the cost reduction on this machine: encode/decode, plain vs split.

Times the codec on 1500-byte packets with 8 parity packets across block
lengths, and the decoder's coefficient step on its own (the closed-form
Lagrange coefficients that stand in for a matrix inversion), all in one
round-robin sweep.  Expect the partitioned timings near half the plain
ones, and the coefficients to be noise next to the per-byte product work.
"""

from fecpart.bench import BenchConfig, run_bench

cfg = BenchConfig(k_values=(25, 50, 100), parity=8, packet_size=1500, iterations=50)

# one round-robin sweep times every (mode, phase, k) point
ms = {(pt.mode, pt.phase, pt.k): pt.median_ms for pt in run_bench(cfg)}

print(f"{'k':>4} {'encode ms':>10} {'split ms':>9} {'ratio':>6}   "
      f"{'decode ms':>10} {'split ms':>9} {'ratio':>6}")
for k in cfg.k_values:
    enc, part_enc = ms["plain", "encode", k], ms["partitioned", "encode", k]
    dec, part_dec = ms["plain", "decode", k], ms["partitioned", "decode", k]
    print(f"{k:>4} {enc:>10.3f} {part_enc:>9.3f} {part_enc / enc:>6.2f}   "
          f"{dec:>10.3f} {part_dec:>9.3f} {part_dec / dec:>6.2f}")

inv = ms["plain", "invert", 100]
print(f"\nisolated decoder coefficients at k=100: {inv:.3f} ms "
      f"({inv / ms['plain', 'decode', 100] * 100:.1f}% of the full decode)")
print("the decoder's time goes into per-byte table lookups, not its coefficients.")
