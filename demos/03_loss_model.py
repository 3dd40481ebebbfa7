#!/usr/bin/env python3
"""Residual loss rate three ways: analytic formula, enumeration, simulation.

The analytic model predicts the fraction of source packets a code fails
to deliver on a memoryless erasure channel.  For small codes we can check
it against exact enumeration of every erasure pattern, and for any code
against Monte-Carlo simulation through the real codec.
"""

from fecpart import (
    BecChannel,
    CodeSpec,
    analytic_plr,
    brute_force_plr,
    monte_carlo_plr,
    split,
)

spec = CodeSpec(n=12, k=8)
print(f"code C({spec.n},{spec.k}), residual PLR by channel quality:\n")
print(f"{'p_e':>6} {'analytic':>12} {'enumeration':>12} {'monte carlo':>12}")
for pe in (0.01, 0.05, 0.1, 0.2):
    ch = BecChannel(pe)
    exact = analytic_plr(spec, ch).plr
    brute = brute_force_plr(spec, ch).plr
    mc = monte_carlo_plr(spec, ch, trials=200_000, seed=1)
    print(f"{pe:>6} {exact:>12.3e} {brute:>12.3e} "
          f"{mc.plr:>9.3e} +-{mc.half_width:.1e}")

print("\nsame code partitioned (halves cannot pool parity):\n")
ps = split(spec)
print(f"{'p_e':>6} {'plain':>12} {'partitioned':>12} {'penalty':>12}")
for pe in (0.01, 0.05, 0.1, 0.2):
    ch = BecChannel(pe)
    plain = analytic_plr(spec, ch).plr
    part = analytic_plr(ps, ch).plr
    print(f"{pe:>6} {plain:>12.3e} {part:>12.3e} {part - plain:>12.3e}")
