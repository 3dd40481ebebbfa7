"""Per-layer numbers of one traced measurement.

Times and counts are means per operation of the loop that caused them: per
run of a stream block of that coding ("plain" or "part"), per
`monte_carlo_plr` call ("mc", or one code), per plan request.  A run lasts a
fixed time, so totals would move with speed; means per operation do not.  MAC counts come from
the package's `mac_counter`, read around each stream call; everything timed
comes from the spans.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from workloads import PACKET_SIZE, ratio

INVERT, DECODE, ENCODE = "gf256.mat_invert", "codec.decode", "codec.encode"
MC, MIN_N, EXCESS = "lossmodel.monte_carlo_plr", "planner.min_n_for_target", "planner.distribute_excess"


class _Spans:
    """Span totals keyed by (request tag, span name[, parent span name])."""

    def __init__(self, tracer):
        spans, self_times = tracer.spans, tracer.self_times()
        self.requests = Counter(tracer.tags)
        self.total = defaultdict(float)
        self.self = defaultdict(float)
        self.count = defaultdict(int)
        self.under = defaultdict(float)
        self.under_count = defaultdict(int)
        self.per_request = defaultdict(int)  # (request, name, parent) -> calls
        for i, (parent, name, request, start, end) in enumerate(spans):
            tag, dur = tracer.tags[request], end - start
            parent_name = spans[parent][1] if parent >= 0 else None
            self.total[tag, name] += dur
            self.self[tag, name] += self_times[i]
            self.count[tag, name] += 1
            self.under[tag, name, parent_name] += dur
            self.under_count[tag, name, parent_name] += 1
            if parent_name in (MIN_N, EXCESS):
                self.per_request[request, name, parent_name] += 1
        self.tags_of = tracer.tags

    def ops(self, tags):
        return sum(self.requests[t] for t in tags)

    def mean(self, table, tags, *key, scale=1.0):
        """Sum of `table` over `tags`, per operation of those tags."""
        return ratio(scale * sum(table[(t, *key)] for t in tags), self.ops(tags))

    def calls_per_request(self, tags, name, parent):
        counts = [self.per_request[r, name, parent]
                  for r, tag in enumerate(self.tags_of) if tag in tags]
        return ratio(sum(counts), len(counts)), max(counts, default=0)


def per_layer(tracer, phases):
    sp = _Spans(tracer)
    stream, sim = phases["stream"], phases["simulate"]
    trials = sim.trials
    mc_tags = tuple(f"mc:{label}" for label, *_ in sim.codes)
    plan_tags, part_plan = ("plan", "plan-part"), ("plan-part",)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for group, tags in (("plain", ("plain",)), ("part", ("part",)), ("mc", mc_tags)):
        put(f"gf256.mat_invert.calls.{group}", sp.mean(sp.under_count, tags, INVERT, DECODE), "count")
        put(f"gf256.mat_invert.ms.{group}", sp.mean(sp.under, tags, INVERT, DECODE, scale=1e3), "ms")
        invert = sum(sp.under[t, INVERT, DECODE] for t in tags)
        put(f"gf256.invert_share_of_decode.{group}",
            ratio(invert, sum(sp.total[t, DECODE] for t in tags)), "ratio")
        put(f"codec.encode.calls.{group}", sp.mean(sp.count, tags, ENCODE), "count")
        put(f"codec.encode.self_ms.{group}", sp.mean(sp.self, tags, ENCODE, scale=1e3), "ms")
        put(f"codec.decode.self_ms.{group}", sp.mean(sp.self, tags, DECODE, scale=1e3), "ms")

    for coding in ("plain", "part"):
        st = stream.stats[coding]
        tags = (coding,)
        put(f"codec.decode.fastpath_share.{coding}", ratio(st.fastpath, st.decodes), "ratio")
        put(f"codec.block_build.ms.{coding}", sp.mean(sp.total, tags, "codec.block_build", scale=1e3), "ms")
        put(f"codec.{coding}.macs_per_block.encode", ratio(st.encode_macs, st.blocks), "count")
        put(f"codec.{coding}.macs_per_block.decode", ratio(st.decode_macs, st.blocks), "count")
        codec_self = sp.mean(sp.self, tags, ENCODE) + sp.mean(sp.self, tags, DECODE)
        put(f"codec.gf_mac_bytes_per_s.{coding}",
            ratio(ratio(st.encode_macs + st.decode_macs, st.blocks) * PACKET_SIZE, codec_self), "B/s")
    put("codec.build_generator.ms.mc", sp.mean(sp.total, mc_tags, "codec.build_generator", scale=1e3), "ms")
    put("codec.build_generator.ms.setup", stream.build_generator_s * 1e3, "ms")

    plain, part = stream.stats["plain"], stream.stats["part"]
    for what in ("encode", "decode"):
        put(f"partition.{what}_partitioned.self_ms",
            sp.mean(sp.self, ("part",), f"partition.{what}_partitioned", scale=1e3), "ms")
        put(f"partition.mac_ratio.{what}",
            ratio(ratio(getattr(part, f"{what}_macs"), part.blocks),
                  ratio(getattr(plain, f"{what}_macs"), plain.blocks)), "ratio")
        put(f"partition.{what}_time_ratio",
            ratio(sp.mean(sp.total, ("part",), f"partition.{what}_partitioned"),
                  sp.mean(sp.total, ("plain",), f"codec.{what}")), "ratio")

    for label, *_ in sim.codes:
        tags = (f"mc:{label}",)
        calls = sp.ops(tags)
        verified, highest = sim.verified[label]
        put(f"lossmodel.mc.self_ms.{label}", sp.mean(sp.self, tags, MC, scale=1e3), "ms")
        put(f"lossmodel.mc.codec_ms.{label}",
            ratio(1e3 * (sp.total[tags[0], MC] - sp.self[tags[0], MC]), calls), "ms")
        put(f"lossmodel.mc.patterns_verified.{label}", ratio(verified, calls), "count")
        put(f"lossmodel.mc.verified_per_trial.{label}", ratio(verified, calls * trials), "ratio")
        put(f"lossmodel.mc.highest_slot_verified.{label}", highest, "index")

    put("lossmodel.loss_pmf.calls", sp.mean(sp.count, plan_tags, "lossmodel.loss_pmf"), "count")
    put("lossmodel.loss_pmf.ms", sp.mean(sp.total, plan_tags, "lossmodel.loss_pmf", scale=1e3), "ms")
    put("lossmodel.partitioned_plr.ms",
        sp.mean(sp.total, part_plan, "lossmodel.partitioned_plr", scale=1e3), "ms")
    put("planner.min_n_for_target.ms", sp.mean(sp.total, plan_tags, MIN_N, scale=1e3), "ms")
    mean, top = sp.calls_per_request(plan_tags, "lossmodel.analytic_plr", MIN_N)
    put("planner.n_scanned.mean", mean, "count")
    put("planner.n_scanned.max", top, "count")
    put("planner.distribute_excess.ms", sp.mean(sp.total, part_plan, EXCESS, scale=1e3), "ms")
    mean, top = sp.calls_per_request(part_plan, "lossmodel.partitioned_plr", EXCESS)
    put("planner.excess_steps.mean", mean, "count")
    put("planner.excess_steps.max", top, "count")
    planner_self = sum(sp.self[t, name] for t in plan_tags
                       for name in ("planner.plan", MIN_N, EXCESS))
    put("planner.self_ms", ratio(1e3 * planner_self, sp.ops(plan_tags)), "ms")
    put("trace.spans", len(tracer.spans), "count")
    return out
