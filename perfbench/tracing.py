"""In-memory span tracing of fecpart's layer boundaries, from outside the package.

`Tracer.wrap` replaces a module-level name (or an attribute of the
benchmark's own call table) with a wrapper that records one span per call:
its name, start, end, parent span and the request (block, Monte-Carlo call or
plan request) it served.  Wrapping the names a module imports from the layer
below (for example `planner.analytic_plr`) puts a span on exactly the calls
that cross that boundary.  `restore` puts every original name back.

Nothing here edits the package's source, and spans are recorded only while
`active` is set, so correctness checks run through the same names untraced.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Stand-in used for untraced measurement: records nothing."""

    def begin(self, tag):
        pass

    @contextmanager
    def paused(self):
        yield


class Tracer:
    def __init__(self):
        # one tuple per span: (parent index or -1, name, request id, start, end)
        self.spans = []
        self.tags = []  # request id -> tag ("plain", "part", "mc:<code>", "plan", ...)
        self.request = -1
        self.active = False
        self._stack = []
        self._saved = []

    def begin(self, tag):
        """Start a new request; later spans carry its id until the next begin."""
        self.request = len(self.tags)
        self.tags.append(tag)
        self.active = True

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, owner, attr, name, observe=None):
        """Trace calls made through `owner.attr` as spans called `name`.

        `observe(request, *args)` is called before each traced call, so a
        caller can read the arguments (for example a decoder's erasures).
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            if observe is not None:
                observe(self.request, *args)
            index = len(spans)
            spans.append(None)  # reserve the index so spans stay in start order
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (parent, name, self.request, start, end)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        self.active = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (end - start) - child[i]
            for i, (_, _, _, start, end) in enumerate(self.spans)
        ]

    def write(self, path):
        """Write the spans as tab-separated lines, times in seconds."""
        with open(path, "w", encoding="ascii") as out:
            out.write("id\tparent\tname\trequest\ttag\tstart_s\tend_s\n")
            for i, (parent, name, request, start, end) in enumerate(self.spans):
                out.write(
                    f"{i}\t{parent}\t{name}\t{request}\t{self.tags[request]}\t"
                    f"{start:.9f}\t{end:.9f}\n"
                )


def install(tracer, fecpart, api, observers):
    """Wrap the benchmark's entry calls and every inter-layer name.

    `observers` maps a wrapped "module.attr" to an observe callback.
    """
    codec, partition = fecpart.codec, fecpart.partition
    lossmodel, planner = fecpart.lossmodel, fecpart.planner
    wraps = [
        # the benchmark's own calls into the package
        (api, "source", "codec.block_build"),
        (api, "erase", "codec.block_build"),
        (api, "encode", "codec.encode"),
        (api, "decode", "codec.decode"),
        (api, "encode_partitioned", "partition.encode_partitioned"),
        (api, "decode_partitioned", "partition.decode_partitioned"),
        (api, "monte_carlo_plr", "lossmodel.monte_carlo_plr"),
        (api, "plan", "planner.plan"),
        # names each module imports from the layer below
        (codec, "mat_invert", "gf256.mat_invert"),
        (partition, "encode", "codec.encode"),
        (partition, "decode", "codec.decode"),
        (partition, "build_generator", "codec.build_generator"),
        (lossmodel, "encode", "codec.encode"),
        (lossmodel, "decode", "codec.decode"),
        (lossmodel, "build_generator", "codec.build_generator"),
        (lossmodel, "encode_partitioned", "partition.encode_partitioned"),
        (lossmodel, "decode_partitioned", "partition.decode_partitioned"),
        (lossmodel, "half_generators", "partition.half_generators"),
        (lossmodel, "loss_pmf", "lossmodel.loss_pmf"),
        (lossmodel, "analytic_plr", "lossmodel.analytic_plr"),
        (planner, "analytic_plr", "lossmodel.analytic_plr"),
        (planner, "partitioned_plr", "lossmodel.partitioned_plr"),
        (planner, "min_n_for_target", "planner.min_n_for_target"),
        (planner, "distribute_excess", "planner.distribute_excess"),
        (planner, "split", "partition.split"),
    ]
    for owner, attr, name in wraps:
        where = owner.__name__.rsplit(".", 1)[-1] if owner is not api else "api"
        tracer.wrap(owner, attr, name, observers.get(f"{where}.{attr}"))
