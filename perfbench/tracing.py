"""Spans around the public functions of each mvgb layer, from outside.

`install` replaces each wrapped function at every place it can be called
from: the attribute of its defining module and every `from .x import f`
binding in the other mvgb modules (a method is replaced on its class).
Nothing under src/ changes.  Only coarse calls are wrapped; per-monomial
helpers such as `TermOrder.key` or `m_divides` run millions of times and are
left alone.

A span records its name, the job it belongs to, its parent span, start, end,
a count derived from its arguments or return value, and whether it returned.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded and nested, so self times never overlap.  In a run every
duration is the speedometer's measure (speed.py): scaled to the nominal
machine speed and without the speedometer samples taken inside it, so the
layer times are in the same units as the end-to-end times.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

SETUP = "setup"

LAYERS = ("exactalg", "polyring", "cameras", "groebner", "lp", "toric",
          "monomial", "degeneration", "tangent", "hilbscheme")


def _one(args, result):
    return 1


# (span name, defining module, attribute, count from (args, result))
WRAPPED = (
    ("exactalg.linalg", "exactalg", "det", _one),
    ("exactalg.linalg", "exactalg", "rank", _one),
    ("exactalg.linalg", "exactalg", "kernel", _one),
    ("exactalg.linalg", "exactalg", "inverse", _one),
    ("polyring.text", "polyring", "format_polynomial",
     lambda args, r: len(r.encode())),
    ("polyring.text", "polyring", "parse_polynomial",
     lambda args, r: len(args[-1].encode())),
    ("cameras.generators", "cameras", "multiview_generators",
     lambda args, r: len(r)),
    ("cameras.generators", "cameras", "minimal_multiview_generators",
     lambda args, r: len(r)),
    ("groebner.basis", "groebner", "IdealPresentation.reduced_basis", _one),
    ("groebner.basis", "groebner", "intersect", _one),
    ("groebner.check", "groebner", "is_groebner_basis", _one),
    ("lp.feasible", "lp", "feasible_point",
     lambda args, r: int(r is not None)),
    ("toric.ideal", "toric", "toric_ideal", _one),
    ("toric.fan", "toric", "enumerate_initial_ideals",
     lambda args, r: len(r)),
    ("monomial.orbits", "monomial", "symmetry_orbits", _one),
    ("monomial.box", "monomial", "standard_count_box", _one),
    ("degeneration.verify", "degeneration", "verify_collinear_degeneration",
     _one),
    ("tangent.dimension", "tangent", "tangent_dimension", _one),
    ("tangent.basis", "tangent", "verify_collinear_tangent_basis", _one),
    ("hilbscheme.search", "hilbscheme", "monomial_ideal_census",
     lambda args, r: len(r)),
)

# The per-layer metrics of a traced run, in the order BENCHMARK.json lists
# them.  Values are per round of the timed part, except `*.errors` (spans
# that raised, over the whole process) and `exactalg.setup_linalg_s`.
PER_LAYER = (
    ("exactalg.linalg_s", "s"), ("exactalg.linalg_calls", "count"),
    ("exactalg.setup_linalg_s", "s"),
    ("polyring.text_s", "s"), ("polyring.text_bytes", "bytes"),
    ("cameras.generators_s", "s"), ("cameras.generators", "count"),
    ("groebner.basis_s", "s"), ("groebner.basis_calls", "count"),
    ("groebner.check_s", "s"), ("groebner.orders_checked", "count"),
    ("lp.feasible_s", "s"), ("lp.calls", "count"),
    ("lp.feasible_ratio", "ratio"),
    ("toric.ideal_s", "s"), ("toric.fan_s", "s"), ("toric.nodes", "count"),
    ("toric.flip_ratio", "ratio"),
    ("monomial.orbits_s", "s"), ("monomial.box_s", "s"),
    ("degeneration.verify_s", "s"),
    ("tangent.dimension_s", "s"), ("tangent.calls", "count"),
    ("tangent.basis_s", "s"),
    ("hilbscheme.search_s", "s"), ("hilbscheme.ideals", "count"),
) + tuple(("%s.errors" % layer, "count") for layer in LAYERS) + (
    ("trace.overhead_frac", "ratio"), ("trace.unattributed_s", "s"),
)


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "count", "ok")

    def __init__(self, name, job, parent, start):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = start
        self.count = 0
        self.ok = False

    def as_list(self):
        return [self.name, self.job, self.parent, self.start, self.end,
                self.count, self.ok]


class Recorder:
    """Holds the spans of one process; `job` names the job now running."""

    def __init__(self):
        self.spans = []
        self.open = []
        self.job = SETUP

    def start_job(self, index):
        self.job = index

    def wrap(self, name, fn, count):
        spans, open_ = self.spans, self.open

        def traced(*args, **kwargs):
            span = Span(name, self.job, open_[-1] if open_ else -1,
                        perf_counter())
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            span.ok = True
            span.count = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "job", "parent", "start", "end",
                                  "count", "ok"],
                       "spans": [s.as_list() for s in self.spans]}, fh)


def _mvgb_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "mvgb" or name.startswith("mvgb.")]


def install(recorder):
    """Wrap every function in WRAPPED at all its bindings; returns a callable
    that puts the originals back."""
    import mvgb

    modules = _mvgb_modules()
    undo = []
    for name, module, attr, count in WRAPPED:
        owner = getattr(mvgb, module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            targets = [owner]
        else:
            targets = modules
        original = getattr(owner, attr)
        wrapper = recorder.wrap(name, original, count)
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    undo.append((target, key, original))

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)
    return restore


def wall(start, end):
    return end - start


def self_times(spans, scaled=wall):
    """Self time of every span: its duration minus its direct children's,
    both measured by `scaled(start, end)`."""
    took = [scaled(s.start, s.end) for s in spans]
    own = list(took)
    for s, t in zip(spans, took):
        if s.parent >= 0:
            own[s.parent] -= t
    return own


def summarize(spans, rounds, timed_start, timed_end, scaled=wall):
    """Per-layer metric values of a traced run, all but the tracing overhead
    (which needs the untraced run), and the total self time of the timed
    part, which can never exceed its duration.  Every time, the timed part's
    too, is measured by `scaled(start, end)`: the speedometer's measure in a
    run, plain wall time by default."""
    own = self_times(spans, scaled)
    self_s, calls, counts, errors = Counter(), Counter(), Counter(), Counter()
    setup_linalg = 0.0
    fan_children = 0
    for span, t in zip(spans, own):
        errors[span.name.split(".")[0]] += not span.ok
        if span.job == SETUP:
            if span.name == "exactalg.linalg":
                setup_linalg += t
            continue
        self_s[span.name] += t
        calls[span.name] += 1
        counts[span.name] += span.count
        if span.name == "groebner.basis" and span.parent >= 0 \
                and spans[span.parent].name == "toric.fan":
            fan_children += 1
    # every traversal requests its start basis once; the rest are neighbours
    neighbours = fan_children - calls["toric.fan"]
    timed_self = sum(self_s.values())

    def per_round(x):
        return x / rounds

    values = {
        "exactalg.linalg_s": per_round(self_s["exactalg.linalg"]),
        "exactalg.linalg_calls": per_round(calls["exactalg.linalg"]),
        "exactalg.setup_linalg_s": setup_linalg,
        "polyring.text_s": per_round(self_s["polyring.text"]),
        "polyring.text_bytes": per_round(counts["polyring.text"]),
        "cameras.generators_s": per_round(self_s["cameras.generators"]),
        "cameras.generators": per_round(counts["cameras.generators"]),
        "groebner.basis_s": per_round(self_s["groebner.basis"]),
        "groebner.basis_calls": per_round(calls["groebner.basis"]),
        "groebner.check_s": per_round(self_s["groebner.check"]),
        "groebner.orders_checked": per_round(calls["groebner.check"]),
        "lp.feasible_s": per_round(self_s["lp.feasible"]),
        "lp.calls": per_round(calls["lp.feasible"]),
        "lp.feasible_ratio": _ratio(counts["lp.feasible"],
                                    calls["lp.feasible"]),
        "toric.ideal_s": per_round(self_s["toric.ideal"]),
        "toric.fan_s": per_round(self_s["toric.fan"]),
        "toric.nodes": per_round(counts["toric.fan"]),
        "toric.flip_ratio": _ratio(counts["toric.fan"], neighbours),
        "monomial.orbits_s": per_round(self_s["monomial.orbits"]),
        "monomial.box_s": per_round(self_s["monomial.box"]),
        "degeneration.verify_s": per_round(self_s["degeneration.verify"]),
        "tangent.dimension_s": per_round(self_s["tangent.dimension"]),
        "tangent.calls": per_round(calls["tangent.dimension"]),
        "tangent.basis_s": per_round(self_s["tangent.basis"]),
        "hilbscheme.search_s": per_round(self_s["hilbscheme.search"]),
        "hilbscheme.ideals": per_round(counts["hilbscheme.search"]),
        "trace.unattributed_s": per_round(
            scaled(timed_start, timed_end) - timed_self),
    }
    for layer in LAYERS:
        values["%s.errors" % layer] = errors[layer]
    return values, timed_self


def _ratio(part, whole):
    """part / whole, or 0 where the layer was not called (whole == 0)."""
    return part / whole if whole else 0.0
