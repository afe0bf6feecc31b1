"""Span tracing of the public layer functions, installed from outside.

`Tracer.install` wraps each function in `TARGETS` and rebinds the wrapper in
its defining module, in every other ``icmod`` module that imported it by name
(for example ``engine``'s ``from .presentation import fitting0``) and, for the
two `MonomialIdeal` methods, on the class (``product``/``__mul__`` and
``power``/``__pow__``).  `uninstall` puts the originals back.  Nothing under
``src/`` changes; only the traced benchmark process installs the wrappers.

A span is (function, start_ns, end_ns, parent span, item id).  Spans stay in
memory until `write` stores them as one tab-separated line each.  Self time is
a span's duration minus the durations of its direct children: the process is
single-threaded, so children never overlap.

The wrappers also record counts at the call boundary.  Two of them are
derived from the arguments by formula rather than observed as work done, and
their units say so (``*-computed``): the closure's column count a0 + 1 and
the oracle's truncation dimension, computed from Fitt_0 of the presentation.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

TARGETS = (
    "expr.parse_ideal",
    "expr.format_ideal",
    "staircase.normalize",
    "staircase.MonomialIdeal.product",
    "staircase.MonomialIdeal.power",
    "newton.closure",
    "newton.is_complete",
    "newton.newton_vertices",
    "newton.zariski_factor",
    "newton.reconstruct",
    "presentation.build_Mk",
    "presentation.fitting0",
    "presentation.fitting1",
    "engine.choose_k",
    "engine.classify",
    "engine.verify_certificate",
    "oracle.module_min_gens",
    "oracle.module_colength",
    "oracle.poly_ideal_colength",
    "oracle.enumerate_complete",
    "render.render_svg",
    "cli.certificate_to_dict",
)


def layer_name(target: str) -> str:
    """'staircase.MonomialIdeal.product' -> 'staircase.product'."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


LAYERS = tuple(layer_name(t) for t in TARGETS)

# per_layer metrics besides F.calls, F.self_s and F.p50_us: (name, unit)
RATIOS = (
    ("engine.choose_k.calls_per_item", "ratio"),
    ("newton.closure.calls_per_decision", "ratio"),
    ("staircase.product.candidates_per_output_gen", "ratio"),
    ("newton.closure.columns_per_output_gen", "ratio-computed"),
    ("oracle.truncation_dim", "count-computed"),
    ("render.render_svg.bytes", "bytes"),
)


class Tracer:
    def __init__(self):
        # (function, start_ns, end_ns, parent span, item); None while the call runs
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.active = False
        self.item = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.truncation_dims: list[int] = []
        self.svg_bytes: list[int] = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        if not self._bindings:
            self._bindings = self._find_bindings()
        for holder, attr, _, wrapper in self._bindings:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._bindings:
            setattr(holder, attr, original)

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapper) for every name bound to a target."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "icmod" or name.startswith("icmod."))
        }
        fitting0 = mods["icmod.presentation"].fitting0
        observers = {
            "staircase.product": self._observe_product,
            "newton.closure": self._observe_closure,
            "render.render_svg": self._observe_render,
            "oracle.module_min_gens": self._observer_oracle(
                fitting0, mods["icmod.oracle"].truncation_margin
            ),
            "oracle.module_colength": self._observer_oracle(fitting0, lambda: 0),
        }
        holders = list(mods.values()) + [mods["icmod.staircase"].MonomialIdeal]
        bindings = []
        for fid, target in enumerate(TARGETS):
            module, *path = target.split(".")
            owner = mods[f"icmod.{module}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(fid, original, observers.get(LAYERS[fid]))
            for holder in holders:
                for attr, value in vars(holder).items():
                    if value is original:
                        bindings.append((holder, attr, original, wrapper))
        return bindings

    def _wrap(self, fid, fn, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        materialize = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:  # time the whole enumeration, not generator creation
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.item)
            if observe is not None:
                observe(args, result)
            return iter(result) if materialize else result

        return wrapper

    def _observe_product(self, args, result) -> None:
        self.counts["product.candidates"] += len(args[0].gens) * len(args[1].gens)
        self.counts["product.outputs"] += len(result.gens)

    def _observe_closure(self, args, result) -> None:
        self.counts["closure.columns"] += args[0].a0 + 1
        self.counts["closure.outputs"] += len(result.gens)

    def _observe_render(self, args, result) -> None:
        self.svg_bytes.append(len(result.encode("utf-8")))

    def _observer_oracle(self, fitting0, margin):
        def observe(args, result):
            ideal = fitting0(args[0])
            n = max(1, ideal.a0 + ideal.br + margin())
            self.truncation_dims.append(n * (n + 1))  # rank 2: 2 * n(n+1)/2

        return observe

    # ------------------------------------------------------------ derivation

    def metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """F.calls, F.self_s, F.p50_us for every layer, then the ratios."""
        spans = self.spans  # complete: every span is filled in when its call returns
        child = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        durations: dict[int, list[int]] = defaultdict(list)
        self_ns = [0] * len(TARGETS)
        for (fid, start, end, _, _), child_ns in zip(spans, child):
            durations[fid].append(end - start)
            self_ns[fid] += end - start - child_ns
        out: dict[str, tuple[float, str]] = {}
        for fid, layer in enumerate(LAYERS):
            d = durations.get(fid, [])
            out[f"{layer}.calls"] = (len(d), "count")
            out[f"{layer}.self_s"] = (self_ns[fid] / 1e9, "s")
            out[f"{layer}.p50_us"] = (statistics.median(d) / 1e3 if d else 0.0, "us")

        choose_k = LAYERS.index("engine.choose_k")
        closure = LAYERS.index("newton.closure")
        decisions = sum(1 for s in spans if s[0] == choose_k and s[4] >= 0)
        in_decision = 0
        for fid, _, _, parent, _ in spans:
            if fid != closure:
                continue
            while parent >= 0 and self.spans[parent][0] != choose_k:
                parent = self.spans[parent][3]
            in_decision += parent >= 0
        c = self.counts
        units = dict(RATIOS)
        values = {
            "engine.choose_k.calls_per_item": _ratio(decisions, items),
            "newton.closure.calls_per_decision": _ratio(in_decision, decisions),
            "staircase.product.candidates_per_output_gen": _ratio(
                c["product.candidates"], c["product.outputs"]
            ),
            "newton.closure.columns_per_output_gen": _ratio(
                c["closure.columns"], c["closure.outputs"]
            ),
            "oracle.truncation_dim": (
                statistics.fmean(self.truncation_dims) if self.truncation_dims else 0.0
            ),
            "render.render_svg.bytes": statistics.fmean(self.svg_bytes) if self.svg_bytes else 0.0,
        }
        out.update({name: (value, units[name]) for name, value in values.items()})
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\titem\n")
            for idx, (fid, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{idx}\t{LAYERS[fid]}\t{start}\t{end}\t{parent}\t{item}\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
