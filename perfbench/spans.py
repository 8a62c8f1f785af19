"""Per-layer spans, recorded from outside the program.

`Tracer.install` wraps the public functions of each layer, in every module
namespace of the rectbound package that binds them, so a call through any
alias lands in the same wrapper; `uninstall` puts the originals back.
Nothing under src/ changes.  Each span records its name, start, end, parent
span and job; spans stay in memory until the run writes them out.

Nothing that fires per pair or per input (mu_prob, BitString methods, a
protocol's run) is wrapped: at 10^5 to 10^6 calls per run such wrappers
would mostly measure themselves.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

CG_SPAN = "lp_bounds.cg"


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def busy(self) -> float:
        return self.end - self.start


def _oracle_counts(args, kwargs, result) -> dict:
    """Row subsets the sweep faces, and whether the weights are exact."""
    weights = args[0].weights
    xs = {pair.x for pair in weights}
    ys = {pair.y for pair in weights}
    exact = any(isinstance(v, Fraction) for v in weights.values())
    return {"subsets": 2 ** min(len(xs), len(ys)), "exact_calls": int(exact)}


def _cg_counts(args, kwargs, result) -> dict:
    noisy = result.status == "optimal" and result.oracle_max is not None and result.oracle_max > 1 + 1e-9
    return {"iterations": result.iterations, "columns": result.columns, "noise_exits": int(noisy)}


def _success_counts(args, kwargs, result) -> dict:
    # Imported late: rectbound is importable only once run.py has put the
    # checkout's src/ on sys.path.
    from rectbound.protocols.core import as_randomized

    branches = len(as_randomized(args[0]).branches)
    return {"inputs": result.inputs_checked, "runs": result.inputs_checked * branches}


def _verify_counts(args, kwargs, result) -> dict:
    return {
        "exhaustive_calls": int(result.mode == "exhaustive"),
        "oracle_calls": int(result.mode == "oracle"),
    }


def _pricing_name(tracer: Tracer) -> str:
    return "lp_bounds.cg.pricing" if tracer.inside(CG_SPAN) else "lp_bounds.separation_oracle"


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str  # "function" or "Class.method"
    name: str | Callable[[Tracer], str]
    counts: Callable | None = None


LAYERS = (
    Layer("rectbound.cli", "main", "cli.main"),
    Layer("rectbound.combinatorics", "check_lemma4", "combinatorics.check_lemma4",
          lambda a, kw, r: {"pairs": r.pairs_checked}),
    Layer("rectbound.combinatorics", "enumerate_support", "combinatorics.enumerate_support",
          lambda a, kw, r: {"pairs": len(r)}),
    Layer("rectbound.rectangles", "max_weight_rectangle", "rectangles.max_weight_rectangle", _oracle_counts),
    Layer("rectbound.rectangles", "max_weight_rectangle_in_rv", "rectangles.max_weight_rectangle_in_rv"),
    Layer("rectbound.rectangles", "max_weight_rectangle_avoiding_disjoint",
          "rectangles.max_weight_rectangle_avoiding_disjoint", _oracle_counts),
    *(
        Layer("rectbound.lp_bounds.model", fn, "lp_bounds.build_lp",
              lambda a, kw, r: {"rows": len(r.constraints)})
        for fn in ("build_lovasz_lp", "build_smooth_lp", "build_search_lp")
    ),
    Layer("rectbound.lp_bounds.model", "RectangleFamily.separation_oracle", _pricing_name),
    Layer("rectbound.lp_bounds.solve", "solve_full_enumeration", "lp_bounds.solve_full_enumeration",
          lambda a, kw, r: {"columns": r.columns}),
    Layer("rectbound.lp_bounds.exact", "solve_exact_lp", "lp_bounds.exact_simplex",
          lambda a, kw, r: {"pivots": r.iterations, "cells": len(a[1]) * len(a[0])}),
    Layer("rectbound.lp_bounds.solve", "solve_constraint_generation", CG_SPAN, _cg_counts),
    Layer("rectbound.lp_bounds.solve", "linprog", "lp_bounds.cg.highs"),
    *(
        Layer("rectbound.lp_bounds.certificates", fn, "lp_bounds.certificate_build")
        for fn in ("build_search_dual_certificate", "build_smooth_dual_ndisj")
    ),
    Layer("rectbound.lp_bounds.certificates", "verify_dual_certificate", "lp_bounds.verify_certificate",
          _verify_counts),
    Layer("rectbound.lp_bounds.scan", "sampling_lemma_scan", "lp_bounds.scan",
          lambda a, kw, r: {"rows": len(r.rows)}),
    Layer("rectbound.protocols.analysis", "success_probability", "protocols.success_probability",
          _success_counts),
    Layer("rectbound.protocols.analysis", "cost_profile", "protocols.cost_profile",
          lambda a, kw, r: {"inputs": sum(r.histogram.values())}),
    *(
        Layer(module, fn, "protocols.compose")
        for module, fn in (
            ("rectbound.protocols.reductions", "reduce_ndisj_to_search"),
            ("rectbound.protocols.reductions", "reduce_search_from_kfold"),
            ("rectbound.protocols.verify", "make_verified"),
        )
    ),
)

# Per-layer metrics: name -> unit.  BENCHMARK.json lists the same names.
PER_LAYER: dict[str, str] = {}


def _declare(span: str, fields: str) -> None:
    for f in fields.split():
        PER_LAYER[f"{span}.{f}"] = "s" if f.endswith("_s") else "count"


_declare("cli.main", "calls busy_s self_s")
_declare("combinatorics.check_lemma4", "calls busy_s self_s pairs")
_declare("combinatorics.enumerate_support", "calls busy_s pairs")
_declare("rectangles.max_weight_rectangle", "calls busy_s self_s subsets exact_calls")
_declare("rectangles.max_weight_rectangle_in_rv", "calls busy_s self_s")
_declare("rectangles.max_weight_rectangle_avoiding_disjoint", "calls busy_s subsets exact_calls")
_declare("lp_bounds.build_lp", "calls busy_s rows")
_declare("lp_bounds.solve_full_enumeration", "calls busy_s self_s columns")
_declare("lp_bounds.exact_simplex", "calls busy_s pivots cells")
_declare("lp_bounds.cg", "calls busy_s self_s iterations columns noise_exits")
_declare("lp_bounds.cg.highs", "calls busy_s")
_declare("lp_bounds.cg.pricing", "calls busy_s")
_declare("lp_bounds.certificate_build", "calls busy_s")
_declare("lp_bounds.verify_certificate", "calls busy_s self_s exhaustive_calls oracle_calls")
_declare("lp_bounds.scan", "calls busy_s rows")
_declare("protocols.success_probability", "calls busy_s inputs runs")
_declare("protocols.cost_profile", "calls busy_s inputs")
_declare("protocols.compose", "calls busy_s")
# Filled in by run.py, not by spans: the tracing overhead, the untraced
# pass's job-list time in plain seconds, and the median host-speed probe.
RUN_LEVEL = ("trace.overhead_s", "run.wall_s", "run.probe_s")
PER_LAYER.update(dict.fromkeys(RUN_LEVEL, "s"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.job, parent, perf_counter()))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def _wrap(self, layer: Layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer.name if isinstance(layer.name, str) else layer.name(tracer)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if layer.counts is not None:
                tracer.spans[idx].counts = layer.counts(args, kwargs, result)
            return result

        return wrapper

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every layer function in every rectbound namespace binding it."""
        importlib.import_module("rectbound.cli")
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "rectbound"]
        for layer in LAYERS:
            owner = importlib.import_module(layer.module)
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, original, self._wrap(layer, original))
                continue
            original = getattr(owner, layer.attr)
            wrapper = self._wrap(layer, original)
            bound = [(m, attr) for m in modules for attr, value in vars(m).items() if value is original]
            for module, attr in bound:
                self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- reading

    def self_times(self) -> list[float]:
        """Each span's busy time minus the time its direct children cover."""
        own = [span.busy for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.busy
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except RUN_LEVEL's; 0 where a span never fired."""
        values = {name: 0 for name in PER_LAYER if name not in RUN_LEVEL}
        for span, own in zip(self.spans, self.self_times()):
            for key, add in (("calls", 1), ("busy_s", span.busy), ("self_s", own), *span.counts.items()):
                metric = f"{span.name}.{key}"
                if metric in values:
                    values[metric] += add
        return values

    def job_balance(self) -> dict[str, dict]:
        """Per job: its root spans, their busy time, and its spans' summed self times.

        With one root per job (cli.main, or the library job's own span) and
        properly nested spans, the sum equals the root's busy time up to
        rounding, which is what lets self times be read as an exclusive
        split of the job.
        """
        totals: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = totals.setdefault(span.job, {"roots": [], "root_busy_s": 0.0, "self_sum_s": 0.0})
            entry["self_sum_s"] += own
            if span.parent is None:
                entry["roots"].append(span.name)
                entry["root_busy_s"] += span.busy
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, **asdict(span)}) + "\n")
