"""Traced runs: wrappers around the public functions of each cascadeho module.

``Tracer.install()`` replaces every listed function with a wrapper, in every
``cascadeho`` module that holds a reference to it (``cli.homology``,
``cascades.signed_preimages``, ``morphisms.build_ncc``, ...), and
``Tracer.remove()`` puts the originals back.  A wrapper around an entry
point records a span (name, start, end, parent span, request id); a wrapper
around a hot leaf only adds to a count and a time.  Both feed the self-time
bookkeeping: a layer's self time is the time spent inside its wrapped calls
minus the time covered by wrapped calls below them.  Work done in
unwrapped helpers counts towards the nearest wrapped caller.

A function that is missing (renamed or removed) is skipped; the metrics
built from it read 0 and ``Tracer.missing`` names it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("serialize", "mbs", "cascades", "autonomous", "exact", "morphisms", "cli")

# entry points: one span per call
SPANS = {
    "serialize": ("loads",),
    "mbs": ("validate_system", "assign_basepoints"),
    "cascades": ("build_ncc", "nch_homology"),
    "autonomous": (
        "validate_data", "egh_differential", "egh_homology", "block_differential",
        "equivariant_differential", "equivariant_homology", "compare_egh",
    ),
    "exact": (
        "homology", "verify_square_zero", "smith_with_inverse",
        "smith_normal_form", "invariant_factors", "rational_rank",
    ),
    "morphisms": ("validate_morphism", "induced_chain_map"),
    "cli": ("main",),
}

# hot leaves: a count and accumulated time, no span records
LEAVES = {
    "mbs": ("signed_preimages", "component_preimages"),
    "cascades": ("enumerate_cascades",),
    "exact": ("IntMatrix.__mul__",),
}

# nested SNF entry points (invariant_factors -> smith_normal_form ->
# smith_with_inverse) count once, at the outermost call
SNF = {"exact.smith_with_inverse", "exact.smith_normal_form", "exact.invariant_factors"}


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.functions = defaultdict(_Stat)  # "module.name" -> _Stat
        self.layer_self = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []  # (name, start, end, parent, request)
        self.request = None
        self.missing = []
        self._stack = []  # [child time, span id] per active wrapped call
        self._snf_depth = 0
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if name == "cascadeho" or name.startswith("cascadeho.")
        ]
        for table, leaf in ((SPANS, False), (LEAVES, True)):
            for layer, names in table.items():
                mod = importlib.import_module(f"cascadeho.{layer}")
                for name in names:
                    self._wrap(mod, layer, name, leaf, modules)

    def _wrap(self, mod, layer, name, leaf, modules):
        key = f"{layer}.{name}"
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(key)
            return
        wrapper = self._wrapper(key, layer, leaf, original)
        if owner_name:
            self._rebind(owner, attr, original, wrapper)
            return
        for m in modules:
            if m.__dict__.get(attr) is original:
                self._rebind(m, attr, original, wrapper)

    def _rebind(self, target, attr, original, wrapper):
        setattr(target, attr, wrapper)
        self._restore.append((target, attr, original))

    def remove(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- the wrapper ------------------------------------------------------

    def _wrapper(self, key, layer, leaf, fn):
        stat = self.functions[key]
        snf = key in SNF
        observe = _OBSERVERS.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            outer_snf = snf and tracer._snf_depth == 0
            if snf:
                tracer._snf_depth += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = None
            if not leaf:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, span_id if span_id is not None else
                     (parent[1] if parent else None)]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_time = duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += self_time
                tracer.layer_self[layer] += self_time
                if span_id is not None:
                    tracer.spans[span_id] = (
                        key, start, end, parent[1] if parent else None,
                        tracer.request,
                    )
                if snf:
                    tracer._snf_depth -= 1
                if outer_snf:
                    m = args[0]
                    tracer.counters["snf_calls"] += 1
                    tracer.counters["snf_cells"] += m.rows * m.cols
                    tracer.counters["max_block_dim"] = max(
                        tracer.counters["max_block_dim"], m.rows, m.cols
                    )
                    tracer.counters["snf_time"] += duration
                if observe is not None and result is not None:
                    observe(tracer.counters, args, result)

        return wrapped


def _observe_enumerate(counters, _args, result):
    counters["cascades_found"] += len(result)
    counters["enumerate_useful"] += bool(result)


def _observe_preimages(counters, _args, result):
    counters["preimages_found"] += len(result)


def _observe_loads(counters, args, _result):
    counters["bytes_in"] += len(args[0])


_OBSERVERS = {
    "cascades.enumerate_cascades": _observe_enumerate,
    "mbs.component_preimages": _observe_preimages,
    "serialize.loads": _observe_loads,
}


def layer_metrics(tracer: Tracer, passes: int):
    """Per-layer metrics, per traced pass over the request list.

    Counts are totals divided by the number of identical passes, so they are
    exact; times are mean seconds per pass.
    """
    f, c = tracer.functions, tracer.counters

    def per(x):
        return x / passes

    def calls(key):
        return per(f[key].calls) if key in f else 0

    def total(key):
        return per(f[key].total) if key in f else 0.0

    def own(key):
        return per(f[key].self_time) if key in f else 0.0

    enumerate_calls = f["cascades.enumerate_cascades"].calls
    out = {
        "exact.self_s": (per(tracer.layer_self["exact"]), "s"),
        "exact.snf_s": (per(c["snf_time"]), "s"),
        "exact.snf_calls": (per(c["snf_calls"]), "count"),
        "exact.snf_cells": (per(c["snf_cells"]), "count"),
        "exact.max_block_dim": (c["max_block_dim"], "count"),
        "exact.rational_rank_s": (total("exact.rational_rank"), "s"),
        "exact.square_check_s": (total("exact.verify_square_zero"), "s"),
        "exact.homology_calls": (calls("exact.homology"), "count"),
        "exact.matmul_s": (total("exact.IntMatrix.__mul__"), "s"),
        "exact.matmul_calls": (calls("exact.IntMatrix.__mul__"), "count"),
        "autonomous.self_s": (per(tracer.layer_self["autonomous"]), "s"),
        "autonomous.egh_differential_s": (total("autonomous.egh_differential"), "s"),
        "autonomous.egh_differential_calls": (
            calls("autonomous.egh_differential"), "count"),
        "autonomous.equivariant_differential_calls": (
            calls("autonomous.equivariant_differential"), "count"),
        "autonomous.egh_homology_self_s": (own("autonomous.egh_homology"), "s"),
        "autonomous.compare_self_s": (own("autonomous.compare_egh"), "s"),
        "cascades.self_s": (per(tracer.layer_self["cascades"]), "s"),
        "cascades.build_ncc_calls": (calls("cascades.build_ncc"), "count"),
        "cascades.enumerate_calls": (per(enumerate_calls), "count"),
        "cascades.cascades_found": (per(c["cascades_found"]), "count"),
        "cascades.enumerate_useful_ratio": (
            c["enumerate_useful"] / enumerate_calls if enumerate_calls else 0.0, "1"),
        "mbs.self_s": (per(tracer.layer_self["mbs"]), "s"),
        "mbs.validate_system_s": (total("mbs.validate_system"), "s"),
        "mbs.validate_system_calls": (calls("mbs.validate_system"), "count"),
        "mbs.assign_basepoints_s": (total("mbs.assign_basepoints"), "s"),
        "mbs.preimage_calls": (calls("mbs.component_preimages"), "count"),
        "mbs.preimages_found": (per(c["preimages_found"]), "count"),
        "morphisms.self_s": (per(tracer.layer_self["morphisms"]), "s"),
        "morphisms.validate_morphism_s": (total("morphisms.validate_morphism"), "s"),
        "serialize.loads_s": (total("serialize.loads"), "s"),
        "serialize.bytes_in": (per(c["bytes_in"]), "B"),
        "cli.self_s": (per(tracer.layer_self["cli"]), "s"),
    }
    return out
