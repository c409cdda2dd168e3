"""Outside-in per-layer tracing of the ntl engine.

The layers are the `ntl` modules.  `Tracer.install` wraps every public
function of each layer module, plus the `RealizedGroup` and `Homomorphism`
constructors, without editing the engine: it replaces every binding of each
wrapped function in every loaded `ntl` module, including the copies made by
`from .groups import closure`, so no call escapes its span.  A span's self
time is its duration minus the durations of the spans it encloses; the
engine is single-threaded, so spans nest and no layer waits on another.

`words`, `parsing` and `errors` stay unwrapped, and so does
`coset.word_letters`: `Word.of` runs about a million times per pass and
`word_letters` once per relator, so a wrapper there would cost more than the
work.  Their time lands in the self time of the caller (relator
construction is part of `tensor.build`, relator flattening part of
`coset.enumerate`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

UNWRAPPED = {"coset.word_letters"}
LAYERS = ("coset", "tensor", "abelian", "groups", "report", "homotopy",
          "verification", "cli", "catalog")

# Span names folded into one per-layer metric; every other span still counts
# towards its layer's `<layer>.self_s`.
SELF_GROUPS = {
    "coset.enumerate.self_s": ("coset.enumerate_cosets",),
    "coset.regular_rep.self_s": ("coset.regular_representation",),
    "tensor.build.self_s": ("tensor.build_eta", "tensor.build_nu"),
    "tensor.actions.self_s": ("tensor.trivial_pair", "tensor.conjugation_pair",
                              "tensor.validate_compatibility"),
    "tensor.direct.self_s": ("tensor.tensor_direct",),
    "abelian.smith.self_s": ("abelian.smith_diagonal",),
    "groups.realize.self_s": ("groups.RealizedGroup",),
    "groups.homomorphism.self_s": ("groups.Homomorphism",),
    "groups.subgroups.self_s": (
        "groups.closure", "groups.subgroup_from_members",
        "groups.derived_subgroup", "groups.commutator_subgroup",
        "groups.intersection", "groups.subgroup_exponent", "groups.kernel",
        "groups.quotient", "groups.subgroup_as_group",
        "groups.subgroup_abelian_invariants", "groups.subgroup_quotient"),
    "report.group_result.self_s": ("report.group_result",),
    "verification.build_profiles.self_s": ("verification.build_profiles",),
}

CALL_COUNTS = {
    "coset.enumerate.calls": "coset.enumerate_cosets",
    "abelian.smith.calls": "abelian.smith_diagonal",
    "groups.realize.calls": "groups.RealizedGroup",
}


def _count_enumeration(counts, args, kwargs, result):
    stats = result[1]
    counts["coset.cosets_defined"] += stats.cosets_defined
    counts["coset.cosets_final"] += stats.cosets_final
    counts["coset.coincidences"] += stats.coincidences


def _count_table(counts, args, kwargs, result):
    counts["coset.table_bytes"] += result.order ** 2 * result.table.itemsize


def _count_relators(counts, args, kwargs, result):
    relators = result.presentation.relators
    counts["tensor.relators"] += len(relators)
    counts["tensor.relator_letters"] += sum(w.length() for w in relators)


def _count_smith(counts, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    rows = len(matrix)
    counts["abelian.smith.cells"] += rows * (len(matrix[0]) if rows else 0)


COUNTERS = {
    "coset.enumerate_cosets": _count_enumeration,
    "coset.regular_representation": _count_table,
    "tensor.build_eta": _count_relators,
    "abelian.smith_diagonal": _count_smith,
}


class Snapshot:
    """Accumulated span and count totals at one instant."""

    def __init__(self, self_s, total_s, calls, counts):
        self.self_s = dict(self_s)
        self.total_s = dict(total_s)
        self.calls = dict(calls)
        self.counts = dict(counts)

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        def diff(a, b):
            return {k: v - b.get(k, 0) for k, v in a.items()}
        return Snapshot(diff(self.self_s, other.self_s),
                        diff(self.total_s, other.total_s),
                        diff(self.calls, other.calls),
                        diff(self.counts, other.counts))


class Tracer:
    """Wraps the engine's layers in spans; aggregates self time and counts."""

    def __init__(self):
        self._stack = [[0.0]]  # child time of each open span; root at [0]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.wrapped = {}  # original function -> its wrapper
        self._bindings = []  # (owner, attribute, original) to restore

    def snapshot(self) -> Snapshot:
        return Snapshot(self.self_s, self.total_s, self.calls, self.counts)

    def _span(self, name, fn):
        clock = time.perf_counter
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        counts = self.counts
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[name] += dur - frame[0]
                total_s[name] += dur
                calls[name] += 1
                stack[-1][0] += dur
            if count is not None:
                # Counting is charged to no layer: it is added to the
                # parent's child time, not to the parent's self time.
                t1 = clock()
                count(counts, args, kwargs, result)
                stack[-1][0] += clock() - t1
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every layer and rebind every copy of each wrapped function."""
        from ntl.coset import _Enumerator
        from ntl.groups import Homomorphism, RealizedGroup

        for layer in LAYERS:
            modname = f"ntl.{layer}"
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and getattr(value, "__module__", None) == modname
                        and f"{layer}.{attr}" not in UNWRAPPED):
                    self.wrapped[value] = self._span(f"{layer}.{attr}", value)
        for module in self.engine_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self.wrapped:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, self.wrapped[value])
        for owner, attr, name, make in (
                (RealizedGroup, "__init__", "groups.RealizedGroup", self._span),
                (Homomorphism, "__init__", "groups.Homomorphism", self._span),
                (_Enumerator, "run", "coset.enumerator_runs", self._counter)):
            original = owner.__dict__[attr]
            self.wrapped[original] = make(name, original)
            self._bindings.append((owner, attr, original))
            setattr(owner, attr, self.wrapped[original])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    @staticmethod
    def engine_modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "ntl" or n.startswith("ntl."))]


def layer_metrics(delta: Snapshot) -> dict[str, float]:
    """Per-layer metrics of one traced interval (one pass)."""
    out: dict[str, float] = {}
    for metric, spans in SELF_GROUPS.items():
        out[metric] = sum(delta.self_s.get(s, 0.0) for s in spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (v for k, v in delta.self_s.items() if k.split(".")[0] == layer),
            0.0)
    out["verification.checks.self_s"] = (
        out["verification.self_s"] - out["verification.build_profiles.self_s"])
    for metric, span in CALL_COUNTS.items():
        out[metric] = delta.calls.get(span, 0)
    for name in ("coset.cosets_defined", "coset.coincidences",
                 "coset.table_bytes", "tensor.relators",
                 "tensor.relator_letters", "abelian.smith.cells"):
        out[name] = delta.counts.get(name, 0)
    defined = delta.counts.get("coset.cosets_defined", 0)
    final = delta.counts.get("coset.cosets_final", 0)
    out["coset.useful_ratio"] = final / defined if defined else 0.0
    out["coset.retries"] = (delta.counts.get("coset.enumerator_runs", 0)
                            - delta.calls.get("coset.enumerate_cosets", 0))
    return out


def realize_metrics(delta: Snapshot) -> dict[str, float]:
    """Catalog metrics of the set-up interval, where the corpus is realized."""
    spans = ("catalog.realize_entry", "catalog.realize_name")
    return {"catalog.realize.self_s": sum(delta.self_s.get(s, 0.0)
                                          for s in spans),
            "catalog.realize.total_s": sum(delta.total_s.get(s, 0.0)
                                           for s in spans)}
