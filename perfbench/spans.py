"""Span tracing of calls into the program's public functions.

The program is not instrumented. Instead, each traced function is replaced
by a wrapper under every name it is bound to in a loaded ``msum`` module:
``towers``, ``cyclo``, ``classify`` and ``campaign`` bind engine and modular
functions with ``from .engine import ...`` at import time, so patching only
the defining module would miss their calls. Spans stay in memory with their
parent links until the end, when self time (duration minus the duration of
child spans) is computed and the spans are written out once.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from typing import Callable

import numpy as np


class Tracer:
    """Spans of wrapped calls (name, parent span, start, end) and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             after: Callable | None = None) -> Callable:
        """fn under a span; name is fixed or computed from the call's arguments.

        after(args, kwargs, result) runs inside the span, for counters.
        """
        clock = time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        ids = self._id
        fixed = ids(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(fixed if fixed is not None else ids(name(*args, **kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> calls, self_s, total_s and max_s over all its spans."""
        name, parent = np.array(self.name), np.array(self.parent)
        dur = np.array(self.end) - np.array(self.start)
        linked = parent >= 0
        child = np.bincount(parent[linked], weights=dur[linked], minlength=dur.size)
        self_time = dur - child
        out = {}
        for nid, nm in enumerate(self.names):
            mask = name == nid
            out[nm] = {
                "calls": int(mask.sum()),
                "self_s": float(self_time[mask].sum()),
                "total_s": float(dur[mask].sum()),
                "max_s": float(dur[mask].max()) if mask.any() else 0.0,
            }
        return out

    def dump(self, path: str) -> None:
        """Write every span (name, parent index, start, end) in one file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str), name=np.array(self.name),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))


def patch_everywhere(wrappers: dict[int, tuple[Callable, Callable]]) -> int:
    """Rebind each original function to its wrapper in every msum module.

    wrappers maps id(original) -> (original, wrapper). Returns the number of
    bindings replaced.
    """
    replaced = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "msum" or modname.startswith("msum.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                replaced += 1
    return replaced


def install(tracer: Tracer) -> None:
    """Wrap the public functions that the per-layer metrics are made of."""
    from msum import campaign, classify, cyclo, engine, modular, store, towers

    dense_limit = engine.DENSE_LIMIT

    def m_route(q, e, *args, **kwargs):
        return "engine.m.dense" if e <= dense_limit else "engine.m.orbit"

    def mpp_route(q, p, k, *args, **kwargs):
        if p**k <= dense_limit:
            return "engine.m_prime_power.dense"
        return f"engine.m_prime_power.orbit.level_{k}"

    def claim_name(claim_id, *args, **kwargs):
        return f"campaign.run_claim.{claim_id}"

    plan = [
        (engine.m, m_route),
        (engine.m_prime_power, mpp_route),
        (engine.m_table_for_modulus, "engine.m_table_for_modulus"),
        (engine.verify_witness, "engine.verify_witness"),
        (modular.unit_subgroup, "modular.unit_subgroup"),
        (modular.mul_order, "modular.order.mul_order"),
        (modular.order_mod_prime_power, "modular.order.order_mod_prime_power"),
        (modular.element_of_order, "modular.order.element_of_order"),
        (modular.p_adic_w, "modular.order.p_adic_w"),
        (classify.classify_large, "classify.classify_large"),
        (classify.star_params, "classify.star_params"),
        (classify.corollary8_modulus, "classify.corollary8_modulus"),
        (classify.prop2_modulus, "classify.prop2_modulus"),
        (towers.tower_sequence, "towers.tower_sequence"),
        (cyclo.corollary13_exceptions, "cyclo.corollary13_exceptions"),
        (cyclo.candidate_scan, "cyclo.candidate_scan"),
        (cyclo.bezout_denominator, "cyclo.bezout_denominator"),
        (campaign.run_claim, claim_name),
    ]
    wrappers = {id(fn): (fn, tracer.wrap(fn, name)) for fn, name in plan}

    # Rows seeded from a store enter the engine cache without a BFS run;
    # counting them lets engine.cache_inserts count BFS runs only.
    original_seed = engine.seed_cache

    def seed_cache(rows):
        before = engine.cache_size()
        original_seed(rows)
        tracer.count("engine.cache_seeded", engine.cache_size() - before)

    wrappers[id(original_seed)] = (original_seed, seed_cache)
    patch_everywhere(wrappers)

    # The store is a class shared by every importer, so its methods are
    # wrapped once on the class. Row and byte counts come from the public
    # length and the file size.
    rows_at: dict[int, int] = {}

    def opened(args, kwargs, result):
        st = args[0]
        rows_at[id(st)] = len(st)
        tracer.count("store.rows_loaded", len(st))

    size_before: dict[int, int] = {}

    def size_of(path):
        return os.path.getsize(path) if os.path.exists(path) else 0

    original_save = store.ResultStore.save

    def save(self):
        size_before[id(self)] = size_of(self.path)
        return original_save(self)

    def saved(args, kwargs, result):
        st = args[0]
        tracer.count("store.rows_written", len(st) - rows_at.get(id(st), 0))
        tracer.count("store.bytes_written", size_of(st.path) - size_before.pop(id(st), 0))
        rows_at[id(st)] = len(st)

    store.ResultStore.__init__ = tracer.wrap(store.ResultStore.__init__, "store.open", opened)
    store.ResultStore.save = tracer.wrap(save, "store.save", saved)
