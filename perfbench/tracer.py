"""Span recorder and the wrappers that attach it to lamstair from outside.

The benchmark never edits the library.  `Tracer.install()` replaces public
functions (in every lamstair module namespace that binds them) and a few
methods with wrappers that either open a span or only bump a call counter;
`Tracer.uninstall()` puts every original object back and checks that it did.

A span is named `<layer>.<what>`; its layer is the lamstair module that
defines the wrapped code.  Spans nest through a stack, so every span has the
enclosing span as its parent, and a span's self time is its duration minus
the time its child spans cover.  Spans are aggregated as they close, per
(parent, name) edge, so memory stays flat over millions of calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("matrices", "measures", "staircase", "synth", "stages", "models",
          "serialize", "cli")

# called per atom or per matrix op; a span around each call would cost more
# than the call, so they are counted only and their time stays with the caller
COUNT_ONLY = {"matrices.frob", "matrices.asmatrix"}


class Tracer:
    """Nested spans with per-layer self time, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []       # open spans: [name, layer, start, child_s]
        self._depth: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total_s, self_s]
        self.total_s: dict[str, float] = defaultdict(float)   # outermost calls only
        self.calls: dict[str, int] = defaultdict(int)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []    # (owner, attr, original, owned)

    # --- spans ---------------------------------------------------------------

    def begin(self, name: str, layer: str) -> None:
        self.calls[name] += 1
        self._depth[name] += 1
        self._stack.append([name, layer, self.clock(), 0.0])

    def end(self) -> float:
        end = self.clock()
        name, layer, start, child_s = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += dur
        rec = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child_s
        self.layer_self_s[layer] += dur - child_s
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.total_s[name] += dur
        return dur

    def in_span(self, name: str) -> bool:
        return self._depth[name] > 0

    # --- wrapper factories -----------------------------------------------------

    def spanned(self, fn, name: str, layer: str, post=None):
        """Wrap fn in a span; post(result, args, kwargs) may add counters."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.begin(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end()
            if post is not None:
                post(out, args, kwargs)
            return out
        return wrapper

    def counted(self, fn, name: str):
        counters = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        owned = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap lamstair's public functions and the traced methods."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"lamstair.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(val):
                    continue
                home = getattr(val, "__module__", "") or ""
                if not home.startswith("lamstair.") or home.split(".")[1] not in LAYERS:
                    continue
                if id(val) not in wrapped:
                    wrapped[id(val)] = self._wrap_function(val, home.split(".")[1])
                self._patch(mod, attr, wrapped[id(val)])
        self._install_methods(mods)

    def _wrap_function(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        if name in COUNT_ONLY:
            return self.counted(fn, name)
        if name in ("stages.stage3_builder", "stages.product_builder"):
            # the factories return the step builder that reduce_exact calls
            # once per patched slot; each of those calls is a span
            def factory(*args, **kwargs):
                return self.spanned(fn(*args, **kwargs), "stages.builder", "stages")
            return self.spanned(functools.wraps(fn)(factory), name, layer)
        post = None
        if name == "serialize.dump_json":
            def post(_out, args, kwargs):
                path = kwargs.get("path", args[1] if len(args) > 1 else None)
                self.counters["serialize.bytes_out"] += os.path.getsize(path)
        elif name == "synth.verify_map":
            def post(out, _args, _kwargs):
                self.counters["synth.verify_map.samples"] += out.samples
        elif name == "synth.reduce_exact":
            def post(out, _args, _kwargs):
                self.counters["synth.reduce_exact.rounds"] += len(out[1])
        return self.spanned(fn, name, layer, post)

    def _install_methods(self, mods) -> None:
        measures, staircase = mods["measures"], mods["staircase"]
        synth, serialize = mods["synth"], mods["serialize"]
        tr = self

        init = measures.DiscreteMeasure.__init__

        @functools.wraps(init)
        def construct(obj, atoms, *args, **kwargs):
            atoms = list(atoms)
            tr.begin("measures.construct", "measures")
            try:
                init(obj, atoms, *args, **kwargs)
            finally:
                tr.end()
            tr.counters["measures.atoms_in"] += len(atoms)
            tr.counters["measures.atoms_out"] += len(obj.atoms)
        self._patch(measures.DiscreteMeasure, "__init__", construct)

        def truncate_atoms(out, _args, _kwargs):
            tr.counters["staircase.truncate.atoms"] += len(out)
        self._patch(staircase.ExtendedMeasure, "truncate",
                    self.spanned(staircase.ExtendedMeasure.truncate,
                                 "staircase.truncate", "staircase", truncate_atoms))

        step = staircase.StaircaseSpec.step

        @functools.wraps(step)
        def memo_step(spec, n):
            if n in spec._memo:
                tr.counters["staircase.step.memo_hits"] += 1
            tr.begin("staircase.step", "staircase")
            try:
                return step(spec, n)
            finally:
                tr.end()
        self._patch(staircase.StaircaseSpec, "step", memo_step)

        self._patch(synth.PiecewiseAffineMap, "evaluate",
                    self.counted(synth.PiecewiseAffineMap.evaluate, "synth.evaluate"))
        self._patch(serialize.CellMap, "evaluate",
                    self.counted(serialize.CellMap.evaluate, "serialize.cellmap_evaluate"))
        for cls in _subclasses(synth.MapNode):
            if "evaluate" in vars(cls):
                self._patch(cls, "evaluate",
                            self.counted(vars(cls)["evaluate"], "synth.node_evaluate"))
            if "distribution" in vars(cls):
                self._patch(cls, "distribution",
                            self._outermost_distribution(vars(cls)["distribution"]))

    def _outermost_distribution(self, fn):
        """Node distributions recurse through the tree; only the outermost
        call of a traversal is a span, inner calls go straight through."""
        tr = self

        @functools.wraps(fn)
        def wrapper(node):
            if tr.in_span("synth.distribution"):
                return fn(node)
            tr.begin("synth.distribution", "synth")
            try:
                out = fn(node)
            finally:
                tr.end()
            tr.counters["synth.distribution.atoms"] += len(out)
            return out
        return wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, and verify it."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig, owned in self._patches
               if (vars(o).get(a) is not orig if owned else a in vars(o))]
        self._patches.clear()
        if bad:
            raise RuntimeError(f"tracer left patched attributes: {bad}")

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out
