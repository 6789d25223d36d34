"""Spans and counters around calls into bbt's modules, from outside the program.

:class:`Tracer` replaces a function at every ``bbt`` module binding that
holds it (the defining module, importers such as ``bbt.cli`` and
``bbt.planner``, and the package's re-exports) and puts every original back
in :meth:`Tracer.restore`.  A span records name, start, end, parent span and
op id; spans stay in memory until :meth:`Tracer.dump`.  Hot functions are
only counted.  Bindings a later version of bbt no longer has are skipped and
listed in ``missing``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

CALIBRATION_DRAWS = 20000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.in_tick = False
        self.gc_s = 0.0
        self.seconds_per_draw = 0.0
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- spans

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.op_ids.append(self.op)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op: int) -> int:
        """Open the root span of one op and zero the per-op counters."""
        self.op = op
        self.counts.clear()
        self.peaks.clear()
        self.gc_s = 0.0
        return self.open("op")

    # -- wrappers

    def _spanned(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _root_tick(self, fn):
        """Span root ``belief_tick`` calls only; its recursion passes straight through."""

        def wrapper(node, mem, *args, **kwargs):
            if self.in_tick:
                return fn(node, mem, *args, **kwargs)
            self.peak("engine.peak_live_entries", len(mem))
            self.in_tick = True
            index = self.open("engine.belief_tick")
            try:
                return fn(node, mem, *args, **kwargs)
            finally:
                self.close(index)
                self.in_tick = False

        return wrapper

    def _replay(self, fn):
        """Count the planner's final-tick replays; their recursion is not spanned."""

        def wrapper(*args, **kwargs):
            self.counts["planner.replays"] += 1
            self.in_tick = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_tick = False

        return wrapper

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    def _patch_function(self, module_name: str, attr: str, make) -> None:
        """Wrap ``module_name.attr`` wherever a bbt module binds the same object."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "bbt" or name.startswith("bbt.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def _patch_binding(self, module_name: str, attr: str, make) -> None:
        """Wrap one module's binding only (a function imported under that name)."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def _patch_method(self, module_name: str, cls_name: str, attr: str, make) -> None:
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        self._patched.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        """Wrap every traced call; bbt must already be imported."""
        self._calibrate_rng()
        counts, peak = self.counts, self.peak
        span = self._spanned

        def on_simulate(args, result):
            counts["engine.root_ticks"] += result.ticks_used
            peak("engine.terminal_entries", len(result.terminal))

        def on_coalesce(args, result):
            counts["belief.coalesce.entries_in"] += len(args[0])
            counts["belief.coalesce.entries_out"] += len(result)

        def on_refine(args, result):
            counts["planner.iterations"] += len(result.log)

        def on_run(args, result):
            counts["classic.actions_started"] += len(result[1].outcomes)

        fn, count = self._patch_function, self._counted
        fn("bbt.domain", "parse_domain", lambda f: span("domain.parse", f))
        fn("bbt.domain", "ground", lambda f: span("domain.ground", f))
        # belief_tick is bound in bbt.engine (simulate and the recursion) and in
        # bbt.planner (final-tick replays); each binding gets its own wrapper.
        self._patch_binding("bbt.planner", "belief_tick", self._replay)
        self._patch_binding("bbt.engine", "belief_tick", self._root_tick)
        fn("bbt.engine", "simulate", lambda f: span("engine.simulate", f, on_simulate))
        fn("bbt.engine", "schedule_delayed", lambda f: count("engine.schedule_delayed.calls", f))
        fn("bbt.engine", "apply_delayed", lambda f: span("engine.apply_delayed", f))
        method = self._patch_method
        method("bbt.belief", "BeliefState", "coalesce",
               lambda f: span("belief.coalesce", f, on_coalesce))
        method("bbt.belief", "PhysicalState", "__init__",
               lambda f: count("belief.physical_state.constructed", f))
        fn("bbt.planner", "refine_tree", lambda f: span("planner.refine_tree", f, on_refine))
        fn("bbt.planner", "find_failed_condition", lambda f: span("planner.find_failed_condition", f))
        fn("bbt.planner", "select_resolver", lambda f: span("planner.select_resolver", f))
        for edit in ("find_threat", "resolve_by_insert", "resolve_threat"):
            fn("bbt.planner", edit, lambda f: span("planner.edit", f))
        self._patch_binding("bbt.planner", "node_by_id", lambda f: span("planner.edit", f))
        fn("bbt.classic", "run_classic", lambda f: span("classic.run_classic", f, on_run))
        fn("bbt.classic", "classic_tick", lambda f: count("classic.root_ticks", f))
        method("bbt.rng", "CounterRng", "random", lambda f: count("rng.draws", f))
        fn("bbt.treefile", "save_tree", lambda f: span("treefile.save", f))
        fn("bbt.treefile", "load_tree", lambda f: span("treefile.load", f))
        fn("bbt.dot", "to_dot", lambda f: span("dot.to_dot", f))
        fn("bbt.cli", "main", lambda f: span("cli.main", f))
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        """Time the interpreter's cyclic collections; their time also counts in the open span."""
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_s += time.perf_counter() - self._gc_start
        self.counts["gc.collections"] += 1
        if info["generation"] == 2:
            self.counts["gc.gen2_collections"] += 1

    def restore(self) -> None:
        """Put every original binding back, last patched first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _calibrate_rng(self) -> None:
        """Time untraced draws; ``rng.draw_s`` is draws times this cost."""
        rng = sys.modules["bbt.rng"].CounterRng(1, 0)
        start = time.perf_counter()
        for _ in range(CALIBRATION_DRAWS):
            rng.random()
        self.seconds_per_draw = (time.perf_counter() - start) / CALIBRATION_DRAWS

    # -- per-op results

    def op_metrics(self, root: int) -> tuple[dict[str, float], float]:
        """Per-layer metrics of the op whose root span is ``root``.

        Returns the metrics and the op's self-time residual: the op's wall
        time minus the self times of all its spans, which is zero when every
        span nests inside its parent.
        """
        last = len(self.names)
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = defaultdict(float)
        for i in range(root, last):
            duration = self.ends[i] - self.starts[i]
            inclusive[self.names[i]] += duration
            calls[self.names[i]] += 1
            if self.parents[i] >= 0:
                child_time[self.parents[i]] += duration
        for i in range(root, last):
            self_time[self.names[i]] += self.ends[i] - self.starts[i] - child_time[i]
        wall = self.ends[root] - self.starts[root]
        residual = wall - sum(self_time.values())
        c, p = self.counts, self.peaks
        entries_in = c["belief.coalesce.entries_in"]
        metrics = {
            "domain.parse_s": inclusive["domain.parse"],
            "domain.ground_s": inclusive["domain.ground"],
            "engine.simulate.calls": calls["engine.simulate"],
            "engine.simulate.self_s": self_time["engine.simulate"],
            "engine.belief_tick.s": inclusive["engine.belief_tick"],
            "engine.schedule_delayed.calls": c["engine.schedule_delayed.calls"],
            "engine.apply_delayed.s": inclusive["engine.apply_delayed"],
            "engine.root_ticks": c["engine.root_ticks"],
            "engine.terminal_entries": p["engine.terminal_entries"],
            "engine.peak_live_entries": p["engine.peak_live_entries"],
            "engine.share": inclusive["engine.simulate"] / wall,
            "belief.coalesce.calls": calls["belief.coalesce"],
            "belief.coalesce.s": inclusive["belief.coalesce"],
            "belief.coalesce.entries_in": entries_in,
            "belief.coalesce.entries_out": c["belief.coalesce.entries_out"],
            "belief.coalesce.merge_ratio": (
                c["belief.coalesce.entries_out"] / entries_in if entries_in else 1.0
            ),
            "belief.physical_state.constructed": c["belief.physical_state.constructed"],
            "planner.iterations": c["planner.iterations"],
            "planner.refine_tree.self_s": self_time["planner.refine_tree"],
            "planner.find_failed_condition.s": inclusive["planner.find_failed_condition"],
            "planner.replays": c["planner.replays"],
            "planner.select_resolver.s": inclusive["planner.select_resolver"],
            "planner.edit_s": inclusive["planner.edit"],
            "classic.run_classic.calls": calls["classic.run_classic"],
            "classic.run_classic.s": inclusive["classic.run_classic"],
            "classic.root_ticks": c["classic.root_ticks"],
            "classic.actions_started": c["classic.actions_started"],
            "rng.draws": c["rng.draws"],
            "rng.draw_s": c["rng.draws"] * self.seconds_per_draw,
            "treefile.save_s": inclusive["treefile.save"],
            "treefile.load_s": inclusive["treefile.load"],
            "dot.to_dot_s": inclusive["dot.to_dot"],
            "cli.self_s": self_time["cli.main"],
            "gc.collections": c["gc.collections"],
            "gc.gen2_collections": c["gc.gen2_collections"],
            "gc.s": self.gc_s,
            "op.self_s": self_time["op"],
            "op.wall_s": wall,
        }
        return metrics, residual

    def dump(self, path: Path) -> None:
        """Write every span once, as parallel columns; times in whole microseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "names": self.names,
            "start_us": [round((t - t0) * 1e6) for t in self.starts],
            "end_us": [round((t - t0) * 1e6) for t in self.ends],
            "parents": self.parents,
            "op_ids": self.op_ids,
            "missing": self.missing,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
