"""Span tracing around mor2's public functions, installed from outside the package.

Every traced function is replaced by a wrapper on its module, so calls made
inside mor2 (which look functions up on their module at call time) are
traced as well.  A span is (name, start, end, parent span, run id); spans
stay in memory and are written out when the benchmark ends.  With no run id
set the wrappers call straight through, so untraced rounds pay one attribute
test per call.
"""

import functools
import time
from collections import defaultdict

# Public functions of each layer that the traced run wraps.
TRACED = {
    "problems": ("eval_nonlinear", "eval_nonlinear_at"),
    "kernels": ("eig_pair", "truncated_svd", "etd_euler_update", "pivoted_qr_indices"),
    "fullsolve": ("trajectory_source", "iter_full"),
    "pod": ("dynamic_pod", "accumulate", "projection_error", "prune"),
    "deim": ("build_deim", "precompute_rom_factors", "reduced_nonlinear"),
    "rom": ("assemble_rom", "run_online", "etd_step", "lift"),
    "persist": ("write_basis", "read_basis"),
}

# Generators are timed over consumption: one span per resumption.
GENERATORS = {"fullsolve.iter_full"}

# The same kernel serves the full and the reduced model; its spans are told
# apart by the traced function that called it.
SPLIT_BY_PARENT = {
    "kernels.etd_euler_update": {"fullsolve.iter_full": "full", "rom.etd_step": "reduced"},
}


class Tracer:
    """Records spans and counts for the run id currently set."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, run id]
        self.counts = defaultdict(lambda: defaultdict(int))     # run id -> name -> value
        self.run_id = None   # None: tracing off
        self._stack = []
        self._origin = time.perf_counter()

    def install(self, modules):
        """Wrap every function of TRACED on the given {name: module} map."""
        for mod_name, fn_names in TRACED.items():
            module = modules[mod_name]
            for fn_name in fn_names:
                name = f"{mod_name}.{fn_name}"
                fn = getattr(module, fn_name)
                wrap = self._wrap_generator if name in GENERATORS else self._wrap
                setattr(module, fn_name, wrap(name, fn))

    def count(self, name, value=1):
        if self.run_id is not None:
            self.counts[self.run_id][name] += value

    def _enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(index)
        return index

    def _exit(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run_id is None:
                return fn(*args, **kwargs)
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                index = None if self.run_id is None else self._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if index is not None:
                        self._exit(index)
                yield item
        return traced

    def layer_totals(self, run_id):
        """Per layer of one run id: calls, busy time and self time in seconds.

        Busy time sums the durations of the layer's spans; self time subtracts
        the part of each span that its child spans cover.  Layers listed in
        SPLIT_BY_PARENT get one entry per calling layer, named with a suffix.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            key = name
            if name in SPLIT_BY_PARENT:
                parent_name = self.spans[parent][0] if parent >= 0 else None
                key = f"{name}.{SPLIT_BY_PARENT[name].get(parent_name, 'other')}"
            entry = totals[key]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(totals)

    def drop_last_run(self, run_id):
        """Forget the spans of the latest run id once its totals have been taken.

        Only the tail of the span list is cut, so the parent indices of the
        spans that stay remain valid.
        """
        if self._stack:
            raise RuntimeError("cannot drop spans while a span is open")
        first = next((i for i, span in enumerate(self.spans) if span[4] == run_id), None)
        if first is None:
            return
        if any(span[4] != run_id for span in self.spans[first:]):
            raise RuntimeError(f"spans of {run_id!r} are not the latest ones")
        del self.spans[first:]

    def dump(self):
        """Spans with times relative to the tracer's creation, for the span file."""
        return [
            [name, round(start - self._origin, 9), round(end - self._origin, 9), parent, rid]
            for name, start, end, parent, rid in self.spans
        ]
