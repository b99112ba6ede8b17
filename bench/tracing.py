"""Outside-in spans around the program's public functions.

A span is named `<defining module>.<qualified name>`.  `patch` replaces a
function at every `attsync` module binding the program can call it
through, because `from .x import f` copies the binding; methods are
replaced once on their class.  Spans are kept in memory and written out
once, after the run.

Private `Simulation` stages (`_aggregates`, `_eval`, `_rk4`,
`_make_record`) are deliberately not wrapped: they show up as the self
time of `simulator.Simulation.run`.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# the RHS kernels: the per-step numpy dispatch that dominates at N=6
RHS_MOVES = ("wall_s, craft_steps_per_s",
             "sweep (largest share), leaderless-fullrate; under 10% of ring200")

# (module, spans, end-to-end metric each should move, on which workload)
LAYERS = (
    ("attmath",
     ("attmath.kinematics_matrix", "attmath.kinematics_matrix_inverse",
      "attmath.kinematics_matrix_dot", "attmath.l_operator",
      "attmath.f_operator", "attmath.mat_vec"),
     *RHS_MOVES),
    ("rigid_body",
     ("rigid_body.regression", "rigid_body.angular_acceleration",
      "rigid_body.mrp_rate", "rigid_body.h_star"),
     *RHS_MOVES),
    ("control",
     ("control.controller_outputs", "control.sync_error"),
     *RHS_MOVES),
    ("simulator",
     ("simulator.Simulation.run", "simulator.metrics"),
     "wall_s; metrics peak_mb -> peak_rss_mb",
     "ring200 (run self time ~90%, metrics tensor); leaderless-fullrate "
     "~26%; sweep ~14%"),
    ("cli",
     ("cli.main", "cli.write_trajectory_csv", "cli.validity_report"),
     "wall_s / setup_s",
     "leaderless-fullrate (CSV); sweep (validity_report per seed)"),
    ("config",
     ("config.preset", "config.ScenarioConfig.from_yaml",
      "config.ScenarioConfig.to_scenario"),
     "setup_s",
     "ring200 (from_yaml ~2 s); flat on presets"),
    ("topology",
     ("topology.aggregate_weights", "topology.leaderless_valid",
      "topology.leader_rooted_valid"),
     "setup_s",
     "ring200"),
)
SPANS = tuple(span for _, spans, _, _ in LAYERS for span in spans)

# spans whose Python allocation peak is measured with tracemalloc
MEMORY_SPANS = ("simulator.metrics",)


def patch(span: str, make) -> None:
    """Replace the function named `span` by `make(function)` wherever bound."""
    module_name, _, qualname = span.partition(".")
    module = sys.modules["attsync." + module_name]
    owner, _, attr = qualname.rpartition(".")
    if owner:
        cls = getattr(module, owner)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        return
    fn = getattr(module, attr)
    wrapped = make(fn)
    for name, mod in list(sys.modules.items()):
        if name == "attsync" or name.startswith("attsync."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


class Tracer:
    """Records one span per wrapped call: (name, parent index, start, end)."""

    def __init__(self):
        self.spans = []
        self.peak_mb = {}
        self._stack = []

    def install(self) -> None:
        for span in SPANS:
            patch(span, functools.partial(self._wrap, span))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure_memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if measure_memory:
                tracemalloc.start()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)
                stack.pop()
                spans[index] = (name, parent, t0, t1)

        return traced

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s, and call counts by caller."""
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {span: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "callers": {}}
               for span in SPANS}
        for index, (name, parent, t0, t1) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_time[index]
            caller = self.spans[parent][0] if parent >= 0 else "-"
            row["callers"][caller] = row["callers"].get(caller, 0) + 1
        for name, peak in self.peak_mb.items():
            out[name]["peak_mb"] = peak
        return out

    def write(self, path: str) -> None:
        """All spans as CSV: index, parent index, name, start, end [s]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for index, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write("%d,%d,%s,%r,%r\n" % (index, parent, name, t0, t1))
