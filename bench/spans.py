"""In-memory span recorder that wraps coopreg's public functions from outside.

A span is (id, name, parent id, repetition id, start ns, end ns).  Spans are
recorded at layer boundaries only: the recorder replaces a module-level
function (or a class method) with a timing wrapper, in its defining module
and in every ``coopreg`` namespace that imported it by name, so calls made
inside the package are seen too.  Nothing under ``src/`` is edited.
"""

import functools
import sys
import time

# Layer boundaries timed one function at a time: span name -> (module, attribute).
# A dotted attribute names a method on a class.
NAMED_SPANS = {
    "scenario.load_scenario": ("coopreg.scenario", "load_scenario"),
    "scenario.resolve": ("coopreg.scenario", "Scenario.resolve"),
    "backstepping.solve_kernel": ("coopreg.backstepping", "solve_kernel"),
    "backstepping.invert_kernel": ("coopreg.backstepping", "invert_kernel"),
    "backstepping.transform_output_weight": ("coopreg.backstepping", "transform_output_weight"),
    "backstepping.integral_operator": ("coopreg.backstepping", "TriangularKernel.integral_operator"),
    "synthesis.solve_decoupling": ("coopreg.synthesis", "solve_decoupling"),
    "synthesis.check_controllable_pair": ("coopreg.synthesis", "check_controllable_pair"),
    "synthesis.solve_are": ("coopreg.synthesis", "solve_are"),
    "synthesis.certify_stability": ("coopreg.synthesis", "certify_stability"),
    "synthesis.assemble_gains": ("coopreg.synthesis", "assemble_gains"),
    "synthesis.write_gains_file": ("coopreg.synthesis", "write_gains_file"),
    "synthesis.read_gains_file": ("coopreg.synthesis", "read_gains_file"),
    "cli.run_synthesis": ("coopreg.cli", "run_synthesis"),
    "cli.cmd_simulate": ("coopreg.cli", "cmd_simulate"),
    "cli.write_trace_csv": ("coopreg.cli", "write_trace_csv"),
    "simulator.simulate": ("coopreg.simulator", "simulate"),
    "simulator.simulate_target_cascade": ("coopreg.simulator", "simulate_target_cascade"),
    "simulator.transform_state_trace": ("coopreg.simulator", "transform_state_trace"),
    "simulator.error_metrics": ("coopreg.simulator", "error_metrics"),
}

# Small layers timed as one aggregate: every public function the module defines.
AGGREGATE_SPANS = ("comm_graph", "signal_model")

# The untraced run times only these stage boundaries (one wrapper call per
# design or simulation), which the end-to-end metrics and step counts need.
STAGE_SPANS = ("cli.run_synthesis", "simulator.simulate", "simulator.simulate_target_cascade")


class Recorder:
    """Collects spans of one repetition and patches/unpatches the wrappers."""

    def __init__(self, rep_id: int):
        self.rep_id = rep_id
        self.spans = []  # [id, name, parent, rep, start_ns, end_ns, info]
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def span(self, name: str, info: dict | None = None):
        return _Span(self, name, info)

    def _wrap(self, name, fn, info_of=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack
            if stack and recorder.spans[stack[-1]][1] == name:
                # a layer calling itself (aggregate modules): one span, not two
                return fn(*args, **kwargs)
            with recorder.span(name, info_of(args) if info_of else None):
                return fn(*args, **kwargs)

        return wrapper

    def install(self, names, info_of=None):
        """Wrap the named spans; ``info_of`` maps span name -> fn(args) -> dict."""
        info_of = info_of or {}
        for name in names:
            if name in AGGREGATE_SPANS:
                module = sys.modules[f"coopreg.{name}"]
                for attr, fn in list(vars(module).items()):
                    if (
                        callable(fn)
                        and not attr.startswith("_")
                        and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == module.__name__
                    ):
                        self._patch_everywhere(fn, self._wrap(name, fn))
                continue
            module_name, attr = NAMED_SPANS[name]
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, info_of.get(name)))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self._wrap(name, original, info_of.get(name)))

    def _patch_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "coopreg" or mod_name.startswith("coopreg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def records(self) -> list:
        return [
            {
                "id": s[0], "name": s[1], "parent": s[2], "rep": s[3],
                "start_ns": s[4], "end_ns": s[5], **({"info": s[6]} if s[6] else {}),
            }
            for s in self.spans
        ]


class _Span:
    def __init__(self, recorder, name, info):
        self.recorder, self.name, self.info = recorder, name, info

    def __enter__(self):
        rec = self.recorder
        parent = rec._stack[-1] if rec._stack else None
        self.index = len(rec.spans)
        rec.spans.append([self.index, self.name, parent, rec.rep_id, time.perf_counter_ns(), None, self.info])
        rec._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        rec = self.recorder
        rec.spans[self.index][5] = time.perf_counter_ns()
        rec._stack.pop()
        return False


def summarize(records: list) -> dict:
    """Per span name: total ms, self ms (minus direct children) and calls."""
    child_ns = {}
    for s in records:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    out = {}
    for s in records:
        dur = s["end_ns"] - s["start_ns"]
        row = out.setdefault(s["name"], {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        row["ms"] += dur / 1e6
        row["self_ms"] += (dur - child_ns.get(s["id"], 0)) / 1e6
        row["calls"] += 1
    return out
