"""Spans around the calls the adaptive driver makes into each layer.

``Tracer.install`` replaces the names that ``goafem.driver`` imports by
wrappers that record one span per call, and wraps the method
``EstimatorWorkspace.indicators``; ``uninstall`` puts the originals
back.  Nothing in the package is edited.  A span is a dict with the run
id, its own id, the parent span id, the function name, its layer (the
module it comes from), start and end on ``time.perf_counter`` and the
process's peak RSS (KiB) at both ends, plus counts taken at the
boundary (``nnz`` of an assembled matrix, ``marked`` elements,
``elems_in`` of a refinement).

The driver exposes no level boundary, so a ``level`` span is opened by
each call of ``build_space`` (the first thing a level does) and closed
by the next one or by the end of the run.  Its parent is the ``run``
span; every driver-level call is a child of its level, and the calls
made inside ``solve_estimate`` are children of that span.
"""

import resource
import time

# name imported by goafem.driver -> layer (module) it belongs to
LAYERS = {
    "refine": "mesh",
    "build_space": "space",
    "prolong": "space",
    "assemble": "assemble",
    "energy_norm": "assemble",
    "goal_value": "assemble",
    "build_preconditioner": "multigrid",
    "psi_step": "multigrid",
    "EstimatorGeometry": "estimator",
    "EstimatorWorkspace": "estimator",
    "zarantonello_rhs": "zarantonello",
    "doerfler_mark": "marking",
    "combine_marks": "marking",
    "solve_estimate": "driver",
}
INDICATORS = "EstimatorWorkspace.indicators"

# counts recorded at a boundary: name -> f(args, result) -> dict
COUNTS = {
    "assemble": lambda args, out: {"nnz": int(out.A_sym.nnz)},
    "combine_marks": lambda args, out: {"marked": int(len(out))},
    "refine": lambda args, out: {"elems_in": int(args[0].n_triangles)},
}


def _maxrss_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []          # open spans, innermost last
        self._undo = []
        self.missing = []         # LAYERS names the driver no longer imports

    def open(self, name, layer):
        parent = self._stack[-1]["id"] if self._stack else None
        span = {"run": self.run_id, "id": len(self.spans), "parent": parent,
                "name": name, "layer": layer, "rss0": _maxrss_kib(),
                "t0": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span, **counts):
        """Close ``span`` and every span still open inside it."""
        t1 = time.perf_counter()
        rss = _maxrss_kib()
        while self._stack:
            inner = self._stack.pop()
            inner["t1"] = t1
            inner["rss1"] = rss
            if inner is span:
                break
        span.update(counts)

    def _wrap(self, name, layer, fn, starts_level=False):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            if starts_level:
                if self._stack and self._stack[-1]["name"] == "level":
                    self.close(self._stack[-1])
                self.open("level", "driver")
            span = self.open(name, layer)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(span, **(count(args, out) if count and out is not None else {}))

        traced.__wrapped__ = fn
        return traced

    def install(self, driver):
        """Wrap the layer entry points seen by ``driver`` (a module).

        A name the driver does not import is skipped and listed in
        ``missing``; its metrics then read 0."""
        workspace_cls = getattr(driver, "EstimatorWorkspace", None)
        for name, layer in LAYERS.items():
            if not hasattr(driver, name):
                self.missing.append(name)
                continue
            original = getattr(driver, name)
            setattr(driver, name, self._wrap(name, layer, original,
                                             starts_level=name == "build_space"))
            self._undo.append((driver, name, original))
        if not hasattr(workspace_cls, "indicators"):
            self.missing.append(INDICATORS)
            return
        original = workspace_cls.indicators
        setattr(workspace_cls, "indicators", self._wrap(INDICATORS, "estimator", original))
        self._undo.append((workspace_cls, "indicators", original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def check_nesting(spans):
    """Raise ValueError unless the spans form one properly nested tree:
    every span lies inside its parent and siblings do not overlap."""
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    last_end = {}
    for s in spans:
        if s["run"] != roots[0]["run"]:
            raise ValueError(f"span {s['id']} belongs to another run")
        if s["t1"] < s["t0"]:
            raise ValueError(f"span {s['id']} ends before it starts")
        if s["parent"] is None:
            continue
        p = by_id[s["parent"]]
        if s["t0"] < p["t0"] or s["t1"] > p["t1"]:
            raise ValueError(f"span {s['id']} ({s['name']}) leaves its parent {p['id']}")
        if s["t0"] < last_end.get(p["id"], p["t0"]):
            raise ValueError(f"span {s['id']} ({s['name']}) overlaps its previous sibling")
        last_end[p["id"]] = s["t1"]


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    own = {s["id"]: s["t1"] - s["t0"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def busy(spans, *names):
    return sum(s["t1"] - s["t0"] for s in spans if s["name"] in names)


def calls(spans, name):
    return sum(1 for s in spans if s["name"] == name)


def rss_growth_mib(spans, layer):
    """Sum over the layer's spans of the increase of the peak RSS."""
    return sum(s["rss1"] - s["rss0"] for s in spans if s["layer"] == layer) / 1024.0


SETUP_NAMES = ("build_space", "assemble", "build_preconditioner",
               "EstimatorGeometry", "EstimatorWorkspace")


def layer_metrics(spans):
    """Per-layer busy times, call counts and boundary counts of one run."""
    own = self_times(spans)
    root = next(s for s in spans if s["parent"] is None)
    wall = root["t1"] - root["t0"]
    refines = [s for s in spans if s["name"] == "refine"]
    marked = sum(s["marked"] for s in spans if s["name"] == "combine_marks")
    assembles = [s for s in spans if s["name"] == "assemble"]
    return {
        "mesh.refine_s": busy(spans, "refine"),
        "mesh.refine_calls": len(refines),
        "space.build_space_s": busy(spans, "build_space"),
        "space.prolong_s": busy(spans, "prolong"),
        "assemble.assemble_s": busy(spans, "assemble"),
        "assemble.nnz_final": assembles[-1]["nnz"] if assembles else 0,
        "assemble.energy_norm_s": busy(spans, "energy_norm"),
        "assemble.energy_norm_calls": calls(spans, "energy_norm"),
        "assemble.rss_growth_mib": rss_growth_mib(spans, "assemble"),
        "multigrid.build_preconditioner_s": busy(spans, "build_preconditioner"),
        "multigrid.psi_step_s": busy(spans, "psi_step"),
        "multigrid.psi_step_calls": calls(spans, "psi_step"),
        "multigrid.rss_growth_mib": rss_growth_mib(spans, "multigrid"),
        "estimator.geometry_s": busy(spans, "EstimatorGeometry"),
        "estimator.workspace_s": busy(spans, "EstimatorWorkspace"),
        "estimator.indicators_s": busy(spans, INDICATORS),
        "estimator.indicators_calls": calls(spans, INDICATORS),
        "estimator.rss_growth_mib": rss_growth_mib(spans, "estimator"),
        "zarantonello.rhs_s": busy(spans, "zarantonello_rhs"),
        "zarantonello.rhs_calls": calls(spans, "zarantonello_rhs"),
        "marking.mark_s": busy(spans, "doerfler_mark", "combine_marks"),
        "marking.marked_share": marked / max(sum(s["elems_in"] for s in refines), 1),
        "driver.solve_estimate_s": busy(spans, "solve_estimate"),
        "driver.solve_estimate_self_s": sum(own[s["id"]] for s in spans
                                            if s["name"] == "solve_estimate"),
        "driver.level_self_s": sum(own[s["id"]] for s in spans if s["name"] == "level"),
        "driver.setup_share": busy(spans, *SETUP_NAMES) / wall,
        "trace.wall_s": wall,
    }
