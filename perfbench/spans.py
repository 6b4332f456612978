"""Spans and counters around the calls into each layer of ``cubical``.

``Tracer.install()`` rebinds the traced public functions in every module
that imports them (``cli``, ``complexes``, ``pocsets``, ``coxeter``,
``treespace``), so calls across layers and calls inside a layer both pass
through a wrapper; ``uninstall()`` puts the originals back. The program's
source is not touched.

A span records name, start, end, parent span and job id. Spans stay in
memory until ``write_spans``. A layer's self time is the span's duration
minus the time of its direct child spans and of the counted-only calls
made directly under it. Self times are kept per job in ``job_times`` and
added to the totals by ``add(job_times, scale)``, which converts them to
reference seconds. ``canonical_cube`` and ``reduce_word`` are too hot for
per-call spans: both get call counters, and ``reduce_word`` also gets
summed time.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("cli", "complexes", "pocsets", "coxeter", "treespace")

# span name -> (layer, time metric it is summed into)
SPANS = {
    "load_complex": ("complexes", "complexes.build_s"),
    "build_complex": ("complexes", "complexes.build_s"),
    "is_locally_cat0": ("complexes", "complexes.links_s"),
    "vertex_link": ("complexes", "complexes.links_s"),
    "is_flag": ("complexes", "complexes.links_s"),
    "build_simplicial": ("complexes", "complexes.links_s"),
    "is_cat0": ("complexes", "complexes.cat0_s"),
    "hyperplanes": ("complexes", "complexes.hyperplanes_s"),
    "halfspaces_of": ("complexes", "complexes.hyperplanes_s"),
    "hyperplanes_cross": ("complexes", "complexes.hyperplanes_s"),
    "dump_complex": ("complexes", "complexes.dump_s"),
    "load_system": ("pocsets", "pocsets.build_s"),
    "build_system": ("pocsets", "pocsets.build_s"),
    "seed_vertex": ("pocsets", "pocsets.seed_s"),
    "dual_complex": ("pocsets", "pocsets.dual_s"),
    "maximal_cubes": ("pocsets", "pocsets.maxcubes_s"),
    "is_vertex": ("pocsets", "pocsets.is_vertex_s"),
    "cayley_ball": ("coxeter", "coxeter.ball_s"),
    "walls": ("coxeter", "coxeter.walls_s"),
    "halfspace_system": ("coxeter", "coxeter.halfspaces_s"),
    "cubulate": ("coxeter", "coxeter.cubulate_s"),
    "ends_profile": ("coxeter", "coxeter.ends_s"),
    "treespace_complex": ("treespace", "treespace.complex_s"),
    "link_of_origin": ("treespace", "treespace.link_s"),
    "enumerate_topologies": ("treespace", "treespace.enumerate_s"),
}

# counted-only calls: name -> (layer, calls metric, summed-time metric)
COUNTED = {
    "canonical_cube": ("complexes", "complexes.canonical_cube_calls", None),
    "reduce_word": ("coxeter", "coxeter.reduce_calls", "coxeter.reduce_s"),
}

JOB_SPAN = "job"

TIME_METRICS = ("cli.self_s",) + tuple(dict.fromkeys(
    [m for _, m in SPANS.values()] + [t for _, _, t in COUNTED.values() if t]))

COUNT_METRICS = (
    "complexes.build_calls", "complexes.cubes_validated",
    "complexes.canonical_cube_calls", "complexes.links_calls",
    "complexes.link_vertices", "complexes.cat0_vertices",
    "pocsets.dual_vertices", "pocsets.dual_cubes", "pocsets.is_vertex_calls",
    "coxeter.ball_elements", "coxeter.walls_selected", "coxeter.reduce_calls",
    "coxeter.memo_words", "treespace.topologies",
    "complexes.raised", "pocsets.raised", "coxeter.raised", "treespace.raised",
)


def _work_counts(name, args, result) -> dict:
    """Work done by one finished call, by count metric."""
    if name == "build_complex":
        return {"complexes.build_calls": 1,
                "complexes.cubes_validated": len(result.cubes)}
    if name == "is_locally_cat0":
        return {"complexes.links_calls": 1}
    if name == "vertex_link":
        return {"complexes.link_vertices": 1}
    if name == "is_cat0":
        return {"complexes.cat0_vertices": len(args[0].vertices)}
    if name == "dual_complex":
        return {"pocsets.dual_vertices": len(result.complex.vertices),
                "pocsets.dual_cubes": len(result.complex.cubes)}
    if name == "is_vertex":
        return {"pocsets.is_vertex_calls": 1}
    if name == "cayley_ball":
        return {"coxeter.ball_elements": len(result.elements)}
    if name == "halfspace_system":
        return {"coxeter.walls_selected": len(result.walls)}
    if name == "enumerate_topologies":
        return {"treespace.topologies": len(result)}
    return {}


class Tracer:
    """Collects spans and counters for the jobs run while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, job, parent, start, end, child_s]
        self.stack: list[list] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.times = dict.fromkeys(TIME_METRICS, 0.0)
        self.job_times = dict.fromkeys(TIME_METRICS, 0.0)
        self.job_id = None
        self.systems: list = []
        self._saved: list[tuple] = []
        self._errors: list = []

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), name, self.job_id, parent,
                time.perf_counter(), None, 0.0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span[5] = time.perf_counter()
        self.stack.pop()
        duration = span[5] - span[4]
        if self.stack:
            self.stack[-1][6] += duration
        metric = "cli.self_s" if span[1] == JOB_SPAN else SPANS[span[1]][1]
        self.job_times[metric] += duration - span[6]

    def _raised(self, layer, exc):
        if not any(e is exc for e in self._errors):
            self._errors.append(exc)
            self.counts[f"{layer}.raised"] += 1

    def run_job(self, job_id, fn):
        """Run one job under a root span, so time outside every wrapped call
        counts as cli self time; record the memo size it ends with."""
        self.job_id = job_id
        self.systems = []
        self.job_times = dict.fromkeys(TIME_METRICS, 0.0)
        span = self._open(JOB_SPAN)
        try:
            return fn()
        finally:
            self._close(span)
            self.counts["coxeter.memo_words"] += sum(
                len(s._memo) for s in self.systems)
            self.job_id = None

    def add(self, job_times: dict, scale: float):
        """Add one job's self times, multiplied by ``scale``."""
        for name, seconds in job_times.items():
            self.times[name] += seconds * scale

    def _span_wrapper(self, name, fn):
        layer = SPANS[name][0]

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if _is_cubical_error(exc):
                    self._raised(layer, exc)
                raise
            finally:
                self._close(span)
            for key, n in _work_counts(name, args, result).items():
                self.counts[key] += n
            return result

        return wrapper

    def _capture_wrapper(self, fn):
        """``load_matrix``: keep each job's Coxeter systems, whose reduction
        memo sizes are read when the job ends. No span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.systems.append(result)
            return result

        return wrapper

    def _counted_wrapper(self, name, fn):
        layer, calls, timed = COUNTED[name]

        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            if timed is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if _is_cubical_error(exc):
                    self._raised(layer, exc)
                raise
            finally:
                duration = time.perf_counter() - start
                self.job_times[timed] += duration
                if self.stack:
                    self.stack[-1][6] += duration

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        mods = [importlib.import_module(f"cubical.{m}") for m in MODULES]
        originals = {}
        for name in list(SPANS) + list(COUNTED) + ["load_matrix"]:
            for mod in mods:
                if name in vars(mod):
                    originals.setdefault(name, getattr(mod, name))
        wrappers = {}
        for name, fn in originals.items():
            if name == "load_matrix":
                wrappers[name] = self._capture_wrapper(fn)
            elif name in COUNTED:
                wrappers[name] = self._counted_wrapper(name, fn)
            else:
                wrappers[name] = self._span_wrapper(name, fn)
        for mod in mods:
            for name, fn in originals.items():
                if vars(mod).get(name) is fn:
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, wrappers[name])

    def uninstall(self):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def write_spans(self, fh):
        """One JSON line per span."""
        for sid, name, job, parent, start, end, _ in self.spans:
            fh.write(json.dumps({"id": sid, "name": name, "job": job,
                                 "parent": parent, "start": start,
                                 "end": end}) + "\n")


def _is_cubical_error(exc) -> bool:
    from cubical.errors import CubicalError

    return isinstance(exc, CubicalError)
