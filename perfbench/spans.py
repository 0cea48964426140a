"""Span tracer for the traced run, and the per-layer metrics read from it.

The tracer replaces each public function of the kacz layers at every
import site (`solver`, `spectral` and `cli` bind names with
`from .x import y`, so each binding is wrapped on its own) and three
methods of the random stream. A span records its name, parent span, start,
end and a work count; spans stay in typed arrays until the run ends.
Nothing under src/ changes. A name a later version deletes is simply not
wrapped, and its metrics read zero calls.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("rng", "linsys", "projectors", "sampling", "spectral", "solver", "cli")
RNG_METHODS = ("random", "below", "normals")
ENUMERATIONS = frozenset({
    "sampling.build_volume_distribution", "sampling.max_subset_volume",
    "spectral.brute_force_vol", "spectral.brute_force_phi",
})
#: Spans whose time is set-up of an ensemble, not part of its steps.
PURSUIT_SETUP = ENUMERATIONS | {"spectral.build_spectral_profile"}


def _subsets(*args, **kwargs) -> int:
    """C(M, n) for an enumeration called as f(A, n, ...); 0 if it is not."""
    try:
        return math.comb(len(args[0]), int(args[1]))
    except (IndexError, TypeError, ValueError):
        return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._open = [-1]
        self._undo = []

    def _wrap(self, owner, attr: str, span_name: str) -> None:
        fn = getattr(owner, attr)
        if span_name not in self.names:
            self.names.append(span_name)
        sid = self.names.index(span_name)
        name_id, parent, work = self.name_id, self.parent, self.work
        start, end = self.start, self.end
        open_spans, clock = self._open, time.perf_counter
        count = _subsets if span_name in ENUMERATIONS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(sid)
            parent.append(open_spans[-1])
            work.append(count(*args, **kwargs) if count else 0)
            end.append(0.0)
            open_spans.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_spans.pop()

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"kacz.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or inspect.isgeneratorfunction(obj)):
                    continue
                home = obj.__module__.removeprefix("kacz.")
                if home in LAYERS and obj.__module__ == f"kacz.{home}":
                    self._wrap(module, attr, f"{home}.{obj.__name__}")
        stream = getattr(importlib.import_module("kacz.rng"), "Xoshiro256StarStar", None)
        for method in RNG_METHODS:
            if stream is not None and hasattr(stream, method):
                self._wrap(stream, method, f"rng.{method}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: id, parent, name, start_s, end_s, work."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s,work\n")
            for i, (sid, p, s, e, w) in enumerate(
                    zip(self.name_id, self.parent, self.start, self.end, self.work)):
                fh.write(f"{i},{p},{self.names[sid]},{s!r},{e!r},{w}\n")


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("rng.random.us_per_call", "us"), ("rng.random.calls_per_step", "count"),
    ("rng.below.us_per_call", "us"), ("rng.below.calls_per_step", "count"),
    ("rng.normals.s_per_op", "s"),
    ("sampling.draw_volume.us_per_call", "us"),
    ("sampling.draw_uniform.us_per_call", "us"),
    ("sampling.relaxation_factor.us_per_call", "us"),
    ("sampling.build_volume_distribution.s_per_call", "s"),
    ("sampling.max_subset_volume.s_per_call", "s"),
    ("sampling.enumerations_per_op", "count"),
    ("sampling.subsets_enumerated_per_op", "count"),
    ("sampling.enum_us_per_subset", "us"),
    ("projectors.subset_geometry.us_per_call", "us"),
    ("projectors.subset_geometry.calls_per_step", "count"),
    ("projectors.make_row_subset.us_per_call", "us"),
    ("projectors.make_row_subset.calls_per_step", "count"),
    ("solver.multirow_step.us_per_call", "us"),
    ("solver.relaxed_step.self_us_per_call", "us"),
    ("solver.run_pursuit.self_us_per_step", "us"),
    ("solver.us_per_step", "us"),
    ("solver.run_ensemble.self_s_per_op", "s"),
    ("solver.iters_to_tol.n1", "iters"), ("solver.iters_to_tol.n2", "iters"),
    ("solver.iters_to_tol.n3", "iters"),
    ("spectral.build_spectral_profile.self_s_per_call", "s"),
    ("spectral.vol_sequence.s_per_call", "s"),
    ("spectral.transform_singular_values.us_per_call", "us"),
    ("spectral.grade_condition_number.us_per_call", "us"),
    ("linsys.singular_spectrum.s_per_call", "s"),
    ("linsys.load_matrix.s_per_call", "s"),
    ("cli.self_s_per_op", "s"), ("cli.bytes_out_per_op", "B"),
    ("cli.nan_rows_per_op", "count"),
    ("trace.overhead_frac", "frac"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, results, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of a traced run; `results` are its OpResults."""
    names = tracer.names
    layer = [name.partition(".")[0] for name in names]
    sid = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    work = np.frombuffer(tracer.work, dtype=np.int64)
    count = len(sid)
    has_parent = parent >= 0
    child_time = np.zeros(count)
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time

    enum_ids = {i for i, name in enumerate(names) if name in ENUMERATIONS}
    setup_ids = {i for i, name in enumerate(names) if name in PURSUIT_SETUP}
    solver_ids = {i for i, name in enumerate(layer) if name == "solver"}
    in_enum = [False] * count   # strictly inside an enumeration
    in_setup = [False] * count  # strictly inside pursuit set-up
    entry = [-1] * count        # outermost solver span at or above each span
    root = list(range(count))   # outermost span: one per op
    setup_time = np.zeros(count)  # set-up time under each solver entry
    for i, (s, p) in enumerate(zip(tracer.name_id, tracer.parent)):
        if p >= 0:
            in_enum[i] = in_enum[p] or tracer.name_id[p] in enum_ids
            in_setup[i] = in_setup[p] or tracer.name_id[p] in setup_ids
            root[i] = root[p]
            entry[i] = entry[p] if entry[p] >= 0 or s not in solver_ids else i
        elif s in solver_ids:
            entry[i] = i
        if s in setup_ids and not in_setup[i] and entry[i] >= 0:
            setup_time[entry[i]] += dur[i]
    in_enum = np.array(in_enum, dtype=bool)
    root = np.array(root, dtype=np.int64)

    def mask(name, outside_enum=False):
        m = sid == (names.index(name) if name in names else -1)
        return m & ~in_enum if outside_enum else m

    def calls(name, outside_enum=False):
        return int(mask(name, outside_enum).sum())

    def incl(name):
        return float(dur[mask(name)].sum())

    def own(name):
        return float(self_time[mask(name)].sum())

    ops = len(results)
    steps = sum(r.steps for r in results)
    enum_outer = np.isin(sid, list(enum_ids)) & ~in_enum
    subsets = int(work[enum_outer].sum())
    entries = np.array(entry, dtype=np.int64) == np.arange(count)
    ensemble_roots = len(set(root[mask("solver.run_ensemble")].tolist()))
    cli_ids = [i for i, name in enumerate(layer) if name == "cli"]
    cli_self = float(self_time[np.isin(sid, cli_ids)].sum())

    m = {
        "rng.random.us_per_call": 1e6 * _ratio(incl("rng.random"), calls("rng.random")),
        "rng.random.calls_per_step": _ratio(calls("rng.random"), steps),
        "rng.below.us_per_call": 1e6 * _ratio(incl("rng.below"), calls("rng.below")),
        "rng.below.calls_per_step": _ratio(calls("rng.below"), steps),
        "rng.normals.s_per_op": _ratio(incl("rng.normals"), ops),
        "sampling.subsets_enumerated_per_op": _ratio(subsets, ops),
        "sampling.enumerations_per_op": _ratio(int(enum_outer.sum()), ops),
        "sampling.enum_us_per_subset": 1e6 * _ratio(float(dur[enum_outer].sum()), subsets),
        "solver.relaxed_step.self_us_per_call":
            1e6 * _ratio(own("solver.relaxed_step"), calls("solver.relaxed_step")),
        "solver.run_pursuit.self_us_per_step": 1e6 * _ratio(own("solver.run_pursuit"), steps),
        "solver.us_per_step":
            1e6 * _ratio(float((dur[entries] - setup_time[entries]).sum()), steps),
        "solver.run_ensemble.self_s_per_op": _ratio(own("solver.run_ensemble"), ensemble_roots),
        "spectral.build_spectral_profile.self_s_per_call": _ratio(
            own("spectral.build_spectral_profile"), calls("spectral.build_spectral_profile")),
        "cli.self_s_per_op": _ratio(cli_self, ops),
        "cli.bytes_out_per_op": _ratio(sum(r.bytes_out for r in results), ops),
        "cli.nan_rows_per_op": _ratio(sum(r.outcome.nan_rows for r in results), ops),
        "trace.overhead_frac": overhead_frac,
    }
    for name in ("projectors.subset_geometry", "projectors.make_row_subset"):
        m[f"{name}.calls_per_step"] = _ratio(calls(name, outside_enum=True), steps)
    for metric, unit in PER_LAYER:
        if metric in m:
            continue
        if metric.startswith("solver.iters_to_tol.n"):
            n = int(metric.rpartition("n")[2])
            hits = [r.outcome.iters_to_tol[n] for r in results if n in r.outcome.iters_to_tol]
            m[metric] = _ratio(sum(hits), len(hits))
            continue
        name = metric.rpartition(".")[0]
        scale = 1e6 if unit == "us" else 1.0
        m[metric] = scale * _ratio(incl(name), calls(name))
    return m
