"""In-memory span tracer for the public functions of ``coning_kit``.

The tracer edits nothing in the package.  While installed it rebinds each
traced function, in every ``coning_kit`` module namespace that holds it, to
a wrapper that records one span per call: the function, start and end
(``perf_counter_ns``) and the index of the enclosing span.  Spans live in
flat ``array`` columns so a traced sweep of about a million calls stays in
tens of megabytes; they are reduced to per-layer figures after the traced
section ends.

A traced name that the package no longer defines is reported in
``absent``; one that is defined but never called reports zero calls.
Neither stops the run, so the benchmark survives refactors of the package.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (module, function) pairs whose calls become spans.
TRACED = (
    ("trajectory", "omega_at"),
    ("trajectory", "synth_delta_theta"),
    ("trajectory", "reference_attitude"),
    ("kinematics", "forward_jacobian"),
    ("kinematics", "bortz_rhs"),
    ("rk", "integrate_attitude_step"),
    ("rate_model", "rk_node_samples_affine"),
    ("coning", "miller_single_speed"),
    ("coning", "rk4_theta2"),
    ("coning", "rk4_theta3"),
    ("coning", "two_speed_classic"),
    ("so3", "dcm_from_rotation_vector"),
    ("so3", "compose"),
    ("so3", "orthonormalize"),
    ("so3", "attitude_error_angle"),
    ("bench", "propagate"),
)

_CALLS_AND_SELF = (
    "trajectory.omega_at", "trajectory.synth_delta_theta",
    "kinematics.forward_jacobian", "kinematics.bortz_rhs",
    "rk.integrate_attitude_step", "rate_model.rk_node_samples_affine",
    "coning.miller_single_speed", "coning.rk4_theta2", "coning.rk4_theta3",
    "coning.two_speed_classic", "so3.dcm_from_rotation_vector",
    "so3.compose", "so3.attitude_error_angle",
)

#: Per-layer metrics the tracer produces, with their units.
LAYER_METRICS = (
    tuple((f"{name}.calls", "count") for name in _CALLS_AND_SELF)
    + tuple((f"{name}.self_s", "s") for name in _CALLS_AND_SELF)
    + (("trajectory.synth_delta_theta.unique_ratio", "ratio"),
       ("trajectory.reference_attitude.wall_s", "s"),
       ("trajectory.reference_attitude.omega_calls", "count"),
       ("so3.compose.reortho_ratio", "ratio"),
       ("so3.orthonormalize.calls", "count"),
       ("bench.propagate.self_s", "s"))
)

_PACKAGE = "coning_kit"


def _interval_key(args, kwargs):
    """Identity of a ``synth_delta_theta`` call: (signal, t0, t1)."""
    signal = args[0] if args else kwargs.get("signal")
    t0 = args[1] if len(args) > 1 else kwargs.get("t0")
    t1 = args[2] if len(args) > 2 else kwargs.get("t1")
    return id(signal), t0, t1


_KEYED = {"trajectory.synth_delta_theta": _interval_key}


class Tracer:
    """Context manager that records spans of the ``TRACED`` functions."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.absent = []
        self._ids = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._stack = [-1]
        self._keys = {name: [] for name in _KEYED}
        self._patches = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == _PACKAGE or name.startswith(_PACKAGE + "."))]
        for idx, (mod, fn) in enumerate(TRACED):
            owner = sys.modules.get(f"{_PACKAGE}.{mod}")
            original = getattr(owner, fn, None)
            if not callable(original):
                self.absent.append(self.names[idx])
                continue
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, idx, fn):
        ids, starts, ends, parents = (self._ids, self._start, self._end,
                                      self._parent)
        stack = self._stack
        clock = time.perf_counter_ns
        key_fn = _KEYED.get(self.names[idx])
        keys = self._keys.get(self.names[idx])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(ids)
            ids.append(idx)
            parents.append(stack[-1])
            ends.append(0)
            starts.append(0)
            if key_fn is not None:
                keys.append(key_fn(args, kwargs))
            stack.append(span)
            starts[span] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    @property
    def span_count(self) -> int:
        return len(self._ids)

    def layer_metrics(self) -> dict:
        """Reduce the recorded spans to the ``LAYER_METRICS`` figures.

        Self time is a span's duration minus the summed durations of its
        direct children; calls on one thread never overlap, so that sum is
        the time the children cover.
        """
        k = len(self.names)
        ids = np.frombuffer(self._ids, dtype=np.int32).astype(np.intp)
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.intp)
        dur = (np.frombuffer(self._end, dtype=np.int64)
               - np.frombuffer(self._start, dtype=np.int64)).astype(float)
        n = ids.size
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=n) if n else np.zeros(0)
        own = dur - covered
        calls = np.bincount(ids, minlength=k)
        self_ns = np.bincount(ids, weights=own, minlength=k)
        wall_ns = np.bincount(ids, weights=dur, minlength=k)
        index = {name: i for i, name in enumerate(self.names)}

        out = {}
        for name in _CALLS_AND_SELF:
            out[f"{name}.calls"] = int(calls[index[name]])
            out[f"{name}.self_s"] = float(self_ns[index[name]]) * 1e-9

        synth_calls = out["trajectory.synth_delta_theta.calls"]
        unique = len(set(self._keys["trajectory.synth_delta_theta"]))
        out["trajectory.synth_delta_theta.unique_ratio"] = (
            unique / synth_calls if synth_calls else 0.0)

        ref = index["trajectory.reference_attitude"]
        out["trajectory.reference_attitude.wall_s"] = (
            float(wall_ns[ref]) * 1e-9)
        under_ref = _has_ancestor(ids, parent, ref)
        omega = ids == index["trajectory.omega_at"]
        out["trajectory.reference_attitude.omega_calls"] = int(
            np.count_nonzero(under_ref & omega))

        compose = index["so3.compose"]
        ortho = ids == index["so3.orthonormalize"]
        ortho_parents = parent[ortho & nested]
        reortho = np.unique(ortho_parents[ids[ortho_parents] == compose])
        out["so3.compose.reortho_ratio"] = (
            reortho.size / calls[compose] if calls[compose] else 0.0)
        out["so3.orthonormalize.calls"] = int(
            calls[index["so3.orthonormalize"]])
        out["bench.propagate.self_s"] = (
            float(self_ns[index["bench.propagate"]]) * 1e-9)
        return out


def _has_ancestor(ids, parent, target):
    """Boolean mask of spans with a span of function ``target`` above them."""
    found = np.zeros(ids.size, dtype=bool)
    hop = parent.copy()
    live = hop >= 0
    while live.any():
        rows = np.nonzero(live)[0]
        found[rows] |= ids[hop[rows]] == target
        hop[rows] = parent[hop[rows]]
        live = hop >= 0
    return found
