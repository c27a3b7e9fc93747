"""Span tracer that wraps the public names of every ``spinfringe`` layer.

The program is not edited: ``Tracer.install`` replaces each public function,
method, class constructor, classmethod and property of the layer modules
with a wrapper that records a span (name, start, end, parent span, command
id) in flat in-memory arrays.  A function is wrapped in every module
namespace that binds it (``cli`` binds ``intensity_profile`` through
``from .fringe import``, the package re-exports nearly everything), so a
call is caught whichever binding it goes through.  Each span is attributed
to the module that defines the name.

Self time of a span is its duration minus the durations of its direct
children.  Exceptions raised through a wrapper count as ``<layer>.errors``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("config", "geometry", "fringe", "oracle", "qstate", "rotor", "verify", "cli")

VERIFY_CHECKS = (
    "check_basis_orthonormality",
    "check_tensor_norm_product",
    "check_uv_reconstruction",
    "check_rotation_orthogonality",
    "check_equal_angle_invariance",
    "check_uv_transformation_law",
    "check_single_sided_terms",
    "check_composition_law",
    "check_group_action",
    "check_reduction_law",
    "check_norm_preservation",
    "check_two_slit_oracle",
    "check_fringe_maxima_paper",
    "check_pairwise_identity",
    "check_multi_slit_oracle",
    "check_detection_flatness",
    "check_measurement_weights",
    "check_measurement_transmission",
    "check_complementarity",
    "check_profile_center_peak",
    "check_phase_antisymmetry",
    "check_phase_additivity",
)

#: Span names the per-layer metrics read; a missing one is an error.
REQUIRED_SPANS = (
    "fringe.intensity_profile",
    "fringe.FringeProfile",
    "fringe.measure_factor",
    "fringe.ensemble_transmission",
    "fringe.two_slit_state_at",
    "qstate.decompose_uv",
    "qstate.TwoSpinState.from_vector",
    "rotor.apply_pair",
    "rotor.rotation_matrix",
    "geometry.slit_phases",
    "geometry.incidence_angles",
    "oracle.classical_intensity",
    "oracle.independent_intensity",
    "oracle.pairwise_identity_check",
    "cli.main",
    "cli.render_profile",
    "config.load_config",
) + tuple(f"verify.{name}" for name in VERIFY_CHECKS)

#: Per-layer metrics: span call counts, self times and computed counts.
CALL_METRICS = (
    "fringe.intensity_profile",
    "fringe.measure_factor",
    "fringe.two_slit_state_at",
    "qstate.decompose_uv",
    "qstate.TwoSpinState.from_vector",
    "rotor.apply_pair",
    "rotor.rotation_matrix",
    "geometry.slit_phases",
    "geometry.incidence_angles",
    "oracle.classical_intensity",
    "oracle.independent_intensity",
    "oracle.pairwise_identity_check",
    "config.load_config",
)
SPAN_SELF_METRICS = (
    "fringe.intensity_profile",
    "fringe.FringeProfile",
    "fringe.measure_factor",
    "fringe.ensemble_transmission",
    "cli.render_profile",
) + tuple(f"verify.{name}" for name in VERIFY_CHECKS)
LAYER_SELF_METRICS = ("qstate", "rotor", "verify", "geometry", "oracle", "cli", "config")


class TraceCoverageError(RuntimeError):
    """A span the metrics depend on has no public binding to wrap."""


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.calls": "count" for name in CALL_METRICS}
    units.update({f"{name}_s": "s" for name in SPAN_SELF_METRICS})
    units.update({f"{layer}.self_s": "s" for layer in LAYER_SELF_METRICS})
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({
        "fringe.pair_terms": "computed-count",
        "fringe.pair_terms_per_s": "1/s",
        "cli.output_bytes": "computed-bytes",
        "trace.spans": "count",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.command = [-1]
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans, errors and counts; wrappers stay installed."""
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = Counter()
        self.pair_terms = 0

    # -- wrapping ---------------------------------------------------------

    def _span_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def wrap(self, fn, name: str, layer: str, on_call=None):
        nid = self._span_id(name, layer)
        stack = self._stack
        command = self.command
        tracer = self
        clock = time.perf_counter
        signature = inspect.signature(fn) if on_call is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.cmd.append(command[0])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                if on_call is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    on_call(tracer, bound.arguments)
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1

        return traced

    def install(self, package) -> None:
        """Wrap every public callable of the layer modules of ``package``.

        Raises TraceCoverageError naming each required span that found no
        binding.
        """
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        prefix = package.__name__ + "."
        wrapped_functions: dict[int, object] = {}
        wrapped_classes: set[int] = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                origin = getattr(value, "__module__", None) or ""
                if not origin.startswith(prefix):
                    continue
                layer = origin[len(prefix):]
                if inspect.isfunction(value):
                    if id(value) not in wrapped_functions:
                        hook = _HOOKS.get(f"{layer}.{value.__name__}")
                        wrapped_functions[id(value)] = self.wrap(
                            value, f"{layer}.{value.__name__}", layer, hook)
                    setattr(module, attr, wrapped_functions[id(value)])
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    if id(value) not in wrapped_classes:
                        wrapped_classes.add(id(value))
                        self._wrap_class(value, layer)
        missing = [name for name in REQUIRED_SPANS if name not in self._ids]
        if missing:
            raise TraceCoverageError("no public binding to trace for: " + ", ".join(missing))

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__" and inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, f"{layer}.{cls.__name__}", layer))
            elif attr.startswith("_"):
                continue
            elif isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self.wrap(value.__func__, name, layer)))
            elif isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(value.__func__, name, layer)))
            elif isinstance(value, property) and value.fget is not None:
                setattr(cls, attr, property(self.wrap(value.fget, name, layer), value.fset, value.fdel))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, name, layer))

    # -- reading ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "cmd": np.frombuffer(self.cmd, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Calls and self time per span name for the spans recorded since ``reset``."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child = np.zeros(duration.size)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], duration[has_parent])
        self_time = duration - child
        count = len(self.span_names)
        calls = np.bincount(spans["name"], minlength=count)
        selfs = np.bincount(spans["name"], weights=self_time, minlength=count)
        return {
            "spans": int(duration.size),
            "calls": {name: int(calls[k]) for k, name in enumerate(self.span_names)},
            "self_s": {name: float(selfs[k]) for k, name in enumerate(self.span_names)},
            "layer_of": dict(zip(self.span_names, self.layer_of)),
            "errors": dict(self.errors),
            "pair_terms": self.pair_terms,
        }

    def save(self, path) -> None:
        """Write the recorded spans and their names as a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.span_names), **self.arrays())


def _count_pair_terms(tracer: Tracer, arguments: dict) -> None:
    """S * N(N-1)/2 cosine terms for each intensity_profile call without detection."""
    if arguments["detection"]:
        return
    n = len(arguments["geometry"].slit_positions)
    tracer.pair_terms += np.size(arguments["thetas"]) * n * (n - 1) // 2


_HOOKS = {"fringe.intensity_profile": _count_pair_terms}


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values from one traced pass's ``Tracer.summary``."""
    calls, selfs, layer_of = summary["calls"], summary["self_s"], summary["layer_of"]
    metrics: dict[str, float] = {}
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in SPAN_SELF_METRICS:
        metrics[f"{name}_s"] = selfs.get(name, 0.0)
    for layer in LAYER_SELF_METRICS:
        metrics[f"{layer}.self_s"] = sum(t for name, t in selfs.items() if layer_of[name] == layer)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = summary["errors"].get(layer, 0)
    kernel_s = selfs.get("fringe.intensity_profile", 0.0)
    metrics["fringe.pair_terms"] = summary["pair_terms"]
    metrics["fringe.pair_terms_per_s"] = summary["pair_terms"] / kernel_s if kernel_s > 0 else 0.0
    metrics["trace.spans"] = summary["spans"]
    return metrics
