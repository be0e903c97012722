"""Per-layer tracing from outside the package.

``installed(tracer)`` replaces public functions of ``epg_mgcn`` with wrappers
in the modules that call them, so that every call records a span: name,
start, end, parent span, unit id and phase. Spans nest because the wrapped
callers resolve the wrapped callees at call time (``model.forward`` calls
``ag.temporal_conv`` through the module, ``training.train`` calls the
``forward`` bound in ``training``'s namespace, and so on). Spans stay in
memory until the run writes them out. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

from epg_mgcn import autograd, graphs, model, optim, scene, training, whatif

# span name -> the (owner, attribute) pairs the wrapper replaces
SPAN_TARGETS = {
    "scene.load_trajectory_table": [(scene, "load_trajectory_table")],
    "scene.window_samples": [(scene, "window_samples")],
    "scene.write_canonical": [(scene, "write_canonical")],
    "scene.read_canonical": [(scene, "read_canonical")],
    "scene.ego_center": [(model, "ego_center"), (training, "ego_center"),
                         (whatif, "ego_center")],
    "graphs.build_adjacency": [(model, "build_adjacency"),
                               (training, "build_adjacency"),
                               (whatif, "build_adjacency")],
    "graphs.build_planning_graph": [(graphs, "build_planning_graph"),
                                    (whatif, "build_planning_graph")],
    "graphs.normalize_adjacency": [(model, "normalize_adjacency")],
    "model.predict": [(model, "predict")],
    "model.forward": [(model, "forward"), (training, "forward"),
                      (whatif, "forward")],
    "model.embed_inputs": [(model, "embed_inputs")],
    "model.graph_conv_block": [(model, "graph_conv_block")],
    "model.fuse_graph_features": [(model, "fuse_graph_features")],
    "model.encode_plan": [(model, "encode_plan")],
    "model.fuse_plan_features": [(model, "fuse_plan_features")],
    "model.cs_gru_decode": [(model, "cs_gru_decode")],
    "model.prediction_loss": [(training, "prediction_loss")],
    "autograd.temporal_conv": [(autograd, "temporal_conv")],
    "autograd.gru_cell": [(autograd, "gru_cell")],
    "autograd.backward": [(autograd.Tensor, "backward")],
    "optim.Adam.step": [(optim.Adam, "step")],
    "training.train": [(training, "train")],
    "whatif.what_if": [(whatif, "what_if")],
}
TENSOR_COUNT = "autograd.tensors"

# per-layer metric -> (unit, source); a source starting with "#" counts
# calls of that span (or constructed tensors), otherwise it is self time
LAYER_METRICS = {
    "autograd.backward_ms": ("ms", "autograd.backward"),
    "autograd.temporal_conv_ms": ("ms", "autograd.temporal_conv"),
    "autograd.gru_cell_ms": ("ms", "autograd.gru_cell"),
    "autograd.tensors_per_unit": ("count", "#" + TENSOR_COUNT),
    "model.embed_ms": ("ms", "model.embed_inputs"),
    "model.branches_ms": ("ms", "model.graph_conv_block"),
    "model.graph_fusion_ms": ("ms", "model.fuse_graph_features"),
    "model.plan_encoder_ms": ("ms", "model.encode_plan"),
    "model.plan_fusion_ms": ("ms", "model.fuse_plan_features"),
    "model.decoders_ms": ("ms", "model.cs_gru_decode"),
    "model.loss_ms": ("ms", "model.prediction_loss"),
    "model.forward_calls": ("count", "#model.forward"),
    "graphs.build_adjacency_ms": ("ms", "graphs.build_adjacency"),
    "graphs.build_planning_ms": ("ms", "graphs.build_planning_graph"),
    "graphs.normalize_calls": ("count", "#graphs.normalize_adjacency"),
    "graphs.normalize_ms": ("ms", "graphs.normalize_adjacency"),
    "optim.adam_step_ms": ("ms", "optim.Adam.step"),
    "training.loop_ms": ("ms", "training.train"),
    "whatif.self_ms": ("ms", "whatif.what_if"),
    "scene.load_table_ms": ("ms", "scene.load_trajectory_table"),
    "scene.window_ms": ("ms", "scene.window_samples"),
    "scene.canonical_write_ms": ("ms", "scene.write_canonical"),
    "scene.canonical_read_ms": ("ms", "scene.read_canonical"),
    "scene.ego_center_ms": ("ms", "scene.ego_center"),
}


class Tracer:
    """In-memory span recorder. ``unit`` and ``phase`` tag new spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, unit, phase]
        self.counts = Counter()  # (phase, name) -> calls
        self.unit = 0
        self.phase = None
        self._open = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      self._open[-1] if self._open else -1, self.unit, self.phase]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
        return traced

    def counting(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)
        return counted

    def self_times(self):
        """Self seconds per span: duration minus the time its children cover
        (children run one after another, so they never overlap)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [end - start - child_time[i]
                for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def phase_totals(self):
        """{phase: {source: total}} with self seconds per span name and
        call counts under "#name"."""
        totals = defaultdict(Counter)
        for (name, _, _, _, _, phase), own in zip(self.spans, self.self_times()):
            totals[phase][name] += own
            totals[phase]["#" + name] += 1
        for (phase, name), n in self.counts.items():
            totals[phase]["#" + name] += n
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit,
                                     "phase": phase}) + "\n")


@contextlib.contextmanager
def installed(tracer):
    """Patch every target for the duration of the block, then restore."""
    saved = []
    try:
        for name, targets in SPAN_TARGETS.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original))
        original = autograd.Tensor.__init__
        saved.append((autograd.Tensor, "__init__", original))
        autograd.Tensor.__init__ = tracer.counting(TENSOR_COUNT, original)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer, phase_units, phase_scale, order):
    """Per-layer values per unit of work.

    ``phase_units`` maps each traced phase to its unit count,
    ``phase_scale`` to the calibration factor for its times, and ``order``
    lists phases by preference: a layer is reported from the first phase in
    which it ran (the workload's main activity comes first)."""
    totals = tracer.phase_totals()
    out = {}
    for metric, (unit, source) in LAYER_METRICS.items():
        value = 0.0
        for phase in order:
            if totals[phase][source if source.startswith("#") else "#" + source]:
                total = totals[phase][source]
                value = total / phase_units[phase]
                if unit != "count":
                    value *= 1e3 * phase_scale[phase]
                break
        out[metric] = {"value": value, "unit": unit}
    return out
