"""Span tracer for the benchmark's traced run.

Spans wrap public zoqlab callables at the place where the calling module
binds them (``zoqlab.zo.normals_at``, ``ModelGraph.forward``, ...), so the
program is traced without editing it. Spans stay in memory as aggregates
keyed by (phase, name): the phase is the outermost open span, which is one
of the benchmark's own calls (``zo.zo_step``, ``diagnostics.track``, ...).
Each aggregate holds the call count, the inclusive time, the self time (the
span's time minus that of its direct child spans) and a work count (draws
for ``normals_at``).
"""

from __future__ import annotations

import time
from collections import defaultdict

import zoqlab.calibration
import zoqlab.diagnostics
import zoqlab.model
import zoqlab.theory
import zoqlab.zo
from zoqlab.model import ModelGraph
from zoqlab.zo import ParamView

CALLS, INCL, SELF, WORK = range(4)

THEORY_FUNCTIONS = (
    "check_mse_bound",
    "mse_q_scaling_slope",
    "check_unbiasedness",
    "oracle_grad_smoothed",
    "check_grad_decay",
    "check_ste_bias",
    "zo_formula_gap",
)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self._stack = []  # one [name, child_seconds] per open span
        self._patches = []
        self._linear_names = {}  # id(Linear) or id(weight array) -> linear name

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, *args, work=0, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            phase = self._stack[0][0] if self._stack else name
            rec = self.stats[(phase, name)]
            rec[CALLS] += 1
            rec[INCL] += dur
            rec[SELF] += dur - frame[1]
            rec[WORK] += work
            if self._stack:
                self._stack[-1][1] += dur

    def label_linears(self, model) -> None:
        """Name the linears of `model` so linear_forward spans say which one ran."""
        for layer_id, lin in model.iter_attachments():
            name = layer_id.split(".", 1)[1]
            self._linear_names[id(lin)] = name
            self._linear_names[id(lin.w)] = name

    # -- aggregates ----------------------------------------------------------

    def total(self, name, field, phase=None):
        return sum(
            rec[field]
            for (ph, nm), rec in self.stats.items()
            if nm == name and (phase is None or ph == phase)
        )

    def table(self):
        """All aggregates as JSON-ready rows, slowest first."""
        rows = [
            {"phase": ph, "name": nm, "calls": r[CALLS], "incl_s": r[INCL], "self_s": r[SELF], "work": r[WORK]}
            for (ph, nm), r in self.stats.items()
        ]
        return sorted(rows, key=lambda r: -r["incl_s"])

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        def fixed(name):
            return lambda args: name

        def fake_quant_name(args):
            role = "act" if args[1].role == "activation" else "weight"
            return f"quantizer.fake_quant.{role}"

        def linear_name(args):
            return "model.linear_forward." + self._linear_names.get(id(args[1]), "other")

        def reconstruct_name(args):
            name = self._linear_names.get(id(args[0]), "other")
            return "calibration.reconstruct_layer." + ("attn" if name.startswith("attn") else name)

        normals = fixed("numerics.normals_at")
        targets = [
            (zoqlab.zo, "normals_at", normals, 3),
            (zoqlab.theory, "normals_at", normals, 3),
            (zoqlab.zo, "zo_gradient_scale", fixed("zo.zo_gradient_scale"), None),
            (zoqlab.theory, "zo_gradient_scale", fixed("theory.zo_gradient_scale"), None),
            (ParamView, "add_direction", fixed("zo.add_direction"), None),
            (ParamView, "apply_directions", fixed("zo.apply_directions"), None),
            (ModelGraph, "forward", fixed("model.forward"), None),
            (ModelGraph, "loss", fixed("model.loss"), None),
            (ModelGraph, "trainable_parameters", fixed("model.trainable_parameters"), None),
            (ModelGraph, "clamp_parameters", fixed("model.clamp_parameters"), None),
            (zoqlab.model, "linear_forward", linear_name, None),
            (zoqlab.diagnostics, "linear_forward", linear_name, None),
            (zoqlab.model, "fake_quant", fake_quant_name, None),
            (zoqlab.calibration, "fake_quant", fake_quant_name, None),
            (zoqlab.model, "init_range", fixed("quantizer.init_range"), None),
            (zoqlab.calibration, "init_range", fixed("quantizer.init_range"), None),
            (zoqlab.model, "apply_smoothing", fixed("smoothing.apply_smoothing"), None),
            (zoqlab.model, "cross_entropy", fixed("model.cross_entropy"), None),
            (zoqlab.calibration, "reconstruct_layer", reconstruct_name, None),
        ]
        targets += [(zoqlab.theory, f, fixed(f"theory.{f}"), None) for f in THEORY_FUNCTIONS]
        for owner, attr, name_of, work_arg in targets:
            self._patch(owner, attr, name_of, work_arg)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, name_of, work_arg) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        call = self.call

        def wrapper(*args, **kwargs):
            work = int(args[work_arg]) if work_arg is not None else 0
            return call(name_of(args), original, *args, work=work, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
