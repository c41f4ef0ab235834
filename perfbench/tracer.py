"""Spans and counters recorded at pricecoord's layer boundaries, from outside
the package.

Every wrapper is installed by rebinding a public name in each pricecoord
module that holds it: ``from .model import step`` copies the function into
the importing module, so patching only ``pricecoord.model.step`` would miss
the calls made through ``pricecoord.agents.step``. Bindings are restored when
the ``Tracer.installed()`` block exits.

A span records its name, start, end, parent and self time (duration minus
the part covered by its direct children). Counter-only boundaries (such as
``as_vector``, called millions of times per README run) bump an integer and
open no span, so their cost lands in the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass, field

# (span name, defining module, attribute). The span name is overridden per
# calling module by BINDING_NAMES: cli's copy of save_log is a CLI output
# write, not a parametric round trip.
SPANS = (
    ("scenario.generate", "scenario", "generate"),
    ("cli.io", "cli", "_write_json"),
    ("parametric.save_log", "parametric", "save_log"),
    ("parametric.load_log", "parametric", "load_log"),
    ("mechanism.run_stage", "mechanism", "run_stage"),
    ("mechanism.social_welfare", "mechanism", "social_welfare"),
    ("mechanism.price_from_target", "mechanism", "price_from_target"),
    ("equilibrium.round", "equilibrium", "play_simultaneous"),
    ("equilibrium.round", "equilibrium", "play_sequential"),
    ("equilibrium.round", "equilibrium", "two_stage_update"),
    ("equilibrium.round", "equilibrium", "single_stage_update"),
    ("equilibrium.round", "equilibrium", "play_tikhonov"),
    ("equilibrium.default_schedule", "equilibrium", "default_schedule"),
    ("agents.best_response", "agents", "best_response"),
    ("oracle.joint_welfare_opt", "oracle", "joint_welfare_opt"),
    ("parametric.identify", "parametric", "identify"),
    ("parametric.optimal_price", "parametric", "optimal_price"),
    ("geometry.fit_decomposable", "geometry", "fit_decomposable"),
    ("geometry.fit_connection", "geometry", "fit_connection"),
    ("geometry.predict_field", "geometry", "predict_field"),
)
BINDING_NAMES = {("pricecoord.cli", "save_log"): "cli.io"}

COUNTERS = (
    ("agents.grad_evals", "agents", "payoff_gradient"),
    ("model.step.calls", "model", "step"),
    ("model.as_vector.calls", "model", "as_vector"),
    ("oracle.welfare_evals", "oracle", "joint_welfare"),
)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


@dataclass
class Tracer:
    """In-memory span and counter store, filled while ``installed()``."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    design_bytes: int = 0
    _stack: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        sp = Span(len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end_ns = time.perf_counter_ns()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_ns += sp.end_ns - sp.start_ns

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sp)
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _wrappers(self, pc):
        """(owner, attribute, replacement) triples for every binding."""
        out = []
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "pricecoord" or name.startswith("pricecoord."))]

        def every_binding(module, attr, make):
            orig = getattr(getattr(pc, module), attr)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        out.append((mod, key, make(mod.__name__, key, orig)))

        for name, module, attr in SPANS:
            every_binding(module, attr, lambda mod, key, orig, name=name: self._spanned(
                BINDING_NAMES.get((mod, key), name), self._special(name, orig)))
        for name, module, attr in COUNTERS:
            every_binding(module, attr, lambda mod, key, orig, name=name: self._counted(name, orig))
        every_binding("equilibrium", "reward_field",
                      lambda mod, key, orig: self._reward_field_factory(orig))

        cf = pc.model.CouplingFunction
        out.append((cf, "grad", self._spanned("model.coupling_grad", cf.grad)))
        out.append((cf, "value", self._counted("model.coupling_value.calls", cf.value)))
        return out

    def _special(self, name, fn):
        """Extra bookkeeping a boundary needs beyond its span."""
        if name == "mechanism.run_stage":
            from pricecoord.errors import NonConvergenceError

            def run_stage(*args, **kwargs):
                try:
                    out = fn(*args, **kwargs)
                except NonConvergenceError as exc:
                    self.count("mechanism.run_stage.nonconverged")
                    if exc.trace is not None:
                        self.count("mechanism.rounds", exc.trace.iterations)
                    raise
                self.count("mechanism.rounds", out.iterations)
                return out
            return run_stage
        if name == "agents.best_response":
            from pricecoord.errors import BestResponseError

            def br(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except BestResponseError:
                    self.count("agents.br_failures")
                    raise
            return br
        if name == "geometry.fit_decomposable":
            import numpy as np

            def fit(samples, dyn, *args, **kwargs):
                X = samples[0] if isinstance(samples, tuple) else [s[0] for s in samples]
                m, d = np.atleast_2d(np.asarray(X)).shape
                rows, cols = m * d, 2 * m * d
                # design (md x 2md) plus the ridge-augmented copy (3md x 2md), float64
                self.design_bytes += 8 * (rows * cols + (rows + cols) * cols)
                return fn(samples, dyn, *args, **kwargs)
            return fit
        return fn

    def _reward_field_factory(self, factory):
        def reward_field(sys_):
            F = factory(sys_)
            return self._spanned("equilibrium.reward_field", F)
        return reward_field

    @contextlib.contextmanager
    def installed(self):
        import pricecoord as pc

        patches = self._wrappers(pc)
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,self_ns\n")
            for s in self.spans:
                fh.write(f"{s.id},{s.parent},{s.name},{s.start_ns},{s.end_ns},{s.self_ns}\n")

    def summary(self):
        """name -> (calls, total self ms, list of inclusive durations in ms)."""
        out = {}
        for s in self.spans:
            calls, self_ms, durs = out.get(s.name, (0, 0.0, []))
            durs.append((s.end_ns - s.start_ns) / 1e6)
            out[s.name] = (calls + 1, self_ms + s.self_ns / 1e6, durs)
        return out
