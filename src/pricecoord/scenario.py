"""Synthetic desk-scale vehicle-coordination instances plus config and log
serialization.

The instances here are our own construction for exercising the library: N
vehicles with near-identity linear dynamics track waypoints on a 10 m circle
while a smooth separation barrier (or a consensus term) couples them. None
of it is calibrated to real aircraft; it exists to generate well-conditioned
test systems deterministically from a seed.

All randomness flows from the config seed through one counter-based
generator family (Philox), split per vehicle, so generation is reproducible
and order-independent across vehicles.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .errors import ConfigError
from .mechanism import PLAY_MODES, PollingConfig
from .model import (
    CouplingFunction,
    LinearDynamics,
    QuadraticUtility,
    SystemInstance,
    cross_term_utility,
    decomposable_utility,
    pairwise_quadratic_coupling,
    zero_coupling,
)

UTILITY_SPECS = ("quadratic_random", "quadratic_fixed", "cross_term", "decomposable_smooth")
COUPLING_SPECS = ("separation_barrier", "consensus_quadratic")

# Type of every config field, top level and in the mode object ("mode.<key>"),
# checked first so a wrong type is a ConfigError naming the field. JSON true
# and false are bools, which Python counts as integers: no field takes them.
_FIELD_TYPES = {
    "N": Integral, "d": Integral, "seed": Integral, "horizon": Integral,
    "coupling_strength": Real, "safety_radius": Real, "box": (list, tuple), "noise_std": Real,
    "utility_spec": str, "coupling_spec": str, "mode": dict, "mode.mode": str,
    "mode.tol": Real, "mode.max_rounds": Integral, "mode.lam": Real, "mode.gamma": Real}
_TYPE_NAMES = {Integral: "an integer", Real: "a finite number",
               (list, tuple): "a [lo, hi] list of finite numbers", str: "a string",
               dict: "an object"}
_TOP_KEYS = tuple(key for key in _FIELD_TYPES if "." not in key)
_MODE_KEYS = tuple(key[5:] for key in _FIELD_TYPES if key.startswith("mode."))


def _is_a(value, expected) -> bool:
    """isinstance, except that no field type takes JSON true and false and
    that a Real must lie in the float range: Python's json reads NaN and
    Infinity."""
    return (not isinstance(value, bool) and isinstance(value, expected)
            and (expected is not Real or abs(value) <= sys.float_info.max))


def _check_type(field: str, value) -> None:
    expected = _FIELD_TYPES[field]
    if not (_is_a(value, expected) and (field != "box" or all(_is_a(v, Real) for v in value))):
        raise ConfigError(f"config field {field!r} must be {_TYPE_NAMES[expected]}, "
                          f"got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one synthetic instance plus how to run it.

    mode holds PollingConfig fields by name (mode, tol, max_rounds, the
    proximal weight lam, default 100, and the step gamma, estimated from the
    box when absent); box is a global (lo, hi) pair applied per action coordinate. d is free
    to be 1 for scalar diagnostics even though the vehicle story suggests 2
    or 3. A separation_barrier whose pair value at zero separation is not
    finite is refused.
    """

    N: int
    d: int
    seed: int
    horizon: int = 10
    coupling_strength: float = 1.0
    safety_radius: float = 1.0
    box: tuple = (-20.0, 20.0)
    noise_std: float = 0.0
    utility_spec: str = "quadratic_random"
    coupling_spec: str = "separation_barrier"
    mode: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in _TOP_KEYS:
            _check_type(key, getattr(self, key))
        for key in self.mode:
            if key not in _MODE_KEYS:
                raise ConfigError(f"unknown mode field {key!r}; expected keys among {_MODE_KEYS}")
            _check_type(f"mode.{key}", self.mode[key])
        if self.N < 1 or self.d < 1:
            raise ConfigError(f"N and d must be >= 1 (got N={self.N}, d={self.d})")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.coupling_strength < 0:
            raise ConfigError("coupling_strength must be >= 0")
        if self.safety_radius <= 0:
            raise ConfigError("safety_radius must be > 0")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.utility_spec not in UTILITY_SPECS:
            raise ConfigError(f"unknown utility_spec {self.utility_spec!r}; "
                              f"expected one of {UTILITY_SPECS}")
        if self.coupling_spec not in COUPLING_SPECS:
            raise ConfigError(f"unknown coupling_spec {self.coupling_spec!r}; "
                              f"expected one of {COUPLING_SPECS}")
        if self.coupling_spec == "separation_barrier" and self.coupling_strength > 0:
            # the barrier's pair value at zero separation, its largest
            r = float(self.safety_radius)
            softplus = float(np.logaddexp(0.0, r * r))
            if not self.coupling_strength * (softplus * softplus) < np.inf:
                raise ConfigError(
                    "separation_barrier pair value coupling_strength * "
                    "softplus(safety_radius^2)^2 at zero separation is not finite "
                    f"(coupling_strength={self.coupling_strength!r}, "
                    f"safety_radius={self.safety_radius!r})")
        box = tuple(float(v) for v in self.box)
        if len(box) != 2 or not box[0] < box[1]:
            raise ConfigError("box must be (lo, hi) with lo < hi")
        object.__setattr__(self, "box", box)
        if "mode" in self.mode and self.mode["mode"] not in PLAY_MODES:
            raise ConfigError(f"unknown play mode {self.mode['mode']!r}; "
                              f"expected one of {PLAY_MODES}")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["box"] = list(self.box)
        return out


_REQUIRED = ("N", "d", "seed")


def config_from_dict(data: dict) -> ScenarioConfig:
    """The ScenarioConfig of a parsed JSON object; ConfigError on a missing
    required or an unknown field, or on any value ScenarioConfig refuses."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    for key in _REQUIRED:
        if key not in data:
            raise ConfigError(f"missing required config field {key!r}")
    for key in data:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config field {key!r}")
    return ScenarioConfig(**data)


def load_config(path) -> ScenarioConfig:
    """Strict JSON config loader: malformed JSON errors with the line,
    unknown or missing fields error by name."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    return config_from_dict(data)


def polling_config(cfg: ScenarioConfig, mode_override: Optional[str] = None) -> PollingConfig:
    """PollingConfig implied by the config's mode object, with the config's
    (lo, hi) box."""
    m = dict(cfg.mode)
    if mode_override is not None:
        m["mode"] = mode_override
    return PollingConfig(box=cfg.box, **m)


# ---------------------------------------------------------------------------
# instance generation

def _sigmoid(s):
    return np.exp(-np.logaddexp(0.0, -s))


def separation_barrier_coupling(beta: float, radius: float, N: int, d: int) -> CouplingFunction:
    """G(x) = -beta sum_{n<m} softplus(r^2 - ||x_n - x_m||^2)^2.

    Twice differentiable everywhere, essentially zero once vehicles are
    separated by more than r, and steeply negative on overlap; the softplus
    square keeps every solver's Hessian continuous."""
    if beta == 0.0 or N < 2:
        return zero_coupling(N, d)
    r2 = radius * radius

    def pair_terms(sq):
        # the pair weight 4 beta softplus(z) sigma(z), z = r^2 - s, and its
        # d/ds from one softplus and one sigmoid per pair:
        # sigma' = sigma (1 - sigma), sigma(-z) = exp(-softplus(z))
        z = r2 - sq
        softplus, sig = np.logaddexp(0.0, z), _sigmoid(z)
        return (4.0 * beta * softplus * sig,
                -4.0 * beta * sig * (sig + softplus * np.exp(-softplus)))

    return CouplingFunction(N, d, -beta, lambda sq: np.logaddexp(0.0, r2 - sq) ** 2, pair_terms)


def _random_spd(rng, d: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    gauss = rng.normal(size=(d, d))
    qmat, _ = np.linalg.qr(gauss)
    eigs = rng.uniform(lo, hi, size=d)
    return qmat @ np.diag(eigs) @ qmat.T


def _waypoint(n: int, N: int, d: int) -> np.ndarray:
    theta = 2.0 * np.pi * n / N
    x0 = np.zeros(d)
    x0[0] = 10.0 * np.cos(theta)
    if d >= 2:
        x0[1] = 10.0 * np.sin(theta)
    return x0


def generate(cfg: ScenarioConfig) -> SystemInstance:
    """Builds the SystemInstance described by the config, deterministically.

    Per-vehicle: A = I plus a small stable drift (spectral radius <= 0.99),
    B = 0.1 I, SPD (Q, R) with eigenvalues in [0.5, 2] (identity for
    quadratic_fixed), waypoint on the 10 m circle, start state near the
    waypoint. Coupling per coupling_spec with strength coupling_strength.
    """
    N, d = cfg.N, cfg.d
    streams = [np.random.Generator(np.random.Philox(child))
               for child in np.random.SeedSequence(int(cfg.seed)).spawn(N)]
    dynamics, utilities, states = [], [], []
    for n in range(N):
        rng = streams[n]
        drift = rng.normal(size=(d, d))
        drift /= max(1.0, float(np.linalg.norm(drift, 2)))
        A = 0.95 * np.eye(d) + 0.04 * drift
        B = 0.1 * np.eye(d)
        dyn = LinearDynamics(A=A, B=B)
        x0 = _waypoint(n, N, d)
        if cfg.utility_spec == "quadratic_fixed":
            Q, R = np.eye(d), np.eye(d)
        else:
            Q, R = _random_spd(rng, d), _random_spd(rng, d)
        if cfg.utility_spec == "cross_term":
            K = 0.02 * rng.normal(size=(d, d, d))
            util = cross_term_utility(Q, R, x0, K)
        elif cfg.utility_spec == "decomposable_smooth":
            s1 = 0.3

            def value_x(x, x0=x0, Q=Q, s1=s1):
                e = x - x0
                return -float(e @ Q @ e) - s1 * float(np.sum(np.sqrt(1.0 + e * e) - 1.0))

            def grad_x(x, x0=x0, Q=Q, s1=s1):
                e = x - x0
                return -2.0 * Q @ e - s1 * e / np.sqrt(1.0 + e * e)

            def value_u(u, R=R):
                return -float(u @ R @ u)

            def grad_u(u, R=R):
                return -2.0 * R @ u

            util = decomposable_utility(value_x, grad_x, value_u, grad_u)
        else:
            util = QuadraticUtility(Q=Q, R=R, x0=x0)
        dynamics.append(dyn)
        utilities.append(util)
        states.append(x0 + 0.5 * rng.normal(size=d))

    if cfg.coupling_spec == "consensus_quadratic":
        coupling = (pairwise_quadratic_coupling(cfg.coupling_strength, N, d)
                    if cfg.coupling_strength > 0 else zero_coupling(N, d))
    else:
        coupling = separation_barrier_coupling(cfg.coupling_strength, cfg.safety_radius, N, d)

    return SystemInstance(dynamics=tuple(dynamics), utilities=tuple(utilities),
                          coupling=coupling, states=np.array(states))


def noise_streams(cfg: ScenarioConfig):
    """Per-vehicle process-noise generators, split from the same seed but on
    a distinct spawn branch from generate's, so adding noise never perturbs
    the instance parameters."""
    root = np.random.SeedSequence(int(cfg.seed)).spawn(cfg.N + 1)[-1]
    return [np.random.Generator(np.random.Philox(child)) for child in root.spawn(cfg.N)]
