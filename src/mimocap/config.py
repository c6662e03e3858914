"""Scenario configuration: one INI-style file, strictly validated.

Sweeps involve ~20 parameters, so commands take a config file plus
repeatable --set section.key=value overrides instead of positional
arguments.  Unknown sections or keys are rejected (typo safety).  Angles
are radians, distances meters; SIR is dB at this boundary and linear
inside the library.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, field

from .geometry import NetworkGeometry
from .simulate import FiniteMConfig


class ConfigError(Exception):
    """Invalid scenario configuration."""


@dataclass(frozen=True)
class QosGrid:
    sir_db_min: float
    sir_db_max: float
    sir_db_step: float
    alphas: tuple[float, ...]

    def __post_init__(self):
        if self.sir_db_step <= 0.0:
            raise ConfigError("qos.sir_db_step must be positive")
        if self.sir_db_max < self.sir_db_min:
            raise ConfigError("qos.sir_db_max must be >= qos.sir_db_min")
        if not self.alphas:
            raise ConfigError("qos.alphas must list at least one outage probability")
        for a in self.alphas:
            if not 0.0 < a < 0.5:
                raise ConfigError(f"outage probability {a} outside (0, 0.5)")

    def sir_db_values(self) -> list[float]:
        n = int(math.floor((self.sir_db_max - self.sir_db_min) / self.sir_db_step + 1e-9)) + 1
        return [round(self.sir_db_min + i * self.sir_db_step, 10) for i in range(n)]


@dataclass(frozen=True)
class ScenarioConfig:
    geometry: NetworkGeometry = field(default_factory=NetworkGeometry)
    pilot_budget: int = 42
    scheme: str = "both"  # reused | different | both
    qos: QosGrid = field(
        default_factory=lambda: QosGrid(
            sir_db_min=-5.0, sir_db_max=45.0, sir_db_step=0.1, alphas=(0.05,)
        )
    )
    trials: int = 100_000
    seed: int = 20260808
    finite_m: FiniteMConfig = field(default_factory=FiniteMConfig)
    finite_m_trials: int = 10_000
    circle_mode: str = "equal_area"
    tier_count: int = 1
    region: str = "hexagon"
    workers: int = 0  # 0 = serial

    def __post_init__(self):
        if self.scheme not in ("reused", "different", "both"):
            raise ConfigError(f"pilots.scheme must be reused/different/both, got {self.scheme!r}")
        if self.pilot_budget < 1:
            raise ConfigError("pilots.budget must be >= 1")
        if self.trials < 1 or self.finite_m_trials < 1:
            raise ConfigError("trial counts must be >= 1")
        if self.circle_mode not in ("equal_area", "match_radius"):
            raise ConfigError(f"unknown circle mode {self.circle_mode!r}")
        if self.region not in ("hexagon", "circle"):
            raise ConfigError(f"unknown sampling region {self.region!r}")
        if self.tier_count < 1:
            raise ConfigError("model.tier_count must be >= 1")
        cpus = os.cpu_count() or 1
        if not 0 <= self.workers <= cpus:
            raise ConfigError(f"montecarlo.workers must lie in [0, {cpus}] (the CPU count)")

    @property
    def schemes(self) -> tuple[str, ...]:
        return ("reused", "different") if self.scheme == "both" else (self.scheme,)


# section -> key -> (parser, target attribute)
_SCHEMA = {
    "geometry": {
        "cell_radius_m": float,
        "hole_radius_m": float,
        "reuse_factor": int,
        "path_loss_exponent": float,
    },
    "pilots": {
        "budget": int,
        "scheme": str,
    },
    "qos": {
        "sir_db_min": float,
        "sir_db_max": float,
        "sir_db_step": float,
        "alphas": str,
    },
    "montecarlo": {
        "trials": int,
        "seed": int,
        "workers": int,
    },
    "finite_m": {
        "antennas": int,
        "pilot_length": int,
        "ul_snr_db": str,  # float or "none"
        "pilot_snr_db": str,
        "trials": int,
    },
    "model": {
        "circle_mode": str,
        "tier_count": int,
        "region": str,
    },
}


def _parse_snr(raw: str):
    raw = raw.strip().lower()
    if raw in ("none", "off", "inf"):
        return None
    return float(raw)


def _parse_alphas(raw: str) -> tuple[float, ...]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise ConfigError("qos.alphas is empty")
    return tuple(float(p) for p in parts)


def load_config(path: str, overrides: tuple[str, ...] = ()) -> ScenarioConfig:
    """Load and validate a scenario config file, then apply overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    values: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            values.setdefault(section, {})[key] = raw

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {section}.{key}")
        values.setdefault(section, {})[key] = raw

    def get(section, key, default, cast):
        raw = values.get(section, {}).get(key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc

    try:
        geometry = NetworkGeometry(
            cell_radius_m=get("geometry", "cell_radius_m", 1600.0, float),
            hole_radius_m=get("geometry", "hole_radius_m", 100.0, float),
            reuse_factor=get("geometry", "reuse_factor", 1, int),
            path_loss_exponent=get("geometry", "path_loss_exponent", 4.0, float),
        )
        finite_m = FiniteMConfig(
            antennas=get("finite_m", "antennas", 500, int),
            pilot_length=get("finite_m", "pilot_length", 42, int),
            ul_snr_db=get("finite_m", "ul_snr_db", 10.0, _parse_snr),
            pilot_snr_db=get("finite_m", "pilot_snr_db", 10.0, _parse_snr),
        )
        qos = QosGrid(
            sir_db_min=get("qos", "sir_db_min", -5.0, float),
            sir_db_max=get("qos", "sir_db_max", 45.0, float),
            sir_db_step=get("qos", "sir_db_step", 0.1, float),
            alphas=get("qos", "alphas", (0.05,), _parse_alphas),
        )
        return ScenarioConfig(
            geometry=geometry,
            pilot_budget=get("pilots", "budget", 42, int),
            scheme=get("pilots", "scheme", "both", lambda s: s.strip().lower()),
            qos=qos,
            trials=get("montecarlo", "trials", 100_000, int),
            seed=get("montecarlo", "seed", 20260808, int),
            finite_m=finite_m,
            finite_m_trials=get("finite_m", "trials", 10_000, int),
            circle_mode=get("model", "circle_mode", "equal_area", lambda s: s.strip().lower()),
            tier_count=get("model", "tier_count", 1, int),
            region=get("model", "region", "hexagon", lambda s: s.strip().lower()),
            workers=get("montecarlo", "workers", 0, int),
        )
    except ValueError as exc:  # dataclass validation
        raise ConfigError(str(exc)) from exc


def config_hash(config: ScenarioConfig) -> str:
    """Stable short hash of every field, for CSV header provenance."""
    lines = []
    for name, obj in (
        ("geometry", config.geometry),
        ("finite_m", config.finite_m),
        ("qos", config.qos),
    ):
        for key, val in sorted(vars(obj).items()):
            lines.append(f"{name}.{key}={val!r}")
    for key in (
        "pilot_budget",
        "scheme",
        "trials",
        "seed",
        "finite_m_trials",
        "circle_mode",
        "tier_count",
        "region",
        "workers",
    ):
        lines.append(f"{key}={getattr(config, key)!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest[:16]
