"""Scenario configuration: one INI-style file, strictly validated.

Sweeps involve ~20 parameters, so commands take a config file plus
repeatable --set section.key=value overrides instead of positional
arguments.  Unknown sections or keys are rejected (typo safety).  Angles
are radians, distances meters; SIR is dB at this boundary and linear
inside the library.  Every default lives in the __init__ signatures of
ScenarioConfig and of its three nested records (NetworkGeometry,
FiniteMConfig, QosGrid), immutable value records that validate when built;
_KEYS only says which file key sets which field.  The scenario records and
value bounds come from geometry, so loading a config imports neither numpy
nor the samplers.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os

from ._record import ValueRecord
from .geometry import MAX_ABS_DB, FiniteMConfig, NetworkGeometry, cochannel_cells

# Bounds on what a config may ask of the machine; none of them is a knob.
_MAX_SIR_POINTS = 100_000  # per alpha; checked before the grid list is built
_MAX_PILOTS = 10_000  # a pilot book is budget x budget complex per cell (1.6 GB at 10^4)
_MAX_TRIALS = 10_000_000  # sir-cdf keeps every limit sample: 80 MB per scheme at 10^7
# trials x pilot length: a finite-m-table at the bound runs about a minute (serial,
# 2-vCPU x86-64 VM: 44 s at 42 pilots x 10^6 trials, 66 s at 10 x 4.2 x 10^6); the
# value stays, so every config that loaded loads
_MAX_FINITE_M_SINRS = 42_000_000
_MAX_TIERS = 50  # 50 co-channel tiers already hold 534 cells at w = 1
# Per trial, the samplers draw (co-channel cells + 1) x users per cell values
# per array, in blocks of simulate._BLOCK = 64 trials, at up to
# simulate._FINITE_BYTES = 140 bytes per value.  A run is one block, or as many
# as fit simulate._RUN_BYTES (1.7 MB), so this bounds runs too.  At this bound,
# 5 x 10^6 values a block, simulate._THREADS = 2 one-block workspaces fit the
# peak, simulate._PEAK_BYTES = 1.4 GB, that caps the parts of a call.  The
# per-key bounds above do not cap the product.
_MAX_TRIAL_VALUES = 78_125


class ConfigError(Exception):
    """Invalid scenario configuration."""


class QosGrid(ValueRecord):
    """SIR points in dB and the outage probabilities of the QoS sweep."""

    __slots__ = _fields = ("sir_db_min", "sir_db_max", "sir_db_step", "alphas")

    def __init__(
        self,
        sir_db_min: float = -5.0,
        sir_db_max: float = 45.0,
        sir_db_step: float = 0.1,
        alphas: tuple[float, ...] = (0.05,),
    ):
        if sir_db_step <= 0.0:
            raise ConfigError("qos.sir_db_step must be positive")
        if sir_db_max < sir_db_min:
            raise ConfigError("qos.sir_db_max must be >= qos.sir_db_min")
        if (sir_db_max - sir_db_min) / sir_db_step >= _MAX_SIR_POINTS:
            raise ConfigError(f"the qos grid must hold at most {_MAX_SIR_POINTS} SIR points")
        if not -MAX_ABS_DB <= sir_db_min <= sir_db_max <= MAX_ABS_DB:
            raise ConfigError(f"qos.sir_db_min/max must lie within +-{MAX_ABS_DB:g} dB")
        if not alphas:
            raise ConfigError("qos.alphas must list at least one outage probability")
        for a in alphas:
            if not 0.0 < a < 0.5:
                raise ConfigError(f"outage probability {a} outside (0, 0.5)")
        self._set(sir_db_min, sir_db_max, sir_db_step, alphas)

    def sir_db_values(self) -> list[float]:
        n = int(math.floor((self.sir_db_max - self.sir_db_min) / self.sir_db_step + 1e-9)) + 1
        return [round(self.sir_db_min + i * self.sir_db_step, 10) for i in range(n)]


class ScenarioConfig(ValueRecord):
    """One validated scenario: every setting the commands read."""

    # config_hash reads the fields in this order
    __slots__ = _fields = (
        "geometry", "finite_m", "qos", "pilot_budget", "scheme", "trials", "seed",
        "finite_m_trials", "circle_mode", "tier_count", "region", "workers",
    )

    def __init__(
        self,
        geometry: NetworkGeometry = NetworkGeometry(),
        finite_m: FiniteMConfig = FiniteMConfig(),
        qos: QosGrid = QosGrid(),
        pilot_budget: int = 42,
        scheme: str = "both",  # reused | different | both
        trials: int = 100_000,
        seed: int = 20260808,
        finite_m_trials: int = 10_000,
        circle_mode: str = "equal_area",
        tier_count: int = 1,
        region: str = "hexagon",
        workers: int = 0,  # 0 = serial
    ):
        if scheme not in ("reused", "different", "both"):
            raise ConfigError(f"pilots.scheme must be reused/different/both, got {scheme!r}")
        if pilot_budget < 1:
            raise ConfigError("pilots.budget must be >= 1")
        if trials < 1 or finite_m_trials < 1:
            raise ConfigError("trial counts must be >= 1")
        if circle_mode not in ("equal_area", "match_radius"):
            raise ConfigError(f"unknown circle mode {circle_mode!r}")
        if region not in ("hexagon", "circle"):
            raise ConfigError(f"unknown sampling region {region!r}")
        if tier_count < 1:
            raise ConfigError("model.tier_count must be >= 1")
        if not 0 <= seed < 2**64:  # the Philox key is 64 bits; trial_rng would wrap it
            raise ConfigError("montecarlo.seed must lie in [0, 2^64)")
        cpus = os.cpu_count() or 1
        if not 0 <= workers <= cpus:
            raise ConfigError(f"montecarlo.workers must lie in [0, {cpus}] (the CPU count)")
        if max(pilot_budget, finite_m.pilot_length) > _MAX_PILOTS:
            raise ConfigError(f"pilots.budget and finite_m.pilot_length must be <= {_MAX_PILOTS}")
        if trials > _MAX_TRIALS:
            raise ConfigError(f"montecarlo.trials must be <= {_MAX_TRIALS}")
        if finite_m_trials * finite_m.pilot_length > _MAX_FINITE_M_SINRS:
            raise ConfigError(f"finite_m.trials x pilot_length must be <= {_MAX_FINITE_M_SINRS}")
        if tier_count > _MAX_TIERS:
            raise ConfigError(f"model.tier_count must be <= {_MAX_TIERS}")
        # the cell count of a tier does not depend on w, and w = 1 has the most users
        cells = len(cochannel_cells(geometry, tier_count)) + 1
        users = max(pilot_budget, finite_m.pilot_length)
        if cells * users > _MAX_TRIAL_VALUES:
            raise ConfigError(
                f"a sampler block of {cells} cells x {users} users per trial must be <= "
                f"{_MAX_TRIAL_VALUES} values (lower model.tier_count, pilots.budget or "
                "finite_m.pilot_length)"
            )
        self._set(
            geometry, finite_m, qos, pilot_budget, scheme, trials, seed, finite_m_trials,
            circle_mode, tier_count, region, workers,
        )

    @property
    def schemes(self) -> tuple[str, ...]:
        return ("reused", "different") if self.scheme == "both" else (self.scheme,)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_snr(raw: str) -> float | None:
    return None if raw.lower() in ("none", "off", "inf") else _finite(raw)


def _parse_alphas(raw: str) -> tuple[float, ...]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise ConfigError("qos.alphas is empty")
    return tuple(float(p) for p in parts)


# (section, key) -> (ScenarioConfig field, sub-field or None, parser)
_KEYS = {
    ("geometry", "cell_radius_m"): ("geometry", "cell_radius_m", _finite),
    ("geometry", "hole_radius_m"): ("geometry", "hole_radius_m", _finite),
    ("geometry", "reuse_factor"): ("geometry", "reuse_factor", int),
    ("geometry", "path_loss_exponent"): ("geometry", "path_loss_exponent", _finite),
    ("finite_m", "antennas"): ("finite_m", "antennas", int),
    ("finite_m", "pilot_length"): ("finite_m", "pilot_length", int),
    ("finite_m", "ul_snr_db"): ("finite_m", "ul_snr_db", _parse_snr),  # dB or "none"
    ("finite_m", "pilot_snr_db"): ("finite_m", "pilot_snr_db", _parse_snr),
    ("qos", "sir_db_min"): ("qos", "sir_db_min", _finite),
    ("qos", "sir_db_max"): ("qos", "sir_db_max", _finite),
    ("qos", "sir_db_step"): ("qos", "sir_db_step", _finite),
    ("qos", "alphas"): ("qos", "alphas", _parse_alphas),
    ("pilots", "budget"): ("pilot_budget", None, int),
    ("pilots", "scheme"): ("scheme", None, str.lower),
    ("montecarlo", "trials"): ("trials", None, int),
    ("montecarlo", "seed"): ("seed", None, int),
    ("finite_m", "trials"): ("finite_m_trials", None, int),
    ("model", "circle_mode"): ("circle_mode", None, str.lower),
    ("model", "tier_count"): ("tier_count", None, int),
    ("model", "region"): ("region", None, str.lower),
    ("montecarlo", "workers"): ("workers", None, int),
}
_SECTIONS = {section for section, _ in _KEYS}
# the ScenarioConfig fields that hold a record, and its class
_NESTED = {"geometry": NetworkGeometry, "finite_m": FiniteMConfig, "qos": QosGrid}


def _parse(section: str, key: str, parse, raw: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def load_config(path: str, overrides: tuple[str, ...] = ()) -> ScenarioConfig:
    """Load and validate a scenario config file, then apply overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    raw: dict[tuple[str, str], str] = {}
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if (section, key) not in _KEYS:
                    raise ConfigError(f"unknown key {section}.{key}")
                raw[section, key] = value
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if (section, key) not in _KEYS:
            raise ConfigError(f"unknown override target {section}.{key}")
        raw[section, key] = value.strip()  # as configparser strips file values

    changes = {}
    try:
        # field by field, so errors surface in the order the fields are built
        for field in ScenarioConfig._fields:
            given = {
                sub: _parse(section, key, parse, raw[section, key])
                for (section, key), (name, sub, parse) in _KEYS.items()
                if name == field and (section, key) in raw
            }
            if given:
                changes[field] = _NESTED[field](**given) if field in _NESTED else given[None]
        return ScenarioConfig(**changes)
    except ValueError as exc:  # record validation
        raise ConfigError(str(exc)) from exc


def config_hash(config: ScenarioConfig) -> str:
    """Stable short hash of every field, for CSV header provenance."""
    lines = []
    for field, value in config._asdict().items():
        if field in _NESTED:
            lines += [f"{field}.{key}={val!r}" for key, val in sorted(value._asdict().items())]
        else:
            lines.append(f"{field}={value!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest[:16]
