"""Stress test of the config surface: every key at and around its bounds.

For each key of config._KEYS, values at, just inside and just outside the
edges of its accepted range, plus 0, negatives, huge and tiny magnitudes and
inf/nan text, and more values drawn by hypothesis.  A value that loads is
run through every command that reads the key, in process, on a tiny
scenario, under a per-example alarm.  Every run must exit 0, or exit 2 with
one `config error:` line; a traceback or a hang fails the test.

A value that loads but asks for more work than the tiny scenario (a large
trial count, pilot length or budget: legal sizes whose memory the load-time
bounds cap) is loaded and not run, so that the test takes seconds.
"""

import contextlib
import io
import math
import os
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimocap.cli import main
from mimocap import simulate
from mimocap.config import _KEYS, _MAX_FINITE_M_SINRS, _MAX_TRIAL_VALUES, ConfigError, load_config

TINY = """
[qos]
sir_db_min = 0
sir_db_max = 2
sir_db_step = 1

[montecarlo]
trials = 64

[finite_m]
antennas = 8
pilot_length = 14
trials = 64

[pilots]
budget = 14
"""
ALARM_S = 20.0
ALL = ("capacity-table", "sir-cdf", "finite-m-table", "validate")
CPUS = os.cpu_count() or 1

# (section, key) -> (edges of its accepted range on TINY, commands reading it)
KEYS = {
    ("geometry", "cell_radius_m"): ((1e-3, 1e7), ALL),
    ("geometry", "hole_radius_m"): ((0.0, math.sqrt(3.0) / 2.0 * 1600.0), ALL),
    ("geometry", "reuse_factor"): ((1, 3, 7), ALL),
    ("geometry", "path_loss_exponent"): ((2.0, 10.0), ALL),
    ("finite_m", "antennas"): ((1,), ("finite-m-table",)),
    ("finite_m", "pilot_length"): ((1, 10_000), ("finite-m-table",)),
    ("finite_m", "ul_snr_db"): ((-1000.0, 1000.0), ("finite-m-table",)),
    ("finite_m", "pilot_snr_db"): ((-1000.0, 1000.0), ("finite-m-table",)),
    ("qos", "sir_db_min"): ((-1000.0, 2.0), ("capacity-table",)),
    ("qos", "sir_db_max"): ((0.0, 1000.0), ("capacity-table",)),
    ("qos", "sir_db_step"): ((0.0, 2.0 / 100_000), ("capacity-table",)),
    ("qos", "alphas"): ((0.0, 0.5), ("capacity-table",)),
    ("pilots", "budget"): ((1, 7, 10_000), ("capacity-table", "sir-cdf", "validate")),
    ("pilots", "scheme"): (("reused", "different", "both"), ("capacity-table", "sir-cdf", "finite-m-table")),
    ("montecarlo", "trials"): ((1, 10_000_000), ("sir-cdf",)),
    ("montecarlo", "seed"): ((0, 2**64), ALL),
    ("finite_m", "trials"): ((1, _MAX_FINITE_M_SINRS // 14), ("finite-m-table",)),
    ("model", "circle_mode"): (("equal_area", "match_radius"), ("capacity-table", "sir-cdf", "validate")),
    ("model", "tier_count"): ((1, 50), ("capacity-table", "sir-cdf", "finite-m-table")),
    ("model", "region"): (("hexagon", "circle"), ("sir-cdf",)),
    ("montecarlo", "workers"): ((0, CPUS), ("sir-cdf", "finite-m-table")),
}
SPECIALS = (
    "0", "-1", "1.5", "1e3", "-1e308", "1e308", "5e-324", "inf", "-inf", "nan", "1e999",
    str(2**70), str(-(2**70)), "",
)


def _edge_values(edges) -> list[str]:
    """Each edge, and its neighbours on either side."""
    values = []
    for e in edges:
        if isinstance(e, str):
            values += [e, e.upper(), f" {e} ", e[:-1], e + "x"]
        elif isinstance(e, int):
            values += [str(e - 1), str(e), str(e + 1)]
        else:
            values += [repr(math.nextafter(e, -math.inf)), repr(e), repr(math.nextafter(e, math.inf))]
    return values


def _drawn(section, key):
    edges, _ = KEYS[section, key]
    if isinstance(edges[0], str):
        return st.text(alphabet="abcdefghijklmnopqrstuvwxyz_ ", max_size=12)
    number = st.floats().map(repr) | st.integers(-(2**70), 2**70).map(str)
    if key == "alphas":
        return st.lists(number, min_size=1, max_size=3).map(" ".join)
    return number


def _small(config) -> bool:
    """The loaded config asks for no more work than a tiny run."""
    qos = config.qos
    sizes = (
        config.trials,
        config.finite_m_trials,
        config.pilot_budget,
        config.finite_m.pilot_length,
        (qos.sir_db_max - qos.sir_db_min) / qos.sir_db_step,  # SIR points
    )
    return max(sizes) <= 512


@contextlib.contextmanager
def _alarm(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _exit_cleanly(command: str, path: str, override: str) -> None:
    err = io.StringIO()
    with _alarm(ALARM_S), contextlib.redirect_stderr(err):
        rc = main([command, path, "--set", override, "--out", os.devnull])
    lines = err.getvalue().splitlines()
    assert rc == 0 or (rc == 2 and len(lines) == 1 and lines[0].startswith("config error: ")), (
        command, override, rc, lines,
    )


@pytest.mark.parametrize("section,key", list(_KEYS))
def test_every_value_exits_cleanly(section, key, tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    edges, commands = KEYS[section, key]

    def check(raw):
        override = f"{section}.{key}={raw}"
        try:
            config = load_config(str(path), (override,))
        except ConfigError:
            _exit_cleanly(commands[0], str(path), override)
            return
        if _small(config):
            for command in commands:
                _exit_cleanly(command, str(path), override)

    for raw in dict.fromkeys(_edge_values(edges) + list(SPECIALS)):
        check = example(raw=raw)(check)
    run = settings(derandomize=True, database=None, max_examples=3, deadline=None)(
        given(raw=_drawn(section, key))(check)
    )
    run()


def test_largest_sampler_block_fits_the_workspace_peak():
    # computed, not run: at the load-time bound on a sampler block, the
    # threaded path's one-block workspaces, at the most bytes per value a
    # command's sampler takes, fit the peak that caps a call's parts
    per_value = max(simulate._LIMIT_BYTES, simulate._FINITE_BYTES)
    block_bytes = simulate._BLOCK * _MAX_TRIAL_VALUES * per_value
    assert block_bytes * simulate._THREADS <= simulate._PEAK_BYTES
