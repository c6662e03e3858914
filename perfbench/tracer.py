"""Span tracer that wraps mimocap's public functions from outside the package.

Each wrapped call is recorded as a span (name, start, end, parent span) in
memory; the spans are written out once the traced process finishes.
``simulate.trial_rng`` is only counted, because it runs once per trial and
stream, and a span there would cost more than the call it measures.

``cli``, ``capacity``, ``simulate`` and the package ``__init__`` bind many of
these functions with ``from ... import``, so a wrapper is installed in every
mimocap module namespace that holds the original function object.  A missed
rebinding would read as zero calls and zero seconds, so the coverage check
fails when a function a workload is expected to reach records no call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("config", "cli", "geometry", "pilots", "interference", "capacity", "simulate")

SPANNED = (
    "config.load_config",
    "cli.main",
    "cli.cmd_capacity_table",
    "cli.cmd_sir_cdf",
    "cli.cmd_finite_m_table",
    "geometry.build_layout",
    "geometry.cochannel_cells",
    "geometry.tier_specs",
    "geometry.circle_approximation",
    "pilots.generate_pilot_book",
    "interference.compute_tier_moments",
    "interference.q_inverse",
    "interference.qos_feasible",
    "interference.sir_outage_gaussian",
    "capacity.tier1_moments",
    "capacity.capacity_for_reuse",
    "simulate.sample_sir_limit",
    "simulate.sample_sir_limit_shadowed",
    "simulate.sample_sir_finite_m",
    "simulate.empirical_capacity_search",
)
COUNTED = ("simulate.trial_rng",)
SAMPLERS = (
    "simulate.sample_sir_limit",
    "simulate.sample_sir_limit_shadowed",
    "simulate.sample_sir_finite_m",
)
SEARCH = "simulate.empirical_capacity_search"
_ROLE_POSITIONS = 1  # one position stream per trial drawn


def _trials_arg(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: int(sig.bind(*args, **kwargs).arguments["trials"])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.rng_calls = 0
        self.rng_positions = 0
        self.sampler_trials: dict[str, int] = {name: 0 for name in SAMPLERS}
        self.useful_trials = 0
        self.missing: list[str] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items()) if n == "mimocap" or n.startswith("mimocap.")]
        for qual in SPANNED + COUNTED:
            modname, fname = qual.split(".")
            orig = getattr(sys.modules.get(f"mimocap.{modname}"), fname, None)
            if orig is None:
                self.missing.append(qual)
                continue
            wrapper = self._count_rng(orig) if qual in COUNTED else self._span(qual, orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _span(self, qual, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        trials = _trials_arg(fn) if qual in SAMPLERS or qual == SEARCH else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [qual, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if trials is not None:
                n = trials(args, kwargs)
                if qual == SEARCH:
                    self.useful_trials += n * sum(1 for k in result.per_reuse.values() if k > 0)
                else:
                    self.sampler_trials[qual] += n
            return result

        return wrapper

    def _count_rng(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.rng_calls += 1
            role = args[2] if len(args) > 2 else kwargs["role"]
            if role == _ROLE_POSITIONS:
                self.rng_positions += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- derived figures ------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-function calls and inclusive seconds, counters, and each
        module's self time (span time not covered by its child spans)."""
        out: dict[str, float] = {}
        for qual in SPANNED:
            out[f"{qual}.calls"] = 0
            out[f"{qual}.s"] = 0.0
        for mod in MODULES:
            out[f"{mod}.self_s"] = 0.0
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name.split('.')[0]}.self_s"] += end - start - child[i]
        for qual in SAMPLERS:
            secs = out[f"{qual}.s"]
            out[f"{qual}.trials_per_s"] = self.sampler_trials[qual] / secs if secs > 0 else 0.0
        out["simulate.trial_rng.calls"] = self.rng_calls
        out["simulate.trials_drawn"] = self.rng_positions
        out["simulate.search_useful_ratio"] = (
            self.useful_trials / self.rng_positions if self.rng_positions else 0.0
        )
        out["trace.spans"] = len(self.spans)
        return out

    def coverage_errors(self, expected) -> list[str]:
        """Reasons the trace cannot be trusted for this workload, if any."""
        errors = [f"{q} not found in mimocap" for q in self.missing if q in expected]
        calls = self.summary()
        for qual in expected:
            if qual not in self.missing and calls[f"{qual}.calls"] == 0:
                errors.append(f"{qual} recorded zero calls")
        return errors

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, fh)
