"""Regenerate the stored references the output checks compare against.

Usage (from the repository root, a few minutes on one core):

    PYTHONPATH=src python3 perfbench/make_reference.py

References are drawn at a seed of their own and with far more trials than
one benchmark run, so that a run checks against an independent sample of
the same law.  Rerun this only when a change is meant to alter a
workload's output, and say so in the change.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from mimocap import cli
from mimocap.capacity import tier1_moments
from mimocap.config import load_config
from mimocap.interference import total_interference
from mimocap.pilots import PilotScheme

import child
from checks import REFERENCE, read_csv
from run import MIX_SIZES, WORK, WORKLOADS, cli_argv

REF_SEED = 918273645
LIMIT_TRIALS = 200_000
SHADOWED_TRIALS = 40_000
FINITE_M_TRIALS = 6_000
QUANTILES = 1000


def law(samples) -> dict:
    """Mid-quantiles plus the mean and spread of the SIR in dB."""
    db = 10.0 * np.log10(samples)
    return {
        "trials": int(samples.size),
        "mean_db": float(db.mean()),
        "sd_db": float(db.std(ddof=1)),
        "quantiles": np.quantile(samples, (np.arange(QUANTILES) + 0.5) / QUANTILES).tolist(),
    }


def run_cli(wl, out_dir: Path, overrides=()):
    if cli.main(cli_argv(wl, out_dir, (*overrides, f"montecarlo.seed={REF_SEED}"))) != 0:
        raise SystemExit(f"{wl.name}: CLI failed")


def analytic_sweep(tmp: Path):
    run_cli(WORKLOADS["analytic-sweep"], tmp)
    for src, dst in (("table.csv", "analytic_sweep_table"), ("per_reuse.csv", "analytic_sweep_per_reuse")):
        with open(tmp / src, "rb") as fin, gzip.GzipFile(REFERENCE / f"{dst}.csv.gz", "wb", mtime=0) as fout:
            shutil.copyfileobj(fin, fout)


def limit_cdf(tmp: Path):
    """The CLI's empirical curve at LIMIT_TRIALS trials is the quantile grid
    (cdf steps of 1/1000); the Gaussian moments follow cmd_sir_cdf."""
    wl = WORKLOADS["limit-cdf"]
    run_cli(wl, tmp, (f"montecarlo.trials={LIMIT_TRIALS}",))
    _c, _h, rows = read_csv(tmp / "cdf.csv")
    config = load_config(wl.config)
    w = 7
    k = config.pilot_budget // w
    geo = config.geometry.with_reuse(w)
    out = {"seed": REF_SEED, "schemes": {}}
    for scheme in PilotScheme:
        sir_db = np.array([float(r[1]) for r in rows if r[0] == f"{scheme.value}-empirical"])
        count, tm = tier1_moments(geo, scheme, config.pilot_budget, w, config.circle_mode,
                                  tier_count=config.tier_count)[0]
        n_terms = count * (k if scheme is PilotScheme.DIFFERENT_SETS else 1)
        gi = total_interference([(n_terms, tm)])
        out["schemes"][scheme.value] = {
            "trials": LIMIT_TRIALS,
            "quantiles": (10.0 ** (sir_db / 10.0)).tolist(),
            "gaussian_mean": gi.mean,
            "gaussian_variance": gi.variance,
        }
    (REFERENCE / "limit_cdf.json").write_text(json.dumps(out))


def sampler_mix():
    """The benchmark's own scenario (child.sampler_mix) at REF_SEED."""
    config = load_config(WORKLOADS["sampler-mix"].config, (f"montecarlo.seed={REF_SEED}",))
    sizes = {**MIX_SIZES, "shadowed_trials": SHADOWED_TRIALS, "finite_m_trials": FINITE_M_TRIALS}
    arrays = child.sampler_mix(config, sizes)
    count, tm = tier1_moments(config.geometry, PilotScheme.DIFFERENT_SETS, config.pilot_budget, 1,
                              "equal_area")[0]
    out = {
        "seed": REF_SEED,
        # k users per cell on all k columns of a unitary book: E[sum phi] = 1
        "book_mean_interference": count * config.pilot_budget * tm.mu_y,
        "shadowed": law(arrays["shadowed"]),
        "finite_m": {scheme.value: law(arrays[f"finite_m_{scheme.value}"]) for scheme in PilotScheme},
    }
    (REFERENCE / "sampler_mix.json").write_text(json.dumps(out))


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    tmp = WORK / "reference-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        analytic_sweep(tmp)
        limit_cdf(tmp)
    finally:
        shutil.rmtree(tmp)
    sampler_mix()
    return 0


if __name__ == "__main__":
    sys.exit(main())
