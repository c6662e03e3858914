"""One timed invocation of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the config, the --set overrides, and either the CLI argv or the
sampler-mix sizes.  The process times setup (importing mimocap and running
load_config; for a CLI command, the load_config call cli.main makes) and
the command or API calls after it, optionally under the span tracer, and
a speed probe (speed_probe) before and after the timed work.  It writes a
result JSON to the path given in SPEC.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

PROBE_LOOPS = 30_000


def sampler_mix(config, sizes):
    """One fixed-size call of each sampler path no CLI command reaches."""
    import numpy as np

    from mimocap.pilots import PilotScheme, generate_pilot_book
    from mimocap.simulate import (
        sample_sir_finite_m,
        sample_sir_limit,
        sample_sir_limit_shadowed,
    )

    geo = config.geometry
    k = config.pilot_budget
    different = PilotScheme.DIFFERENT_SETS
    # centre cell plus the six tier-1 co-channel cells at reuse 1
    book = generate_pilot_book(different, k, 7, np.random.default_rng(config.seed))
    limit = sample_sir_limit(
        geo, different, k, trials=sizes["book_trials"], seed=config.seed,
        pilot_dim=k, pilot_book=book, region="circle", max_tier=1,
    )
    shadowed, diag = sample_sir_limit_shadowed(
        geo, different, 4, 8.0, trials=sizes["shadowed_trials"], seed=config.seed,
        pilot_dim=k, diagnostics=True,
    )
    arrays = {
        "book_limit": limit.samples,
        "shadowed": shadowed.samples,
        "shadowed_max_ratio": np.array(diag.max_interference_ratio),
        "shadowed_tier_shares": np.array(list(diag.tier_shares.values())),
    }
    for scheme in PilotScheme:
        fm = sample_sir_finite_m(
            geo.with_reuse(3), scheme, 14, config.finite_m,
            trials=sizes["finite_m_trials"], seed=config.seed,
        )
        arrays[f"finite_m_{scheme.value}"] = fm.samples
    return arrays


def speed_probe() -> float:
    """Seconds for a fixed loop of small numpy calls: a probe of how fast the
    host runs this process right now, taken just before and after the timed
    work."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(PROBE_LOOPS):
        x = rng.standard_normal(16)
        acc += float(np.sqrt(x @ x))
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import mimocap.cli
    import mimocap.config

    t1 = time.perf_counter()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probe = [speed_probe()]
    if spec["argv"] is not None:
        # setup_s counts the load_config that cli.main itself makes
        config_s = []
        inner = mimocap.cli.load_config

        def timed_load_config(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                config_s.append(time.perf_counter() - start)

        mimocap.cli.load_config = timed_load_config
        t2 = time.perf_counter()
        rc = mimocap.cli.main(spec["argv"])
        wall = time.perf_counter() - t2 - sum(config_s)
        config_wall = sum(config_s)
        arrays = None
    else:
        t2 = time.perf_counter()
        config = mimocap.config.load_config(spec["config"], tuple(spec["overrides"]))
        t3 = time.perf_counter()
        arrays = sampler_mix(config, spec["sizes"])
        wall = time.perf_counter() - t3
        config_wall = t3 - t2
        rc = 0
    probe.append(speed_probe())

    result = {
        "rc": rc,
        "setup_s": (t1 - t0) + config_wall,
        "wall_s": wall,
        "probe_s": probe,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if arrays is not None:
        import numpy as np

        np.savez(spec["samples"], **arrays)
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["coverage_errors"] = tracer.coverage_errors(spec["expected"])
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
