"""mimocap benchmark: four workloads over the CLI and the sampler API.

Usage (from the repository root):

    python3 perfbench/run.py --workload analytic-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7          # every workload

Every timed invocation is a fresh interpreter (perfbench/child.py) with
montecarlo.workers = 0, because a CLI user pays the import on every call.
A run repeats its workload until --seconds are used up (at least three
times, or two traced/untraced pairs) and reports medians of its times,
scaled to a reference host speed by a probe each invocation times (see
"Host speed" in perfbench/README.md).  With --trace 0 the last stdout
line carries the end-to-end metrics, with --trace 1 the per-layer metrics
of BENCHMARK.json plus the tracing overhead.  Output checks count in
"failed"; the exit code is non-zero if any fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = "1"
# child.speed_probe's time on the host the README's figures come from, when
# that host ran at its faster speed; times are scaled to it (see README)
PROBE_REF_S = 0.060
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    overrides: tuple[str, ...]
    command: str | None  # CLI command, or None for the sampler API mix
    outputs: tuple[tuple[str, str], ...]  # (CLI flag, file name)
    check: Callable[[Path], list]  # output checks on one invocation's directory
    items: Callable[[Path], int]  # work items one invocation completes
    item_name: str  # what throughput_per_s counts on this workload
    expected: tuple[str, ...]  # functions the traced run must see called
    sizes: dict = field(default_factory=dict)  # sampler-mix trial counts
    workers_check: bool = False  # add one untimed run at montecarlo.workers=2


def _rows(path: Path) -> int:
    return len(checks.read_csv(path)[2])


LIMIT_TRIALS = 12_000
SEARCH_TRIALS = 300
SEARCH_PILOTS = 9  # per-w budgets 9/3/1 keep the scan over all three reuse factors
MIX_SIZES = {"book_trials": 6000, "shadowed_trials": 4000, "finite_m_trials": 400}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analytic-sweep",
            "configs/default.ini",
            ("model.tier_count=2", "qos.alphas=0.005,0.01,0.05,0.1"),
            "capacity-table",
            (("--out", "table.csv"), ("--diagnostics", "per_reuse.csv")),
            check=checks.check_analytic_sweep,
            items=lambda d: _rows(d / "per_reuse.csv"),  # one per (SIR, alpha, scheme, w)
            item_name="qos_points_per_s",
            expected=(
                "cli.main", "config.load_config", "interference.q_inverse",
                "interference.compute_tier_moments", "interference.qos_feasible",
                "capacity.tier1_moments", "capacity.capacity_for_reuse",
            ),
        ),
        Workload(
            "limit-cdf",
            "configs/default.ini",
            (f"montecarlo.trials={LIMIT_TRIALS}",),
            "sir-cdf",
            (("--out", "cdf.csv"),),
            check=lambda d: checks.check_limit_cdf(d, LIMIT_TRIALS),
            items=lambda d: 2 * LIMIT_TRIALS,  # one sampler call per scheme
            item_name="trials_per_s",
            expected=(
                "cli.main", "config.load_config", "simulate.sample_sir_limit",
                "simulate.trial_rng", "geometry.cochannel_cells", "geometry.tier_specs",
            ),
            workers_check=True,
        ),
        Workload(
            "finite-m-search",
            "configs/smoke.ini",
            (f"finite_m.pilot_length={SEARCH_PILOTS}", f"finite_m.trials={SEARCH_TRIALS}"),
            "finite-m-table",
            (("--out", "finite_m.csv"),),
            check=lambda d: checks.check_finite_m_search(d, SEARCH_TRIALS, SEARCH_PILOTS),
            items=lambda d: _rows(d / "finite_m.csv"),  # one search per row
            item_name="searches_per_s",
            expected=(
                "cli.main", "config.load_config", "simulate.empirical_capacity_search",
                "simulate.trial_rng", "geometry.cochannel_cells", "geometry.tier_specs",
            ),
        ),
        Workload(
            "sampler-mix",
            "configs/default.ini",
            (),
            None,
            (),
            check=lambda d: checks.check_sampler_mix(d, MIX_SIZES),
            items=lambda d: (
                MIX_SIZES["book_trials"] + MIX_SIZES["shadowed_trials"] + 2 * MIX_SIZES["finite_m_trials"]
            ),
            item_name="trials_per_s",
            expected=(
                "config.load_config", "pilots.generate_pilot_book", "simulate.sample_sir_limit",
                "simulate.sample_sir_limit_shadowed", "simulate.sample_sir_finite_m",
                "simulate.trial_rng",
            ),
            sizes=MIX_SIZES,
        ),
    )
}


# -- one invocation ---------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_argv(wl: Workload, out_dir: Path, extra=()) -> list[str]:
    """The workload's CLI argv, writing into out_dir; `extra` overrides
    follow the workload's own, so they win."""
    argv = [wl.command, wl.config]
    for flag, name in wl.outputs:
        argv += [flag, str(out_dir / name)]
    for item in (*wl.overrides, *extra):
        argv += ["--set", item]
    return argv


def run_child(wl: Workload, seed: int, out_dir: Path, traced: bool, workers: int = 0) -> dict:
    """Run one invocation; returns its result record (ok=False on failure)."""
    out_dir.mkdir(parents=True)
    run_overrides = (f"montecarlo.seed={seed}", f"montecarlo.workers={workers}")
    spec = {
        "config": wl.config,
        "overrides": [*wl.overrides, *run_overrides],
        "argv": None if wl.command is None else cli_argv(wl, out_dir, run_overrides),
        "sizes": wl.sizes,
        "trace": traced,
        "expected": list(wl.expected),
        "result": str(out_dir / "result.json"),
        "spans": str(out_dir / "spans.json"),
        "samples": str(out_dir / "samples.npz"),
    }
    (out_dir / "spec.json").write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(out_dir / "spec.json")],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S} s", "dir": out_dir}
    result_path = out_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "error": proc.stderr.strip()[-2000:], "dir": out_dir}
    rec = json.loads(result_path.read_text())
    # times at the reference host speed; the raw ones are kept beside them
    before, after = rec["probe_s"]
    rec.update(setup_raw_s=rec["setup_s"], wall_raw_s=rec["wall_s"])
    rec["setup_s"] *= PROBE_REF_S / before
    rec["wall_s"] *= PROBE_REF_S / ((before + after) / 2)
    rec.update(ok=rec["rc"] == 0, dir=out_dir, traced=traced, digest=output_digest(wl, out_dir))
    if not rec["ok"]:
        rec["error"] = f"exit code {rec['rc']}: {proc.stderr.strip()[-2000:]}"
    return rec


def output_digest(wl: Workload, out_dir: Path, skip_prefix: str | None = None) -> str:
    h = hashlib.sha256()
    if wl.command is None:
        with np.load(out_dir / "samples.npz") as data:
            for key in sorted(data.files):
                h.update(key.encode())
                h.update(np.ascontiguousarray(data[key]).tobytes())
        return h.hexdigest()
    for _flag, name in wl.outputs:
        for line in (out_dir / name).read_bytes().splitlines(keepends=True):
            if skip_prefix is None or not line.startswith(skip_prefix):
                h.update(line)
    return h.hexdigest()


# -- one benchmark run -------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Repeat the workload for `seconds`, then check outputs.

    Returns (reps, check results).  With tracing, each round runs one
    untraced and one traced invocation, alternating which goes first.
    """
    reps = []
    start = time.perf_counter()
    rounds = 0
    while True:
        order = [False] if not trace else ([False, True] if rounds % 2 == 0 else [True, False])
        for traced in order:
            reps.append(run_child(wl, seed, work / f"rep{len(reps)}", traced))
            if not reps[-1]["ok"]:
                print(f"[{wl.name}] invocation failed: {reps[-1]['error']}", file=sys.stderr)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= (2 if trace else 3) and elapsed + 0.5 * elapsed / rounds > seconds:
            break
        if not reps[-1]["ok"]:
            break

    results = [(f"invocation {i} ({'traced' if r.get('traced') else 'untraced'})", r["ok"],
                r.get("error", "")[:200]) for i, r in enumerate(reps)]
    good = [r for r in reps if r["ok"]]
    if not good:
        return reps, results
    digests = {r["digest"] for r in good}
    results.append(("output byte-identical across invocations at one seed", len(digests) == 1,
                    f"{len(digests)} distinct digests over {len(good)} invocations"))
    try:
        results += wl.check(good[0]["dir"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        results.append(("output checks ran", False, repr(exc)))
    if wl.workers_check:
        # config-hash covers montecarlo.workers, so that one line must differ
        par = run_child(wl, seed, work / "workers2", False, workers=2)
        same = par["ok"] and (
            output_digest(wl, par["dir"], b"# config-hash:")
            == output_digest(wl, good[0]["dir"], b"# config-hash:")
        )
        results.append(("CSV at workers=2 identical to serial (except config-hash)", same,
                        par.get("error", "")[:200]))
    if trace:
        errors = sorted({e for r in good if r.get("traced") for e in r["coverage_errors"]})
        results.append(("trace covers every expected function", not errors, "; ".join(errors)))
    return reps, results


# -- metrics -----------------------------------------------------------------


def _median(values):
    return float(statistics.median(values))


def end_to_end(wl: Workload, untraced: list) -> dict[str, float]:
    wall = _median([r["wall_s"] for r in untraced])
    return {
        "setup_s": _median([r["setup_s"] for r in untraced]),
        "wall_s": wall,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        "throughput_per_s": wl.items(untraced[0]["dir"]) / wall,
    }


def per_layer(untraced: list, traced: list) -> dict[str, float]:
    out = {key: _median([r["trace"][key] for r in traced]) for key in traced[0]["trace"]}
    base = _median([r["wall_s"] for r in untraced])
    with_trace = _median([r["wall_s"] for r in traced])
    out["trace.overhead_s"] = with_trace - base
    out["trace.overhead_ratio"] = (with_trace - base) / base
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def benchmark_one(wl, seed, seconds, trace, spec_metrics):
    work = WORK / f"run-{os.getpid()}-{wl.name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        reps, results = run_workload(wl, seed, seconds, trace, work)
        good = [r for r in reps if r["ok"]]
        untraced = [r for r in good if not r["traced"]]
        traced = [r for r in good if r["traced"]]
        values = {}
        if untraced and (traced or not trace):
            values = per_layer(untraced, traced) if trace else end_to_end(wl, untraced)
        if traced:
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            shutil.copy(traced[-1]["dir"] / "spans.json", WORK / "traces" / f"{wl.name}-seed{seed}.json")
        env = dict(good[0]["env"]) if good else {}
        env.update(seed=seed, git_sha=git_sha(), workload=wl.name, trace=int(trace),
                   invocations=len(reps))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for _name, ok, _detail in results if not ok)
    metrics = {}
    for m in spec_metrics:
        if m["name"] not in values:
            results.append((f"metric {m['name']} measured", False, "no value"))
            failed += 1
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    record = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }

    for name, ok, detail in results:
        print(f"[{wl.name}] {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    print(f"[{wl.name}] env {json.dumps(env, sort_keys=True)}")
    shown = traced if trace else untraced
    if shown:
        print(f"[{wl.name}] over {len(shown)} invocations, in run order:")
        for key, unit in (("wall_s", "s"), ("wall_raw_s", "s"), ("setup_raw_s", "s")):
            print(f"[{wl.name}]   {key}: " + " ".join(f"{r[key]:.4f}" for r in shown) + f" {unit}")
        print(f"[{wl.name}]   speed probe before/after: "
              + " ".join(f"{r['probe_s'][0] * 1e3:.0f}/{r['probe_s'][1] * 1e3:.0f}" for r in shown) + " ms")
    for name, m in metrics.items():
        alias = f" (= {wl.item_name})" if name == "throughput_per_s" else ""
        print(f"[{wl.name}] {name}{alias} = {m['value']:.6g} {m['unit']}")
    print(f"[{wl.name}] fail_ratio = {failed}/{len(results)} = {failed / len(results):.4g}")

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    raw = {key: _median([r[key] for r in shown]) for key in ("wall_raw_s", "setup_raw_s")} if shown else {}
    out.write_text(json.dumps({**record, "raw": raw, "env": env, "checks": results}, indent=1, default=str))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mimocap" / "__init__.py").is_file():
        print(f"perfbench: no mimocap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {n: benchmark_one(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), spec_metrics)
               for n in names}
    if len(records) == 1:
        final = records[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{n}.{k}": v for n, r in records.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
