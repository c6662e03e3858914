"""Output checks for the benchmark workloads.

Each check returns a list of (name, passed, detail) tuples.  The sampled
checks compare laws, not bytes: they must keep passing when a sampler is
rewritten with other random streams but the same distribution.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"

# Failure probability of each distribution comparison.
DKW_DELTA = 1e-6
# Sampled means must sit within this many standard errors of their reference.
MEAN_SE = 5.0
# Relative float tolerance for the analytic table, plus one unit in the last
# of the ten significant digits the CSV writer keeps.
REL_TOL = 1e-9
CSV_DIGITS = 10


def read_csv(path, opener=open):
    """(comment lines, header, rows) of a mimocap CSV file."""
    with opener(path, "rt", newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return comments, body[0], body[1:]


def _float_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    scale = max(abs(a), abs(b))
    quantum = 10.0 ** (math.floor(math.log10(scale)) - CSV_DIGITS + 1) if scale > 0 else 0.0
    return abs(a - b) <= REL_TOL * scale + quantum


def compare_table(name, path, ref_path, int_cols, str_cols):
    """Compare a CSV with a stored reference: same header, switch notes and
    row count; integer and string columns exact; floats to REL_TOL."""
    comments, header, rows = read_csv(path)
    ref_comments, ref_header, ref_rows = read_csv(ref_path, gzip.open)
    switches = [c for c in comments if c.startswith("# switch:")]
    ref_switches = [c for c in ref_comments if c.startswith("# switch:")]
    if header != ref_header or len(rows) != len(ref_rows) or switches != ref_switches:
        return [(name, False, f"shape differs: {len(rows)} rows vs {len(ref_rows)} reference")]
    bad = 0
    first = ""
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, a, b in zip(header, row, ref):
            if col in str_cols:
                ok = a == b
            elif col in int_cols:
                ok = int(a) == int(b)
            else:
                ok = _float_close(float(a), float(b))
            if not ok:
                bad += 1
                first = first or f"row {i} {col}: {a} vs {b}"
    return [(name, bad == 0, f"{len(rows)} rows, {bad} cells differ {first}".strip())]


def check_analytic_sweep(out_dir: Path):
    return compare_table(
        "capacity-table matches reference",
        out_dir / "table.csv",
        REFERENCE / "analytic_sweep_table.csv.gz",
        {"w_best", "k_max", "n_max"},
        {"scheme"},
    ) + compare_table(
        "per-reuse diagnostics match reference",
        out_dir / "per_reuse.csv",
        REFERENCE / "analytic_sweep_per_reuse.csv.gz",
        {"w", "feasible", "k_max", "n_max", "pilot_budget"},
        {"scheme"},
    )


def dkw_epsilon(n: int, delta: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz: P(sup|F_n - F| > eps) <= 2 exp(-2 n eps^2)."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def ref_cdf(ref: dict, x) -> np.ndarray:
    """Reference CDF from its stored mid-quantiles (error <= 1/len)."""
    q = np.asarray(ref["quantiles"])
    return np.searchsorted(q, np.asarray(x), side="right") / q.size


def dkw_tolerance(n: int, ref: dict) -> float:
    """Bound on sup|F_run - F_ref| for two samples of one law, at total
    failure probability DKW_DELTA, plus the quantile-grid error."""
    return (
        dkw_epsilon(n, DKW_DELTA / 2)
        + dkw_epsilon(ref["trials"], DKW_DELTA / 2)
        + 1.0 / len(ref["quantiles"])
    )


def dkw_check(name, samples, ref):
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = ref_cdf(ref, x)
    i = np.arange(n)
    dist = float(max(np.max(np.abs((i + 1) / n - f)), np.max(np.abs(i / n - f))))
    tol = dkw_tolerance(n, ref)
    return (name, dist <= tol, f"sup|F-F_ref|={dist:.4f} tol={tol:.4f} n={n}")


def mean_db_check(name, samples, ref):
    """Mean SIR in dB against the reference mean, within MEAN_SE combined
    standard errors (dB keeps the heavy upper tail of the SIR in check)."""
    x = 10.0 * np.log10(np.asarray(samples, dtype=float))
    se = math.sqrt(x.var(ddof=1) / x.size + ref["sd_db"] ** 2 / ref["trials"])
    dev = abs(float(x.mean()) - ref["mean_db"]) / se
    return (name, dev <= MEAN_SE,
            f"mean {x.mean():.4f} dB vs reference {ref['mean_db']:.4f} dB: {dev:.2f} se (<= {MEAN_SE})")


def _q_function(z):
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(z) / math.sqrt(2.0))


def check_limit_cdf(out_dir: Path, trials: int):
    ref = json.loads((REFERENCE / "limit_cdf.json").read_text())
    _comments, _header, rows = read_csv(out_dir / "cdf.csv")
    results = []
    for scheme, sref in ref["schemes"].items():
        emp = np.array([(float(r[1]), float(r[2])) for r in rows if r[0] == f"{scheme}-empirical"])
        approx = np.array([(float(r[1]), float(r[2])) for r in rows if r[0] == f"{scheme}-approx"])
        if emp.size == 0 or approx.shape != emp.shape:
            results.append((f"{scheme} curves present", False, f"{len(emp)} empirical rows"))
            continue
        sir = 10.0 ** (emp[:, 0] / 10.0)
        dist = float(np.max(np.abs(emp[:, 1] - ref_cdf(sref, sir))))
        tol = dkw_tolerance(trials, sref)
        results.append(
            (f"{scheme} empirical CDF within DKW bound", dist <= tol,
             f"sup|F-F_ref|={dist:.4f} tol={tol:.4f} n={trials}")
        )
        gauss = _q_function((1.0 / sir - sref["gaussian_mean"]) / math.sqrt(sref["gaussian_variance"]))
        err = float(np.max(np.abs(approx[:, 1] - gauss)))
        ok = err <= 1e-6 and np.array_equal(approx[:, 0], emp[:, 0])
        results.append((f"{scheme} Gaussian curve matches reference moments", ok, f"max|err|={err:.2e}"))
    return results


def wilson(failures: int, n: int, z: float = 1.959963984540054):
    p = failures / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == n else min(1.0, center + half)
    return lo, hi


def check_finite_m_search(out_dir: Path, trials: int, pilot_length: int):
    """Structural invariants of the finite-M admission table."""
    _comments, header, rows = read_csv(out_dir / "finite_m.csv")
    recs = [dict(zip(header, r)) for r in rows]
    problems = []
    by_qos: dict[str, dict[str, int]] = {}
    for r in recs:
        tag = f"{r['qos']}/{r['scheme']}"
        ks = {w: int(r[f"k_w{w}"]) for w in (1, 3, 7)}
        for w, k in ks.items():
            if not 0 <= k <= pilot_length // w:
                problems.append(f"{tag}: k_w{w}={k} exceeds budget {pilot_length // w}")
        w_best = max(ks, key=lambda w: (ks[w], -w))
        if int(r["w_best"]) != w_best or int(r["k_max"]) != ks[w_best]:
            problems.append(f"{tag}: w_best/k_max {r['w_best']}/{r['k_max']} is not the argmax")
        outage, lo, hi = float(r["outage"]), float(r["wilson_lo"]), float(r["wilson_hi"])
        if int(r["k_max"]) == 0:
            if not math.isnan(outage):
                problems.append(f"{tag}: outage reported without an accepted load")
        else:
            failures = round(outage * trials)
            exp_lo, exp_hi = wilson(failures, trials)
            if not (
                outage <= float(r["alpha"])
                and lo <= outage <= hi
                and abs(failures - outage * trials) < 1e-6 * trials
                and abs(lo - exp_lo) <= 1e-9
                and abs(hi - exp_hi) <= 1e-9
            ):
                problems.append(f"{tag}: outage {outage} [{lo}, {hi}] inconsistent with alpha or Wilson")
        by_qos.setdefault(r["qos"], {})[r["scheme"]] = int(r["k_max"])
    for qos, ks in by_qos.items():
        if ks.get("different", -1) < ks.get("reused", 0):
            problems.append(f"{qos}: different {ks.get('different')} < reused {ks.get('reused')}")
    complete = len(recs) == 8 and all(len(v) == 2 for v in by_qos.values())
    return [
        ("finite-M table has 4 presets x 2 schemes", complete, f"{len(recs)} rows"),
        ("finite-M table invariants", not problems, "; ".join(problems[:3]) or "all hold"),
    ]


def check_sampler_mix(out_dir: Path, sizes: dict):
    ref = json.loads((REFERENCE / "sampler_mix.json").read_text())
    with np.load(out_dir / "samples.npz") as npz:
        data = {key: npz[key] for key in npz.files}
    results = []
    counts_ok = (
        data["book_limit"].size == sizes["book_trials"]
        and data["shadowed"].size == sizes["shadowed_trials"]
        and all(data[f"finite_m_{s}"].size == sizes["finite_m_trials"] for s in ("reused", "different"))
    )
    results.append(("sample counts match the requested trials", counts_ok, ""))
    # Total interference 1/SIR on the circular tier-1 cells has the
    # quadrature mean exactly.
    y = 1.0 / data["book_limit"]
    mean, se = float(y.mean()), float(y.std(ddof=1) / math.sqrt(y.size))
    dev = abs(mean - ref["book_mean_interference"]) / se
    results.append(
        ("fixed-book limit mean vs quadrature", dev <= MEAN_SE,
         f"mean={mean:.5g} quadrature={ref['book_mean_interference']:.5g} dev={dev:.2f} se (<= {MEAN_SE})")
    )
    ratio = float(data["shadowed_max_ratio"])
    shares = float(data["shadowed_tier_shares"].sum())
    results.append(
        ("shadowed max interference ratio <= 1 and tier shares sum to 1",
         ratio <= 1.0 and abs(shares - 1.0) <= 1e-9, f"max ratio {ratio:.6f}, shares {shares:.12f}")
    )
    laws = [("shadowed SIR", data["shadowed"], ref["shadowed"])] + [
        (f"finite-M {s} SINR", data[f"finite_m_{s}"], ref["finite_m"][s]) for s in ("reused", "different")
    ]
    for label, samples, law in laws:
        results.append(dkw_check(f"{label} law vs reference", samples, law))
        results.append(mean_db_check(f"{label} mean vs reference", samples, law))
    positive = all(bool(np.all(np.isfinite(data[k]) & (data[k] > 0))) for k in
                   ("book_limit", "shadowed", "finite_m_reused", "finite_m_different"))
    results.append(("samples finite and positive", positive, ""))
    return results
