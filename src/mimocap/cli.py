"""Command line interface: four commands, each driven by one config file.

CSV output starts with '#' comment lines carrying the command, config hash
and seed, so reruns with the same inputs are byte-identical.  Exit codes:
0 success, 1 validation failure, 2 configuration error, usage error or an
unwritable output path.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys

import numpy as np

from . import capacity as cap
from . import interference as intf
from .config import ConfigError, ScenarioConfig, config_hash, load_config
from .geometry import tier_specs
from .interference import QosTarget
from .pilots import PilotScheme, cross_correlation, generate_pilot_book
from .simulate import empirical_capacity_search, sample_circle_position, sample_sir_limit

_QOS_PRESETS = (
    ("low", 0.0, 0.01),
    ("medium", 10.0, 0.05),
    ("high", 25.0, 0.05),
    ("very_high", 30.0, 0.005),
)


def _header(command: str, config: ScenarioConfig) -> list[str]:
    return [
        f"# mimocap {command}",
        f"# config-hash: {config_hash(config)}",
        f"# seed: {config.seed}",
        "# units: sir in dB, distances in meters, probabilities linear",
    ]


@contextlib.contextmanager
def _open_out(path: str | None):
    """The stream of an output path: stdout for '-', None for no path."""
    if path is None or path == "-":
        yield None if path is None else sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    with fh:
        yield fh


# %-format of each declared column type; '%.10g' % x == format(x, '.10g')
# for every double, nan, infinities and -0.0 included
_FORMATS = {float: "%.10g", int: "%d", str: "%s"}

# capacity-table repeats the same sir_db and alpha values on every row, so it
# formats them once per table and writes the cells as str.  The table row at
# w_best is the diagnostics row at that w, so the shared cells are formatted
# once per (scheme, alpha, w, SIR point) and serve both files.
_SHARED_COLUMNS = (("k_u", float), ("k_max", int), ("y_e", float), ("n_max", int))
_TABLE_COLUMNS = (
    ("sir_db", str), ("alpha", str), ("scheme", str), ("w_best", int), *_SHARED_COLUMNS,
)
_DIAGNOSTIC_COLUMNS = (
    *_TABLE_COLUMNS[:3], ("w", int), ("feasible", int), *_SHARED_COLUMNS, ("pilot_budget", int),
)
_SIR_CDF_COLUMNS = (("curve", str), ("sir_db", str), ("cdf", float))
_FINITE_M_COLUMNS = (
    ("qos", str), ("sir_db", float), ("alpha", float), ("scheme", str), ("w_best", int),
    ("k_max", int), ("k_w1", int), ("k_w3", int), ("k_w7", int),
    ("outage", float), ("wilson_lo", float), ("wilson_hi", float),
)


def _template(columns) -> str:
    return ",".join(_FORMATS[t] for _, t in columns)


def _head(comments, columns) -> str:
    return "".join(f"{line}\n" for line in comments) + ",".join(name for name, _ in columns) + "\n"


def _write_rows(stream, comments, columns, rows):
    """Comment lines, the header, then one line per row tuple through a
    %-template built from the declared (name, type) columns."""
    template = _template(columns) + "\n"
    stream.write(_head(comments, columns))
    stream.write("".join(map(template.__mod__, rows)))


def _shared_cells(report) -> list[str]:
    """The k_u,k_max,y_e,n_max cells of one report, one string per SIR point."""
    fields = (report.k_u, report.k_max, report.effective_interference, report.n_max)
    return list(map(_template(_SHARED_COLUMNS).__mod__, zip(*(f.tolist() for f in fields))))


def cmd_capacity_table(config: ScenarioConfig, out, diagnostics) -> int:
    sir_db = config.qos.sir_db_values()
    sir_cells = [_FORMATS[float] % s for s in sir_db]
    grid = QosTarget.from_db(sir_db, config.qos.alphas[0])  # each alpha swaps only the outage
    reuses = (1, 3, 7)
    w_cells = {w: _FORMATS[int] % w + "," for w in reuses}
    table, diag_text, switch_notes = [], [], []
    for scheme_name in config.schemes:
        scheme = PilotScheme.parse(scheme_name)
        moments = {
            w: cap.tier1_moments(
                config.geometry, scheme, config.pilot_budget, w, config.circle_mode,
                tier_count=config.tier_count,
            )
            for w in reuses
        }
        for alpha in config.qos.alphas:
            qos = grid._replace(outage=alpha)
            per_w = [
                cap.capacity_for_reuse(scheme, qos, config.pilot_budget, w, moments[w])
                for w in reuses
            ]
            best = cap.best_reuse(per_w)
            chosen = best.chosen_reuse.tolist()
            prefix = (sir_cells, itertools.repeat(f",{_FORMATS[float] % alpha},{scheme_name},"))
            if diagnostics is None:
                cells = _shared_cells(best)
            else:
                per_w_cells = dict(zip(reuses, map(_shared_cells, per_w)))
                cells = [per_w_cells[w][i] for i, w in enumerate(chosen)]
                pieces = []
                for rep in per_w:
                    leads = [w_cells[rep.chosen_reuse] + _FORMATS[int] % f + "," for f in (0, 1)]
                    tail = itertools.repeat("," + _FORMATS[int] % rep.pilot_budget + "\n")
                    feasible = map(leads.__getitem__, rep.feasible.tolist())
                    pieces += (*prefix, feasible, per_w_cells[rep.chosen_reuse], tail)
                # one line per SIR point and reuse factor, in that order
                diag_text.append("".join(itertools.chain.from_iterable(zip(*pieces))))
            pieces = (*prefix, map(w_cells.get, chosen), cells, itertools.repeat("\n"))
            table.append("".join(itertools.chain.from_iterable(zip(*pieces))))
            switch_notes += [
                f"# switch: scheme={scheme_name} alpha={alpha:.10g} "
                f"w{chosen[i - 1]}->w{chosen[i]} at {sir_db[i]:.10g} dB"
                for i in range(1, len(chosen))
                if chosen[i] != chosen[i - 1]
            ]
    out.write(_head(_header("capacity-table", config) + switch_notes, _TABLE_COLUMNS))
    out.writelines(table)
    if diagnostics is not None:
        diagnostics.write(_head(_header("capacity-table-diagnostics", config), _DIAGNOSTIC_COLUMNS))
        diagnostics.writelines(diag_text)
    return 0


def cmd_sir_cdf(config: ScenarioConfig, out) -> int:
    """Empirical and Gaussian-approximation SIR CDFs at the worst-case
    preset: reuse factor 7 with the full per-cell budget of 6 users."""
    w = 7
    geo = config.geometry.with_reuse(w)
    k = config.pilot_budget // w
    if k < 1:
        raise ConfigError(f"sir-cdf needs pilots.budget >= {w} (one user per cell at reuse {w})")
    rows = []
    for scheme_name in config.schemes:
        scheme = PilotScheme.parse(scheme_name)
        samples = sample_sir_limit(
            geo,
            scheme,
            k,
            trials=config.trials,
            seed=config.seed,
            pilot_dim=config.pilot_budget // w,
            region=config.region,
            max_tier=config.tier_count,
            workers=config.workers,
        )
        moments = cap.tier1_moments(
            geo, scheme, config.pilot_budget, w, config.circle_mode,
            tier_count=config.tier_count,
        )
        per_cell = k if scheme is PilotScheme.DIFFERENT_SETS else 1
        gi = intf.total_interference([(count * per_cell, tm) for count, tm in moments])
        n = len(samples)
        step = max(1, n // 1000)
        idx = np.arange(step - 1, n, step)
        sirs = samples.sorted_samples[idx]
        cdf = (idx + 1) / n
        approx = intf.sir_outage_gaussian(sirs, gi)
        # both curves of a scheme share their sir_db cells
        sir_cells = [_FORMATS[float] % s for s in (10.0 * np.log10(sirs)).tolist()]
        rows += zip([f"{scheme_name}-empirical"] * len(idx), sir_cells, cdf.tolist())
        rows += zip([f"{scheme_name}-approx"] * len(idx), sir_cells, approx.tolist())
    _write_rows(out, _header("sir-cdf", config), _SIR_CDF_COLUMNS, rows)
    return 0


def cmd_finite_m_table(config: ScenarioConfig, out) -> int:
    schemes = [PilotScheme.parse(name) for name in config.schemes]
    result = empirical_capacity_search(
        config.geometry,
        schemes,
        [QosTarget.from_db(sir_db, alpha) for _, sir_db, alpha in _QOS_PRESETS],
        trials=config.finite_m_trials,
        seed=config.seed,
        finite_m=config.finite_m,
        max_tier=config.tier_count,
        workers=config.workers,
    )
    rows = []
    for scheme_name, scheme in zip(config.schemes, schemes):
        for i, (label, sir_db, alpha) in enumerate(_QOS_PRESETS):
            w, k = result.best[scheme, i]
            outage, interval = result.outage_at_k[scheme, i, w]
            per_reuse = (result.per_reuse[scheme, i, r] for r in (1, 3, 7))
            rows.append((label, sir_db, alpha, scheme_name, w, k, *per_reuse, outage, *interval))
    _write_rows(out, _header("finite-m-table", config), _FINITE_M_COLUMNS, rows)
    return 0


def _validation_checks(config: ScenarioConfig):
    """Yield (name, passed, detail) for the invariant suite.

    These are quick runtime checks.  The acceptance suite takes its
    pilot-completeness and pilot-weighting-identity verdicts from here, but
    keeps its own independent oracles for the closed form (a brentq root
    solve) and the disc-moment series (10^7 streamed samples).
    """
    rng = np.random.default_rng(config.seed)
    kdim = config.pilot_budget

    # pilot completeness: correlations of one pilot against a full book sum to 1
    book = generate_pilot_book(PilotScheme.DIFFERENT_SETS, kdim, 2, rng)
    probe = book.matrices[0][:, book.assignments[0][kdim - 1]]
    total = sum(cross_correlation(probe, book.matrices[1][:, j]) for j in range(kdim))
    err = abs(total - 1.0)
    tol = 1e-10
    yield "pilot-completeness", err <= tol, f"|sum(phi)-1|={err:.3e} tol={tol:.3e}"

    # inverse Q round trip
    zs = np.linspace(0.0, 6.0, 61)
    err = max(abs(intf.q_inverse(float(intf.q_function(z))) - z) for z in zs)
    tol = 1e-8
    yield "q-inverse-roundtrip", err <= tol, f"max|err|={err:.3e} tol={tol:.3e}"

    # closed-form effective interference vs numeric root of the equality
    worst = 0.0
    for mu in (1e-4, 1e-2, 0.5):
        for var_ratio in (0.1, 1.0, 10.0):
            for sir_db in (0.0, 10.0, 25.0):
                for alpha in (0.005, 0.05, 0.2):
                    gi = intf.GaussianInterference(mu, var_ratio * mu * mu)
                    qos = QosTarget.from_db(sir_db, alpha)
                    y_e = cap.effective_interference(gi, qos)
                    n_root = cap.root_interferer_count(gi, qos)
                    ref = 1.0 / (n_root * qos.min_sir_linear)
                    worst = max(worst, abs(y_e - ref) / ref)
    tol = 1e-9
    yield "closed-form-vs-root", worst <= tol, f"max rel err={worst:.3e} tol={tol:.3e}"

    # pilot-weighting identities (different sets, default variance form), at
    # reuse 1, where the pilot dimension is the whole budget
    scheme = PilotScheme.DIFFERENT_SETS
    geo = config.geometry.with_reuse(1)
    moments = cap.tier1_moments(geo, scheme, config.pilot_budget, 1, config.circle_mode)
    _count, tm = moments[0]
    id_err = max(
        abs(tm.mu_y * kdim - tm.mu_x) / tm.mu_x,
        abs(tm.var_y * kdim * kdim - (2.0 * tm.var_x + tm.mu_x**2)) / (2.0 * tm.var_x + tm.mu_x**2),
    )
    tol = 1e-13
    yield "pilot-weighting-identities", id_err <= tol, f"max rel err={id_err:.3e} tol={tol:.3e}"

    # the series moments of that tier vs direct Monte Carlo over its disc
    spec = tier_specs(geo, 1)[0]
    patch = cap.circle_approximation(geo, spec, config.circle_mode)
    n = 1_000_000
    (r,), (th,) = sample_circle_position(patch.circle_radius_m, [rng], n)
    x = intf.interference_ratio(r, th, patch.separation_m, config.geometry.path_loss_exponent)
    mu_hat = float(x.mean())
    se_mu = float(x.std(ddof=1)) / math.sqrt(n)
    dev = abs(tm.mu_x - mu_hat)
    tol = 4.0 * se_mu
    yield "quadrature-vs-sampling", dev <= tol, f"|mu-mc|={dev:.3e} tol={tol:.3e}"

    # moments strictly decreasing in separation
    mus = []
    for frac in (1.0, 1.3, 1.6):
        p = intf.CirclePatch(patch.circle_radius_m, patch.separation_m * frac)
        mus.append(
            intf.compute_tier_moments(p, config.geometry.path_loss_exponent, kdim, scheme).mu_x
        )
    ok = mus[0] > mus[1] > mus[2]
    yield "moment-monotonicity", ok, f"mu_x over growing separation: {[f'{m:.3e}' for m in mus]}"


def cmd_validate(config: ScenarioConfig, out) -> int:
    failures = 0
    for line in _header("validate", config):
        print(line, file=out)
    for name, passed, detail in _validation_checks(config):
        status = "PASS" if passed else "FAIL"
        if not passed:
            failures += 1
        print(f"{status}: {name} ({detail})", file=out)
    print(f"# {'OK' if failures == 0 else f'{failures} check(s) failed'}", file=out)
    return 0 if failures == 0 else 1


_USAGE = "usage: mimocap COMMAND CONFIG [--set SECTION.KEY=VALUE]... [--out PATH] [--diagnostics PATH]"
_HELP = f"""{_USAGE}

commands:
  capacity-table   analytic k_u / k_max sweep over the QoS grid
  sir-cdf          empirical vs Gaussian-approximation SIR CDFs (w=7 preset)
  finite-m-table   admissible users per cell from the finite-M simulator
  validate         self-check suite (oracles, identities, round trips)

options, anywhere after COMMAND, as --opt VALUE or --opt=VALUE:
  --set SECTION.KEY=VALUE  override one config value (repeatable)
  --out PATH               output path, '-' (stdout) by default
  --diagnostics PATH       capacity-table only: also write per-reuse-factor rows here
  -h, --help               show this help"""
_COMMANDS = ("capacity-table", "sir-cdf", "finite-m-table", "validate")
# option: (default, the commands that take it); a tuple default collects every value, else the last counts
_OPTIONS = {"--set": ((), _COMMANDS), "--out": ("-", _COMMANDS), "--diagnostics": (None, _COMMANDS[:1])}


def _parse(argv):
    """(command, config path, {option: value}) from argv, or ValueError.  Every token
    that starts with '-' but '-' (stdout) is an option, and none is abbreviated."""
    args = iter(argv)
    command = next(args, None)
    if command not in _COMMANDS:
        raise ValueError(f"COMMAND must be one of {', '.join(_COMMANDS)}")
    values, positionals = {opt: default for opt, (default, _) in _OPTIONS.items()}, []
    for arg in args:
        opt, eq, value = arg.partition("=")
        if arg == "-" or not arg.startswith("-"):
            positionals.append(arg)
            continue
        if command not in _OPTIONS.get(opt, (None, ()))[1]:
            raise ValueError(f"unrecognized option for {command}: {opt}")
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("-") and value != "-":
                raise ValueError(f"argument {opt}: expected one argument")
        values[opt] = (*values[opt], value) if isinstance(values[opt], tuple) else value
    if len(positionals) != 1:
        raise ValueError(f"expected one CONFIG, got {positionals}")
    return command, positionals[0], values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_HELP)
        return 0
    try:
        command, config_path, options = _parse(argv)
    except ValueError as exc:
        print(f"{_USAGE}\nmimocap: error: {exc}", file=sys.stderr)
        return 2
    out_path, diag_path = options["--out"], options["--diagnostics"]
    try:
        # '-' writes to /dev/stdout's file; two handles on one file would interleave rows
        if diag_path is not None and {out_path, diag_path} != {"-"}:
            real = [os.path.realpath("/dev/stdout" if p == "-" else p) for p in (out_path, diag_path)]
            if real[0] == real[1] != os.devnull:
                raise ConfigError(f"--out {out_path} and --diagnostics {diag_path} name the same file")
        config = load_config(config_path, options["--set"])
        # opened before any work, so that an unwritable path costs none
        with _open_out(out_path) as out, _open_out(diag_path) as diag:
            if command == "capacity-table":
                return cmd_capacity_table(config, out, diag)
            run = {"sir-cdf": cmd_sir_cdf, "finite-m-table": cmd_finite_m_table, "validate": cmd_validate}
            return run[command](config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
