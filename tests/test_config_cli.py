import io
import math
import os
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimocap import capacity as cap
from mimocap import cli
from mimocap import interference as intf
from mimocap import simulate
from mimocap.cli import main
from mimocap.config import _KEYS, ConfigError, QosGrid, ScenarioConfig, config_hash, load_config

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
[geometry]
cell_radius_m = 1600

[qos]
sir_db_min = 0
sir_db_max = 2
sir_db_step = 1
alphas = 0.05

[montecarlo]
trials = 500
seed = 42
"""


# one valid, non-default --set value per config key, and what it parses to
OVERRIDES = {
    ("geometry", "cell_radius_m"): ("900", 900.0),
    ("geometry", "hole_radius_m"): ("50", 50.0),
    ("geometry", "reuse_factor"): ("3", 3),
    ("geometry", "path_loss_exponent"): ("3.5", 3.5),
    ("finite_m", "antennas"): ("64", 64),
    ("finite_m", "pilot_length"): ("9", 9),
    ("finite_m", "ul_snr_db"): ("none", None),
    ("finite_m", "pilot_snr_db"): ("3", 3.0),
    ("qos", "sir_db_min"): ("0", 0.0),
    ("qos", "sir_db_max"): ("12", 12.0),
    ("qos", "sir_db_step"): ("0.5", 0.5),
    ("qos", "alphas"): ("0.01 0.05", (0.01, 0.05)),
    ("pilots", "budget"): ("21", 21),
    ("pilots", "scheme"): (" Reused", "reused"),
    ("montecarlo", "trials"): ("9", 9),
    ("montecarlo", "seed"): ("7", 7),
    ("montecarlo", "workers"): ("1", 1),
    ("finite_m", "trials"): ("300", 300),
    ("model", "circle_mode"): ("match_radius", "match_radius"),
    ("model", "tier_count"): ("2", 2),
    ("model", "region"): ("CIRCLE", "circle"),
}


def _off_by_1e6(f):
    return lambda *a: f(*a) * (1 + 1e-6)


def _mu_y_off_by_1e6(f):
    def faulty(*a):
        tm = f(*a)
        return tm._replace(mu_y=tm.mu_y * (1 + 1e-6))

    return faulty


# per validate check, a fault in a module binding that only this check calls:
# (module, name, a function of the original that returns the faulty one)
VALIDATE_FAULTS = {
    "pilot-completeness": (cli, "cross_correlation", _off_by_1e6),
    "q-inverse-roundtrip": (intf, "q_inverse", _off_by_1e6),
    "closed-form-vs-root": (cap, "root_interferer_count", _off_by_1e6),
    "pilot-weighting-identities": (cap, "compute_tier_moments", _mu_y_off_by_1e6),
    # a fault in the disc draw (interference_ratio, which the moment series
    # does not read, would do as well)
    "quadrature-vs-sampling": (
        cli, "sample_circle_position", lambda f: lambda radius, *a: f(0.99 * radius, *a)
    ),
    "moment-monotonicity": (
        intf, "compute_tier_moments", lambda f: lambda *a: f(*a)._replace(mu_x=1.0)
    ),
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(MINIMAL)
    return str(path)


@pytest.fixture
def empty_file(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[pilots]\n")
    return str(path)


class TestConfig:
    def test_load_defaults(self, config_file):
        cfg = load_config(config_file)
        assert cfg.geometry.cell_radius_m == 1600.0
        assert cfg.pilot_budget == 42
        assert cfg.scheme == "both"
        assert cfg.seed == 42
        assert cfg.qos.sir_db_values() == [0.0, 1.0, 2.0]

    def test_shipped_default_config_loads(self):
        cfg = load_config(str(CONFIGS / "default.ini"))
        assert cfg.finite_m.antennas == 500
        assert cfg.finite_m.pilot_length == 42
        assert cfg.qos.alphas == (0.05,)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL + "\n[geometry]\ncell_radiu_m = 3\n")
        with pytest.raises(ConfigError, match="malformed"):  # duplicate section
            load_config(str(path))
        path2 = tmp_path / "bad2.ini"
        path2.write_text("[geometry]\ntypo_key = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(path2))

    def test_malformed_file_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        for text in ("budget = 42\n", "[qos]\nalphas = 5%\n", "[pilots]\nbudget = 1\nbudget = 2\n"):
            path.write_text(text)
            with pytest.raises(ConfigError, match="malformed"):
                load_config(str(path))
        path.write_bytes(b"\xff\xfe[pilots]\n")  # not text in any UTF encoding
        with pytest.raises(ConfigError, match="malformed"):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.ini")

    def test_overrides(self, config_file):
        cfg = load_config(config_file, ("montecarlo.seed=7", "pilots.scheme=reused"))
        assert cfg.seed == 7
        assert cfg.scheme == "reused"
        with pytest.raises(ConfigError, match="override"):
            load_config(config_file, ("notakey",))
        with pytest.raises(ConfigError, match="unknown override"):
            load_config(config_file, ("geometry.bogus=1",))

    def test_alpha_parsing_and_validation(self, config_file):
        cfg = load_config(config_file, ("qos.alphas=0.05, 0.01 0.005",))
        assert cfg.qos.alphas == (0.05, 0.01, 0.005)
        with pytest.raises(ConfigError):
            load_config(config_file, ("qos.alphas=0.9",))
        with pytest.raises(ConfigError):
            load_config(config_file, ("qos.alphas= ",))

    def test_empty_qos_grid_rejected(self):
        with pytest.raises(ConfigError):
            QosGrid(sir_db_min=0.0, sir_db_max=1.0, sir_db_step=0.5, alphas=())
        with pytest.raises(ConfigError):
            QosGrid(sir_db_min=0.0, sir_db_max=1.0, sir_db_step=-1.0, alphas=(0.05,))

    def test_snr_none_parsing(self, config_file):
        cfg = load_config(config_file, ("finite_m.ul_snr_db=none",))
        assert cfg.finite_m.ul_snr_db is None

    def test_geometry_validation_becomes_config_error(self, config_file):
        with pytest.raises(ConfigError, match="reuse"):
            load_config(config_file, ("geometry.reuse_factor=4",))

    def test_workers_capped_at_cpu_count(self, config_file):
        # checked at load time, so no process pool is ever started
        assert load_config(config_file, (f"montecarlo.workers={os.cpu_count()}",)).workers > 0
        with pytest.raises(ConfigError, match="workers"):
            load_config(config_file, (f"montecarlo.workers={os.cpu_count() + 1}",))
        with pytest.raises(ConfigError, match="workers"):
            load_config(config_file, ("montecarlo.workers=-1",))

    def test_seed_within_the_philox_key(self, empty_file, capsys):
        # trial_rng keeps a seed's low 64 bits: -1 and 2^64 + 1 would repeat
        # the streams of 2^64 - 1 and 1 under another config hash
        for seed in (0, 2**64 - 1):
            assert load_config(empty_file, (f"montecarlo.seed={seed}",)).seed == seed
        for seed in (-1, 2**64, 2**64 + 1):
            with pytest.raises(ConfigError, match="montecarlo.seed"):
                load_config(empty_file, (f"montecarlo.seed={seed}",))
        assert main(["validate", empty_file, "--set", "montecarlo.seed=-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: montecarlo.seed must lie in [0, 2^64)"]

    def test_defaults_live_in_the_dataclasses(self, empty_file):
        assert load_config(empty_file) == ScenarioConfig()
        assert load_config(str(CONFIGS / "default.ini")) == ScenarioConfig()

    @pytest.mark.parametrize("section,key", list(_KEYS))
    def test_each_key_reaches_its_field(self, empty_file, section, key):
        raw, value = OVERRIDES[section, key]
        name, sub, _parse = _KEYS[section, key]
        expected = ScenarioConfig()
        if sub is None:
            expected = expected._replace(**{name: value})
        else:
            nested = getattr(expected, name)._replace(**{sub: value})
            expected = expected._replace(**{name: nested})
        assert expected != ScenarioConfig()
        assert load_config(empty_file, (f"{section}.{key}={raw}",)) == expected

    def test_shipped_config_hashes_are_pinned(self):
        # CSV headers carry these; a changed hash breaks provenance of old outputs
        assert config_hash(load_config(str(CONFIGS / "default.ini"))) == "1e1d52dabb117199"
        assert config_hash(load_config(str(CONFIGS / "smoke.ini"))) == "a710e9501e977d39"
        # every field of the three nested records off its default
        nested = (
            "geometry.cell_radius_m=1000",
            "geometry.hole_radius_m=50",
            "geometry.reuse_factor=3",
            "geometry.path_loss_exponent=3.5",
            "finite_m.antennas=128",
            "finite_m.pilot_length=21",
            "finite_m.ul_snr_db=5.5",
            "finite_m.pilot_snr_db=none",
            "qos.sir_db_min=-10",
            "qos.sir_db_max=30",
            "qos.sir_db_step=0.5",
            "qos.alphas=0.01, 0.1",
            "montecarlo.seed=7",
        )
        config = load_config(str(CONFIGS / "default.ini"), nested)
        default = ScenarioConfig()
        for name, sub, _parse in _KEYS.values():
            if sub is not None:
                assert getattr(getattr(config, name), sub) != getattr(getattr(default, name), sub)
        assert config_hash(config) == "30c5f112afcc55cf"

    @pytest.mark.parametrize(
        "override",
        [
            "qos.sir_db_max=inf",
            "qos.sir_db_min=nan",
            "geometry.cell_radius_m=1e999",
            "geometry.path_loss_exponent=nan",
            "finite_m.ul_snr_db=nan",
            "finite_m.pilot_snr_db=-inf",
        ],
    )
    def test_non_finite_floats_rejected(self, empty_file, override):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(empty_file, (override,))

    def test_snr_inf_still_disables_noise(self, empty_file):
        assert load_config(empty_file, ("finite_m.pilot_snr_db=inf",)).finite_m.pilot_snr_db is None

    def test_db_and_radius_bounds_are_inclusive(self, empty_file):
        cfg = load_config(
            empty_file,
            (
                "qos.sir_db_min=-1000",
                "qos.sir_db_max=1000",
                "qos.sir_db_step=1",
                "finite_m.ul_snr_db=1000",
                "finite_m.pilot_snr_db=-1000",
                "geometry.cell_radius_m=1e7",
            ),
        )
        assert (cfg.qos.sir_db_min, cfg.qos.sir_db_max) == (-1000.0, 1000.0)
        assert load_config(empty_file, ("geometry.cell_radius_m=1e-3", "geometry.hole_radius_m=0"))

    def test_hole_radius_within_the_inradius(self, empty_file):
        # a hole just inside the cell edge left the hexagon sampler nothing
        # to keep; the inradius itself is accepted
        inradius = math.sqrt(3.0) / 2.0 * 1600.0
        assert load_config(empty_file, (f"geometry.hole_radius_m={inradius!r}",))
        for hole in (math.nextafter(inradius, math.inf), 1599.9999):
            with pytest.raises(ConfigError, match="hole radius"):
                load_config(empty_file, (f"geometry.hole_radius_m={hole!r}",))

    def test_sir_grid_size_bounded_before_it_is_built(self, empty_file):
        # a step of 2^-7 dB keeps the end points exact and within the double
        # range in linear scale
        grid = ("qos.sir_db_min=0", "qos.sir_db_step=0.0078125")
        cfg = load_config(empty_file, grid + ("qos.sir_db_max=781.2421875",))
        assert len(cfg.qos.sir_db_values()) == 100_000
        for extra in (("qos.sir_db_max=781.25",), ("qos.sir_db_step=1e-9",)):
            with pytest.raises(ConfigError, match="SIR points"):
                load_config(empty_file, grid + extra)
        with pytest.raises(ConfigError, match="SIR points"):
            load_config(empty_file, ("qos.sir_db_min=-1e308", "qos.sir_db_max=1e308"))

    @pytest.mark.parametrize(
        "largest,too_large",
        [
            (("pilots.budget=10000",), ("pilots.budget=10001",)),
            (
                ("finite_m.pilot_length=10000", "finite_m.trials=4200"),
                ("finite_m.pilot_length=10001", "finite_m.trials=1"),
            ),
            (("montecarlo.trials=10000000",), ("montecarlo.trials=10000001",)),
            (
                ("finite_m.pilot_length=42", "finite_m.trials=1000000"),
                ("finite_m.pilot_length=42", "finite_m.trials=1000001"),
            ),
            (("model.tier_count=50",), ("model.tier_count=51",)),
        ],
    )
    def test_sizes_bounded_at_load_time(self, empty_file, largest, too_large):
        # loaded only: none of these configs is ever run
        load_config(empty_file, largest)
        with pytest.raises(ConfigError, match="must be <="):
            load_config(empty_file, too_large)

    def test_sampler_block_bounded_jointly(self, empty_file):
        # loaded only: 64 trials x cells x users per block; each key alone
        # is within its own bound.  Tier 2 has 13 cells with the centre,
        # and 64 x 13 x 6009 <= 5e6 < 64 x 13 x 6010.
        load_config(empty_file, ("model.tier_count=50",))
        load_config(
            empty_file, ("model.tier_count=2", "finite_m.pilot_length=6009", "finite_m.trials=1000")
        )
        load_config(empty_file, ("model.tier_count=2", "pilots.budget=6009"))
        for too_large in (
            ("model.tier_count=2", "finite_m.pilot_length=6010", "finite_m.trials=1000"),
            ("model.tier_count=2", "pilots.budget=6010"),
            ("model.tier_count=50", "finite_m.pilot_length=10000", "finite_m.trials=4200"),
        ):
            with pytest.raises(ConfigError, match="sampler block .* must be <="):
                load_config(empty_file, too_large)
        # exit 2 before any command runs
        argv = ["capacity-table", empty_file, "--set", "model.tier_count=50"]
        assert main([*argv, "--set", "pilots.budget=200", "--out", os.devnull]) == 2

    def test_scenario_built_once_per_load(self, config_file, monkeypatch):
        # the cell-counting bound runs once per ScenarioConfig build
        from mimocap import config

        real, calls = config.cochannel_cells, []
        monkeypatch.setattr(config, "cochannel_cells", lambda *a: calls.append(a) or real(*a))
        load_config(config_file, ("geometry.reuse_factor=3", "model.tier_count=2"))
        assert len(calls) == 1

    def test_hash_stability(self, config_file, empty_file):
        a = config_hash(load_config(config_file))
        b = config_hash(load_config(config_file))
        assert a == b and len(a) == 16
        c = config_hash(load_config(config_file, ("montecarlo.seed=9",)))
        assert c != a
        # each key's non-default value moves the hash off the default's, and
        # off that of every other single-key change
        hashes = {config_hash(load_config(empty_file))}
        for (section, key), (raw, _value) in OVERRIDES.items():
            hashes.add(config_hash(load_config(empty_file, (f"{section}.{key}={raw}",))))
        assert len(hashes) == len(OVERRIDES) + 1 == 22


class TestCli:
    def test_capacity_table_single_point(self, config_file, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = main(
            [
                "capacity-table",
                config_file,
                "--set", "qos.sir_db_max=0",
                "--set", "pilots.scheme=different",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert any("config-hash" in c for c in comments)
        assert any("seed" in c for c in comments)
        assert rows[0].startswith("sir_db,")
        assert len(rows) == 2  # header + one grid point

    def test_capacity_table_byte_identical_reruns(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["capacity-table", config_file, "--set", "qos.sir_db_max=1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--diagnostics", str(tmp_path / "d.csv")]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_capacity_table_switch_comments_and_diagnostics(self, config_file, tmp_path):
        out = tmp_path / "table.csv"
        diag = tmp_path / "diag.csv"
        rc = main(
            [
                "capacity-table",
                config_file,
                "--set", "qos.sir_db_min=-2",
                "--set", "qos.sir_db_max=12",
                "--set", "qos.sir_db_step=0.5",
                "--set", "pilots.scheme=reused",
                "--out", str(out),
                "--diagnostics", str(diag),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "# switch: scheme=reused" in text
        diag_rows = [l for l in diag.read_text().splitlines() if not l.startswith("#")]
        # header + 3 reuse factors per grid point
        assert len(diag_rows) == 1 + 3 * 29

    def test_sir_cdf_curves(self, config_file, tmp_path):
        out = tmp_path / "cdf.csv"
        rc = main(
            [
                "sir-cdf",
                config_file,
                "--set", "montecarlo.trials=2000",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        curves = {r.split(",")[0] for r in rows[1:]}
        assert curves == {
            "reused-empirical",
            "reused-approx",
            "different-empirical",
            "different-approx",
        }

    def test_sir_cdf_single_scheme_and_seed_behavior(self, config_file, tmp_path):
        base = [
            "sir-cdf", config_file,
            "--set", "montecarlo.trials=1500",
            "--set", "pilots.scheme=reused",
        ]
        out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--set", "montecarlo.seed=999", "--out", str(out2)]) == 0

        def curves(path):
            rows = [l.split(",") for l in path.read_text().splitlines() if not l.startswith("#")][1:]
            emp = [(r[1], r[2]) for r in rows if r[0] == "reused-empirical"]
            app = [r[2] for r in rows if r[0] == "reused-approx"]
            return emp, app

        emp1, app1 = curves(out1)
        emp2, app2 = curves(out2)
        assert emp1 != emp2  # different seeds, different samples
        # the analytic curve is evaluated at the empirical quantiles, so
        # compare values only through the model: same Gaussian parameters
        assert len(app1) == len(app2)

    def test_finite_m_table_smoke(self, config_file, tmp_path):
        out = tmp_path / "finite.csv"
        rc = main(
            [
                "finite-m-table",
                config_file,
                "--set", "finite_m.antennas=16",
                "--set", "finite_m.trials=40",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 8  # header + 4 QoS x 2 schemes

    @pytest.mark.parametrize("reuse", [1, 3, 7])  # its checks read reuse 1 moments
    def test_validate_passes(self, config_file, tmp_path, reuse):
        out = tmp_path / "validate.txt"
        rc = main(["validate", config_file, "--set", f"geometry.reuse_factor={reuse}", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "PASS: pilot-completeness" in text
        assert "FAIL" not in text

    @pytest.mark.parametrize("check", list(VALIDATE_FAULTS))
    def test_validate_fails_the_check_whose_code_is_faulty(
        self, check, config_file, tmp_path, monkeypatch
    ):
        module, name, fault = VALIDATE_FAULTS[check]
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        out = tmp_path / "validate.txt"
        assert main(["validate", config_file, "--out", str(out)]) == 1
        lines = out.read_text().splitlines()
        verdicts = {line.split()[1]: line.split()[0] for line in lines if not line.startswith("#")}
        assert verdicts == {c: "FAIL:" if c == check else "PASS:" for c in VALIDATE_FAULTS}
        assert lines[-1] == "# 1 check(s) failed"

    @pytest.mark.parametrize(
        "command,option",
        [
            ("capacity-table", "--out"),
            ("capacity-table", "--diagnostics"),
            ("sir-cdf", "--out"),
            ("finite-m-table", "--out"),
            ("validate", "--out"),
        ],
    )
    def test_unwritable_output_is_config_error(
        self, command, option, config_file, tmp_path, capsys, monkeypatch
    ):
        # every output is opened before any work, so none is done
        def work(*args, **kwargs):
            raise AssertionError("work done before the outputs were opened")

        for module, name in (
            (cli, "empirical_capacity_search"), (cli, "sample_sir_limit"),
            (cap, "tier1_moments"), (cli, "_validation_checks"),
        ):
            monkeypatch.setattr(module, name, work)
        path, out = tmp_path / "missing" / "out.csv", tmp_path / "out.csv"
        sets = ["--set", "finite_m.antennas=16", "--set", "finite_m.trials=40"]
        assert main([command, config_file, *sets, "--out", str(out), option, str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot write {path}: ")
        assert not path.parent.exists()
        assert not out.exists() if option == "--out" else out.read_text() == ""

    @pytest.mark.parametrize(
        "form", ["same-path", "dotted-path", "symlink", "existing-file", "stdout-by-path"]
    )
    def test_out_and_diagnostics_on_one_file_is_config_error(
        self, form, config_file, tmp_path, capsys, monkeypatch
    ):
        # two handles on one file would interleave and overwrite the rows, so
        # the call is refused before any output is opened or work done; '-'
        # is the file that /dev/stdout names
        def work(*args, **kwargs):
            raise AssertionError("work done before the outputs were checked")

        for module, name in (
            (cli, "load_config"), (cli, "empirical_capacity_search"), (cli, "sample_sir_limit"),
            (cap, "tier1_moments"), (cli, "_validation_checks"),
        ):
            monkeypatch.setattr(module, name, work)
        out = tmp_path / "table.csv"
        diag = {
            "same-path": out,
            "dotted-path": tmp_path / "sub" / ".." / "table.csv",
            "symlink": tmp_path / "link.csv",
            "existing-file": out,
            "stdout-by-path": "-",
        }[form]
        if form == "stdout-by-path":
            if not os.path.exists("/dev/stdout"):
                pytest.skip("no /dev/stdout on this platform")
            out = "/dev/stdout"
        if form == "symlink":
            diag.symlink_to(out)
        if form == "existing-file":
            out.write_text("kept\n")
        argv = ["capacity-table", config_file, "--out", str(out), "--diagnostics", str(diag)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: --out {out} and --diagnostics {diag} name the same file"]
        if form != "stdout-by-path":
            assert out.read_text() == "kept\n" if form == "existing-file" else not out.exists()

    def test_out_and_diagnostics_on_stdout_or_the_null_device_are_allowed(self, config_file, capsys):
        # both to stdout ('-') give one stream, the table then the
        # diagnostics; both to the null device write nothing
        argv = ["capacity-table", config_file, "--set", "qos.sir_db_max=1"]
        assert main([*argv, "--out", os.devnull, "--diagnostics", os.devnull]) == 0
        assert capsys.readouterr().out == ""
        assert main([*argv, "--out", "-", "--diagnostics", "-"]) == 0
        text = capsys.readouterr().out
        assert text.index("# mimocap capacity-table\n") < text.index("# mimocap capacity-table-diagnostics\n")

    def test_finite_m_table_both_schemes_is_reused_then_different(self, config_file, tmp_path):
        # byte for byte apart from the config hash, whichever pass serves it
        sets = ["--set", "finite_m.antennas=16", "--set", "finite_m.trials=60"]
        tables = {}
        for scheme in ("both", "reused", "different"):
            out = tmp_path / f"{scheme}.csv"
            args = [*sets, "--set", f"pilots.scheme={scheme}", "--out", str(out)]
            assert main(["finite-m-table", config_file, *args]) == 0
            lines = out.read_bytes().splitlines(keepends=True)
            tables[scheme] = [line for line in lines if not line.startswith(b"# config-hash: ")]
        head = 4  # three comment lines and the column names
        assert len(tables["reused"]) == len(tables["different"]) == head + 4
        assert tables["reused"][:head] == tables["different"][:head]
        assert tables["both"] == tables["reused"] + tables["different"][head:]

    @pytest.mark.parametrize("scheme", ["both", "reused", "different"])
    def test_finite_m_table_runs_one_search_of_one_pass_per_reuse_factor(
        self, config_file, monkeypatch, scheme
    ):
        # one search takes every scheme and QoS preset, and runs the blocks
        # of one pass per reuse factor with a pilot budget
        searches, passes = [], []
        empirical_capacity_search, run_blocks = cli.empirical_capacity_search, simulate._run_blocks

        def counted_search(*args, **kwargs):
            searches.append(args)
            return empirical_capacity_search(*args, **kwargs)

        def counted_run_blocks(run_fn, scn, *args):
            passes.append(scn.geometry.reuse_factor)
            return run_blocks(run_fn, scn, *args)

        monkeypatch.setattr(cli, "empirical_capacity_search", counted_search)
        monkeypatch.setattr(simulate, "_run_blocks", counted_run_blocks)
        sets = ["--set", "finite_m.antennas=16", "--set", "finite_m.trials=60"]
        for pilot_length, reuses in ((42, [1, 3, 7]), (6, [1, 3])):
            searches.clear()
            passes.clear()
            args = [*sets, "--set", f"finite_m.pilot_length={pilot_length}"]
            args += ["--set", f"pilots.scheme={scheme}", "--out", os.devnull]
            assert main(["finite-m-table", config_file, *args]) == 0
            assert len(searches) == 1 and passes == reuses

    def test_sir_cdf_budget_below_reuse7_is_config_error(self, config_file, capsys):
        # reuse 7 leaves 6 // 7 = 0 pilots per cell
        assert main(["sir-cdf", config_file, "--set", "pilots.budget=6"]) == 2
        assert "pilots.budget" in capsys.readouterr().err

    def test_ring_count_is_not_a_config_key(self, config_file, capsys):
        # every command draws the first model.tier_count tiers
        assert main(["validate", config_file, "--set", "geometry.ring_count=3"]) == 2
        assert "geometry.ring_count" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["capacity-table", "/does/not/exist.ini"]) == 2
        bad = tmp_path / "bad.ini"
        bad.write_text("[mystery]\nx = 1\n")
        assert main(["validate", str(bad)]) == 2
        bad.write_text("budget = 42\n")  # no section header
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    @pytest.mark.parametrize(
        "command,overrides",
        [
            ("capacity-table", ("qos.sir_db_min=4000", "qos.sir_db_max=4001")),
            ("capacity-table", ("qos.sir_db_min=-4000", "qos.sir_db_max=-3999")),
            ("finite-m-table", ("finite_m.ul_snr_db=4000",)),
            ("finite-m-table", ("finite_m.ul_snr_db=-4000",)),
            ("finite-m-table", ("finite_m.pilot_snr_db=-4000",)),
            # linear values that are positive finite doubles, yet overflow
            # further on: the CSV's n_max, y_E through z, a_noise^2
            ("capacity-table", ("qos.sir_db_min=-3070", "qos.sir_db_max=-3069")),
            ("capacity-table", ("qos.sir_db_min=-3200", "qos.sir_db_max=-3199")),
            ("finite-m-table", ("finite_m.pilot_snr_db=-3100",)),
        ],
    )
    def test_db_values_without_a_linear_double_are_config_errors(self, command, overrides, capsys):
        # every dB setting must lie within +-1000 dB: rejected at load time
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main([command, str(CONFIGS / "smoke.ini"), *sets, "--out", os.devnull]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    @pytest.mark.parametrize(
        "overrides",
        [
            ("geometry.cell_radius_m=1e308",),  # its squares overflow
            ("geometry.cell_radius_m=1e-320", "geometry.hole_radius_m=0"),  # subnormal
        ],
    )
    def test_extreme_cell_radius_is_config_error(self, overrides, capsys):
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main(["capacity-table", str(CONFIGS / "smoke.ini"), *sets, "--out", os.devnull]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cell radius")

    @pytest.mark.parametrize("gamma", ["1000", "1e308"])  # moments underflow; the series fails
    def test_extreme_path_loss_exponent_is_config_error(self, gamma, empty_file, capsys):
        out = ["--out", os.devnull]
        sets = ["--set", f"geometry.path_loss_exponent={gamma}"]
        assert main(["capacity-table", str(CONFIGS / "smoke.ini"), *sets, *out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: path loss exponent")
        assert load_config(empty_file, ("geometry.path_loss_exponent=10",))


def _csv_rows(path) -> list[dict]:
    """The rows of a CSV output as {column: cell text}."""
    names, *rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [dict(zip(names.split(","), row.split(","))) for row in rows]


class TestCapacityTableFiles:
    SHARED = ("k_u", "k_max", "y_e", "n_max")
    # to 60 dB at two tiers: w_best switches 1 -> 3 -> 7, and back to 1 where
    # no reuse factor admits anyone
    GRID = (
        "qos.sir_db_min=-5", "qos.sir_db_max=60", "qos.sir_db_step=0.5",
        "qos.alphas=0.001,0.05,0.2", "model.tier_count=2",
    )

    def test_table_cells_are_the_diagnostics_cells_at_w_best(self, tmp_path):
        out, diag = tmp_path / "table.csv", tmp_path / "diag.csv"
        sets = [arg for item in self.GRID for arg in ("--set", item)]
        argv = ["capacity-table", str(CONFIGS / "default.ini"), *sets]
        assert main([*argv, "--out", str(out), "--diagnostics", str(diag)]) == 0
        per_w = {}
        for row in _csv_rows(diag):
            per_w.setdefault((row["sir_db"], row["alpha"], row["scheme"]), {})[int(row["w"])] = row
        table = _csv_rows(out)
        assert len(table) == len(per_w) == 131 * 3 * 2
        for row in table:
            rows = per_w[row["sir_db"], row["alpha"], row["scheme"]]
            assert sorted(rows) == [1, 3, 7]
            # the smallest w with the largest k_max
            top = max(int(r["k_max"]) for r in rows.values())
            w_best = min(w for w, r in rows.items() if int(r["k_max"]) == top)
            assert int(row["w_best"]) == w_best
            assert [row[c] for c in self.SHARED] == [rows[w_best][c] for c in self.SHARED]
        # the grid reaches what the check is for
        assert {row["w_best"] for row in table} == {"1", "3", "7"}
        assert any(row["k_max"] == "0" for row in table)
        assert {r["feasible"] for rows in per_w.values() for r in rows.values()} == {"0", "1"}
        assert out.read_text().count("# switch: ") > 2 * 3 * 2

    @pytest.mark.parametrize("tier_count", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["reused", "different", "both"])
    def test_table_bytes_do_not_depend_on_diagnostics(self, scheme, tier_count, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "capacity-table", str(CONFIGS / "default.ini"),
            "--set", f"pilots.scheme={scheme}", "--set", f"model.tier_count={tier_count}",
            "--set", "qos.alphas=0.001,0.005,0.01,0.05,0.2",
        ]
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2), "--diagnostics", str(tmp_path / "d.csv")]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def _per_cell_format(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


_CELLS = {
    float: st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from([-0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 0.1, 1e22]),
    ),
    int: st.integers(),
    str: st.text(),
}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from([float, int, str]), min_size=1, max_size=6))
    columns = tuple((f"c{i}", kind) for i, kind in enumerate(kinds))
    row = st.tuples(*(_CELLS[kind] for kind in kinds))
    return columns, draw(st.lists(row, max_size=20))


class TestCsvWriter:
    @given(table=_tables(), comments=st.lists(st.text(), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_template_matches_per_cell_format(self, table, comments):
        # the writer's bytes equal the per-cell format(x, ".10g") / str(x) join
        columns, rows = table
        expect = "".join(f"{line}\n" for line in comments)
        expect += ",".join(name for name, _ in columns) + "\n"
        expect += "".join(",".join(_per_cell_format(v) for v in row) + "\n" for row in rows)
        out = io.StringIO()
        cli._write_rows(out, comments, columns, rows)
        assert out.getvalue() == expect

    def test_bools_in_int_columns_write_as_digits(self):
        # the diagnostics' feasible column holds numpy bools as Python bools
        out = io.StringIO()
        cli._write_rows(out, [], (("feasible", int),), [(True,), (False,)])
        assert out.getvalue() == "feasible\n1\n0\n"


def _argparse_oracle():
    """The argparse parser the CLI used to build, kept here as an oracle."""
    import argparse

    parser = argparse.ArgumentParser(prog="mimocap")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("capacity-table", "sir-cdf", "finite-m-table", "validate"):
        p = sub.add_parser(command)
        p.add_argument("config")
        p.add_argument("--set", dest="overrides", action="append", default=[])
        p.add_argument("--out", default="-")
        if command == "capacity-table":
            p.add_argument("--diagnostics", default=None)
    return parser


class TestArgv:
    ACCEPTED = [
        ["validate", "c.ini"],
        ["validate", "-"],
        ["capacity-table", "--out", "o.csv", "c.ini"],
        ["capacity-table", "c.ini", "--out=o.csv", "--diagnostics", "d.csv"],
        ["capacity-table", "--diagnostics=d.csv", "--set", "qos.alphas=0.1", "c.ini", "--out", "-"],
        ["capacity-table", "c.ini", "--out", "-", "--diagnostics", "-"],
        ["sir-cdf", "--set", "a.b=1", "c.ini", "--set=c.d=2", "--set", "e.f=x=y"],
        ["finite-m-table", "c.ini", "--out", "a.csv", "--out", "b.csv", "--out=c.csv"],
        ["finite-m-table", "c.ini", "--out=--set", "--set=a.b="],
        ["validate", "--out=", "c.ini", "--out", "-"],
    ]
    REJECTED = [
        [],
        ["bogus", "c.ini"],
        ["--out", "o.csv", "validate", "c.ini"],
        ["validate"],
        ["validate", "--out", "o.csv"],
        ["validate", "a.ini", "b.ini"],
        ["validate", "c.ini", "--out"],
        ["validate", "c.ini", "--out", "--set", "a.b=1"],
        ["validate", "c.ini", "--set", "-x"],
        ["validate", "c.ini", "-x"],
        ["sir-cdf", "c.ini", "--diagnostics", "d.csv"],
        ["finite-m-table", "c.ini", "--diagnostics=d.csv"],
        ["capacity-table", "c.ini", "--diag", "d.csv"],  # argparse took the prefix
    ]

    @pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
    def test_accepted_argv_parses_as_argparse_did(self, argv):
        args = _argparse_oracle().parse_args(argv)
        expected = (
            args.command, args.config, tuple(args.overrides), args.out,
            getattr(args, "diagnostics", None),
        )
        command, config, options = cli._parse(argv)
        got = (command, config, options["--set"], options["--out"], options["--diagnostics"])
        assert got == expected

    @pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
    def test_rejected_argv_is_usage_error_before_the_config(self, argv, capsys, monkeypatch):
        def load(*args, **kwargs):
            raise AssertionError("load_config called on a usage error")

        monkeypatch.setattr(cli, "load_config", load)
        assert main(argv) == 2
        captured = capsys.readouterr()
        usage, error = captured.err.splitlines()
        assert captured.out == ""
        assert usage == cli._USAGE and usage.startswith("usage: mimocap ")
        assert error.startswith("mimocap: error: ")
        if "--diag" not in argv:  # unique prefixes are no longer taken
            with pytest.raises(SystemExit) as exc:
                _argparse_oracle().parse_args(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["validate", "c.ini", "--help"], ["bogus", "-h"]])
    def test_help_anywhere_prints_help_and_returns_0(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_config", None)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cli._HELP + "\n" and captured.err == ""

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["mimocap", "validate"])
        assert main() == 2
        assert capsys.readouterr().err.endswith("mimocap: error: expected one CONFIG, got []\n")
