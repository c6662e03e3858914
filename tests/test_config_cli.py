import os
import pathlib

import pytest

from mimocap.cli import main
from mimocap.config import ConfigError, QosGrid, config_hash, load_config

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


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(MINIMAL)
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
        with pytest.raises(Exception):  # configparser duplicate or ConfigError
            load_config(str(path))
        path2 = tmp_path / "bad2.ini"
        path2.write_text("[geometry]\ntypo_key = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(path2))

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

    def test_hash_stability(self, config_file):
        a = config_hash(load_config(config_file))
        b = config_hash(load_config(config_file))
        assert a == b and len(a) == 16
        c = config_hash(load_config(config_file, ("montecarlo.seed=9",)))
        assert c != a


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
        assert main(args + ["--out", str(out2)]) == 0
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

    def test_validate_passes_and_fails_on_corrupted_tolerance(self, config_file, tmp_path):
        out = tmp_path / "validate.txt"
        rc = main(["validate", config_file, "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "PASS: pilot-completeness" in text
        assert "FAIL" not in text

        rc = main(
            [
                "validate",
                config_file,
                "--tolerance-scale", "1e-12",
                "--out", str(tmp_path / "v2.txt"),
            ]
        )
        assert rc == 1

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
        err = capsys.readouterr().err
        assert "config error" in err
