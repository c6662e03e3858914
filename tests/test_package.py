import mimocap


def test_public_names_resolve_and_star_import_succeeds():
    missing = [name for name in mimocap.__all__ if not hasattr(mimocap, name)]
    assert not missing
    namespace: dict = {}
    exec("from mimocap import *", namespace)
    assert set(mimocap.__all__) <= set(namespace)


def test_traced_names_resolve():
    # the benchmark tracer wraps these by name; one that no longer resolves
    # would read as zero calls instead of failing
    import importlib
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    deleted = {"geometry.build_layout"}  # still spanned, no longer in mimocap
    missing = []
    for qual in tracer.SPANNED + tracer.COUNTED:
        module, name = qual.split(".")
        if qual not in deleted and not hasattr(importlib.import_module(f"mimocap.{module}"), name):
            missing.append(qual)
    assert not missing


def test_library_runs_without_scipy():
    # scipy costs most of the CLI's start-up and is a test-only dependency
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    script = (
        "import os, sys\n"
        "import mimocap.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "rc = mimocap.cli.main(['capacity-table', 'configs/smoke.ini', '--out', os.devnull])\n"
        "assert rc == 0\n"
        "assert 'scipy' not in sys.modules, 'capacity-table'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_process_pools_out():
    # a pool is made only when a sampler call asks for workers
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "import mimocap.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_random_out():
    # the Philox stream key type is made on first use, so that importing
    # the CLI does not load numpy.random
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "import mimocap.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_leave_single_path_modules_out():
    # q_inverse and the Gauss-Legendre rule are computed in interference.py,
    # so neither importing the CLI nor running the analytic commands loads
    # statistics (with its fractions and decimal) or numpy.polynomial; the
    # records are NamedTuples or hand-written classes, so no command loads
    # dataclasses
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    script = (
        "import os, sys\n"
        "import mimocap.cli\n"
        "names = ('statistics', 'fractions', 'decimal', 'numpy.polynomial', 'dataclasses')\n"
        "subs = tuple(n + '.' for n in names)\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m in names or m.startswith(subs))\n"
        "print('import', loaded())\n"
        "out = ['--out', os.devnull]\n"
        "runs = (\n"
        "    ['capacity-table', '--diagnostics', os.devnull], ['sir-cdf'], ['finite-m-table'],\n"
        "    ['validate'],\n"
        ")\n"
        "for cmd, *extra in runs:\n"
        "    rc = mimocap.cli.main([cmd, 'configs/smoke.ini', *out, *extra])\n"
        "    print(cmd, rc, loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import []",
        "capacity-table 0 []",
        "sir-cdf 0 []",
        "finite-m-table 0 []",
        "validate 0 []",
    ]



def test_config_loads_without_numpy_or_the_samplers():
    # the scenario records and their bounds live in geometry, which is pure
    # Python: with the package __init__ bypassed, loading both shipped
    # configs imports neither numpy nor simulate or interference
    import os
    import pathlib
    import subprocess
    import sys

    from mimocap import geometry, simulate

    assert simulate.FiniteMConfig is geometry.FiniteMConfig is mimocap.FiniteMConfig
    root = pathlib.Path(__file__).resolve().parent.parent
    script = (
        "import sys, types\n"
        "package = types.ModuleType('mimocap')\n"
        "package.__path__ = [sys.argv[1]]\n"
        "sys.modules['mimocap'] = package\n"
        "import mimocap.config\n"
        "import mimocap.geometry\n"
        "for name in ('smoke', 'default'):\n"
        "    mimocap.config.load_config(f'configs/{name}.ini')\n"
        "names = ('numpy', 'mimocap.simulate', 'mimocap.interference')\n"
        "print(sorted(set(names) & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root / "src" / "mimocap")],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

def test_cache_keys_hash_and_compare_by_value():
    # cochannel_cells and _finite_pass are lru_caches keyed on these, so
    # equal values must hit the same entry
    from mimocap.geometry import NetworkGeometry
    from mimocap.simulate import FiniteMConfig

    for cls, change in ((NetworkGeometry, {"reuse_factor": 3}), (FiniteMConfig, {"antennas": 64})):
        a, b, c = cls(), cls(), cls(**change)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != c and len({a, b, c}) == 2


def test_records_are_immutable_and_validate():
    # every public record refuses assignment and deletion of a field, and
    # the validating ones raise the same messages as ever on a bad field
    import pickle
    import re

    import numpy as np
    import pytest

    from mimocap.config import ConfigError, QosGrid, ScenarioConfig
    from mimocap.geometry import Cell
    from mimocap.simulate import ShadowDiagnostics

    rng = np.random.default_rng(1)
    book = mimocap.generate_pilot_book(mimocap.PilotScheme.REUSED_SETS, 3, 2, rng)
    records = [
        (mimocap.CapacityReport(*[np.zeros(2)] * 7), "k_max"),
        (mimocap.CapacitySearchResult({1: 3}, {1: (0.0, (0.0, 0.1))}, 1, 3), "best_k"),
        (mimocap.CirclePatch(1.0, 2.0), "separation_m"),
        (mimocap.FiniteMConfig(), "antennas"),
        (mimocap.GaussianInterference(1.0, 0.5), "variance"),
        (mimocap.NetworkGeometry(), "reuse_factor"),
        (book, "matrices"),
        (mimocap.QosTarget(1.0, 0.05), "outage"),
        (mimocap.SirSampleSet(np.ones(3)), "samples"),
        (mimocap.TierMoments(1.0, 0.1, 0.5, 0.05), "mu_y"),
        (mimocap.TierSpec(1, 6, 10.0), "separation_m"),
        (Cell((0.0, 0.0), 1), "tier"),
        (ShadowDiagnostics({1: 1.0}, 0.5), "max_interference_ratio"),
        (QosGrid(), "alphas"),
        (ScenarioConfig(), "seed"),
    ]
    for record, name in records:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value

    bad = [
        (lambda: mimocap.NetworkGeometry(reuse_factor=2), ValueError,
         "unsupported reuse factor 2; supported: (1, 3, 7)"),
        (lambda: mimocap.NetworkGeometry().with_reuse(2), ValueError,
         "unsupported reuse factor 2; supported: (1, 3, 7)"),
        (lambda: mimocap.NetworkGeometry(hole_radius_m=-1.0), ValueError,
         "hole radius must satisfy 0 <= a_h <= sqrt(3)/2 a (the inradius)"),
        (lambda: mimocap.CirclePatch(2.0, 1.0), ValueError,
         "circle radius must be smaller than the separation"),
        (lambda: mimocap.GaussianInterference(1.0, -1.0), ValueError,
         "variance must be non-negative"),
        (lambda: mimocap.QosTarget(0.0, 0.05), ValueError, "SIR threshold must be positive"),
        (lambda: mimocap.QosTarget(1.0, 0.5), ValueError, "outage must lie in (0, 0.5)"),
        (lambda: mimocap.SirSampleSet(np.array([1.0, -1.0])), ValueError,
         "SIR samples must be positive"),
        (lambda: mimocap.FiniteMConfig(antennas=0), ValueError, "antenna count must be >= 1"),
        (lambda: mimocap.FiniteMConfig(pilot_snr_db=2000.0), ValueError,
         "pilot_snr_db = 2000 dB lies outside +-1000 dB"),
        (lambda: QosGrid(sir_db_step=0.0), ConfigError, "qos.sir_db_step must be positive"),
        (lambda: ScenarioConfig(scheme="all"), ConfigError,
         "pilots.scheme must be reused/different/both, got 'all'"),
    ]
    for build, error, message in bad:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    geometry = mimocap.NetworkGeometry()
    assert geometry.with_reuse(3) == mimocap.NetworkGeometry(reuse_factor=3)
    assert geometry.with_reuse(1) == geometry
    # a process pool pickles these inside every scenario it is sent
    for record in (geometry, mimocap.FiniteMConfig(ul_snr_db=None), ScenarioConfig(seed=5)):
        assert pickle.loads(pickle.dumps(record)) == record
