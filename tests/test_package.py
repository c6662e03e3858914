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
    # statistics (with its fractions and decimal) or numpy.polynomial
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    script = (
        "import os, sys\n"
        "import mimocap.cli\n"
        "names = ('statistics', 'fractions', 'decimal', 'numpy.polynomial')\n"
        "subs = tuple(n + '.' for n in names)\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m in names or m.startswith(subs))\n"
        "print('import', loaded())\n"
        "out = ['--out', os.devnull]\n"
        "runs = (['capacity-table', '--diagnostics', os.devnull], ['sir-cdf'], ['validate'])\n"
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
        "validate 0 []",
    ]


def test_cache_keys_hash_and_compare_by_value():
    # cochannel_cells and _finite_pass are lru_caches keyed on these, so
    # equal values must hit the same entry
    from mimocap.geometry import NetworkGeometry
    from mimocap.simulate import FiniteMConfig

    for cls, change in ((NetworkGeometry, {"reuse_factor": 3}), (FiniteMConfig, {"antennas": 64})):
        a, b, c = cls(), cls(), cls(**change)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != c and len({a, b, c}) == 2
