"""Every command's output on the shipped configs, pinned byte for byte.

Each case runs one CLI command in process and compares the sha256 of every
file it writes (for `validate`, of its stdout) with `pinned_outputs.json`.
On a mismatch the test names the file and its first line whose six-bit
fingerprint differs, so a moved cell is found without a second checkout.
The fingerprints skip the config hash, the one line that differs between
workers 0 and 2, so both worker counts share them.

The digests were taken with the Python and numpy versions recorded in the
JSON file; another libm or numpy build can move a last printed digit, so a
failure prints both sets of versions.  Changing a digest is a change to a
check: the change that moves bytes says which cells moved and why.

    python tests/test_outputs_pinned.py     # rewrite pinned_outputs.json

rewrites the file from the code on the path (run it with PYTHONPATH=src).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import string
import sys

import numpy as np
import pytest

from mimocap import simulate
from mimocap.cli import main

HERE = pathlib.Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
PINNED = HERE / "pinned_outputs.json"
HASH_LINE = b"# config-hash: "
FINGERPRINT_CHARS = string.ascii_letters + string.digits + "+/"

# the benchmark's analytic-sweep settings
ANALYTIC_SWEEP = ("model.tier_count=2", "qos.alphas=0.005,0.01,0.05,0.1")
# command -> {output option: file name}; validate's report goes to stdout
OUTPUTS = {
    "capacity-table": {"--out": "table.csv", "--diagnostics": "diagnostics.csv"},
    "sir-cdf": {"--out": "cdf.csv"},
    "finite-m-table": {"--out": "finite_m.csv"},
    "validate": {"--out": "stdout"},
}


def _cases():
    """(case id, the id its line fingerprints are filed under, config,
    command, --set overrides)."""
    for config in ("smoke", "default"):
        for workers in (0, 2):
            for command in OUTPUTS:
                case, family = f"{config}-w{workers}-{command}", f"{config}-{command}"
                yield case, family, config, command, (f"montecarlo.workers={workers}",)
    case = "default-analytic-sweep-capacity-table"
    yield case, case, "default", "capacity-table", ANALYTIC_SWEEP


CASES = list(_cases())


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _fingerprint(line: bytes) -> str:
    """One character for the top six bits of the line's sha256; of the
    prefix only on the config-hash line."""
    if line.startswith(HASH_LINE):
        line = HASH_LINE
    return FINGERPRINT_CHARS[hashlib.sha256(line).digest()[0] >> 2]


def _run(tmp_path, config, command, overrides) -> dict[str, bytes]:
    """The bytes of every output of one command, by file name."""
    simulate._finite_pass.cache_clear()  # each case computes its own passes
    sets = [arg for item in overrides for arg in ("--set", item)]
    argv = [command, str(CONFIGS / f"{config}.ini"), *sets]
    paths = {name: tmp_path / name for name in OUTPUTS[command].values()}
    for option, name in OUTPUTS[command].items():
        argv += [option, "-" if name == "stdout" else str(paths[name])]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return {
        name: stdout.getvalue().encode() if name == "stdout" else path.read_bytes()
        for name, path in paths.items()
    }


def _first_moved_line(data: bytes, fingerprints: str) -> str:
    lines = data.splitlines()
    for i, line in enumerate(lines):
        if _fingerprint(line) != fingerprints[i: i + 1]:
            return f"line {i + 1} moved, it now reads {line.decode()!r}"
    if len(lines) != len(fingerprints):
        return f"{len(lines)} lines, {len(fingerprints)} pinned"
    return "the config hash moved, or a line matches its fingerprint by chance"


@pytest.mark.parametrize(
    "case, family, config, command, overrides", CASES, ids=[case[0] for case in CASES]
)
def test_outputs_match_pinned_digests(case, family, config, command, overrides, tmp_path):
    if "montecarlo.workers=2" in overrides and (os.cpu_count() or 1) < 2:
        pytest.skip("montecarlo.workers=2 needs two CPUs")
    pinned = json.loads(PINNED.read_text())
    moved = [
        f"{case}/{name}: {_first_moved_line(data, pinned['lines'][f'{family}/{name}'])}"
        for name, data in _run(tmp_path, config, command, overrides).items()
        if hashlib.sha256(data).hexdigest() != pinned["sha256"][f"{case}/{name}"]
    ]
    assert not moved, (
        "\n".join(moved) + f"\npinned with {pinned['versions']}, running {_versions()}"
    )



def test_python_m_mimocap_matches_pinned_validate():
    # the package's __main__ runs the CLI: `python -m mimocap validate`
    # prints the pinned smoke-w0-validate report
    import subprocess

    root = HERE.parent
    argv = ["validate", "configs/smoke.ini", "--set", "montecarlo.workers=0", "--out", "-"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mimocap", *argv], cwd=root, env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    pinned = json.loads(PINNED.read_text())["sha256"]["smoke-w0-validate/stdout"]
    assert hashlib.sha256(proc.stdout).hexdigest() == pinned

def _pin() -> None:
    import tempfile

    digests, lines = {}, {}
    for case, family, config, command, overrides in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in _run(pathlib.Path(tmp), config, command, overrides).items():
                digests[f"{case}/{name}"] = hashlib.sha256(data).hexdigest()
                fingerprints = "".join(map(_fingerprint, data.splitlines()))
                # the worker counts of one family agree on every line
                assert lines.setdefault(f"{family}/{name}", fingerprints) == fingerprints, case
    text = json.dumps({"versions": _versions(), "sha256": digests, "lines": lines}, indent=1)
    PINNED.write_text(text + "\n")


if __name__ == "__main__":
    sys.exit(_pin())
