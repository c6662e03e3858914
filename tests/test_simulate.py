import concurrent.futures
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mimocap import simulate
from mimocap.capacity import tier1_moments
from mimocap.interference import QosTarget
from mimocap.pilots import PilotScheme, generate_pilot_book
from mimocap.simulate import (
    _BLOCK,
    _PLANES,
    _ROLE_SHADOW,
    FiniteMConfig,
    SirSampleSet,
    _Workspace,
    _block_bytes,
    _draw_users,
    _finite_block,
    _finite_pass,
    _limit_block,
    _run_blocks,
    _run_length,
    _scenario,
    _shadowed_ratio,
    empirical_capacity_search,
    rhombus_edges,
    sample_sir_finite_m,
    sample_sir_limit,
    sample_sir_limit_shadowed,
    trial_rng,
    wilson_interval,
)
from hexagon_points import rhombus_xy
from pilot_oracles import beta_law_var_y

SEED = 9221
# finite-M close to the limiting SIR: many antennas and no noise
NEAR_LIMIT = FiniteMConfig(antennas=100_000, ul_snr_db=None, pilot_snr_db=None)


class TestDeterminism:
    def test_limit_reproducible(self, geometry):
        a = sample_sir_limit(geometry, PilotScheme.DIFFERENT_SETS, 4, 400, SEED, pilot_dim=42)
        b = sample_sir_limit(geometry, PilotScheme.DIFFERENT_SETS, 4, 400, SEED, pilot_dim=42)
        assert np.array_equal(a.samples, b.samples)
        c = sample_sir_limit(geometry, PilotScheme.DIFFERENT_SETS, 4, 400, SEED + 1, pilot_dim=42)
        assert not np.array_equal(a.samples, c.samples)

    def test_streams_are_philox_keyed_by_seed_block_and_role(self):
        for seed, block, role in ((SEED, 0, 1), (2**64 - 1, 10**6, 4)):
            key = np.array([seed, 0], dtype=np.uint64)
            counter = np.array([0, 0, block, role], dtype=np.uint64)
            expect = np.random.Generator(np.random.Philox(key=key, counter=counter))
            assert np.array_equal(trial_rng(seed, block, role).random(100), expect.random(100))

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, s: sample_sir_limit(g, PilotScheme.DIFFERENT_SETS, 3, 10, s, pilot_dim=42),
            lambda g, s: sample_sir_limit_shadowed(g, PilotScheme.DIFFERENT_SETS, 3, 8.0, 10, s, 42),
            lambda g, s: sample_sir_finite_m(g, PilotScheme.REUSED_SETS, 3, FiniteMConfig(antennas=24), 10, s),
            lambda g, s: empirical_capacity_search(
                g, PilotScheme.DIFFERENT_SETS, QosTarget.from_db(0.0, 0.05), 10, s, FiniteMConfig(pilot_length=9)
            ),
        ],
        ids=["limit", "shadowed", "finite_m", "search"],
    )
    def test_seed_within_the_philox_key(self, geometry, call):
        # trial_rng keeps a seed's low 64 bits: -1 would repeat the streams of 2^64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
                call(geometry, seed)
        call(geometry, 2**64 - 1)

    def test_limit_worker_count_invariant(self, geometry):
        serial = sample_sir_limit(geometry, PilotScheme.REUSED_SETS, 3, 300, SEED)
        parallel = sample_sir_limit(geometry, PilotScheme.REUSED_SETS, 3, 300, SEED, workers=2)
        assert np.array_equal(serial.samples, parallel.samples)

    def test_finite_m_worker_count_invariant(self, geometry):
        for scheme in PilotScheme:
            for snr_db in (10.0, None):
                cfg = FiniteMConfig(antennas=24, ul_snr_db=snr_db, pilot_snr_db=snr_db)
                serial = sample_sir_finite_m(geometry, scheme, 3, cfg, 300, SEED)
                parallel = sample_sir_finite_m(geometry, scheme, 3, cfg, 300, SEED, workers=2)
                assert np.array_equal(serial.samples, parallel.samples)

    def test_shadow_worker_count_invariant(self, geometry):
        serial = sample_sir_limit_shadowed(geometry, PilotScheme.DIFFERENT_SETS, 3, 8.0, 300, SEED, pilot_dim=42)
        parallel = sample_sir_limit_shadowed(
            geometry, PilotScheme.DIFFERENT_SETS, 3, 8.0, 300, SEED, pilot_dim=42, workers=2
        )
        assert np.array_equal(serial.samples, parallel.samples)

    def test_shorter_run_is_a_prefix(self, geometry, rng):
        # every block draws all of its trials, the last one included
        different = PilotScheme.DIFFERENT_SETS
        book = generate_pilot_book(different, 42, 19, rng)
        cfg = FiniteMConfig(antennas=24)
        reused = PilotScheme.REUSED_SETS
        runs = [
            lambda n: sample_sir_limit(geometry, different, 3, n, SEED, pilot_dim=42).samples,
            lambda n: sample_sir_limit(geometry, different, 3, n, SEED, 42, book).samples,
            lambda n: sample_sir_limit(geometry, reused, 3, n, SEED, region="circle").samples,
            lambda n: sample_sir_limit_shadowed(geometry, different, 3, 8.0, n, SEED, 42).samples,
            lambda n: sample_sir_finite_m(geometry, different, 3, cfg, n, SEED).samples,
            lambda n: _finite_pass(geometry, FiniteMConfig(pilot_length=9), 1, n, SEED, None)[:, 1],
        ]
        for run in runs:
            assert np.array_equal(run(300)[:100], run(100))


def _sampler_outputs(geometry, book, trials, workers) -> list:
    """Samples and diagnostics of every sampler path at small loads, where
    the default run holds several blocks."""
    w7, w3 = geometry.with_reuse(7), geometry.with_reuse(3)
    cfg = FiniteMConfig(antennas=16, pilot_length=6)
    out = []
    for scheme in PilotScheme:
        for region in ("hexagon", "circle"):
            samples = sample_sir_limit(
                w7, scheme, 2, trials, SEED, 3, region=region, max_tier=1, workers=workers
            )
            out.append(samples.samples)
        for sigma_db, max_tier in ((0.0, 2), (8.0, 1)):
            samples, diag = sample_sir_limit_shadowed(
                w7, scheme, 1, sigma_db, trials, SEED, 3,
                max_tier=max_tier, workers=workers, diagnostics=True,
            )
            out += [samples.samples, diag.max_interference_ratio, diag.tier_shares]
        out.append(sample_sir_finite_m(w3, scheme, 2, cfg, trials, SEED, workers=workers).samples)
    # past the memo, so that every call draws: both planes of a search pass
    out.append(_finite_pass.__wrapped__(w3, cfg, 1, trials, SEED, workers))
    for region in ("hexagon", "circle"):
        samples = sample_sir_limit(
            w7, PilotScheme.DIFFERENT_SETS, 2, trials, SEED, 3, book, region, 1, workers
        )
        out.append(samples.samples)
    return out


def _assert_same_outputs(outputs, reference):
    assert len(outputs) == len(reference)
    for got, expect in zip(outputs, reference):
        if isinstance(expect, np.ndarray):
            assert np.array_equal(got, expect)
        else:
            assert got == expect


class TestRunsOfBlocks:
    """Runs of blocks change no draw and no evaluated trial."""

    def test_default_runs_group_several_blocks(self, geometry):
        w7 = geometry.with_reuse(7)
        scn = _scenario(w7, PilotScheme.REUSED_SETS, 2, max_tier=1, pilot_dim=3)
        assert _run_length(scn) > 1

    def test_default_call_workspace_within_run_budget(self, geometry, monkeypatch):
        # After one default call of each evaluator its workspace holds at
        # most _RUN_BYTES, or one block's worth where one block holds more.
        made = []

        class Recorded(_Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(simulate, "_Workspace", Recorded)
        different, reused = PilotScheme.DIFFERENT_SETS, PilotScheme.REUSED_SETS
        w7, cfg = geometry.with_reuse(7), FiniteMConfig()
        several_blocks = [
            lambda: sample_sir_limit(w7, different, 6, 2000, SEED, pilot_dim=6, max_tier=1),
            lambda: sample_sir_limit(geometry, reused, 1, 2000, SEED),
            lambda: sample_sir_limit_shadowed(w7, different, 1, 8.0, 2000, SEED, 6, max_tier=1),
            lambda: sample_sir_finite_m(w7, different, 1, cfg, 2000, SEED),
            lambda: _finite_pass.__wrapped__(w7, FiniteMConfig(pilot_length=7), 1, 2000, SEED, None),
        ]
        one_block_over_budget = [
            lambda: sample_sir_limit_shadowed(geometry, different, 4, 8.0, 200, SEED, 42),
            lambda: sample_sir_finite_m(geometry, different, 42, cfg, 200, SEED),
            lambda: _finite_pass.__wrapped__(geometry, cfg, 1, 200, SEED, None),
        ]
        budget = simulate._RUN_BYTES
        for call in several_blocks + one_block_over_budget:
            sizes = []
            for run_bytes in (budget, 1):  # default runs, then runs of one block
                monkeypatch.setattr(simulate, "_RUN_BYTES", run_bytes)
                made.clear()
                call()
                # one workspace per part; parts on threads make theirs in any order
                sizes.append(sorted(sum(a.nbytes for a in ws._arrays.values()) for ws in made))
            default, one_block = sizes
            # every part's first run is a full block, so all one-block workspaces match
            assert len(set(one_block)) == 1
            assert all(size <= max(budget, one_block[0]) for size in default)
            # a threaded call holds at most _THREADS one-block workspaces
            assert sum(default) <= simulate._THREADS * max(budget, one_block[0])
            if call in several_blocks:
                assert len(default) == 1 and default[0] > one_block[0]
            else:
                assert default == one_block and one_block[0] > budget

    @pytest.mark.parametrize("trials", [1, 63, 65, 700])
    def test_one_block_runs_match_default_runs(self, geometry, monkeypatch, trials):
        book = generate_pilot_book(PilotScheme.DIFFERENT_SETS, 3, 7, np.random.default_rng(SEED))
        reference = _sampler_outputs(geometry, book, trials, 0)
        runs = [_sampler_outputs(geometry, book, trials, 2)]
        monkeypatch.setattr(simulate, "_RUN_BYTES", 1)  # every run one block
        runs += [_sampler_outputs(geometry, book, trials, workers) for workers in (0, 2)]
        for outputs in runs:
            _assert_same_outputs(outputs, reference)


def _heavy_outputs(geometry, trials, workers) -> list:
    """Samples and diagnostics of calls whose one block's workspace exceeds
    _THREAD_BYTES: shadowed at k = 4 over 3 tiers, finite M at k = 42, and
    the fixed-book limit call at k = 42 on one tier of circles."""
    different = PilotScheme.DIFFERENT_SETS
    samples, diag = sample_sir_limit_shadowed(
        geometry, different, 4, 8.0, trials, SEED, 42, workers=workers, diagnostics=True,
    )
    out = [samples.samples, diag.max_interference_ratio, diag.tier_shares]
    book = generate_pilot_book(different, 42, 7, np.random.default_rng(SEED))
    out.append(
        sample_sir_limit(geometry, different, 42, trials, SEED, 42, book, "circle", 1, workers).samples
    )
    cfg = FiniteMConfig()
    for scheme in PilotScheme:
        out.append(sample_sir_finite_m(geometry, scheme, 42, cfg, trials, SEED, workers=workers).samples)
    out.append(_finite_pass.__wrapped__(geometry, cfg, 1, trials, SEED, workers))
    return out


class TestThreadedParts:
    """A call at workers None, 0 or 1 whose one block outgrows _THREAD_BYTES
    runs its parts on threads, with the output of a serial call."""

    @staticmethod
    def _heavy_scenario(geometry):
        scn = _scenario(geometry, PilotScheme.DIFFERENT_SETS, 42, 1, finite_m=FiniteMConfig(), load=1)
        assert _block_bytes(scn) > simulate._THREAD_BYTES
        return scn

    @pytest.mark.parametrize("trials", [1, 65, 130])
    def test_heavy_calls_match_serial_and_pool(self, geometry, monkeypatch, trials):
        with monkeypatch.context() as serial:
            serial.setattr(simulate, "_usable_cpus", lambda: 1)
            reference = _heavy_outputs(geometry, trials, 0)
        for workers in (None, 0, 1, 2):
            _assert_same_outputs(_heavy_outputs(geometry, trials, workers), reference)

    def test_more_parts_than_cpus(self, geometry, monkeypatch):
        # six parts on short thread switches: no part writes another's rows
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        reference = _heavy_outputs(geometry, 400, 0)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 6)
        monkeypatch.setattr(simulate, "_THREADS", 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outputs = _heavy_outputs(geometry, 400, None)
        finally:
            sys.setswitchinterval(interval)
        _assert_same_outputs(outputs, reference)

    def test_helper_count(self, geometry, monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        different = PilotScheme.DIFFERENT_SETS
        cpus = len(os.sched_getaffinity(0))
        for trials in (1, 65, 130, 700):
            for workers in (None, 0, 1):
                started.clear()
                sample_sir_limit_shadowed(geometry, different, 4, 8.0, trials, SEED, 42, workers=workers)
                assert len(started) == min(cpus, simulate._THREADS, -(-trials // _BLOCK)) - 1
                assert not any(helper.is_alive() for helper in started)
        # many CPUs: still at most _THREADS parts, so at most _THREADS workspaces
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
        started.clear()
        sample_sir_finite_m(geometry, different, 42, FiniteMConfig(), 4000, SEED)
        assert len(started) == simulate._THREADS - 1
        # one block of 1.35 MB, past _THREAD_BYTES though within _RUN_BYTES
        book = generate_pilot_book(different, 42, 7, np.random.default_rng(SEED))
        for call in (
            lambda: sample_sir_limit(geometry, different, 42, 700, SEED, 42, book, "circle", 1),
            lambda: sample_sir_limit(geometry, different, 42, 700, SEED, pilot_dim=42, max_tier=1),
        ):
            started.clear()
            call()
            assert len(started) == simulate._THREADS - 1
        for call in (
            lambda: sample_sir_limit(geometry, different, 3, 700, SEED, pilot_dim=42),
            lambda: sample_sir_limit_shadowed(geometry, different, 1, 8.0, 700, SEED, 42, max_tier=1),
            lambda: sample_sir_finite_m(geometry, different, 3, FiniteMConfig(), 700, SEED),
            # the reuse-3 pass at budget 14: one block of 878 KB
            lambda: _finite_pass.__wrapped__(geometry.with_reuse(3), FiniteMConfig(), 1, 700, SEED, None),
        ):
            started.clear()
            call()
            assert started == []

    @pytest.mark.parametrize("failing_block", [0, 2])
    def test_part_error_raised_in_caller(self, geometry, monkeypatch, failing_block):
        # block 0 is part 0, on the calling thread; block 2 the last of three
        # parts, on a helper
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(simulate, "_THREADS", 3)
        scn = self._heavy_scenario(geometry)
        baseline = threading.active_count()
        threads = set()

        def failing(scn, seed, blocks, ws, rows, block_rows):
            threads.add(threading.current_thread())
            if blocks[0] == failing_block:
                raise ArithmeticError(f"block {failing_block}")
            time.sleep(0.05)  # the other parts outlast the failing one
            rows[...] = 1.0

        with pytest.raises(ArithmeticError, match=f"block {failing_block}"):
            _run_blocks(failing, scn, SEED, 3 * _BLOCK, None)
        assert threading.active_count() == baseline
        assert len(threads) == 3 and threading.current_thread() in threads

    def test_helpers_keep_the_callers_error_state(self, geometry, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        scn = self._heavy_scenario(geometry)
        seen = {}

        def recording(scn, seed, blocks, ws, rows, block_rows):
            seen[threading.current_thread()] = np.geterr()
            rows[...] = 1.0

        with np.errstate(all="raise", under="ignore"):
            expect = np.geterr()
            _run_blocks(recording, scn, SEED, 2 * _BLOCK, None)
        assert expect != np.geterr()
        assert len(seen) == 2
        assert all(state == expect for state in seen.values())

    def test_pool_bounded_by_blocks_and_cpus(self, geometry, monkeypatch):
        made = []

        class Recording:
            """An in-process stand-in for the pool: it records its size and
            starts no process."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        reused = PilotScheme.REUSED_SETS
        serial = sample_sir_limit(geometry, reused, 3, 700, SEED, workers=0).samples
        # 11 blocks on 4 CPUs: at most one process per CPU
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
        pooled = sample_sir_limit(geometry, reused, 3, 700, SEED, workers=10**6).samples
        assert made == [4]
        assert np.array_equal(pooled, serial)
        # 3 blocks on 64 CPUs: at most one process per block
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
        made.clear()
        pooled = sample_sir_limit(geometry, reused, 3, 130, SEED, workers=10**6).samples
        assert made == [3]
        assert np.array_equal(pooled, serial[:130])
        # one block: no pool
        made.clear()
        sample_sir_limit(geometry, reused, 3, 64, SEED, workers=8)
        assert made == []
        # one usable CPU: no pool
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        pooled = sample_sir_limit(geometry, reused, 3, 700, SEED, workers=2).samples
        assert made == []
        assert np.array_equal(pooled, serial)
        # 11 blocks on 64 CPUs: at most as many processes as one-block
        # workspaces fit the workspace peak, and no pool where one fits
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
        block_bytes = _block_bytes(_scenario(geometry, reused, 3, 3))
        monkeypatch.setattr(simulate, "_PEAK_BYTES", 5 * block_bytes - 1)
        made.clear()
        pooled = sample_sir_limit(geometry, reused, 3, 700, SEED, workers=10**6).samples
        assert made == [4]
        assert np.array_equal(pooled, serial)
        monkeypatch.setattr(simulate, "_PEAK_BYTES", 2 * block_bytes - 1)
        made.clear()
        pooled = sample_sir_limit(geometry, reused, 3, 700, SEED, workers=10**6).samples
        assert made == []
        assert np.array_equal(pooled, serial)


class TestWorkspace:
    """Every call draws and evaluates in its own workspace; no output is a
    view of it."""

    def test_later_calls_leave_earlier_outputs_unchanged(self, geometry):
        different, reused = PilotScheme.DIFFERENT_SETS, PilotScheme.REUSED_SETS
        book = generate_pilot_book(different, 9, 7, np.random.default_rng(SEED))
        cfg = FiniteMConfig(antennas=24, pilot_length=9)

        def outputs(scheme, trials, seed):
            limit = sample_sir_limit(geometry, scheme, 3, trials, seed, pilot_dim=9)
            booked = sample_sir_limit(geometry, different, 3, trials, seed, 9, book, max_tier=1)
            shadowed, diag = sample_sir_limit_shadowed(
                geometry, scheme, 3, 8.0, trials, seed, 9, diagnostics=True
            )
            finite = sample_sir_finite_m(geometry, scheme, 3, cfg, trials, seed)
            by_load = _finite_pass(geometry, cfg, 1, trials, seed, None)[:, _PLANES.index(scheme)]
            shares = np.array(list(diag.tier_shares.values()))
            samples = [limit, booked, shadowed, finite]
            return [a for s in samples for a in (s.samples, s.sorted_samples)] + [shares, by_load]

        first = outputs(different, 200, SEED)
        kept = [a.copy() for a in first]
        # fewer trials first: a shared buffer would be reused, not regrown
        outputs(reused, 130, SEED + 1)
        outputs(different, 300, SEED + 2)
        for got, expect in zip(first, kept):
            assert np.array_equal(got, expect)
        assert not first[-1].flags.writeable  # the memoised array stays read-only


def _hypot_distances(scn, u, v):
    """Distances of users at positions (u, v) to their own and the center
    station by np.hypot, the formula of the samplers before they took
    squared distances."""
    cx, cy = scn.centers[:, 0][:, None], scn.centers[:, 1][:, None]
    if scn.region == "circle":
        d = np.hypot(cx, cy)
        return u, np.sqrt(u**2 + d**2 - 2.0 * d * u * np.cos(v))
    return np.hypot(u, v), np.hypot(u + cx, v + cy)


class TestSquaredDistances:
    """The squared-distance evaluators against hypot distances on the same
    draws."""

    def test_limit_sir(self, geometry):
        for region in ("hexagon", "circle"):
            for scheme in PilotScheme:
                scn = _scenario(geometry.with_reuse(3), scheme, 4, max_tier=2, pilot_dim=14, region=region)
                sir = np.empty(150)
                _limit_block(scn, SEED, range(3), _Workspace(), sir, np.empty((3, 0)))
                users, phi = _draw_users(scn, SEED, range(3), _Workspace(), sir)
                positions = users if region == "circle" else rhombus_xy(geometry.cell_radius_m, users)
                r_own, r_ctr = _hypot_distances(scn, *positions)
                ratio = (r_own / r_ctr) ** (2.0 * scn.gamma)
                terms = ratio[:, :, :1] if phi is None else phi * ratio
                np.testing.assert_allclose(sir, 1.0 / terms.sum(axis=(1, 2)), rtol=1e-12, atol=0.0)

    def test_finite_m_sinr(self, geometry, monkeypatch):
        for scheme in PilotScheme:
            cfg = FiniteMConfig(antennas=64)
            scn = _scenario(geometry.with_reuse(3), scheme, 4, max_tier=2, finite_m=cfg, load=4)
            shape = (150, _PLANES.index(scheme) + 1, 4)  # a different-sets scenario fills both
            sinr, expect = np.empty(shape), np.empty(shape)
            _finite_block(scn, SEED, range(3), _Workspace(), sinr, np.empty((3, 0)))
            with monkeypatch.context() as m:
                m.setattr(
                    simulate,
                    "_squared_distances",
                    lambda scn, users, _ws: tuple(
                        r * r for r in _hypot_distances(scn, *rhombus_xy(geometry.cell_radius_m, users))
                    ),
                )
                _finite_block(scn, SEED, range(3), _Workspace(), expect, np.empty((3, 0)))
            np.testing.assert_allclose(sinr, expect, rtol=1e-12, atol=0.0)


    def test_rhombus_tables(self, geometry):
        # at 3 * cell + j: the edges v_j, v_(j+1) of rhombus j and 2 v.c
        scn = _scenario(geometry, PilotScheme.REUSED_SETS, 2, max_tier=2)
        edges = rhombus_edges(geometry.cell_radius_m)
        for cell, center in enumerate(scn.centers):
            for j in range(3):
                np.testing.assert_array_equal(scn.edge_table[:, :, 3 * cell + j], edges[:, :, j])
                want = 2.0 * (edges[:, 0, j] * center[0] + edges[:, 1, j] * center[1])
                scale = geometry.cell_radius_m * math.hypot(*center)
                np.testing.assert_allclose(scn.step_table[:, 3 * cell + j], want, atol=1e-15 * scale)


def _book(dim: int, cells: int):
    return generate_pilot_book(PilotScheme.DIFFERENT_SETS, dim, cells, np.random.default_rng(SEED))


_R, _D = PilotScheme.REUSED_SETS, PilotScheme.DIFFERENT_SETS
_QUIET = FiniteMConfig(antennas=16, pilot_length=6, ul_snr_db=None)
_UNDEFINED = "SINR is undefined with no interferers and no data noise"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda g: sample_sir_limit(g, _R, 0, 10, SEED), "users_per_cell must be >= 1"),
        (
            lambda g: sample_sir_limit(g, _R, 2, 10, SEED, region="square"),
            "unknown sampling region 'square'",
        ),
        (
            lambda g: sample_sir_limit(g, _D, 2, 10, SEED),
            "different-sets sampling needs the pilot dimension",
        ),
        (
            lambda g: sample_sir_limit(g, _R, 5, 10, SEED, pilot_dim=3),
            "cannot admit 5 users on 3 pilot sequences",
        ),
        (
            lambda g: sample_sir_limit(g, _D, 3, 10, SEED, 42, _book(2, 19)),
            "pilot book is too short for the per-cell load",
        ),
        (
            lambda g: sample_sir_limit(g, _D, 3, 10, SEED, 42, _book(42, 3)),
            "pilot book does not cover every co-channel cell",
        ),
        (
            lambda g: sample_sir_limit_shadowed(g, _R, 2, -1.0, 10, SEED),
            "shadow standard deviation must be >= 0 dB",
        ),
        (
            lambda g: sample_sir_limit_shadowed(g, _R, 2, 8.0, 10, SEED, region="circle"),
            "shadow_sigma_db > 0 needs region 'hexagon', not 'circle'",
        ),
        (
            lambda g: sample_sir_finite_m(g.with_reuse(3), _R, 3, _QUIET, 10, SEED),
            "pilot budget infeasible: 3 users need 9 of 6 training dimensions",
        ),
        (lambda g: sample_sir_finite_m(g, _R, 1, _QUIET, 10, SEED, max_tier=0), _UNDEFINED),
        (
            lambda g: empirical_capacity_search(g, _D, QosTarget.from_db(0.0, 0.05), 10, SEED, _QUIET, 0),
            _UNDEFINED,
        ),
        # two bad inputs: the first check in the samplers' order fires
        (
            lambda g: sample_sir_limit_shadowed(g, _R, 0, -1.0, 10, SEED),
            "shadow standard deviation must be >= 0 dB",
        ),
        (
            lambda g: sample_sir_limit_shadowed(g, _R, 0, 8.0, 10, SEED, region="circle"),
            "shadow_sigma_db > 0 needs region 'hexagon', not 'circle'",
        ),
        (
            lambda g: sample_sir_limit(g, _D, 0, 10, SEED, region="square"),
            "users_per_cell must be >= 1",
        ),
        (
            lambda g: sample_sir_limit(g, _D, 5, 10, SEED, 3, _book(2, 3)),
            "cannot admit 5 users on 3 pilot sequences",
        ),
        (lambda g: sample_sir_finite_m(g, _R, 1, _QUIET, 0, SEED, max_tier=0), _UNDEFINED),
    ],
)
def test_scenario_errors(geometry, call, message):
    # every ValueError of a sampler call's scenario, through a public entry
    # point; the checks run in one order, so the message is the first failure
    with pytest.raises(ValueError) as err:
        call(geometry)
    assert str(err.value) == message


class TestLimitSampler:
    def test_reused_sets_draw_one_user_per_cell(self, geometry):
        # only the same-index user of each cell contaminates, so every load
        # draws, and returns, the samples of load 1
        reused = PilotScheme.REUSED_SETS
        runs = [
            lambda k: sample_sir_limit(geometry, reused, k, 300, SEED).samples,
            lambda k: sample_sir_limit(geometry, reused, k, 300, SEED, region="circle").samples,
            lambda k: sample_sir_limit_shadowed(geometry, reused, k, 0.0, 300, SEED).samples,
            lambda k: sample_sir_limit_shadowed(geometry, reused, k, 8.0, 300, SEED).samples,
        ]
        for run in runs:
            load_1 = run(1)
            for k in (3, 6):
                assert np.array_equal(run(k), load_1)

    def test_reused_distribution_independent_of_load(self, geometry):
        # exactly one interferer per co-channel cell no matter how many
        # users are admitted: k=1 and k=42 runs are the same distribution
        a = sample_sir_limit(geometry, PilotScheme.REUSED_SETS, 1, 8000, 11, pilot_dim=42)
        b = sample_sir_limit(geometry, PilotScheme.REUSED_SETS, 42, 8000, 12, pilot_dim=42)
        _stat, p = ks_2samp(a.samples, b.samples)
        assert p > 0.01

    def test_denominator_mean_matches_quadrature_worst_case(self, geometry):
        # worst-case preset: w=7, 6 users on 6-dim pilots, 36 interferers;
        # circle region and tier-1 truncation mirror the analytic setup.
        # Only the mean is exact here: at pilot dimension 6 the 1/K^2
        # variance convention and the within-cell pilot correlation both
        # bite; that coarseness is the point of the worst-case preset.
        geo = geometry.with_reuse(7)
        k = 6
        n = 100_000
        s = sample_sir_limit(
            geo, PilotScheme.DIFFERENT_SETS, k, n, 77, pilot_dim=6, region="circle", max_tier=1
        )
        den = 1.0 / s.samples
        _cnt, tm = tier1_moments(geo, PilotScheme.DIFFERENT_SETS, 42, 7)[0]
        n_terms = 6 * k
        se_mu = den.std(ddof=1) / math.sqrt(n)
        assert abs(den.mean() - n_terms * tm.mu_y) <= 3.0 * se_mu

    def test_denominator_variance_matches_quadrature_at_large_dim(self, geometry):
        # variance check where the approximation is meant to hold: 42-dim
        # pilots, lightly loaded cells, exact Beta variance for phi
        k = 6
        n = 150_000
        s = sample_sir_limit(
            geometry, PilotScheme.DIFFERENT_SETS, k, n, 78, pilot_dim=42,
            region="circle", max_tier=1,
        )
        den = 1.0 / s.samples
        _cnt, tm = tier1_moments(geometry, PilotScheme.DIFFERENT_SETS, 42, 1)[0]
        var_y = beta_law_var_y(tm.mu_x, tm.var_x, 42)
        n_terms = 6 * k
        se_mu = den.std(ddof=1) / math.sqrt(n)
        assert abs(den.mean() - n_terms * tm.mu_y) <= 3.0 * se_mu
        dev2 = (den - den.mean()) ** 2
        se_var = dev2.std(ddof=1) / math.sqrt(n)
        assert abs(den.var(ddof=1) - n_terms * var_y) <= 3.5 * se_var

    def test_reused_mean_matches_quadrature(self, geometry):
        geo = geometry.with_reuse(7)
        n = 100_000
        s = sample_sir_limit(
            geo, PilotScheme.REUSED_SETS, 1, n, 78, region="circle", max_tier=1
        )
        den = 1.0 / s.samples
        _cnt, tm = tier1_moments(geo, PilotScheme.REUSED_SETS, 42, 7)[0]
        se = den.std(ddof=1) / math.sqrt(n)
        assert abs(den.mean() - 6.0 * tm.mu_x) <= 3.0 * se

    def test_default_is_three_tiers(self, geometry):
        # perfbench's sampler-mix reference law was drawn on these 18 cells
        different = PilotScheme.DIFFERENT_SETS
        plain = sample_sir_limit(geometry, different, 4, 300, SEED, pilot_dim=42)
        tiered = sample_sir_limit(geometry, different, 4, 300, SEED, pilot_dim=42, max_tier=3)
        assert np.array_equal(plain.samples, tiered.samples)
        (s, diag), (s3, diag3) = (
            sample_sir_limit_shadowed(
                geometry, different, 4, 8.0, 300, SEED, pilot_dim=42, diagnostics=True, **tiers
            )
            for tiers in ({}, {"max_tier": 3})
        )
        assert np.array_equal(s.samples, s3.samples) and diag == diag3
        assert set(diag.tier_shares) == {1, 2, 3}

    def test_zero_interferers_gives_infinite_sir(self, geometry):
        s = sample_sir_limit(geometry, PilotScheme.REUSED_SETS, 1, 10, SEED, max_tier=0)
        assert np.all(np.isinf(s.samples))

    def test_pilot_budget_rejected(self, geometry):
        with pytest.raises(ValueError, match="pilot"):
            sample_sir_limit(geometry.with_reuse(7), PilotScheme.DIFFERENT_SETS, 7, 10, SEED, pilot_dim=6)

    def test_fixed_book_path_agrees_with_fresh_pilots(self, geometry, rng):
        k = 4
        book = generate_pilot_book(PilotScheme.DIFFERENT_SETS, 42, 19, rng)
        fresh = sample_sir_limit(geometry, PilotScheme.DIFFERENT_SETS, k, 6000, 31, pilot_dim=42)
        booked = sample_sir_limit(
            geometry, PilotScheme.DIFFERENT_SETS, k, 6000, 32, pilot_dim=42, pilot_book=book
        )
        da, db = 1.0 / fresh.samples, 1.0 / booked.samples
        se = math.hypot(da.std(ddof=1) / math.sqrt(da.size), db.std(ddof=1) / math.sqrt(db.size))
        assert abs(da.mean() - db.mean()) <= 4.0 * se

    def test_book_too_small_rejected(self, geometry, rng):
        book = generate_pilot_book(PilotScheme.DIFFERENT_SETS, 42, 2, rng)
        with pytest.raises(ValueError, match="book"):
            sample_sir_limit(
                geometry, PilotScheme.DIFFERENT_SETS, 2, 10, SEED, pilot_dim=42, pilot_book=book
            )


def _trial_major_shadowed_ratio(scn, positions, seed, blocks, trials):
    """(beta_center / beta_serving)^2 by the trial-major formula the sampler
    used before its station-major layout: log gains on one (trial, cell,
    user, station) array, the best station a maximum over the last axis."""
    xs, ys = positions
    cx, cy = scn.centers[:, 0], scn.centers[:, 1]
    stations_x, stations_y = np.concatenate(([0.0], cx)), np.concatenate(([0.0], cy))
    dx = np.subtract.outer(xs + cx[:, None], stations_x)
    dy = np.subtract.outer(ys + cy[:, None], stations_y)
    shape = (_BLOCK, scn.n_cells, scn.users_per_cell, scn.n_cells + 1)
    z = np.concatenate(
        [trial_rng(seed, b, _ROLE_SHADOW).standard_normal(shape) for b in range(blocks)]
    )[:trials]
    log_gain = np.log(dx * dx + dy * dy) * (-scn.gamma / 2.0)
    log_gain += z * (scn.shadow_sigma_db * math.log(10.0) / 10.0)
    best = log_gain.max(axis=3)
    center = log_gain[..., 0]
    ratio = np.exp(2.0 * (center - best))
    ratio[center == best] = 0.0
    return ratio


class TestShadowedSampler:
    def test_sigma_zero_degenerates_bitwise(self, geometry):
        for scheme, dim in ((PilotScheme.REUSED_SETS, None), (PilotScheme.DIFFERENT_SETS, 42)):
            for region in ("hexagon", "circle"):
                plain = sample_sir_limit(geometry, scheme, 5, 400, SEED, pilot_dim=dim, region=region)
                shadow = sample_sir_limit_shadowed(
                    geometry, scheme, 5, 0.0, 400, SEED, pilot_dim=dim, region=region
                )
                assert np.array_equal(plain.samples, shadow.samples)

    @pytest.mark.parametrize("diagnostics", [False, True])
    def test_station_major_ratio_matches_trial_major_formula(self, geometry, diagnostics):
        trials, blocks = 130, 3  # the last block is partial
        scn = _scenario(
            geometry, PilotScheme.DIFFERENT_SETS, 4, max_tier=2, pilot_dim=42, shadow_sigma_db=8.0
        )
        users, phi = _draw_users(scn, SEED, range(blocks), _Workspace(), np.empty(trials))
        positions = rhombus_xy(geometry.cell_radius_m, users)
        expect = _trial_major_shadowed_ratio(scn, positions, SEED, blocks, trials)
        ratio = _shadowed_ratio(scn, users, SEED, range(blocks), _Workspace())
        assert np.array_equal(ratio, expect)

        out = sample_sir_limit_shadowed(
            geometry, PilotScheme.DIFFERENT_SETS, 4, 8.0, trials, SEED, 42,
            max_tier=2, diagnostics=diagnostics,
        )
        terms = phi * expect
        sir = 1.0 / terms.sum(axis=(1, 2))
        if not diagnostics:
            assert np.array_equal(out.samples, sir)
            return
        samples, diag = out
        assert np.array_equal(samples.samples, sir)
        assert diag.max_interference_ratio == expect.max()
        per_cell = sum(terms[s : s + _BLOCK].sum(axis=(0, 2)) for s in range(0, trials, _BLOCK))
        tier_sums = [per_cell[scn.tiers == t].sum() for t in (1, 2)]
        assert list(diag.tier_shares.values()) == [v / sum(tier_sums) for v in tier_sums]

    def test_interference_constraint_on_every_trial(self, geometry):
        for scheme, dim in ((PilotScheme.REUSED_SETS, None), (PilotScheme.DIFFERENT_SETS, 42)):
            _s, diag = sample_sir_limit_shadowed(
                geometry, scheme, 4, 8.0, 2500, SEED, pilot_dim=dim, diagnostics=True
            )
            assert diag.max_interference_ratio <= 1.0

    def test_tier2_no_longer_negligible_under_shadowing(self, geometry):
        _s, diag = sample_sir_limit_shadowed(
            geometry, PilotScheme.DIFFERENT_SETS, 4, 8.0, 4000, SEED, pilot_dim=42, diagnostics=True
        )
        assert diag.tier_shares[2] > 0.01
        # pure path loss: tier 2 contributes ~1/600 of tier 1
        _s0, diag0 = sample_sir_limit_shadowed(
            geometry, PilotScheme.DIFFERENT_SETS, 4, 0.0, 4000, SEED, pilot_dim=42, diagnostics=True
        )
        assert diag0.tier_shares[2] < diag.tier_shares[2]

    def test_sigma_validation(self, geometry):
        with pytest.raises(ValueError):
            sample_sir_limit_shadowed(geometry, PilotScheme.REUSED_SETS, 1, -1.0, 10, SEED)

    def test_circle_region_rejected_with_shadowing(self, geometry):
        with pytest.raises(ValueError, match="circle"):
            sample_sir_limit_shadowed(
                geometry, PilotScheme.DIFFERENT_SETS, 4, 8.0, 10, SEED, pilot_dim=42, region="circle"
            )


class TestFiniteM:
    def test_mean_sinr_nondecreasing_in_antennas(self, geometry):
        geo = geometry.with_reuse(3)
        means = []
        for m in (50, 200, 500):
            cfg = FiniteMConfig(antennas=m)
            s = sample_sir_finite_m(geo, PilotScheme.DIFFERENT_SETS, 4, cfg, 600, SEED)
            means.append(s.samples.mean())
        assert means[0] < means[1] < means[2]

    def test_budget_precondition(self, geometry):
        cfg = FiniteMConfig(antennas=32, pilot_length=42)
        with pytest.raises(ValueError, match="pilot budget"):
            sample_sir_finite_m(geometry.with_reuse(7), PilotScheme.DIFFERENT_SETS, 7, cfg, 10, SEED)

    def test_degenerate_no_noise_no_interference_rejected(self, geometry):
        # pilot noise never reaches the SINR denominator, so only the data
        # SNR decides whether the SINR is defined
        for pilot_snr_db in (None, 10.0):
            cfg = FiniteMConfig(antennas=16, ul_snr_db=None, pilot_snr_db=pilot_snr_db)
            with pytest.raises(ValueError, match="undefined"):
                sample_sir_finite_m(geometry, PilotScheme.REUSED_SETS, 1, cfg, 10, SEED, max_tier=0)
        # with noise present the same scenario is fine
        ok = sample_sir_finite_m(
            geometry, PilotScheme.REUSED_SETS, 1, FiniteMConfig(antennas=16), 10, SEED, max_tier=0
        )
        assert np.all(np.isfinite(ok.samples))

    def test_reused_vs_different_at_full_load(self, geometry):
        # at k = 42, w = 1 the schemes carry the same mean contamination but
        # different spread; medians should be in the same ballpark
        cfg = FiniteMConfig(antennas=64)
        r = sample_sir_finite_m(geometry, PilotScheme.REUSED_SETS, 42, cfg, 150, SEED)
        d = sample_sir_finite_m(geometry, PilotScheme.DIFFERENT_SETS, 42, cfg, 150, SEED)
        assert 0.1 < np.median(r.samples) / np.median(d.samples) < 10.0


class TestOutageAndSearch:
    def test_wilson_interval_sane(self):
        lo, hi = wilson_interval(5, 100)
        assert 0.0 < lo < 0.05 < hi < 0.12
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_search_tracks_analytic_capacity(self, geometry):
        # at M = 100,000 without noise the finite-M search should land near
        # the analytic k_u at w=1 (Gaussian approximation error allowed)
        res = empirical_capacity_search(
            geometry,
            PilotScheme.DIFFERENT_SETS,
            QosTarget.from_db(10.0, 0.05),
            trials=4000,
            seed=SEED,
            finite_m=NEAR_LIMIT,
        )
        assert 6 <= res.per_reuse[1] <= 13

    def test_search_monotone_in_sir(self, geometry):
        # both thresholds are applied to the same draws, so a stricter SIR
        # target can only lower the admitted load, at every reuse factor
        results = {}
        for sdb in (10.0, 25.0):
            results[sdb] = empirical_capacity_search(
                geometry,
                PilotScheme.DIFFERENT_SETS,
                QosTarget.from_db(sdb, 0.05),
                trials=1500,
                seed=SEED,
                finite_m=NEAR_LIMIT,
            ).per_reuse
        assert all(results[25.0][w] <= results[10.0][w] for w in (1, 3, 7))

    def test_search_reports_per_reuse_and_best(self, geometry):
        qos = QosTarget.from_db(0.0, 0.05)
        res = empirical_capacity_search(
            geometry, PilotScheme.DIFFERENT_SETS, qos, trials=800, seed=SEED, finite_m=NEAR_LIMIT
        )
        assert set(res.per_reuse) == {1, 3, 7}
        assert res.per_reuse[1] == 42  # pilot-limited at low SIR
        assert res.best_k == max(res.per_reuse.values())
        assert res.outage_at_k[res.best_reuse][0] <= qos.outage
        with pytest.raises(ValueError, match="trials"):
            empirical_capacity_search(
                geometry, PilotScheme.DIFFERENT_SETS, qos, trials=0, seed=SEED, finite_m=NEAR_LIMIT
            )

    def test_search_worker_count_invariant(self, geometry):
        cfg = FiniteMConfig(antennas=32, pilot_length=9)
        qos = QosTarget.from_db(0.0, 0.05)
        for scheme in PilotScheme:
            for max_tier in (1, 2):
                kwargs = dict(trials=300, seed=SEED, finite_m=cfg, max_tier=max_tier)
                serial = empirical_capacity_search(geometry, scheme, qos, **kwargs)
                parallel = empirical_capacity_search(geometry, scheme, qos, **kwargs, workers=2)
                assert serial == parallel

    def test_search_results_do_not_depend_on_the_scheme_asked_first(self, geometry):
        # the first search runs the passes and the second reads them
        cfg = FiniteMConfig(antennas=32, pilot_length=9)
        qos = QosTarget.from_db(0.0, 0.05)
        results = []
        for order in (list(PilotScheme), list(PilotScheme)[::-1]):
            _finite_pass.cache_clear()
            results.append(
                {s: empirical_capacity_search(geometry, s, qos, 300, SEED, cfg, 2) for s in order}
            )
        assert results[0] == results[1]
        assert results[0][_R] != results[0][_D]

    def test_finite_m_search_rejects_undefined_sinr(self, geometry):
        # no data noise and no co-channel cells: load 1 leaves the tagged
        # user without any interferer
        for pilot_snr_db in (None, 10.0):
            cfg = FiniteMConfig(antennas=8, pilot_length=4, ul_snr_db=None, pilot_snr_db=pilot_snr_db)
            with pytest.raises(ValueError, match="undefined"):
                empirical_capacity_search(
                    geometry, PilotScheme.REUSED_SETS, QosTarget.from_db(60.0, 0.05),
                    trials=20, seed=SEED, finite_m=cfg, max_tier=0,
                )


class TestSharedPass:
    """One search pass yields both pilot schemes, from the same draws."""

    @pytest.mark.parametrize("budget", [1, 3, 9])
    def test_each_plane_equals_the_sampler_at_the_full_budget(self, geometry, budget):
        for max_tier in (1, 2):
            for snr_db in (10.0, None):
                cfg = FiniteMConfig(16, budget, ul_snr_db=snr_db, pilot_snr_db=snr_db)
                sinr = _finite_pass.__wrapped__(geometry, cfg, max_tier, 150, SEED, None)
                assert sinr.shape == (150, 2, budget)
                for plane, scheme in enumerate(_PLANES):
                    alone = sample_sir_finite_m(geometry, scheme, budget, cfg, 150, SEED, max_tier)
                    assert np.array_equal(sinr[:, plane, -1], alone.samples)

    @pytest.mark.parametrize("first", list(PilotScheme))
    def test_memo_holds_one_pass_per_reuse_factor(self, geometry, first):
        _finite_pass.cache_clear()
        cfg = FiniteMConfig(antennas=16, pilot_length=9)
        qos = QosTarget.from_db(0.0, 0.05)
        empirical_capacity_search(geometry, first, qos, 100, SEED, cfg)
        assert _finite_pass.cache_info().misses == 3
        (second,) = set(PilotScheme) - {first}
        empirical_capacity_search(geometry, second, qos, 100, SEED, cfg)
        info = _finite_pass.cache_info()  # served by the first search's passes
        assert (info.hits, info.misses) == (3, 3)


class TestSampleSet:
    def test_trial_order_kept_with_sorted_view(self):
        s = SirSampleSet(samples=np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(s.samples, [3.0, 1.0, 2.0])
        assert np.array_equal(s.sorted_samples, [1.0, 2.0, 3.0])
        assert len(s) == 3
        with pytest.raises(ValueError):
            SirSampleSet(samples=np.array([1.0, -2.0]))
