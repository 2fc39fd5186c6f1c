"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The detection smoke test is a self-referential calibration: the pass/fail
rates are calibrated against this package's own synthetic corpora, not
against any external ground truth.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ddp import (
    Chain,
    DataBurst,
    Dataset,
    PipelineConfig,
    analyze_dataset,
    build_field,
    detect_chains,
    gti,
    objective_ranks,
    pair_margins,
    percent_change,
    solve_roots,
    synthesize,
    zoom_profile,
)
from ddp.ingest import prescale_burst
from ddp.report import report_json
from ddp.zoomout import line_polyline_intersections

from oracles import (
    borda_oracle,
    chains_oracle,
    diagonal_root_oracle,
    diagonal_roots,
    enumerate_roots,
    rank_oracle,
    segment_line_intersections_oracle,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL")
        raise
    print(f"[criterion {num:2d}] {name}: PASS")


def test_01_root_count_law():
    with criterion(1, "root count is exactly 2^D for D in 1..4"):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3, 4):
            r = rng.uniform(1.0, 81.0, size=(d, 1000))
            dh = rng.normal(0.0, 1.0, size=(d, 1000))
            dh[rng.random(size=dh.shape) < 0.05] = 0.0  # sprinkle sentinels
            batch = solve_roots(r, dh)
            vectors = batch.expand()
            assert vectors.shape == (1000, 2 ** d, d)
            assert batch.convergence.shape == (1000, 2 ** d)
            # spot-check the per-point operation against the batch
            for a in range(0, 1000, 97):
                point = enumerate_roots(r[:, a], dh[:, a])
                assert point.vectors.shape == (2 ** d, d)
                np.testing.assert_array_equal(point.vectors, vectors[a])


def test_02_borda_zero_sum():
    with criterion(2, "Borda counts sum to zero per dimension (1e-9 abs)"):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            values = rng.uniform(0.4, 1.0, size=(16, 4))
            h = build_field(values).borda
            assert np.all(np.abs(h.sum(axis=1)) < 1e-9)


def test_03_antisymmetry_exact():
    with criterion(3, "pairwise margins are exactly antisymmetric"):
        rng = np.random.default_rng(3)
        for _ in range(200):
            values = rng.uniform(0.3, 1.0, size=(81, 4))
            field = build_field(values)
            for d in range(4):
                u = values[:, d]
                a, _ = pair_margins(u[:, None], u[None, :], field.datum[d])
                assert np.array_equal(a, -a.T)
                assert np.all(np.diag(a) == 0.0)


def test_04_null_signal_fixed_point():
    with criterion(4, "constant dataset: dH=0, kappa=0, rc=0, PDI=1, no GTI"):
        cfg = PipelineConfig()
        bursts = [
            DataBurst(values=np.full((81, 4), 3.7), burst_index=b, subject_id="C")
            for b in range(4)
        ]
        ds = Dataset(bursts=bursts)

        # direct check of the Borda change on the first pair
        b0, _ = prescale_burst(bursts[0])
        b1, _ = prescale_burst(bursts[1])
        assert np.all(zoom_profile([b0, b1], cfg).dh == 0.0)

        rep = analyze_dataset(ds, cfg).subjects[0]
        for fr in rep.frames:
            assert np.all(fr.rc.rc_per_dim == 0.0)
            assert fr.rc.rc_combined == 0.0
            assert np.all(fr.categories == 1)
            assert not fr.gti.triggered
            assert np.all(fr.profile.kappa_combined == 0.0)
            assert np.all(fr.profile.kappa_per_dim == 0.0)


def test_05_aggregation_ladder():
    with criterion(5, "zoom levels are exactly [81, 27, 9]"):
        cfg = PipelineConfig(N=81, seed=5)
        assert cfg.zoom_point_counts() == [81, 27, 9]
        ds = synthesize("stable", cfg, n_bursts=2)
        rep = analyze_dataset(ds, cfg).subjects[0]
        assert rep.frames[0].profile.point_count.tolist() == [81, 27, 9]


def test_06_gti_logic_table():
    with criterion(6, "GTI trigger logic table"):
        chains = [Chain(start_index=0, length=10)]
        rec = gti([2.0, 0.3], chains, (4.0, 5.0))
        assert rec.triggered is True
        rec = gti([2.0, 0.42], chains, (4.0, 5.0))
        assert rec.energy_drop_fraction == pytest.approx(0.79)
        assert rec.triggered is False
        rec = gti([2.0, 0.1], [Chain(start_index=0, length=2)], (4.0, 5.0))
        assert rec.energy_drop_fraction == pytest.approx(0.95)
        assert rec.triggered is False


def test_07_detection_smoke():
    with criterion(7, "step collapse detected near injection; stable is quiet"):
        seeds = range(100, 120)
        for seed in seeds:
            cfg = PipelineConfig(seed=seed)
            ds = synthesize("burst", cfg, n_bursts=4)
            rep = analyze_dataset(ds, cfg).subjects[0]
            inj = rep.injection
            assert inj is not None and inj.drop_fraction >= 0.9
            fr = next(
                f for f in rep.frames if f.current_burst_index == inj.burst_index
            )
            lo = max(0, inj.time_index - 5)
            window = fr.categories[lo: inj.time_index + 6]
            assert np.any(window >= 5), f"no detection near injection for seed {seed}"

        total = 0
        unstable = 0
        for seed in seeds:
            cfg = PipelineConfig(seed=seed)
            ds = synthesize("stable", cfg, n_bursts=4)
            rep = analyze_dataset(ds, cfg).subjects[0]
            for fr in rep.frames:
                total += fr.categories.size
                unstable += int(np.sum(fr.categories >= 5))
        assert unstable / total < 0.01, f"stable unstable rate {unstable}/{total}"


def test_08_percent_change_formula():
    with criterion(8, "percent change arithmetic reproduces the reference"):
        value = percent_change(0.364, 0.480)
        assert value == pytest.approx(31.868131868131865, rel=1e-12)
        assert abs(value - 32.05) < 0.5


def test_09_oracle_equivalence():
    with criterion(9, "small-frame results match brute-force oracles (1e-10)"):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            values = rng.uniform(0.4, 1.0, size=n)
            field = build_field(values[:, None])
            if field.unfittable[0] or field.margin_zeroed[0].any():
                continue
            h = field.borda[0]
            np.testing.assert_allclose(
                h, borda_oracle(values.tolist(), field.datum[0]), rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(objective_ranks(h), rank_oracle(h.tolist()), rtol=1e-10)

        for _ in range(500):
            r = float(rng.uniform(1, 81))
            dh = float(rng.normal(0, 2))
            expected = diagonal_root_oracle(r, dh)
            got = diagonal_roots(r, dh).magnitude
            if np.isinf(expected):
                assert np.isinf(got)
            else:
                np.testing.assert_allclose(got, expected, rtol=1e-10)

        for _ in range(300):
            cats = rng.integers(1, 8, size=int(rng.integers(1, 30)))
            assert [
                (c.start_index, c.length) for c in detect_chains(cats)
            ] == chains_oracle(cats.tolist())

        for _ in range(300):
            ts = np.sort(rng.uniform(-3, 0, 3))
            ys = rng.uniform(0, 1, 3)
            intercept, slope = rng.uniform(-1, 1, 2)
            got = line_polyline_intersections(ts, ys, intercept, slope)
            expected = segment_line_intersections_oracle(ts, ys, intercept, slope)
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                np.testing.assert_allclose(g[0], e[0], rtol=1e-10, atol=1e-12)


def test_10_determinism_and_performance():
    with criterion(10, "100 subjects under 60 s, byte-identical reruns"):
        cfg = PipelineConfig(seed=7)
        ds = synthesize("stable", cfg, n_bursts=10, n_subjects=100)
        assert len(ds.bursts) == 1000

        t0 = time.perf_counter()
        first = report_json(analyze_dataset(ds, cfg).subjects, None, cfg)
        elapsed_first = time.perf_counter() - t0

        t0 = time.perf_counter()
        second = report_json(analyze_dataset(ds, cfg).subjects, None, cfg)
        elapsed_second = time.perf_counter() - t0

        assert elapsed_first < 60.0, f"first run took {elapsed_first:.1f}s"
        assert elapsed_second < 60.0, f"second run took {elapsed_second:.1f}s"
        assert first.encode() == second.encode()
