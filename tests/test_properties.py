"""End-to-end properties of the whole pipeline over degenerate and adversarial inputs.

Each example is one subject: D in 1..5, N in {9, 27, 81}, 2-5 bursts and
stride 1-2, each burst filled by one of the value kinds below.  For every
example the pipeline raises nothing but a DdpError, grades every point
into 1..9, covers exactly the points of category >= 5 with disjoint chains,
writes a report JSON without NaN or Infinity, and its input survives an
xyzm emit -> parse round trip exactly.

A metamorphic test compares two runs on related inputs: scaling one
dimension of every burst by a power of two changes the prescale factors
and nothing else the pipeline writes.
"""

import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ddp import (
    DataBurst,
    Dataset,
    DdpError,
    PipelineConfig,
    analyze_dataset,
    emit_xyzm,
    parse_xyzm,
    synthesize,
)
from ddp.ingest import SYNTH_PROFILES
from ddp.pipeline import DUMP_KINDS
from ddp.report import report_json, roots_table_csv


def _zero_column(rng, n, d):
    values = rng.normal(3.0, 1.0, (n, d))
    values[:, rng.integers(d)] = 0.0
    return values


def _prescaled(rng, n, d):
    """A positive baseline with a +-15% swing, divided by its max, as
    ``synthesize`` bursts are after ``prescale_burst``."""
    values = rng.uniform(0.5, 2.0, d) * rng.uniform(0.85, 1.15, (n, d))
    return values / values.max(axis=0)


VALUE_KINDS = {
    "zero_mean": lambda rng, n, d: rng.normal(0.0, 1.0, (n, d)),
    "zero_column": _zero_column,
    "constant": lambda rng, n, d: np.broadcast_to(rng.uniform(-2.0, 2.0, d), (n, d)),
    "huge": lambda rng, n, d: rng.uniform(-1.0, 1.0, (n, d)) * 1e300,
    "tiny": lambda rng, n, d: rng.uniform(-1.0, 1.0, (n, d)) * 1e-300,
    "cauchy": lambda rng, n, d: rng.standard_cauchy((n, d)),
    "integer_ties": lambda rng, n, d: rng.integers(-2, 3, (n, d)).astype(float),
    "prescaled": _prescaled,
}


def _reject_constant(name):
    raise AssertionError(f"report JSON contains {name}")


@given(
    d=st.integers(1, 5),
    n=st.sampled_from([9, 27, 81]),
    kinds=st.lists(st.sampled_from(sorted(VALUE_KINDS)), min_size=2, max_size=5),
    stride=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_pipeline_properties_on_adversarial_inputs(d, n, kinds, stride, seed):
    cfg = PipelineConfig(D=d, N=n, stride_n=stride)
    rng = np.random.default_rng(seed)
    bursts = [
        DataBurst(values=VALUE_KINDS[kind](rng, n, d), burst_index=b, subject_id="P")
        for b, kind in enumerate(kinds)
    ]
    dataset = Dataset(bursts=bursts)

    again = parse_xyzm(emit_xyzm(dataset), cfg)
    for b1, b2 in zip(dataset.bursts, again.bursts, strict=True):
        assert np.array_equal(b1.values, b2.values)

    try:
        result = analyze_dataset(dataset, cfg)
    except DdpError:
        return
    frames = result.subjects[0].frames
    assert len(frames) == max(0, len(kinds) - stride)
    for fr in frames:
        assert fr.categories.shape == (n,)
        assert np.all((fr.categories >= 1) & (fr.categories <= 9))
        covered = np.concatenate(
            [np.arange(c.start_index, c.start_index + c.length) for c in fr.chains]
            + [np.empty(0, dtype=int)]
        )
        assert np.array_equal(np.sort(covered), np.nonzero(fr.categories >= 5)[0])

    json.loads(report_json(result.subjects, None, cfg), parse_constant=_reject_constant)


@given(
    profile=st.sampled_from(SYNTH_PROFILES),
    seed=st.integers(0, 2**16),
    dim=st.integers(0, 3),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_scaling_a_dimension_by_a_power_of_two_changes_only_prescale_factors(
    profile, seed, dim, data
):
    cfg = PipelineConfig(seed=seed)
    dataset = synthesize(profile, cfg, n_bursts=6, include_com=True)
    column = np.concatenate([b.values[:, dim] for b in dataset.bursts])
    _, exponents = np.frexp(column[column != 0.0])
    # every scaled value stays normal, so the scaling and each prescaled quotient are exact
    k = data.draw(st.integers(-1021 - int(exponents.min()), 1024 - int(exponents.max())), label="k")
    scaled_bursts = []
    for b in dataset.bursts:
        values = b.values.copy()
        values[:, dim] = np.ldexp(values[:, dim], k)
        scaled_bursts.append(replace(b, values=values))
    scaled = Dataset(bursts=scaled_bursts, metadata=dataset.metadata)

    base = analyze_dataset(dataset, cfg, dumps=DUMP_KINDS)
    other = analyze_dataset(scaled, cfg, dumps=DUMP_KINDS)
    for a, b in zip(base.subjects, other.subjects, strict=True):
        for fa, fb in zip(a.prescale_factors, b.prescale_factors, strict=True):
            assert np.array_equal(np.ldexp(fa[dim], k), fb[dim])
            assert np.array_equal(np.delete(fa, dim), np.delete(fb, dim))
        b.prescale_factors = a.prescale_factors
    assert report_json(other.subjects, None, cfg) == report_json(base.subjects, None, cfg)
    assert roots_table_csv(other.subjects) == roots_table_csv(base.subjects)
    assert other.dumps == base.dumps
