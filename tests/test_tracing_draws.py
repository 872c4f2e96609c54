"""Every sampler must reach the stream through the per-permutation draw
methods the benchmark's tracer wraps: a sampler that drew through any
other name would leave the names in place and its `rng.draw` metric
silently blank."""

import pytest

from nbzeta import (
    complete_graph,
    sample_cover,
    sample_matching_model,
    sample_permutation_model,
    sample_single_cycle_model,
)
from test_tracing_names import _load_tracing


@pytest.mark.parametrize("sample, args", [
    (sample_permutation_model, (600, 4, 1)),
    (sample_single_cycle_model, (600, 4, 2)),
    (sample_matching_model, (600, 3, 3)),
    (sample_cover, (complete_graph(4), 51, 4)),
])
def test_every_sampler_records_draws(sample, args):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.span("bench.op", "op") as op:
            sample(*args)
    assert tracing.layer_metrics(tracer, {op: 1})["rng.draw.calls"] > 0
