"""The seams that perfbench/tracer.py wraps stay where the tracer looks.

The tracer swaps module attributes for recording wrappers, so it only sees
calls that the program resolves through those attributes at call time. A
module that bound one of the names at import time instead would silently
drop that layer from every trace. These tests load the tracer by path, the
way the benchmark does, and check both that every wrapped attribute exists
and that one traced link records each stage of the fiber chain.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len

from bandshape import fibersim
from bandshape.fibersim import FiberParams, LinkParams

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves(tracer):
    points = tracer._wrap_points()
    assert points
    for module, attr, name, hook in points:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_traced_link_records_every_stage(tracer):
    link = LinkParams(
        baud_rate_gbd=50.0, rrc_rolloff=0.1, edfa_nf_db=5.0,
        launch_power_dbm=4.0, sps=4, step_km=41.0, seed=0,
        burst_symbols=2048, filter_span_symbols=64, guard_symbols=256,
    )
    fiber = FiberParams(0.2, 17.0, 1.3, 205.0)
    rng = np.random.default_rng(0)
    i_rail = rng.choice([1, 3, 5, 7], link.burst_symbols)
    q_rail = rng.choice([1, 3, 5, 7], link.burst_symbols)
    untraced = fibersim.run_link(i_rail, q_rail, link, fiber)

    tr = tracer.Tracer()
    uninstall = tr.install()
    try:
        traced = fibersim.run_link(i_rail, q_rail, link, fiber)
    finally:
        uninstall()

    assert traced == untraced
    calls = tr.summary()["calls"]
    for stage in ("run_link", "modulate", "ssfm_span", "edfa", "cd_compensate",
                  "demodulate", "effective_snr"):
        assert calls.get(f"fibersim.{stage}") == 1, stage
    assert calls.get("pasmap.map_ask") == 2
    assert calls.get("pasmap.map_qam") == 1
    assert calls.get("pasmap.normalize") == 1
    steps = math.ceil(fiber.length_km / link.step_km)
    assert calls.get("kernels.kerr_phase") == steps
    # one transform pair per step plus the first half step, and one pair
    # for dispersion compensation
    assert calls.get("fibersim.fft") == calls.get("fibersim.ifft") == steps + 2
    padded = (link.burst_symbols - 1) * link.sps + link.filter_span_symbols * link.sps + 1
    assert tr.counts["fibersim.fft_len"] == next_fast_len(padded)
