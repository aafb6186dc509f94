"""The seams that perfbench/tracer.py wraps stay where the tracer looks.

The tracer swaps module attributes for recording wrappers, so it only sees
calls that the program resolves through those attributes at call time. A
module that bound one of the names at import time instead would silently
drop that layer from every trace. These tests load the tracer by path, the
way the benchmark does, and check both that every wrapped attribute exists
and that one traced link records each stage of the fiber chain. The
benchmark's machine facts and kernel probe read the program outside the
tracer, so they are loaded and run the same way.
"""

import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len

from bandshape import cli, fibersim, metrics
from bandshape.fibersim import FiberParams, LinkParams
from bandshape.trellis import (
    Alphabet,
    TrellisParams,
    build_full_trellis,
    min_emax_for_bits,
    save_trellis,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def facts():
    return _load("facts")


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


def test_traced_band_search_counts_candidates(tracer, monkeypatch):
    # the tracer counts a candidate per band= search under the operating-point
    # search, however many geometries that search visits, and the nodes of
    # every trellis the search builds (its node hook reads Trellis.levels)
    searches, trellises = [], []
    search = metrics.min_emax_for_bits

    def spy(*args, **kwargs):
        if kwargs.get("band") is not None:
            searches.append(kwargs["band"])
        return search(*args, **kwargs)

    def build_spy(build):
        def spied(*args, **kwargs):
            trellises.append(build(*args, **kwargs))
            return trellises[-1]
        return spied

    monkeypatch.setattr(metrics, "min_emax_for_bits", spy)
    for name in ("build_full_trellis", "build_band_trellis"):
        monkeypatch.setattr(metrics, name, build_spy(getattr(metrics, name)))
    tr = tracer.Tracer()
    uninstall = tr.install()
    try:
        metrics.find_band_operating_point(16, Alphabet((1, 3, 5, 7)), 24)
    finally:
        uninstall()
    assert searches
    assert tr.counts["metrics.band_candidates"] == len(searches)
    assert len(trellises) > 1
    assert tr.counts["trellis.nodes"] == sum(
        len(column) for t in trellises for column in t.back_columns)


def test_traced_metrics_fit_a_strict_result_line(tracer, tmp_path, capsys):
    # the benchmark's result line is strict JSON of int64-sized numbers, so a
    # count the tracer adds up (metrics.samples sums num_samples) must stay
    # machine sized: stats sweeps every used index of a 12-bit codebook, and
    # samples a 64-bit one
    a1357 = Alphabet((1, 3, 5, 7))
    runs = []
    for n, k, samples in ((12, 12, 1 << 12), (40, 64, 50)):
        path = tmp_path / f"{n}.tr"
        params = TrellisParams(n, a1357, min_emax_for_bits(n, a1357, k))
        save_trellis(build_full_trellis(params), path)
        runs.append(["stats", "--trellis", str(path), "--samples", str(samples)])
    tr = tracer.Tracer()
    uninstall = tr.install()
    start = time.perf_counter()
    try:
        for argv in runs:
            assert cli.main(argv) == 0
        metrics.find_band_operating_point(16, a1357, 24)
    finally:
        uninstall()
    got = tracer.layer_metrics(tr, time.perf_counter() - start)
    capsys.readouterr()
    assert got["metrics.samples"] == (1 << 12) + 50
    assert got["metrics.band_candidates"] > 0
    json.dumps(got, allow_nan=False)
    for name, value in got.items():
        if isinstance(value, float):
            assert math.isfinite(value), name
        else:
            assert isinstance(value, int) and abs(value) < 1 << 63, name


def test_machine_facts_keys(facts):
    got = facts.machine_facts(4096)
    assert set(got) == {
        "nproc", "affinity_cpus", "python", "numpy", "scipy",
        "numba_importable", "using_numba", "llc_bytes", "link_sweep_fft_len",
        "thread_env",
    }
    assert got["using_numba"] is False
    assert got["link_sweep_fft_len"] == 4096


def test_kernel_probe_keys(facts):
    got = facts.kernel_probe(4096, calls=2)
    assert set(got) == {
        "probe.fft_len", "probe.kerr_us", "probe.fft_pair_us", "probe.kerr_flop",
        "probe.kerr_bytes_computed", "probe.fft_pair_flop",
        "probe.fft_pair_bytes_computed",
    }
    assert got["probe.fft_len"] == 4096
    assert got["probe.kerr_us"] > 0 and got["probe.fft_pair_us"] > 0
