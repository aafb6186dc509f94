#!/usr/bin/env python3
"""One benchmark workload, run in a fresh process started by run.py.

    PYTHONPATH=src python3 perfbench/workload.py --workload link_sweep \
        --seed 0 --seconds 10 --trace 0 --t0 "$(date +%s.%N)" [--setup-only]

Builds the workload's inputs from the seed (its set-up), then runs the
workload's unit of work back to back for up to --seconds (at least once) and
checks every output. Times are normalized for the host's speed (speed.py).
With --trace 1 each unit runs twice, unwrapped and with every layer boundary
wrapped (tracer.py); the two must produce identical bytes. Prints one JSON
object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import facts  # noqa: E402
import settings  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer, layer_metrics, write_spans  # noqa: E402

# Monte-Carlo `stats` keys may sit this many standard errors from the exact
# used-subset value before the check fails (two-sided, about 6e-7 per key).
SAMPLED_Z = 5.0
STATS_SAMPLES = 4000
# Layer self times must cover the traced wall time to within this share.
UNACCOUNTED_MAX = 0.05


class SetupError(RuntimeError):
    pass


def run_cli(argv) -> tuple[int, str]:
    """bandshape's CLI in-process; returns (exit code, stdout). Looks up
    `cli.main` at call time so the tracer's wrapper is seen."""
    from bandshape import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([str(a) for a in argv])
    except Exception:  # a crash in one operation is a failed operation
        return -1, traceback.format_exc(limit=3)
    return code, out.getvalue()


def key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def build_trellises(work: Path) -> dict[str, Path]:
    paths = {}
    for name, band, emax in (("ess", None, settings.ESS_EMAX),
                             ("bess", settings.BAND, settings.BESS_EMAX)):
        path = work / f"{name}.trellis"
        code, out = run_cli(settings.build_argv(path, band))
        if code != 0 or key_values(out).get("emax") != str(emax):
            raise SetupError(f"building {name} gave exit {code}: {out!r}")
        paths[name] = path
    return paths


def search_summary(op) -> dict:
    """The fields of a band operating point that the reference stores."""
    return {"band": [op.band.height, op.band.width], "e_max": op.e_max,
            "ess_e_max": op.ess_e_max, "delta_e2_db": repr(op.delta_e2_db),
            "delta_var_db": repr(op.delta_var_db),
            "kurtosis_ratio": repr(op.kurtosis_ratio)}


class Unit:
    """One unit of work: its perf_counter interval, the workload's own timings
    in seconds, the bytes it produced, and what its check needs."""

    def __init__(self, start: float, end: float, detail: dict, output: bytes, data):
        self.start, self.end, self.wall = start, end, end - start
        self.detail, self.output, self.data = detail, output, data


class LinkSweep:
    """`bandshape simulate` with ess,bess at the criterion-6 link settings."""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.trellis = build_trellises(work)
        refs = json.loads((HERE / "reference" / "link_sweep.json").read_text())
        self.ref = refs["snr_db"].get(str(seed))
        self.tol_db = settings.SNR_TOL_DB

    @staticmethod
    def ase_snr_db(power_dbm: float) -> float:
        """Analytic ASE-only SNR: launch power over the ASE noise in one
        symbol bandwidth of an EDFA that exactly compensates the span."""
        gain = 10 ** (settings.ALPHA_DB_KM * settings.SPAN_KM / 10)
        h_nu = 6.62607015e-34 * 299792458.0 / 1550e-9
        psd = (10 ** (settings.NF_DB / 10) / 2) * (gain - 1) * h_nu
        return 10 * math.log10(10 ** ((power_dbm - 30) / 10)
                               / (psd * settings.BAUD_GBD * 1e9))

    def unit(self) -> Unit:
        out = self.work / "sweep.csv"
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code, text = run_cli(settings.simulate_argv(
            self.trellis["ess"], self.trellis["bess"], self.seed, out))
        t1 = time.perf_counter()
        csv_bytes = out.read_bytes() if code == 0 and out.exists() else b""
        return Unit(t0, t1, {"sweep_s": t1 - t0}, csv_bytes, (code, text))

    def check(self, unit: Unit) -> tuple[int, list[str]]:
        expected = [(s, p) for s in ("bess", "ess") for p in settings.POWER_LIST]
        code, text = unit.data
        if code != 0:
            return len(expected), [f"simulate exit {code}: {text[-300:]}"] * len(expected)
        rows = {(r["scheme"], float(r["launch_power_dbm"])): float(r["snr_db"])
                for r in csv.DictReader(line for line in unit.output.decode().splitlines()
                                        if not line.startswith("#"))}
        problems = []
        for scheme, power in expected:
            snr = rows.get((scheme, power))
            label = f"{scheme}@{power!r}"
            if snr is None or not math.isfinite(snr):
                problems.append(f"{label}: SNR missing or not finite ({snr})")
            elif snr >= self.ase_snr_db(power):
                problems.append(f"{label}: SNR {snr} not below ASE-only "
                                f"{self.ase_snr_db(power)}")
            elif self.ref is not None and abs(snr - self.ref[label]) > self.tol_db:
                problems.append(f"{label}: SNR {snr} is more than {self.tol_db} dB "
                                f"from the fine-step reference {self.ref[label]}")
        return len(expected), problems

    def trace_check(self, m: dict) -> list[str]:
        links = len(settings.POWER_LIST) * 2
        problems = []
        if m["kernels.kerr_calls"] != settings.STEPS_PER_LINK * links:
            problems.append(f"kerr_calls {m['kernels.kerr_calls']} != "
                            f"{settings.STEPS_PER_LINK} x {links} links")
        if m["fibersim.fft_len"] != settings.link_fft_len():
            problems.append(f"fft_len {m['fibersim.fft_len']} != {settings.link_fft_len()}")
        return problems


class CodecStream:
    """`bandshape shape` then `deshape` over seeded payload files through the
    ESS and band-ESS trellises."""

    # 81 bytes = 648 bits = 4 blocks of 162 bits is the smallest payload of
    # whole bytes and whole blocks; sizes climb geometrically to 300 blocks.
    UNIT_BYTES = 81
    SIZES = (1, 1, 2, 3, 5, 7, 11, 16, 23, 33, 49, 75)
    EMAX = {"ess": settings.ESS_EMAX, "bess": settings.BESS_EMAX}

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.trellis = build_trellises(work)
        rng = random.Random(seed)
        self.payloads, self.bits = [], {}
        for i, units in enumerate(self.SIZES):
            path = work / f"payload{i}.bin"
            path.write_bytes(rng.randbytes(self.UNIT_BYTES * units))
            self.payloads.append(path)
            self.bits[path] = 8 * self.UNIT_BYTES * units
        rng.shuffle(self.payloads)

    def unit(self) -> Unit:
        shape_s = deshape_s = 0.0
        results = []
        t_unit = time.perf_counter()
        for payload in self.payloads:
            for name, trellis in self.trellis.items():
                amps = self.work / f"{payload.stem}.{name}.amps"
                back = self.work / f"{payload.stem}.{name}.back"
                t0 = time.perf_counter()
                code_s, err_s = run_cli(["shape", "--trellis", trellis,
                                         "--in", payload, "--out", amps])
                t1 = time.perf_counter()
                code_d, err_d = run_cli(["deshape", "--trellis", trellis,
                                         "--in", amps, "--out", back])
                t2 = time.perf_counter()
                shape_s += t1 - t0
                deshape_s += t2 - t1
                results.append((payload, name, amps, back, code_s, code_d, err_s + err_d))
        t_end = time.perf_counter()
        digest = hashlib.sha256()
        for _, _, amps, back, *_ in results:
            for path in (amps, back):
                digest.update(path.read_bytes() if path.exists() else b"<missing>")
        detail = {"shape_s": shape_s, "deshape_s": deshape_s}
        return Unit(t_unit, t_end, detail, digest.digest(), results)

    def rates(self, detail: dict) -> dict:
        """Payload bits per second through the CLI, trellis loads included."""
        bits = len(self.trellis) * sum(self.bits.values())
        return {"shape_mbit_s": bits / detail["shape_s"] / 1e6,
                "deshape_mbit_s": bits / detail["deshape_s"] / 1e6}

    def check(self, unit: Unit) -> tuple[int, list[str]]:
        problems = []
        for payload, name, amps, back, code_s, code_d, err in unit.data:
            label = f"{payload.name}/{name}"
            if code_s != 0 or code_d != 0:
                problems.append(f"{label}: exit {code_s}/{code_d}: {err[-300:]}")
                continue
            data = payload.read_bytes()
            if back.read_bytes() != data:
                problems.append(f"{label}: deshape(shape(payload)) != payload")
                continue
            lines = amps.read_text().splitlines()
            if len(lines) * settings.BITS != 8 * len(data):
                problems.append(f"{label}: {len(lines)} sequences for {len(data)} bytes")
                continue
            for lineno, line in enumerate(lines, 1):
                seq = [int(v) for v in line.split()]
                energy = sum(v * v for v in seq)
                if (len(seq) != settings.N or not set(seq) <= set(settings.AMPLITUDES)
                        or energy > self.EMAX[name]):
                    problems.append(f"{label} line {lineno}: energy {energy} > "
                                    f"EMAX {self.EMAX[name]} or bad sequence")
                    break
        return len(unit.data), problems

    def trace_check(self, m: dict) -> list[str]:
        return []


class CodebookDesign:
    """Criterion-4 path: build ESS and band (11,0), info, stats, compare, then
    the band operating-point search."""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.ref = json.loads((HERE / "reference" / "codebook_design.json").read_text())

    def unit(self) -> Unit:
        from bandshape import metrics
        from bandshape.trellis import Alphabet

        ess, bess = self.work / "ess.trellis", self.work / "bess.trellis"
        calls = [
            ("build_ess", settings.build_argv(ess)),
            ("build_bess", settings.build_argv(bess, settings.BAND)),
            ("info_ess", ["trellis", "info", ess]),
            ("info_bess", ["trellis", "info", bess]),
            ("stats_ess", ["stats", "--trellis", ess, "--samples", STATS_SAMPLES,
                           "--seed", self.seed]),
            ("stats_bess", ["stats", "--trellis", bess, "--samples", STATS_SAMPLES,
                            "--seed", self.seed]),
            ("compare", ["compare", "--a", ess, "--b", bess]),
        ]
        outputs = {}
        t0 = time.perf_counter()
        for name, argv in calls:
            outputs[name] = run_cli(argv)
        t1 = time.perf_counter()
        op, error = None, ""
        try:
            op = metrics.find_band_operating_point(
                settings.N, Alphabet(settings.AMPLITUDES), settings.BITS)
        except Exception:  # a crash in one operation is a failed operation
            error = traceback.format_exc(limit=3)
        t2 = time.perf_counter()
        blob = "\n".join(f"{k}:{v!r}" for k, v in outputs.items()).encode()
        blob += repr(op).encode()
        blob += b"".join(p.read_bytes() for p in (ess, bess) if p.exists())
        detail = {"design_s": t1 - t0, "search_s": t2 - t1}
        return Unit(t0, t2, detail, blob, (outputs, op, error))

    def _sampled_problems(self, label: str, kv: dict, used: dict) -> list[str]:
        """Monte-Carlo keys against the exact statistics of indices < 2**k.

        Each key must lie within SAMPLED_Z standard errors of its exact
        value. The standard error is that of a STATS_SAMPLES-sample estimate:
        the key's exact per-sequence standard deviation over the subset
        (make_refs.py) over sqrt(STATS_SAMPLES). An exact used-subset `stats`
        passes whatever sample count it reports."""
        e2, e4 = used["e2"], used["e4"]
        expect = {"e2": e2, "e4": e4, "var_e": e4 - e2 * e2, "kurtosis": e4 / e2 ** 2}
        expect.update({f"p_{a}": p for a, p in used["p"].items()})
        problems = []
        for key, value in expect.items():
            got = kv.get(f"sampled_{key}")
            se = used["sd"][key] / math.sqrt(STATS_SAMPLES)
            try:
                ok = abs(float(got) - value) <= SAMPLED_Z * se
            except (TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(f"{label}: sampled_{key}={got} is not within "
                                f"{SAMPLED_Z} SE ({se:.3g}) of {value!r}")
        return problems

    def check(self, unit: Unit) -> tuple[int, list[str]]:
        outputs, op, error = unit.data
        ref = self.ref
        problems = []
        for name, (code, text) in outputs.items():
            if code != 0:
                problems.append(f"{name}: exit {code}: {text[-300:]}")
                continue
            kv = key_values(text)
            emax = {"build_ess": settings.ESS_EMAX, "build_bess": settings.BESS_EMAX}
            if name in emax and kv.get("emax") != str(emax[name]):
                problems.append(f"{name}: e_max {kv.get('emax')}, expected {emax[name]}")
            elif name.startswith("stats"):
                want = ref[name]["exact"]
                if {k: kv.get(k) for k in want} != want:
                    problems.append(f"{name}: exact keys differ from the stored reference")
                else:
                    problems += self._sampled_problems(name, kv, ref[name]["used_subset"])[:1]
            elif {k: kv.get(k) for k in ref[name]} != ref[name]:
                problems.append(f"{name}: output differs from the stored reference")
        if op is None:
            problems.append(f"search: {error[-300:]}")
        elif search_summary(op) != ref["search"]:
            problems.append(f"search: {search_summary(op)} != stored {ref['search']}")
        return len(outputs) + 1, problems

    def trace_check(self, m: dict) -> list[str]:
        return []


WORKLOADS = {"link_sweep": LinkSweep, "codec_stream": CodecStream,
             "codebook_design": CodebookDesign}


def time_left(start: float, seconds: float, walls: list[float]) -> bool:
    """Whether one more unit of the typical length still fits in `seconds`."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def measure(wl, seconds: float, speed: SpeedSampler) -> dict:
    """Untraced: units back to back for up to `seconds`, at least one.

    work_s is the fastest unit's normalized time (speed.py). Normalizing
    removes most of the host's drift; the minimum drops what is left of its
    slow stretches. The record's per-workload timings are medians, each
    scaled by its unit's normalized/wall ratio.
    """
    walls, norms, detail, problems = [], [], defaultdict(list), []
    attempted = 0
    start = time.perf_counter()
    while True:
        unit = wl.unit()
        walls.append(unit.wall)
        norms.append(speed.normalized(unit.start, unit.end))
        for k, v in unit.detail.items():
            detail[k].append(v * norms[-1] / unit.wall)
        n, probs = wl.check(unit)
        attempted += n
        problems += probs
        if not time_left(start, seconds, walls):
            break
    detail = {k: statistics.median(v) for k, v in detail.items()}
    if hasattr(wl, "rates"):
        detail.update(wl.rates(detail))
    detail["wall_s"] = statistics.median(walls)
    return {"attempted": attempted, "failed": len(problems), "problems": problems,
            "units": len(walls), "work_s": min(norms), "detail": detail}


def measure_traced(wl, seconds: float, speed: SpeedSampler, spans_path: Path) -> dict:
    """Traced: pairs of an unwrapped and a wrapped unit on the same inputs,
    for up to `seconds`, at least one pair; the pairs alternate which side
    runs first.

    Besides the workload's own checks, each pair counts two operations: the
    two runs' outputs are byte-identical, and the layers' self times cover
    the traced wall time to within UNACCOUNTED_MAX. Layer times are wall
    times; the tracing overhead compares the pair's normalized times.
    """
    tracer = Tracer()
    per_unit, problems = defaultdict(list), []
    attempted = 0
    start, pair_walls = time.perf_counter(), []

    def run_traced():
        tracer.reset()
        uninstall = tracer.install()
        try:
            return wl.unit()
        finally:
            uninstall()

    runs, unit_no = [], 0
    while True:
        if unit_no % 2 == 0:  # a first-unit penalty then inflates the overhead
            traced = run_traced()
            plain = wl.unit()
        else:
            plain = wl.unit()
            traced = run_traced()
        pair_walls.append(plain.wall + traced.wall)
        m = layer_metrics(tracer, traced.wall)
        norm_plain = speed.normalized(plain.start, plain.end)
        norm_traced = speed.normalized(traced.start, traced.end)
        m["trace.untraced_wall_s"] = plain.wall
        m["trace.overhead_s"] = norm_traced - norm_plain
        m["trace.overhead_frac"] = (norm_traced - norm_plain) / norm_plain
        for k, v in m.items():
            per_unit[k].append(v)
        for unit in (plain, traced):
            n, probs = wl.check(unit)
            attempted += n
            problems += probs
        attempted += 2
        if plain.output != traced.output:
            problems.append("traced and untraced runs produced different outputs")
        if abs(m["trace.unaccounted_frac"]) > UNACCOUNTED_MAX:
            problems.append(f"layer self times leave {m['trace.unaccounted_frac']:.3%} "
                            f"of the traced wall time unaccounted")
        trace_probs = wl.trace_check(m)
        attempted += 1
        problems += trace_probs[:1]
        runs.append((unit_no, list(tracer.spans)))
        unit_no += 1
        if not time_left(start, seconds, pair_walls):
            break
    write_spans(spans_path, runs)
    layers = {k: statistics.median_low(v) for k, v in per_unit.items()}
    layers.update(facts.kernel_probe(settings.link_fft_len()))
    return {"attempted": attempted, "failed": len(problems), "problems": problems,
            "units": unit_no, "layers": layers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="wall-clock time the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    for sub in ("work", "out"):
        (HERE / sub).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    try:
        with SpeedSampler() as speed:
            # set-up: the program's import, then the workload's inputs
            t_setup, wall_setup = time.perf_counter(), time.time()
            import bandshape.cli  # noqa: F401
            import bandshape.metrics  # noqa: F401
            wl = WORKLOADS[args.workload](work, args.seed)
            result = {"setup_s": wall_setup - args.t0
                      + speed.normalized(t_setup, time.perf_counter())}
            if not args.setup_only:
                if args.trace:
                    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
                    result.update(measure_traced(wl, args.seconds, speed, spans))
                else:
                    result.update(measure(wl, args.seconds, speed))
                result["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
                result["machine"] = facts.machine_facts(settings.link_fft_len())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
