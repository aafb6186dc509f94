#!/usr/bin/env python3
"""Regenerate the stored references under perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_refs.py link      # ~10 min
    PYTHONPATH=src python3 perfbench/make_refs.py codebook  # ~2 min

`link` runs the link_sweep simulate call at the fine reference step
(settings.REF_STEP_KM) for each seed in settings.REF_SEEDS. `codebook`
records the exact CLI outputs of the codebook_design workload and the exact
statistics of the used index subset [0, 2**k), against which the
Monte-Carlo `stats` keys are checked.
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import settings  # noqa: E402
from workload import key_values, run_cli, search_summary  # noqa: E402


def _work_dir() -> Path:
    (HERE / "work").mkdir(exist_ok=True)
    return HERE / "work"


def _quiet(argv):
    code, out = run_cli(argv)
    if code != 0:
        raise SystemExit(f"bandshape {' '.join(map(str, argv))} exited {code}: {out}")
    return out


def make_link():
    refs = {}
    with tempfile.TemporaryDirectory(dir=_work_dir()) as tmp:
        tmp = Path(tmp)
        _quiet(settings.build_argv(tmp / "ess.trellis"))
        _quiet(settings.build_argv(tmp / "bess.trellis", settings.BAND))
        for seed in settings.REF_SEEDS:
            out = tmp / f"ref{seed}.csv"
            _quiet(settings.simulate_argv(tmp / "ess.trellis", tmp / "bess.trellis",
                                          seed, out, step_km=settings.REF_STEP_KM))
            rows = csv.DictReader(line for line in out.read_text().splitlines()
                                  if not line.startswith("#"))
            refs[str(seed)] = {f"{r['scheme']}@{float(r['launch_power_dbm'])!r}":
                               float(r["snr_db"]) for r in rows}
            print(f"seed {seed}: {refs[str(seed)]}", file=sys.stderr)
    doc = {
        "command": "PYTHONPATH=src python3 perfbench/make_refs.py link",
        "simulate": " ".join(settings.simulate_argv(
            "ess.trellis", "bess.trellis", "<seed>", "ref.csv",
            step_km=settings.REF_STEP_KM)),
        "step_km": settings.REF_STEP_KM,
        "snr_db": refs,
    }
    (HERE / "reference" / "link_sweep.json").write_text(json.dumps(doc, indent=1) + "\n")


def _used_moments(trellis, k: int, u, v) -> tuple[int, int, int, int]:
    """(count, sum U, sum V, sum U*V) over the sequences with index < 2**k,
    where U and V add up the integer weights u[j] and v[j] of a sequence's
    amplitudes (j indexes the alphabet).

    [0, 2**k) is a union of whole subtrees hanging off the path of index
    2**k: at each column, every branch below the one that path takes. A
    backward table of the same four sums over each node's completions gives
    each subtree's part exactly.
    """
    squares = trellis.params.alphabet.squares
    n_len = trellis.params.n_amplitudes

    def prepend(sums, du, dv):
        c, su, sv, suv = sums
        return c, su + c * du, sv + c * dv, suv + du * sv + dv * su + c * du * dv

    def add(x, y):
        return tuple(a + b for a, b in zip(x, y))

    table = [dict() for _ in range(n_len + 1)]
    table[n_len] = {e: (1, 0, 0, 0) for e in trellis.levels(n_len)}
    for n in range(n_len - 1, -1, -1):
        for e in trellis.levels(n):
            acc = (0, 0, 0, 0)
            for j, s in enumerate(squares):
                if e + s in table[n + 1]:
                    acc = add(acc, prepend(table[n + 1][e + s], u[j], v[j]))
            table[n][e] = acc
    remainder, energy, pu, pv = 1 << k, 0, 0, 0
    total = (0, 0, 0, 0)
    for n in range(n_len):
        for j, s in enumerate(squares):
            sub = table[n + 1].get(energy + s)
            if sub is None:
                continue
            if remainder >= sub[0]:
                total = add(total, prepend(sub, pu + u[j], pv + v[j]))
                remainder -= sub[0]
            else:
                pu, pv, energy = pu + u[j], pv + v[j], energy + s
                break
    if total[0] != 1 << k:
        raise AssertionError(f"covered {total[0]} of {1 << k} indices")
    return total


def used_subset_stats(trellis, k: int) -> dict:
    """Exact `stats` keys over the used indices [0, 2**k), and each key's
    per-sequence standard deviation (to first order for var_e and kurtosis),
    from which a Monte-Carlo estimate's standard error follows."""
    from fractions import Fraction

    amps = trellis.params.alphabet.amplitudes
    n_len = trellis.params.n_amplitudes

    def moments(u, v):
        c, su, sv, suv = _used_moments(trellis, k, u, v)
        return Fraction(su, c), Fraction(sv, c), Fraction(suv, c)

    p, sd = {}, {}
    for a in amps:
        ind = [int(b == a) for b in amps]
        mean, _, sq = moments(ind, ind)
        p[str(a)] = float(mean / n_len)
        sd[f"p_{a}"] = math.sqrt(sq - mean * mean) / n_len
    w2, w4 = [a ** 2 for a in amps], [a ** 4 for a in amps]
    m2, m4, m24 = moments(w2, w4)
    var2 = moments(w2, w2)[2] - m2 * m2
    var4 = moments(w4, w4)[2] - m4 * m4
    cov = m24 - m2 * m4
    e2, e4 = m2 / n_len, m4 / n_len

    def sd_of(g2, g4):  # of g2 * e2 + g4 * e4 for one sequence
        return math.sqrt(g2 * g2 * var2 + 2 * g2 * g4 * cov + g4 * g4 * var4) / n_len

    sd["e2"], sd["e4"] = sd_of(1, 0), sd_of(0, 1)
    sd["var_e"] = sd_of(-2 * e2, 1)
    sd["kurtosis"] = sd_of(-2 * e4 / e2 ** 3, 1 / e2 ** 2)
    return {"p": p, "e2": float(e2), "e4": float(e4),
            "sd": {key: float(x) for key, x in sd.items()}}


def _check_used_subset():
    """used_subset_stats against a sweep of every used index of small trellises."""
    import statistics
    from bandshape.codec import encode_index
    from bandshape.metrics import sampled_metrics
    from bandshape.trellis import Alphabet, BandParams, TrellisParams, _build, max_shaping_bits

    for band in (None, BandParams(3, 1)):
        t = _build(TrellisParams(8, Alphabet((1, 3, 5, 7)), 120), band)
        k = max_shaping_bits(t)
        want = sampled_metrics(t, k, 1, 0, exhaustive=True)
        got = used_subset_stats(t, k)
        seqs = [encode_index(t, i).values for i in range(1 << k)]
        sd_e2 = statistics.pstdev(sum(x * x for x in s) / 8 for s in seqs)
        sd_p1 = statistics.pstdev(s.count(1) / 8 for s in seqs)
        if (tuple(got["p"].values()) != want.p_amp or got["e2"] != want.e2
                or got["e4"] != want.e4 or not math.isclose(got["sd"]["e2"], sd_e2)
                or not math.isclose(got["sd"]["p_1"], sd_p1)):
            raise AssertionError(f"used-subset statistics disagree: {got} vs {want}")


def make_codebook():
    from bandshape import metrics
    from bandshape.trellis import Alphabet, load_trellis, max_shaping_bits

    _check_used_subset()

    doc = {"command": "PYTHONPATH=src python3 perfbench/make_refs.py codebook"}
    with tempfile.TemporaryDirectory(dir=_work_dir()) as tmp:
        tmp = Path(tmp)
        paths = {"ess": tmp / "ess.trellis", "bess": tmp / "bess.trellis"}
        doc["build_ess"] = key_values(_quiet(settings.build_argv(paths["ess"])))
        doc["build_bess"] = key_values(_quiet(settings.build_argv(paths["bess"], settings.BAND)))
        for name, emax in (("ess", settings.ESS_EMAX), ("bess", settings.BESS_EMAX)):
            if doc[f"build_{name}"]["emax"] != str(emax):
                raise SystemExit(f"{name} built with e_max {doc[f'build_{name}']['emax']}")
        for name, path in paths.items():
            doc[f"info_{name}"] = key_values(_quiet(["trellis", "info", str(path)]))
            stats = key_values(_quiet(["stats", "--trellis", str(path), "--samples", "1"]))
            trellis = load_trellis(path)
            doc[f"stats_{name}"] = {
                "exact": {k: v for k, v in stats.items()
                          if k.startswith("exact_") or k in ("sequences", "bits")},
                "used_subset": used_subset_stats(trellis, max_shaping_bits(trellis)),
            }
        doc["compare"] = key_values(_quiet(["compare", "--a", str(paths["ess"]),
                                    "--b", str(paths["bess"])]))
    op = metrics.find_band_operating_point(
        settings.N, Alphabet(settings.AMPLITUDES), settings.BITS)
    doc["search"] = search_summary(op)
    (HERE / "reference" / "codebook_design.json").write_text(
        json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    {"link": make_link, "codebook": make_codebook}[sys.argv[1]]()
