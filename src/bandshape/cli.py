"""Command-line interface.

Subcommands: trellis build/info, shape, deshape, stats, compare, simulate.
Machine-readable results go to files or stdout; warnings and progress go to
stderr. CSV outputs start with '# key=value' lines echoing the settings
used (readers should skip '#' lines).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .codec import blocks_to_bytes, deshape, shape_stream
from .errors import BandshapeError, ParameterError
# stats calls used_metrics, not the index sweep sampled_metrics, but
# perfbench's tracer wraps cli.sampled_metrics, so the name stays until its
# hooks change (ROADMAP item 1)
from .metrics import (  # noqa: F401
    compare_trellises,
    exact_metrics,
    sampled_metrics,
    used_metrics,
)
from .trellis import (
    Trellis,
    TrellisParams,
    build_band_trellis,
    build_full_trellis,
    load_trellis,
    max_shaping_bits,
    min_emax_for_bits,
    parse_alphabet,
    parse_band,
    save_trellis,
)

DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 12345


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_powers(text: str) -> list[float]:
    """start:step:stop inclusive, or a single value; the sweep ends at the
    last whole step from start that does not pass stop."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ParameterError(f"bad power sweep {text!r}, expected start:step:stop")
    try:
        values = [float(x) for x in parts]
    except ValueError as exc:
        raise ParameterError(f"bad power sweep {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(f"power sweep {text!r} must be finite")
    if len(values) == 1:
        return values
    start, step, stop = values
    if step <= 0:
        raise ParameterError("power sweep step must be positive")
    # the slack keeps float error in the quotient from dropping stop itself
    count = math.floor((stop - start) / step + 1e-9) + 1
    if count < 1:
        raise ParameterError(f"empty power sweep {text!r}")
    return [start + i * step for i in range(count)]


def _summary_lines(trellis: Trellis) -> list[str]:
    p = trellis.params
    band = f"{trellis.band.height},{trellis.band.width}" if trellis.band else "none"
    return [
        f"n={p.n_amplitudes}",
        f"alphabet={','.join(str(a) for a in p.alphabet.amplitudes)}",
        f"emax={p.e_max}",
        f"band={band}",
        f"final_levels={p.num_final_levels}",
        f"sequences={trellis.num_sequences}",
        f"bits={max_shaping_bits(trellis)}",
    ]


def _metric_lines(m, prefix: str) -> list[str]:
    """Amplitude probabilities and moments of exact or sampled metrics."""
    lines = [f"{prefix}p_{a}={pa!r}" for a, pa in zip(m.alphabet, m.p_amp)]
    return lines + [f"{prefix}{key}={getattr(m, key)!r}"
                    for key in ("e2", "e4", "var_e", "kurtosis")]


def cmd_info(args) -> int:
    trellis = load_trellis(args.file)
    for line in _summary_lines(trellis) + _metric_lines(exact_metrics(trellis), ""):
        print(line)
    return 0


def cmd_build(args) -> int:
    alphabet = parse_alphabet(args.alphabet)
    band = parse_band(args.band) if args.band else None
    if args.bits is not None:
        e_max = min_emax_for_bits(args.n, alphabet, args.bits, band=band)
    else:
        e_max = args.emax
    params = TrellisParams(args.n, alphabet, e_max)
    if params.e_max != e_max:
        _log(f"warning: e_max={e_max} is off the energy grid, snapped down "
             f"to {params.e_max}")
    trellis = (build_band_trellis(params, band) if band
               else build_full_trellis(params))
    save_trellis(trellis, args.out)
    _log(f"wrote {args.out}")
    for line in _summary_lines(trellis):
        print(line)
    return 0


def cmd_shape(args) -> int:
    trellis = load_trellis(args.trellis)
    with open(args.infile, "rb") as fh:
        payload = fh.read()
    # framed before --out opens, so a bad payload leaves no partial file
    sequences = shape_stream(trellis, payload)
    blocks = 0
    with open(args.out, "w", encoding="utf-8") as fh:
        for blocks, seq in enumerate(sequences, start=1):
            fh.write(" ".join(map(str, seq)) + "\n")
    _log(f"shaped {blocks} blocks from {len(payload)} bytes")
    return 0


def cmd_deshape(args) -> int:
    trellis = load_trellis(args.trellis)
    k = max_shaping_bits(trellis)
    indices: list[int] = []
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ParameterError(f"not a UTF-8 text file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            seq = tuple(map(int, line.split()))
            indices.append(deshape(trellis, seq))
        except (ValueError, BandshapeError) as exc:
            raise ParameterError(f"line {lineno}: {exc}") from exc
    with open(args.out, "wb") as fh:
        fh.write(blocks_to_bytes(k, indices))
    if k * len(indices) % 8:
        _log(f"note: {k * len(indices)} bits zero-padded to a byte boundary")
    _log(f"deshaped {len(indices)} sequences")
    return 0


def cmd_stats(args) -> int:
    trellis = load_trellis(args.trellis)
    k = max_shaping_bits(trellis)
    exact = exact_metrics(trellis)
    # exact over the used subset: --samples and --seed are accepted, unused
    sampled = used_metrics(trellis)
    print(f"sequences={trellis.num_sequences}")
    print(f"bits={k}")
    for line in _metric_lines(exact, "exact_") + _metric_lines(sampled, "sampled_"):
        print(line)
    print(f"sampled_se_e2={sampled.se_e2!r}")
    print(f"sampled_num_samples={sampled.num_samples}")
    print(f"sampled_seed={args.seed}")
    print("sampled_exhaustive=True")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(f"# trellis={args.trellis} samples={sampled.num_samples} "
                     f"seed={args.seed} exhaustive=True\n")
            fh.write("row,v1,v2,v3,v4\n")
            for a, pe, ps in zip(exact.alphabet, exact.p_amp, sampled.p_amp):
                fh.write(f"p,{a},{pe!r},{ps!r},\n")
            fh.write(f"moments,{exact.e2!r},{exact.e4!r},{exact.var_e!r},"
                     f"{exact.kurtosis!r}\n")
    return 0


def cmd_compare(args) -> int:
    a = load_trellis(args.a)
    b = load_trellis(args.b)
    report = compare_trellises(a, b)
    for key, value in report.items():
        if key == "alphabet":
            value = ",".join(str(x) for x in value)
        print(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    if args.csv:
        keys = [k for k in report if k != "alphabet"]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(f"# a={args.a} b={args.b}\n")
            fh.write(",".join(keys) + "\n")
            fh.write(",".join(repr(float(report[k])) for k in keys) + "\n")
    return 0


_SIM_DEFAULTS = {
    "baud": 50.0, "rolloff": 0.1, "nf": 5.0, "sps": 16, "step_km": 0.1,
    "burst": 16384, "guard": 512, "filter_span": 64, "alpha": 0.2,
    "dispersion": 17.0, "gamma": 1.3, "length": 205.0, "wavelength": 1550.0,
    "seed": 0, "seeds": 1,
}


def run_sweep(*args, **kwargs):
    """`fibersim.run_sweep`, imported on the first call so that only
    `simulate` loads numpy. `cmd_simulate` calls it through this module, so
    a test can substitute a fake sweep here and a tracer can wrap it."""
    from .fibersim import run_sweep
    return run_sweep(*args, **kwargs)


def cmd_simulate(args) -> int:
    from .fibersim import FiberParams, LinkParams, ase_variance

    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ParameterError("no schemes requested")
    if len(set(schemes)) < len(schemes):
        raise ParameterError(f"--schemes names a scheme twice: {args.schemes!r}")
    paths = {"ess": args.trellis_ess, "bess": args.trellis_bess}
    for scheme in schemes:
        if scheme not in paths:
            raise ParameterError(
                f"unknown scheme {scheme!r} (known: {', '.join(paths)})")
        if paths[scheme] is None:
            raise ParameterError(
                f"scheme {scheme!r} needs --trellis-{scheme} "
                f"(known: {', '.join(paths)})"
            )
    for scheme, path in paths.items():
        if path is not None and scheme not in schemes:
            raise ParameterError(
                f"--trellis-{scheme} is given but --schemes {args.schemes!r} "
                f"does not name {scheme!r}"
            )
    powers = _parse_powers(args.powers)
    if args.seeds < 1:
        raise ParameterError(f"seed sweep needs at least one seed, got {args.seeds}")
    link = LinkParams(
        baud_rate_gbd=args.baud, rrc_rolloff=args.rolloff, edfa_nf_db=args.nf,
        launch_power_dbm=powers[0], sps=args.sps, step_km=args.step_km,
        seed=args.seed, burst_symbols=args.burst,
        filter_span_symbols=args.filter_span, guard_symbols=args.guard,
    )
    fiber = FiberParams(
        alpha_db_per_km=args.alpha, dispersion_ps_nm_km=args.dispersion,
        gamma_per_w_km=args.gamma, length_km=args.length,
        ref_wavelength_nm=args.wavelength,
    )
    for power in powers[1:]:
        replace(link, launch_power_dbm=power)  # each power's own range check
    # the amplifier noise does not depend on the launch power: one check
    ase_variance(link.sample_rate_hz, fiber.alpha_db_per_km * fiber.length_km,
                 link.edfa_nf_db, fiber.ref_wavelength_nm)
    # every setting is checked above, so a bad one fails before a load
    trellis_by_scheme: dict[str, Trellis] = {
        scheme: load_trellis(paths[scheme]) for scheme in schemes
    }
    _log(f"sweep: schemes={schemes} powers={powers} seeds={args.seeds}")
    # open --out before the sweep, so a path that cannot be written fails
    # before any propagation, and remove it again if the sweep fails
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w",
                                                          encoding="utf-8")
    try:
        rows = run_sweep(trellis_by_scheme, powers, args.seeds, link, fiber)
        for key in sorted(_SIM_DEFAULTS):
            out.write(f"# {key}={getattr(args, key)}\n")
        out.write(f"# schemes={','.join(schemes)} "
                  f"powers={args.powers}\n")
        out.write("scheme,launch_power_dbm,snr_db,seed,step_km,sps,burst_symbols\n")
        for r in rows:
            out.write(f"{r['scheme']},{r['launch_power_dbm']!r},{r['snr_db']!r},"
                      f"{r['seed']},{r['step_km']!r},{r['sps']},"
                      f"{r['burst_symbols']}\n")
    except BaseException:
        if out is not sys.stdout:
            out.close()
            os.remove(args.out)
        raise
    if out is not sys.stdout:
        out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandshape",
        description="Sphere-shaping codec (full and band-restricted trellises) "
                    "with a desk-scale single-span fiber simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trellis = sub.add_parser("trellis", help="build or inspect trellis files")
    tsub = trellis.add_subparsers(dest="action", required=True)
    build = tsub.add_parser("build", help="construct a trellis and write it out")
    build.add_argument("--n", type=int, required=True, help="sequence length")
    build.add_argument("--alphabet", required=True,
                       help="comma-separated odd amplitudes, e.g. 1,3,5")
    group = build.add_mutually_exclusive_group(required=True)
    group.add_argument("--emax", type=int, help="maximum sequence energy")
    group.add_argument("--bits", type=int,
                       help="pick the smallest e_max reaching this many bits")
    build.add_argument("--band", help="band restriction HEIGHT,WIDTH")
    build.add_argument("--out", required=True, help="output trellis file")
    build.set_defaults(run=cmd_build)
    info = tsub.add_parser("info", help="print parameters, counts, and metrics")
    info.add_argument("file")
    info.set_defaults(run=cmd_info)

    shape_p = sub.add_parser("shape", help="bit file -> amplitude file")
    shape_p.add_argument("--trellis", required=True)
    shape_p.add_argument("--in", dest="infile", required=True)
    shape_p.add_argument("--out", required=True)
    shape_p.set_defaults(run=cmd_shape)

    deshape_p = sub.add_parser("deshape", help="amplitude file -> bit file")
    deshape_p.add_argument("--trellis", required=True)
    deshape_p.add_argument("--in", dest="infile", required=True)
    deshape_p.add_argument("--out", required=True)
    deshape_p.set_defaults(run=cmd_deshape)

    stats = sub.add_parser("stats", help="exact metrics of the whole trellis "
                                         "and of the 2^k used sequences")
    stats.add_argument("--trellis", required=True)
    stats.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help="accepted and ignored: the sampled_ keys are "
                            "exact over the 2^k used indices")
    stats.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="accepted, echoed as sampled_seed, and ignored")
    stats.add_argument("--csv", help="also write a CSV report")
    stats.set_defaults(run=cmd_stats)

    compare = sub.add_parser("compare", help="side-by-side metrics of two trellises")
    compare.add_argument("--a", required=True)
    compare.add_argument("--b", required=True)
    compare.add_argument("--csv", help="also write a CSV report")
    compare.set_defaults(run=cmd_compare)

    simulate = sub.add_parser("simulate", help="launch-power sweep over the fiber")
    simulate.add_argument("--trellis-ess", dest="trellis_ess")
    simulate.add_argument("--trellis-bess", dest="trellis_bess")
    simulate.add_argument("--schemes", default="ess",
                          help="comma list drawn from: ess, bess")
    simulate.add_argument("--powers", default="-2:1:8",
                          help="launch power dBm sweep start:step:stop, inclusive "
                               "(write --powers=-2:1:8 when start is negative)")
    simulate.add_argument("--out", help="CSV output path (default stdout)")
    for key, default in _SIM_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        simulate.add_argument(flag, dest=key, type=type(default), default=default,
                              help=f"default {default}")
    simulate.set_defaults(run=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (BandshapeError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
