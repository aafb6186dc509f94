"""Outside-in span tracing of bandshape, done entirely from the benchmark.

The program looks its collaborators up at call time (`fibersim.fft`,
`_kernels.kerr_phase`, the names `cli` imported from `trellis`, ...), so
swapping a module attribute for a recording wrapper puts a span at that
layer boundary without touching the program. Spans live in memory as
(name, start_ns, end_ns, parent) and are written out when the run ends.
A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("cli", "trellis", "codec", "metrics", "pasmap", "fibersim", "kernels")


def _wrap_points():
    """(module, attribute, span name, hook) for every traced boundary.

    Each binding a caller resolves at call time gets its own entry: `cli`
    calls `load_trellis` through its own namespace, `metrics` calls
    `exact_metrics` through its own, and so on.
    """
    from bandshape import _kernels, cli, codec, fibersim, metrics, pasmap, trellis

    def fft_len(tr, args, kwargs, result, parent):
        tr.counts["fibersim.fft_len"] = max(tr.counts["fibersim.fft_len"], len(args[0]))

    def nodes(tr, args, kwargs, result, parent):
        if result is not None:
            tr.counts["trellis.nodes"] += sum(
                len(result.levels(n)) for n in range(result.params.n_amplitudes + 1))

    def band_nodes(tr, args, kwargs, result, parent):
        nodes(tr, args, kwargs, result, parent)
        if parent == "metrics.find_band_operating_point" and result is not None:
            tr.counts["metrics.band_feasible"] += 1

    def file_bytes(tr, args, kwargs, result, parent):
        if result is not None:
            tr.counts["trellis.file_bytes"] += len(result.encode("utf-8"))

    def samples(tr, args, kwargs, result, parent):
        if result is not None:
            tr.counts["metrics.samples"] += result.num_samples

    def candidate(tr, args, kwargs, result, parent):
        if parent == "metrics.find_band_operating_point" and kwargs.get("band"):
            tr.counts["metrics.band_candidates"] += 1

    def rails(tr, args, kwargs, result, parent):
        if parent == "fibersim.shaped_rails":
            tr.counts["fibersim.rails_encode_calls"] += 1

    points = [
        (cli, "main", "cli.main", None),
        (cli, "load_trellis", "trellis.load_trellis", None),
        (cli, "save_trellis", "trellis.save_trellis", None),
        (cli, "build_full_trellis", "trellis.build_full_trellis", nodes),
        (cli, "build_band_trellis", "trellis.build_band_trellis", nodes),
        (cli, "min_emax_for_bits", "trellis.min_emax_for_bits", None),
        (cli, "shape_stream", "codec.shape_stream", None),
        (cli, "deshape", "codec.deshape", None),
        (cli, "exact_metrics", "metrics.exact_metrics", None),
        (cli, "sampled_metrics", "metrics.sampled_metrics", samples),
        (cli, "compare_trellises", "metrics.compare_trellises", None),
        (cli, "run_sweep", "fibersim.run_sweep", None),
        (trellis, "deserialize", "trellis.deserialize", None),
        (trellis, "serialize", "trellis.serialize", file_bytes),
        (codec, "shape", "codec.shape", None),
        (metrics, "min_emax_for_bits", "trellis.min_emax_for_bits", candidate),
        (metrics, "build_full_trellis", "trellis.build_full_trellis", nodes),
        (metrics, "build_band_trellis", "trellis.build_band_trellis", band_nodes),
        (metrics, "exact_metrics", "metrics.exact_metrics", None),
        (metrics, "encode_index", "codec.encode_index", None),
        (metrics, "find_band_operating_point", "metrics.find_band_operating_point", None),
        (fibersim, "run_link", "fibersim.run_link", None),
        (fibersim, "_shaped_rails", "fibersim.shaped_rails", None),
        (fibersim, "encode_index", "codec.encode_index", rails),
        (fibersim, "modulate", "fibersim.modulate", None),
        (fibersim, "ssfm_span", "fibersim.ssfm_span", None),
        (fibersim, "fft", "fibersim.fft", fft_len),
        (fibersim, "ifft", "fibersim.ifft", None),
        (fibersim, "edfa", "fibersim.edfa", None),
        (fibersim, "cd_compensate", "fibersim.cd_compensate", None),
        (fibersim, "demodulate", "fibersim.demodulate", None),
        (fibersim, "effective_snr", "fibersim.effective_snr", None),
        (pasmap, "map_ask", "pasmap.map_ask", None),
        (pasmap, "map_qam", "pasmap.map_qam", None),
        (pasmap, "normalize", "pasmap.normalize", None),
        (_kernels, "kerr_phase", "kernels.kerr_phase", None),
    ]
    return points


class Tracer:
    """Records spans while installed; `install()` returns an undo callable."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []

    def _wrapper(self, original, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0, 0, parent))  # completed when the call ends
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if hook is not None:
                    hook(self, args, kwargs, result,
                         spans[parent][0] if parent >= 0 else None)

        return traced

    def install(self):
        undo = []
        for module, attr, name, hook in _wrap_points():
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(original, name, hook))
            undo.append((module, attr, original))

        def uninstall():
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

        return uninstall

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Inclusive seconds, self seconds and call count per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, self_ns, calls = defaultdict(int), defaultdict(int), defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            incl[name] += end - start
            self_ns[name] += end - start - child[i]
            calls[name] += 1
        return {"incl_s": {k: v / 1e9 for k, v in incl.items()},
                "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "calls": dict(calls)}


def write_spans(path, runs) -> None:
    """Write (unit number, spans) pairs as one JSON object per span."""
    with open(path, "w", encoding="utf-8") as fh:
        for unit, spans in runs:
            for name, start, end, parent in spans:
                fh.write(json.dumps({"unit": unit, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced unit of work, named as in BENCHMARK.json."""
    s = tracer.summary()
    incl, self_s, calls, counts = s["incl_s"], s["self_s"], s["calls"], tracer.counts

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    builds = ("trellis.build_full_trellis", "trellis.build_band_trellis")
    shapes, deshapes = n("codec.shape"), n("codec.deshape")
    out = {
        "fibersim.ssfm_s": t("fibersim.ssfm_span"),
        "fibersim.ssfm_self_s": self_s.get("fibersim.ssfm_span", 0.0),
        "fibersim.fft_s": t("fibersim.fft", "fibersim.ifft"),
        "fibersim.fft_calls": n("fibersim.fft", "fibersim.ifft"),
        "fibersim.fft_len": counts["fibersim.fft_len"],
        "kernels.kerr_s": t("kernels.kerr_phase"),
        "kernels.kerr_calls": n("kernels.kerr_phase"),
        "fibersim.modulate_s": t("fibersim.modulate"),
        "fibersim.edfa_s": t("fibersim.edfa"),
        "fibersim.cd_s": t("fibersim.cd_compensate"),
        "fibersim.demod_s": t("fibersim.demodulate"),
        "fibersim.snr_s": t("fibersim.effective_snr"),
        "fibersim.rails_encode_calls": counts["fibersim.rails_encode_calls"],
        "pasmap.map_s": t("pasmap.map_ask", "pasmap.map_qam", "pasmap.normalize"),
        "trellis.load_s": t("trellis.load_trellis"),
        "trellis.loads": n("trellis.load_trellis"),
        "trellis.deserialize_s": t("trellis.deserialize"),
        "codec.encode_us": t("codec.shape") / shapes * 1e6 if shapes else 0.0,
        "codec.decode_us": t("codec.deshape") / deshapes * 1e6 if deshapes else 0.0,
        "codec.blocks": shapes,
        "trellis.emax_search_s": t("trellis.min_emax_for_bits"),
        "trellis.emax_search_calls": n("trellis.min_emax_for_bits"),
        "trellis.build_s": t(*builds),
        "trellis.builds": n(*builds),
        "trellis.nodes": counts["trellis.nodes"],
        "trellis.serialize_s": t("trellis.serialize"),
        "trellis.file_bytes": counts["trellis.file_bytes"],
        "metrics.exact_s": t("metrics.exact_metrics"),
        "metrics.sampled_s": t("metrics.sampled_metrics"),
        "metrics.samples": counts["metrics.samples"],
        "metrics.band_candidates": counts["metrics.band_candidates"],
        "metrics.band_feasible_ratio": (
            counts["metrics.band_feasible"] / counts["metrics.band_candidates"]
            if counts["metrics.band_candidates"] else 0.0),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, sec in self_s.items():
        layer_self[name.split(".", 1)[0]] += sec
    for layer, sec in layer_self.items():
        out[f"{layer}.self_s"] = sec
    accounted = sum(layer_self.values())
    out["trace.wall_s"] = wall_s
    out["trace.unaccounted_frac"] = (wall_s - accounted) / wall_s
    out["trace.spans"] = len(tracer.spans)
    return out
