import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandshape import _kernels, cli, codec, metrics
from bandshape.cli import _parse_powers, build_parser, main
from bandshape.errors import ParameterError
from bandshape.trellis import (
    Alphabet,
    BandParams,
    TrellisParams,
    build_band_trellis,
    build_full_trellis,
    load_trellis,
    max_shaping_bits,
    min_emax_for_bits,
    save_trellis,
    serialize,
)

from oracles import (
    bits_to_bytes,
    bits_to_index,
    bytes_to_bits,
    enumerate_sequences,
    index_to_bits,
)


def build_toy(tmp_path, name="toy.trellis"):
    path = tmp_path / name
    assert main(["trellis", "build", "--n", "3", "--alphabet", "1,3,5",
                 "--emax", "27", "--out", str(path)]) == 0
    return path


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, val = line.partition("=")
            pairs[key] = val
    return pairs


class TestTrellisBuild:
    def test_build_summary(self, tmp_path, capsys):
        path = build_toy(tmp_path)
        out = kv(capsys.readouterr().out)
        assert out["sequences"] == "11"
        assert out["bits"] == "3"
        assert out["final_levels"] == "4"
        t = load_trellis(path)
        assert t.num_sequences == 11

    def test_bits_auto_emax(self, tmp_path, capsys):
        path = tmp_path / "auto.trellis"
        assert main(["trellis", "build", "--n", "12", "--alphabet", "1,3,5,7",
                     "--bits", "18", "--out", str(path)]) == 0
        out = kv(capsys.readouterr().out)
        want = min_emax_for_bits(12, Alphabet((1, 3, 5, 7)), 18)
        assert out["emax"] == str(want)
        assert int(out["bits"]) >= 18

    def test_bits_band_auto_emax(self, tmp_path, capsys):
        # the CLI starts the band scan at the sphere minimum (15 here)
        path = tmp_path / "band.trellis"
        assert main(["trellis", "build", "--n", "7", "--alphabet", "1,3,5,7",
                     "--bits", "3", "--band", "2,1", "--out", str(path)]) == 0
        alphabet, band = Alphabet((1, 3, 5, 7)), BandParams(2, 1)
        e_max = min_emax_for_bits(7, alphabet, 3, band=band)
        want = build_band_trellis(TrellisParams(7, alphabet, e_max), band)
        assert path.read_text() == serialize(want)

    def test_band_build(self, tmp_path, capsys):
        path = tmp_path / "band.trellis"
        assert main(["trellis", "build", "--n", "7", "--alphabet", "1,3,5,7",
                     "--emax", "63", "--band", "2,1", "--out", str(path)]) == 0
        t = load_trellis(path)
        assert t.band is not None and t.band.height == 2

    def test_invalid_params_exit(self, tmp_path, capsys):
        rc = main(["trellis", "build", "--n", "3", "--alphabet", "1,3,5",
                   "--emax", "2", "--out", str(tmp_path / "x.trellis")])
        assert rc != 0
        assert capsys.readouterr().err != ""

    def test_offgrid_warning(self, tmp_path, capsys):
        path = tmp_path / "snap.trellis"
        assert main(["trellis", "build", "--n", "3", "--alphabet", "1,3,5",
                     "--emax", "30", "--out", str(path)]) == 0
        captured = capsys.readouterr()
        assert "27" in captured.err  # warning names the snapped value
        assert kv(captured.out)["emax"] == "27"

    def test_info(self, tmp_path, capsys):
        path = build_toy(tmp_path)
        capsys.readouterr()
        assert main(["trellis", "info", str(path)]) == 0
        out = kv(capsys.readouterr().out)
        assert out["sequences"] == "11"
        assert out["n"] == "3"
        assert float(out["e2"]) == pytest.approx(201 / 33, abs=1e-9)

    def test_info_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "binary.trellis"
        path.write_bytes(b"\xff\xfe\x00\x81 not a trellis")
        assert main(["trellis", "info", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestShapeDeshape:
    def test_round_trip(self, tmp_path, capsys):
        trellis = build_toy(tmp_path)
        bits_in = tmp_path / "payload.bin"
        bits_in.write_bytes(bytes([0b10110001, 0xFF, 0x00]))  # 24 bits = 8 blocks
        amps = tmp_path / "amps.txt"
        bits_out = tmp_path / "back.bin"
        assert main(["shape", "--trellis", str(trellis), "--in", str(bits_in),
                     "--out", str(amps)]) == 0
        assert main(["deshape", "--trellis", str(trellis), "--in", str(amps),
                     "--out", str(bits_out)]) == 0
        assert bits_out.read_bytes() == bits_in.read_bytes()
        lines = amps.read_text().strip().splitlines()
        assert len(lines) == 8
        assert all(len(line.split()) == 3 for line in lines)

    def test_empty_input(self, tmp_path):
        trellis = build_toy(tmp_path)
        bits_in = tmp_path / "empty.bin"
        bits_in.write_bytes(b"")
        amps = tmp_path / "amps.txt"
        assert main(["shape", "--trellis", str(trellis), "--in", str(bits_in),
                     "--out", str(amps)]) == 0
        assert amps.read_text() == ""

    def test_partial_block_framing_error(self, tmp_path, capsys):
        trellis = build_toy(tmp_path)
        bits_in = tmp_path / "bad.bin"
        bits_in.write_bytes(b"\xaa")  # 8 bits, k=3 -> trailing 2 bits
        amps = tmp_path / "amps.txt"
        rc = main(["shape", "--trellis", str(trellis), "--in", str(bits_in),
                   "--out", str(amps)])
        assert rc == 2
        assert "2 trailing bits do not fill a k=3 block" in capsys.readouterr().err
        assert not amps.exists()  # not even the two whole blocks before the tail

    def test_out_of_codebook_names_line(self, tmp_path, capsys):
        trellis = build_toy(tmp_path)
        amps = tmp_path / "edited.txt"
        amps.write_text("1 1 1\n5 1 1\n")  # index 10 >= 2**3
        capsys.readouterr()
        rc = main(["deshape", "--trellis", str(trellis), "--in", str(amps),
                   "--out", str(tmp_path / "bits.bin")])
        assert rc != 0
        assert "line 2" in capsys.readouterr().err

    def test_deshape_pads_partial_byte(self, tmp_path, capsys):
        # k=3, indices 0, 7, 1: 9 bits 000 111 001, zero-padded to two bytes
        trellis = build_toy(tmp_path)
        amps = tmp_path / "amps.txt"
        amps.write_text("1 1 1\n3 1 3\n1 1 3\n")
        out = tmp_path / "bits.bin"
        capsys.readouterr()
        assert main(["deshape", "--trellis", str(trellis), "--in", str(amps),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == bytes([0b00011100, 0b10000000])
        err = capsys.readouterr().err
        assert "note: 9 bits zero-padded" in err
        assert "deshaped 3 sequences" in err

    def test_deshape_skips_blank_lines(self, tmp_path, capsys):
        # the same three sequences as above, around empty and blank lines
        trellis = build_toy(tmp_path)
        amps = tmp_path / "amps.txt"
        amps.write_text("\n1 1 1\n \t\n3 1 3\n\n1 1 3\n\n")
        out = tmp_path / "bits.bin"
        capsys.readouterr()
        assert main(["deshape", "--trellis", str(trellis), "--in", str(amps),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == bytes([0b00011100, 0b10000000])
        assert "deshaped 3 sequences" in capsys.readouterr().err

    def test_deshape_non_utf8_file(self, tmp_path, capsys):
        trellis = build_toy(tmp_path)
        amps = tmp_path / "binary.txt"
        amps.write_bytes(b"\xff\xfe\n")
        capsys.readouterr()
        rc = main(["deshape", "--trellis", str(trellis), "--in", str(amps),
                   "--out", str(tmp_path / "bits.bin")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


def build_single(tmp_path):
    """A one-sequence codebook, (1, 1, 1), so k = 0."""
    t = build_full_trellis(TrellisParams(3, Alphabet((1, 3, 5)), 3))
    assert max_shaping_bits(t) == 0
    path = tmp_path / "single.trellis"
    save_trellis(t, path)
    return path


class TestZeroBitCodebook:
    def test_nonempty_payload_framing_error(self, tmp_path, capsys):
        trellis = build_single(tmp_path)
        payload = tmp_path / "one.bin"
        payload.write_bytes(b"\x00")
        amps = tmp_path / "amps.txt"
        rc = main(["shape", "--trellis", str(trellis), "--in", str(payload),
                   "--out", str(amps)])
        assert rc == 2
        assert "8 trailing bits do not fill a k=0 block" in capsys.readouterr().err
        assert not amps.exists()

    def test_empty_payload_zero_blocks(self, tmp_path, capsys):
        trellis = build_single(tmp_path)
        payload = tmp_path / "empty.bin"
        payload.write_bytes(b"")
        amps = tmp_path / "amps.txt"
        assert main(["shape", "--trellis", str(trellis), "--in", str(payload),
                     "--out", str(amps)]) == 0
        assert amps.read_text() == ""
        assert "shaped 0 blocks" in capsys.readouterr().err

    def test_deshape_counts_lines(self, tmp_path, capsys):
        trellis = build_single(tmp_path)
        amps = tmp_path / "amps.txt"
        amps.write_text("1 1 1\n1 1 1\n")
        out = tmp_path / "bits.bin"
        capsys.readouterr()
        assert main(["deshape", "--trellis", str(trellis), "--in", str(amps),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == b""
        assert "deshaped 2 sequences" in capsys.readouterr().err


@st.composite
def small_codebooks(draw):
    """(params, band) of a small trellis plus its sequences; about half the
    draws hold fewer than two sequences (k = 0) and are skipped by the tests."""
    n = draw(st.integers(2, 6))
    amps = tuple(sorted(draw(st.sets(st.sampled_from((1, 3, 5, 7)), min_size=2))))
    lo, hi = n * amps[0] ** 2, n * amps[-1] ** 2
    e_max = lo + 8 * draw(st.integers(0, (hi - lo) // 8))
    band = draw(st.none() | st.builds(BandParams, st.integers(1, 3), st.integers(0, 2)))
    sequences = enumerate_sequences(n, amps, e_max,
                                    band=(band.height, band.width) if band else None)
    return TrellisParams(n, Alphabet(amps), e_max), band, sequences


class TestShapeDeshapeOracle:
    """The CLI against the per-bit packers and the brute-force enumeration."""

    @staticmethod
    def _trellis(codebook):
        params, band, sequences = codebook
        if len(sequences) < 2:
            return None
        t = build_band_trellis(params, band) if band else build_full_trellis(params)
        assert t.num_sequences == len(sequences)
        return t, sequences

    @settings(max_examples=120, deadline=None)
    @given(small_codebooks(), st.data())
    def test_shape_then_deshape(self, codebook, data):
        built = self._trellis(codebook)
        if built is None:
            return
        t, sequences = built
        k = max_shaping_bits(t)
        unit = math.lcm(k, 8) // 8  # bytes in the smallest whole-block payload
        payload = data.draw(st.binary(max_size=4 * unit).map(
            lambda b: b[: len(b) - len(b) % unit]))
        bits = bytes_to_bits(payload)
        want = [sequences[bits_to_index(bits[i:i + k])]
                for i in range(0, len(bits), k)]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_trellis(t, tmp / "t.trellis")
            (tmp / "in.bin").write_bytes(payload)
            assert main(["shape", "--trellis", str(tmp / "t.trellis"),
                         "--in", str(tmp / "in.bin"), "--out", str(tmp / "amps.txt")]) == 0
            lines = (tmp / "amps.txt").read_text().splitlines()
            assert [tuple(int(v) for v in line.split()) for line in lines] == want
            assert main(["deshape", "--trellis", str(tmp / "t.trellis"),
                         "--in", str(tmp / "amps.txt"), "--out", str(tmp / "back.bin")]) == 0
            assert (tmp / "back.bin").read_bytes() == payload

    @settings(max_examples=120, deadline=None)
    @given(small_codebooks(), st.data())
    def test_deshape_any_line_count(self, codebook, data):
        built = self._trellis(codebook)
        if built is None:
            return
        t, sequences = built
        k = max_shaping_bits(t)
        indices = data.draw(st.lists(st.integers(0, (1 << k) - 1), max_size=12))
        bits = [b for i in indices for b in index_to_bits(i, k)]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_trellis(t, tmp / "t.trellis")
            (tmp / "amps.txt").write_text(
                "".join(" ".join(map(str, sequences[i])) + "\n" for i in indices))
            assert main(["deshape", "--trellis", str(tmp / "t.trellis"),
                         "--in", str(tmp / "amps.txt"), "--out", str(tmp / "back.bin")]) == 0
            assert (tmp / "back.bin").read_bytes() == bits_to_bytes(bits)


class TestStats:
    def test_report_and_csv(self, tmp_path, capsys):
        trellis = build_toy(tmp_path)
        csv_path = tmp_path / "stats.csv"
        capsys.readouterr()
        assert main(["stats", "--trellis", str(trellis), "--samples", "200",
                     "--seed", "5", "--csv", str(csv_path)]) == 0
        out = kv(capsys.readouterr().out)
        assert float(out["exact_e2"]) == pytest.approx(201 / 33, abs=1e-9)
        assert out["sampled_seed"] == "5"
        text = csv_path.read_text()
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "row,v1,v2,v3,v4"
        assert len([r for r in rows if r.startswith("p,")]) == 3
        assert len([r for r in rows if r.startswith("moments,")]) == 1
        # every row fills the five header columns; p rows leave v4 empty
        assert all(len(r.split(",")) == 5 for r in rows)
        assert all(r.endswith(",") for r in rows if r.startswith("p,"))

    def test_exhaustive(self, tmp_path, capsys):
        # k = 3: the sampled_ keys are exact over all 8 used indices
        trellis = build_toy(tmp_path)
        capsys.readouterr()
        assert main(["stats", "--trellis", str(trellis), "--samples", "200"]) == 0
        out = kv(capsys.readouterr().out)
        assert out["sampled_num_samples"] == "8"
        assert out["sampled_exhaustive"] == "True"

    def test_encodes_no_index(self, tmp_path, capsys, monkeypatch):
        # a 64-bit codebook: the used-subset keys are exact and come from a
        # forward pass, not from encoding indices, however many are asked for
        a1357 = Alphabet((1, 3, 5, 7))
        path = tmp_path / "k64.trellis"
        params = TrellisParams(40, a1357, min_emax_for_bits(40, a1357, 64))
        save_trellis(build_full_trellis(params), path)

        def refuse(*args):
            raise AssertionError("stats encoded an index")

        monkeypatch.setattr(metrics, "encode_index", refuse)
        monkeypatch.setattr(codec, "encode_index", refuse)
        capsys.readouterr()
        assert main(["stats", "--trellis", str(path), "--samples", "50",
                     "--seed", "3"]) == 0
        out = kv(capsys.readouterr().out)
        assert out["bits"] == "64"
        assert out["sampled_num_samples"] == str(1 << 64)
        assert (out["sampled_exhaustive"], out["sampled_seed"]) == ("True", "3")

    def test_exhaustive_flag_gone(self, tmp_path, capsys):
        trellis = build_toy(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["stats", "--trellis", str(trellis), "--exhaustive"])
        assert exit_info.value.code == 2
        assert "--exhaustive" in capsys.readouterr().err


class TestCompare:
    def test_self_zero_deltas(self, tmp_path, capsys):
        trellis = build_toy(tmp_path)
        capsys.readouterr()
        assert main(["compare", "--a", str(trellis), "--b", str(trellis)]) == 0
        out = kv(capsys.readouterr().out)
        assert float(out["delta_e2_db"]) == 0.0
        assert float(out["delta_var_db"]) == 0.0
        assert float(out["kurtosis_ratio"]) == 1.0

    @pytest.mark.parametrize("order, want", [("ab", "-inf"), ("ba", "inf")])
    def test_zero_variance_side(self, tmp_path, capsys, order, want):
        # e_max 3 leaves only (1, 1, 1), whose energy variance is 0
        paths = {"a": build_toy(tmp_path, "a.trellis"), "b": tmp_path / "b.trellis"}
        assert main(["trellis", "build", "--n", "3", "--alphabet", "1,3,5",
                     "--emax", "3", "--out", str(paths["b"])]) == 0
        csv_path = tmp_path / "compare.csv"
        capsys.readouterr()
        assert main(["compare", "--a", str(paths[order[0]]),
                     "--b", str(paths[order[1]]), "--csv", str(csv_path)]) == 0
        assert kv(capsys.readouterr().out)["delta_var_db"] == want
        keys, values = csv_path.read_text().splitlines()[1:]
        assert dict(zip(keys.split(","), values.split(",")))["delta_var_db"] == want

    def test_mismatch_rejected(self, tmp_path, capsys):
        a = build_toy(tmp_path, "a.trellis")
        other = build_full_trellis(TrellisParams(4, Alphabet((1, 3, 5)), 36))
        b = tmp_path / "b.trellis"
        save_trellis(other, b)
        assert main(["compare", "--a", str(a), "--b", str(b)]) != 0


class TestSimulate:
    @staticmethod
    def _small_trellis(tmp_path):
        t = build_full_trellis(TrellisParams(12, Alphabet((1, 3, 5, 7)), 236))
        path = tmp_path / "sim.trellis"
        save_trellis(t, path)
        return path

    def test_sweep_rows_and_determinism(self, tmp_path):
        trellis = self._small_trellis(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["simulate", "--trellis-ess", str(trellis), "--schemes", "ess",
                "--powers", "0:2:2", "--seeds", "1", "--burst", "2048",
                "--guard", "128", "--sps", "4", "--step-km", "41",
                "--length", "205"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "scheme,launch_power_dbm,snr_db,seed,step_km,sps,burst_symbols"
        assert len(lines) == 3  # header + 2 power points
        config_lines = [l for l in out1.read_text().splitlines() if l.startswith("#")]
        assert any("length" in l for l in config_lines)

    def test_power_grid_parse(self, tmp_path):
        trellis = self._small_trellis(tmp_path)
        out = tmp_path / "d.csv"
        assert main(["simulate", "--trellis-ess", str(trellis), "--schemes", "ess",
                     "--powers=-2:1:0", "--burst", "2048", "--guard", "128",
                     "--sps", "4", "--step-km", "41", "--length", "205",
                     "--gamma", "0", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) == 4  # header + powers -2,-1,0

    @pytest.mark.parametrize("text, want", [
        ("0:3:8", [0.0, 3.0, 6.0]),  # 9 would overshoot the stop
        ("6:4:10", [6.0, 10.0]),
        ("-2:1:8", [float(p) for p in range(-2, 9)]),
        ("0:2:10", [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]),
        ("0:0.1:0.3", [0.0, 0.1, 0.2, 0.1 * 3]),  # 0.3/0.1 < 3 in floats
        ("4", [4.0]),
    ])
    def test_power_sweep_stops_at_stop(self, text, want):
        assert _parse_powers(text) == want

    @pytest.mark.parametrize("text", ["5:1:4.6", "3:1:2"])
    def test_power_sweep_below_start_is_empty(self, text):
        with pytest.raises(ParameterError, match="empty power sweep"):
            _parse_powers(text)

    def _simulate_error(self, tmp_path, capsys, *extra):
        trellis = self._small_trellis(tmp_path)
        capsys.readouterr()
        rc = main(["simulate", "--trellis-ess", str(trellis), "--schemes", "ess",
                   "--out", str(tmp_path / "x.csv"), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        return err

    @pytest.mark.parametrize("text", ["abc", "0:x:4", "0:nan:4"])
    def test_bad_power_field(self, tmp_path, capsys, text):
        assert text in self._simulate_error(tmp_path, capsys, f"--powers={text}")

    @pytest.mark.parametrize("extra", [["--length", "inf"], ["--gamma", "nan"]])
    def test_nonfinite_setting(self, tmp_path, capsys, extra):
        err = self._simulate_error(tmp_path, capsys, "--powers=2", *extra)
        assert "must be finite" in err

    @pytest.mark.parametrize("extra, message", [
        (["--config", "x.json"], "unrecognized arguments: --config"),
        # a fraction or a boolean is an error, never truncated or cast
        (["--sps", "4.9"], "invalid int value: '4.9'"),
        (["--burst", "2000.0"], "invalid int value: '2000.0'"),
        (["--gamma", "False"], "invalid float value: 'False'"),
    ])
    def test_flag_rejected_by_parser(self, tmp_path, capsys, extra, message):
        trellis = self._small_trellis(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--trellis-ess", str(trellis), "--schemes", "ess",
                  *extra])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        (["--gamma", "nan"], "must be finite"),
        (["--length", "inf"], "must be finite"),
        (["--guard", "8000"], "measured symbols"),
        (["--step-km", "0"], "step_km must be positive"),
        (["--rolloff", "0"], "rolloff must be in"),
        (["--sps", "3"], "sps must be >= 4"),
        (["--filter-span", "7"], "filter span must be even"),
        (["--powers=abc"], "bad power sweep"),
        (["--powers=1:2"], "bad power sweep '1:2', expected start:step:stop"),
        (["--powers=0:0:4"], "power sweep step must be positive"),
        (["--schemes", ","], "no schemes requested"),
    ])
    def test_bad_setting_fails_before_trellis_loads(self, tmp_path, capsys,
                                                    monkeypatch, extra, message):
        def no_load(path):
            raise AssertionError("no trellis may load")

        monkeypatch.setattr(cli, "load_trellis", no_load)
        err = self._simulate_error(tmp_path, capsys, "--powers=2", *extra)
        assert message in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("extra, setting", [
        (["--powers", "4000"], "launch_power_dbm=4000.0"),
        (["--powers", "0:2000:4000"], "launch_power_dbm=4000.0"),  # not the first
        (["--powers=-3300"], "launch_power_dbm=-3300.0"),
        (["--powers=2", "--nf", "4000"], "edfa_nf_db=4000.0"),
        (["--powers=2", "--alpha", "20"], "alpha_db_per_km*length_km=4100.0"),
    ])
    def test_db_setting_outside_float_range(self, tmp_path, capsys, extra, setting):
        # the trellis file does not exist, so an error that names it would
        # mean a load was tried before the setting was checked
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--trellis-ess", str(tmp_path / "no-trellis.txt"),
                   "--schemes", "ess", "--out", str(out), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert setting in err and "no-trellis" not in err
        assert not out.exists()

    @pytest.mark.parametrize("nf", ["3050", "3080"])
    def test_noise_overflow_fails_before_trellis_loads(self, tmp_path, capsys, nf):
        # each factor of the ASE variance is finite, but with the span's 41 dB
        # of gain their product is not; the run once wrote an SNR of nan
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--trellis-ess", str(tmp_path / "no-trellis.txt"),
                   "--powers", "0", "--nf", nf, "--burst", "2048", "--guard", "256",
                   "--sps", "4", "--step-km", "41", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"noise figure edfa_nf_db={float(nf)!r}" in err
        assert "no-trellis" not in err
        assert not out.exists()

    def test_missing_scheme_trellis_fails_before_any_load(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--schemes", "ess,bess", "--powers", "0",
                   "--trellis-ess", str(tmp_path / "no-trellis.txt"),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--trellis-bess" in err and "no-trellis" not in err
        assert not out.exists()

    def test_unknown_scheme_named_before_any_load(self, tmp_path, capsys,
                                                  monkeypatch):
        # there is no --trellis-foo flag to ask for
        def no_load(path):
            raise AssertionError("no trellis may load")

        monkeypatch.setattr(cli, "load_trellis", no_load)
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--schemes", "ess,foo", "--powers", "0",
                   "--trellis-ess", str(tmp_path / "a.trellis"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: unknown scheme 'foo' (known: ess, bess)\n"
        assert not out.exists()

    def test_header_echoes_every_default(self, tmp_path, monkeypatch):
        # no setting flag is given, and the sweep itself is not the subject
        monkeypatch.setattr(cli, "run_sweep", lambda *args: [])
        trellis = self._small_trellis(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--trellis-ess", str(trellis), "--schemes", "ess",
                     "--out", str(out)]) == 0
        header = [l[2:] for l in out.read_text().splitlines()
                  if l.startswith("# ") and " " not in l[2:]]
        echoed = dict(l.split("=", 1) for l in header)
        assert echoed == {key: str(value) for key, value in cli._SIM_DEFAULTS.items()}

    @pytest.mark.parametrize("flag", [["--seeds", "0"], ["--seeds=-2"]])
    def test_empty_seed_sweep(self, tmp_path, capsys, monkeypatch, flag):
        def no_load(path):
            raise AssertionError("no trellis may load")

        monkeypatch.setattr(cli, "load_trellis", no_load)
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--trellis-ess", str(tmp_path / "a.trellis"),
                   "--schemes", "ess", "--powers=2", "--out", str(out), *flag])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed sweep needs at least one seed")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_short_window_fails_before_propagation(self, tmp_path, capsys,
                                                   monkeypatch):
        # 1200 - 2*150 = 900 measured symbols: too few for an SNR estimate
        def no_step(u, coeff):
            raise AssertionError("no split step may run")

        monkeypatch.setattr(_kernels, "kerr_phase", no_step)
        trellis = self._small_trellis(tmp_path)
        rc = main(["simulate", "--trellis-ess", str(trellis), "--schemes", "ess",
                   "--powers=2", "--burst", "1200", "--guard", "150",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "fewer than 1000" in capsys.readouterr().err

    def test_unwritable_out_fails_before_propagation(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_step(u, coeff):
            raise AssertionError("no split step may run")

        monkeypatch.setattr(_kernels, "kerr_phase", no_step)
        trellis = self._small_trellis(tmp_path)
        rc = main(["simulate", "--trellis-ess", str(trellis), "--schemes", "ess",
                   "--powers=2", "--sps", "4", "--step-km", "41", "--burst", "2048",
                   "--guard", "128", "--out", str(tmp_path / "missing" / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_sweep_leaves_no_out(self, tmp_path, monkeypatch):
        def failing_step(u, coeff):
            raise RuntimeError("split step failed")

        monkeypatch.setattr(_kernels, "kerr_phase", failing_step)
        trellis = self._small_trellis(tmp_path)
        out = tmp_path / "x.csv"
        with pytest.raises(RuntimeError, match="split step failed"):
            main(["simulate", "--trellis-ess", str(trellis), "--schemes", "ess",
                  "--powers=2", "--sps", "4", "--step-km", "41", "--burst", "2048",
                  "--guard", "128", "--out", str(out)])
        assert not out.exists()

    def test_repeated_scheme_rejected(self, tmp_path, capsys):
        trellis = self._small_trellis(tmp_path)
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--trellis-ess", str(trellis), "--schemes", "ess,ess",
                   "--powers=2", "--out", str(out)])
        assert rc == 2
        assert "error: --schemes names a scheme twice" in capsys.readouterr().err
        assert not out.exists()

    def test_unused_trellis_flag_rejected(self, tmp_path, capsys, monkeypatch):
        # a trellis that --schemes does not name would silently get no rows
        def no_load(path):
            raise AssertionError("no trellis may load")

        monkeypatch.setattr(cli, "load_trellis", no_load)
        err = self._simulate_error(tmp_path, capsys, "--powers=2",
                                   "--trellis-bess", str(tmp_path / "b.trellis"))
        assert "--trellis-bess" in err and "'bess'" in err

    def test_missing_trellis_named_before_unused_flag(self, tmp_path, capsys,
                                                      monkeypatch):
        # two faults: the --schemes pass reports its missing flag first
        def no_load(path):
            raise AssertionError("no trellis may load")

        monkeypatch.setattr(cli, "load_trellis", no_load)
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--schemes", "bess", "--powers", "0",
                   "--trellis-ess", str(tmp_path / "a.trellis"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: scheme 'bess' needs --trellis-bess "
                       "(known: ess, bess)\n")
        assert not out.exists()

    def test_missing_trellis_flag(self, tmp_path):
        rc = main(["simulate", "--schemes", "bess", "--powers", "0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc != 0


def readme_commands():
    """Argument lists of every `bandshape` line in README's bash blocks,
    continuation lines joined and comments dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["bandshape"]:
                yield words[1:]


def test_readme_commands_parse():
    commands = list(readme_commands())
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


class TestParserOnce:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_subcommand_looked_up_when_main_runs(self, tmp_path, monkeypatch):
        # the cached parser names cmd_info; a substitute set after the first
        # parse is the one that runs, as a tracer's wrapper must be
        build_toy(tmp_path)
        monkeypatch.setattr(cli, "cmd_info", lambda args: 7)
        assert main(["trellis", "info", str(tmp_path / "toy.trellis")]) == 7

    def test_failed_call_leaves_no_trace(self, tmp_path, capsys):
        # an argparse rejection and a command's own error, each exit 2, then
        # a valid call: its stdout and files match a fresh process's
        with pytest.raises(SystemExit) as info:
            main(["trellis", "build", "--n", "x", "--alphabet", "1,3,5",
                  "--emax", "27", "--out", str(tmp_path / "bad.trellis")])
        assert info.value.code == 2
        assert main(["trellis", "info", str(tmp_path / "missing.trellis")]) == 2
        capsys.readouterr()
        argv = ["trellis", "build", "--n", "6", "--alphabet", "1,3,9",
                "--bits", "5", "--band", "8,1", "--out"]
        assert main([*argv, str(tmp_path / "here.trellis")]) == 0
        assert main(["stats", "--trellis", str(tmp_path / "here.trellis")]) == 0
        here = capsys.readouterr().out
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import sys\nfrom bandshape.cli import main\n"
                f"assert main({[*argv, 'fresh.trellis']!r}) == 0\n"
                "assert main(['stats', '--trellis', 'fresh.trellis']) == 0\n")
        fresh = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True, cwd=tmp_path,
                               env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert here == fresh
        assert ((tmp_path / "here.trellis").read_bytes()
                == (tmp_path / "fresh.trellis").read_bytes())
