import json

import pytest

from bandshape.cli import main
from bandshape.trellis import (
    Alphabet,
    BandParams,
    TrellisParams,
    build_band_trellis,
    build_full_trellis,
    load_trellis,
    min_emax_for_bits,
    save_trellis,
    serialize,
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
        rc = main(["shape", "--trellis", str(trellis), "--in", str(bits_in),
                   "--out", str(tmp_path / "amps.txt")])
        assert rc != 0

    def test_out_of_codebook_names_line(self, tmp_path, capsys):
        trellis = build_toy(tmp_path)
        amps = tmp_path / "edited.txt"
        amps.write_text("1 1 1\n5 1 1\n")  # index 10 >= 2**3
        capsys.readouterr()
        rc = main(["deshape", "--trellis", str(trellis), "--in", str(amps),
                   "--out", str(tmp_path / "bits.bin")])
        assert rc != 0
        assert "line 2" in capsys.readouterr().err


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

    def test_exhaustive(self, tmp_path, capsys):
        trellis = build_toy(tmp_path)
        capsys.readouterr()
        assert main(["stats", "--trellis", str(trellis), "--exhaustive"]) == 0
        out = kv(capsys.readouterr().out)
        assert out["sampled_num_samples"] == "8"


class TestCompare:
    def test_self_zero_deltas(self, tmp_path, capsys):
        trellis = build_toy(tmp_path)
        capsys.readouterr()
        assert main(["compare", "--a", str(trellis), "--b", str(trellis)]) == 0
        out = kv(capsys.readouterr().out)
        assert float(out["delta_e2_db"]) == 0.0
        assert float(out["delta_var_db"]) == 0.0
        assert float(out["kurtosis_ratio"]) == 1.0

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

    def test_config_file_layer(self, tmp_path):
        trellis = self._small_trellis(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.0, "burst": 2048, "guard": 128,
                                   "sps": 4, "step_km": 41.0}))
        out = tmp_path / "c.csv"
        assert main(["simulate", "--trellis-ess", str(trellis), "--schemes", "ess",
                     "--powers", "2", "--config", str(cfg),
                     "--length", "205", "--out", str(out)]) == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("gamma=0.0" in l for l in header)
        assert any("step_km=41.0" in l for l in header)

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

    def test_missing_trellis_flag(self, tmp_path):
        rc = main(["simulate", "--schemes", "bess", "--powers", "0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc != 0
