import os
import subprocess
import sys
from pathlib import Path

import bandshape


def _fresh_print(imports: str, expr: str, cwd=None) -> str:
    """stdout of a fresh interpreter that runs `imports`, then prints `expr`."""
    code = f"import sys\n{imports}\nprint({expr})\n"
    src = Path(bandshape.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, cwd=cwd,
                            env={**os.environ, "PYTHONPATH": str(src)})
    return result.stdout.strip()


def _cli_loads_numpy(cwd, *commands) -> bool:
    """Whether numpy is loaded after one fresh interpreter has run each
    `bandshape` command line in `cwd`; a command that fails raises."""
    runs = (f"for argv in {[c.split() for c in commands]!r}:\n"
            "    if main(argv):\n"
            "        raise SystemExit(argv)")
    out = _fresh_print(f"from bandshape.cli import main\n{runs}",
                       "'numpy' in sys.modules", cwd=cwd)
    return {"True": True, "False": False}[out.splitlines()[-1]]


def test_pure_layers_import_no_numpy():
    # the trellis, codec and metrics layers and the CLI are pure Python;
    # numpy belongs to the fiber simulator and its mapper, which only
    # `simulate` imports
    assert _fresh_print(
        "import bandshape.trellis, bandshape.codec, bandshape.metrics, bandshape.cli",
        "sorted(m for m in ('numpy', 'scipy', 'bandshape.fibersim', "
        "'bandshape.pasmap', 'bandshape._kernels') if m in sys.modules)") == "[]"


def test_cli_imports_no_scipy():
    # the simulator's transforms are numpy.fft's; scipy is a test and
    # benchmark oracle only, and importing scipy.fft alone would add about
    # 25 MB and a third of a second to every process
    assert _fresh_print(
        "import bandshape.cli, bandshape.metrics",
        "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')") == "[]"


def test_codec_commands_run_without_numpy(tmp_path):
    payload = bytes(range(0, 240, 8))  # 240 bits: 80 blocks of the toy's k=3
    (tmp_path / "payload.bin").write_bytes(payload)
    assert not _cli_loads_numpy(
        tmp_path,
        "trellis build --n 3 --alphabet 1,3,5 --emax 27 --out toy.trellis",
        "trellis info toy.trellis",
        "stats --trellis toy.trellis --samples 100",
        "shape --trellis toy.trellis --in payload.bin --out amps.txt",
        "deshape --trellis toy.trellis --in amps.txt --out back.bin",
        "compare --a toy.trellis --b toy.trellis",
    )
    assert (tmp_path / "back.bin").read_bytes() == payload


def test_simulate_loads_numpy(tmp_path):
    assert _cli_loads_numpy(
        tmp_path,
        "trellis build --n 3 --alphabet 1,3,5 --emax 27 --out toy.trellis",
        "simulate --trellis-ess toy.trellis --schemes ess --powers 0 --burst 2048 "
        "--guard 256 --sps 4 --step-km 41 --out sim.csv",
    )
    rows = (tmp_path / "sim.csv").read_text().splitlines()
    assert rows[-2].startswith("scheme,") and rows[-1].startswith("ess,0.0,")
