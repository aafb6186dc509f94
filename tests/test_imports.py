import os
import subprocess
import sys
from pathlib import Path

import bandshape


def _fresh_print(imports: str, expr: str) -> str:
    """stdout of a fresh interpreter that runs `imports`, then prints `expr`."""
    code = f"import sys\n{imports}\nprint({expr})\n"
    src = Path(bandshape.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return result.stdout.strip()


def test_pure_layers_import_no_numpy():
    # the trellis, codec and metrics layers are pure Python; numpy and scipy
    # belong to the fiber simulator and its mapper
    assert _fresh_print(
        "import bandshape.trellis, bandshape.codec, bandshape.metrics",
        "sorted(m for m in ('numpy', 'scipy') if m in sys.modules)") == "[]"


def test_cli_imports_no_scipy():
    # the simulator's transforms are numpy.fft's; scipy is a test and
    # benchmark oracle only, and importing scipy.fft alone would add about
    # 25 MB and a third of a second to every process
    assert _fresh_print(
        "import bandshape.cli, bandshape.metrics",
        "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')") == "[]"
