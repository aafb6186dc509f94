import os
import subprocess
import sys
from pathlib import Path

import bandshape


def test_pure_layers_import_no_numpy():
    # the trellis, codec and metrics layers are pure Python; numpy and scipy
    # belong to the fiber simulator and its mapper
    code = ("import sys\n"
            "import bandshape.trellis, bandshape.codec, bandshape.metrics\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n")
    src = Path(bandshape.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.strip() == "[]"
