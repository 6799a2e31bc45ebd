"""The benchmark's per-layer tracer must still find the names it rebinds.

`bench/layers.py` wraps module attributes by name (for example
`extremal.contains_copy_through`); a rename or a removed import in the
package would make `bench/run.py --trace 1` fail with an AttributeError.
"""

import os
import subprocess
import sys
from pathlib import Path

import orituran


def test_bench_tracer_installs():
    src = str(Path(orituran.__file__).resolve().parents[1])
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    path = os.pathsep.join(filter(None, [src, bench, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install(layers.Tracer())"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
