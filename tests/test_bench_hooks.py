"""The benchmark's per-layer tracer must still find the names it rebinds.

`bench/layers.py` wraps module attributes by name (for example
`extremal.contains_copy_through`); a rename or a removed import in the
package would make `bench/run.py --trace 1` fail with an AttributeError.
Its sweep hook also reads `all_orientations_contain`'s positional
`(n, edges)` and the counterexample's `.out`, so one traced sweep that holds
and one that fails are run here too.
"""

import os
import subprocess
import sys
from pathlib import Path

import orituran

TRACED_SWEEPS = """
import layers
from orituran import containment
from orituran.graphs import OrientedGraph

tracer = layers.Tracer()
layers.install(tracer)
triangle = [(0, 1), (1, 2), (0, 2)]
path = OrientedGraph.from_arcs(3, [(0, 1), (1, 2)])
cycle = OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
assert containment.all_orientations_contain(3, triangle, path) == (True, None)
holds, cx = containment.all_orientations_contain(3, triangle, cycle)
assert not holds and cx.out == (6, 4, 0)
print(tracer.extra["orientations"])
"""


def _run(code):
    src = str(Path(orituran.__file__).resolve().parents[1])
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    path = os.pathsep.join(filter(None, [src, bench, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_bench_tracer_installs():
    proc = _run("import layers; layers.install(layers.Tracer())")
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_counts_sweep_orientations():
    proc = _run(TRACED_SWEEPS)
    assert proc.returncode == 0, proc.stderr
    # 2^3 orientations for the sweep that holds, then 1: the transitive
    # first orientation has no directed triangle
    assert proc.stdout.split() == [str(2**3 + 1)]
