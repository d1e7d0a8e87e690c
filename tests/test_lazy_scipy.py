"""scipy loads only when a run draws a normal variate or builds a kd-tree."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import contextlib
    import io
    import sys

    import wknn, wknn.cli


    def scipy_modules():
        return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


    assert scipy_modules() == [], scipy_modules()

    from wknn import (KnnIndex, Sample, exact_wq, knn_weights, neighbor_table, standard_normal,
                      stream, uniform_empirical, uniform_open, weighted_measure)
    from wknn.core import write_sample_csv

    gen = stream(3, 0)
    ev, train = Sample(uniform_open(gen, (6, 2))), Sample(uniform_open(gen, (20, 2)))
    table = neighbor_table(ev, train, 2)
    exact_wq(uniform_empirical(ev), weighted_measure(train, knn_weights(table, train.size)), 2.0)
    write_sample_csv("eval.csv", ev)
    write_sample_csv("train.csv", Sample(uniform_open(gen, (3, 2))))
    with contextlib.redirect_stdout(io.StringIO()):
        assert wknn.cli.main(["constants"]) == 0
        assert wknn.cli.main(["distance", "--exact", "--eval", "eval.csv",
                              "--train", "train.csv", "--k", "2"]) == 0
    assert scipy_modules() == [], scipy_modules()

    standard_normal(gen, 3)
    assert "scipy.special" in sys.modules and "scipy.spatial" not in sys.modules
    KnnIndex(train)
    assert "scipy.spatial" in sys.modules
    print("ok")
    """
)


def test_brute_path_pipeline_loads_no_scipy(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]

