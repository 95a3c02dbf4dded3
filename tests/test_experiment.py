"""The experiment scripts' shared driver, scripts/experiment.py, in-process."""

import numpy as np
import pytest

from embedaudit.graph import load_edge_list, triangle_foundation_curve
from scripts import experiment


def drawn(*argv):
    ap = experiment.parser(__doc__, triangles=10, samples=1, out="unused")
    ap.add_argument("--dim", type=int, default=100)
    return experiment.draw(ap, list(argv))


@pytest.mark.parametrize("command, labels", [
    (["ranksweep", "--ranks", "6,2,4"], ["rank6", "rank2", "rank4"]),
    (["audit", "--dim", "4", "--models", "tdp,lrdp"], ["tdp", "lrdp"]),
])
def test_run_returns_the_curves_in_run_order(tmp_path, command, labels):
    args, graph = drawn("--triangles", "4", "--out", str(tmp_path / "out"))
    assert graph.n == 12 and args.seed == 5
    curves = experiment.run(args, graph, command)
    assert list(curves) == ["original", *labels]
    original = triangle_foundation_curve(load_edge_list(tmp_path / "out" / "synthetic.txt").graph)
    # written on the union grid of all curves, to 15 significant digits
    np.testing.assert_allclose(curves["original"].value_at(original.thresholds),
                               original.deltas, rtol=1e-14)


def test_bad_triangle_count_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        drawn("--triangles", "0")
    assert exc.value.code == 2


@pytest.mark.parametrize("existed", [False, True])
def test_failed_run_takes_back_its_input(tmp_path, capsys, existed):
    out = tmp_path / "out"
    if existed:
        out.mkdir()
    args, graph = drawn("--out", str(out))          # n = 30 < --dim 100
    with pytest.raises(SystemExit) as exc:
        experiment.run(args, graph, ["audit", "--dim", str(args.dim)])
    assert exc.value.code == 2
    assert "need 1 <= d <= n" in capsys.readouterr().err
    assert not (out / "synthetic.txt").exists()
    # a directory the run made goes; one that was there stays, empty
    assert out.exists() == existed
    assert not existed or not any(out.iterdir())
