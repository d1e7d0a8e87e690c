"""Pinned bytes of one small run of each CLI subcommand.

The pin covers every manifest line except ``out=`` and ``version.*``,
every CSV without the measured ``seconds`` column of ``runs.csv``, the
stdout of ``weights``, ``distance`` and ``constants``, and the exit code
and stderr of three invalid runs whose message shows the order of the
checks: the seed before ``--out``, ``--out`` before the grid, and the
replication count last. The digests were computed before the seven
subcommands shared one run path, so a change to ``cli.py`` that moves a
single byte fails here.
"""
import contextlib
import hashlib
import io
import shutil
from pathlib import Path

from wknn.cli import main
from wknn.core import Sample, write_sample_csv

VALID = {
    "weights": (["weights", "--eval", "{tmp}/eval.csv", "--train", "{tmp}/train.csv",
                 "--k", "2", "--norm", "l1"],
                "f97ee7339f9c876fa1839f7029f741d1c8b4316115649d3bee6f3f14f46267de"),
    "distance": (["distance", "--eval", "{tmp}/eval.csv", "--train", "{tmp}/train.csv",
                  "--k", "2", "--q", "1", "--exact"],
                 "bc15ebf950b51c0185064ddb9623399bde89e2d90031618ba92edac7a9e3bd4b"),
    "rate-exp": (["rate-exp", "--scorr", "0.5", "--m-grid", "20,40", "--n", "10",
                  "--reps", "3", "--certify", "--threads", "2", "--seed", "5",
                  "--out", "{tmp}/out"],
                 "fed05beb60b9f919d57ec612598c12add561699756ece5924f33caee68ba3134"),
    "qi-exp": (["qi-exp", "--m", "30", "--n", "20", "--k", "3", "--scorr-grid=-0.5,0.5",
                "--reps", "4", "--seed", "6", "--norm", "linf", "--out", "{tmp}/out"],
               "e6d7d0432b6388c2f617829af458ed6c6c7da96b319f91d25b9be8ab9137b804"),
    "atom-demo": (["atom-demo", "--m-grid", "20,50", "--n", "8", "--reps", "3",
                   "--seed", "7", "--out", "{tmp}/out"],
                  "cc2b8aa1845b9af46b7d6b9b16a75ab861be5045ad963d26b75cfaef07674e75"),
    "regress-exp": (["regress-exp", "--scenario", "identity_1d_uniform", "--m", "40",
                     "--k", "2", "--n-test", "10", "--seed", "8", "--out", "{tmp}/out"],
                    "0b7b932c3b1d15eb1975093f6d29199d152f98650209b9a40f5af2f0e3fbebac"),
    "constants": (["constants", "--scenario", "gauss_gauss", "--q", "1", "--draws", "200",
                   "--seed", "9"],
                  "3f1e127529b8981d55adb1c0f519750cdcc22430e27f0d42c7f8ef6683fa64e2"),
}

# (WKNN_SEED, argv, stderr); {tmp}/file is an existing regular file.
INVALID = {
    "seed_before_out": ("abc", ["rate-exp", "--out", "{tmp}/file"],
                        "error: WKNN_SEED must be an integer, got 'abc'\n"),
    "out_before_grid": (None, ["atom-demo", "--m-grid", "x", "--out", "{tmp}/file/sub"],
                        "error: --out {tmp}/file/sub: {tmp}/file is not a directory\n"),
    "zero_reps": (None, ["qi-exp", "--reps", "0", "--out", "{tmp}/out"],
                  "error: replications must be a positive integer, got 0\n"),
}


def _run(tmp, argv, monkeypatch, env_seed=None):
    """(exit code, stdout, stderr) of ``main(argv)`` with ``{tmp}`` filled in."""
    if env_seed is None:
        monkeypatch.delenv("WKNN_SEED", raising=False)
    else:
        monkeypatch.setenv("WKNN_SEED", env_seed)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
    return code, out.getvalue(), err.getvalue().replace(str(tmp), "{tmp}")


def _files(out: Path) -> list[str]:
    """Every file under ``out`` as pinned: no ``seconds`` column, no
    ``out=`` or ``version.*`` manifest line."""
    texts = []
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        lines = path.read_text(encoding="utf-8").split("\n")
        if path.name == "manifest.txt":
            lines = [line for line in lines if not line.startswith(("out=", "version."))]
        elif path.name == "runs.csv":
            drop = lines[0].split(",").index("seconds")
            lines = [",".join(f for i, f in enumerate(line.split(",")) if i != drop)
                     for line in lines]
        texts.append(f"== {path.name}\n" + "\n".join(lines))
    return texts


def test_cli_bytes(tmp_path, monkeypatch):
    write_sample_csv(tmp_path / "eval.csv", Sample([[0.5, 1.0], [2.0, -1.0], [3.5, 0.25]]))
    write_sample_csv(tmp_path / "train.csv",
                     Sample([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0], [2.0, -2.0]]))
    (tmp_path / "file").write_text("not a directory\n")
    digests = {}
    for name, (argv, _) in VALID.items():
        code, stdout, stderr = _run(tmp_path, argv, monkeypatch)
        texts = [f"exit {code}", stdout, stderr, *_files(tmp_path / "out")]
        digests[name] = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        if (tmp_path / "out").exists():
            shutil.rmtree(tmp_path / "out")
    assert digests == {name: digest for name, (_, digest) in VALID.items()}
    errors = {}
    for name, (env_seed, argv, _) in INVALID.items():
        errors[name] = _run(tmp_path, argv, monkeypatch, env_seed)
    assert errors == {name: (2, "", err) for name, (_, _, err) in INVALID.items()}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "eval.csv", "file", "train.csv"
    ]
