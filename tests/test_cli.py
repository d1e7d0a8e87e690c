import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wknn.cli import main
from wknn.core import Sample, write_sample_csv


@pytest.fixture()
def hand_instance(tmp_path):
    eval_csv = tmp_path / "eval.csv"
    train_csv = tmp_path / "train.csv"
    write_sample_csv(eval_csv, Sample([1.0, 2.0, 9.0]))
    write_sample_csv(train_csv, Sample([0.0, 10.0]))
    return str(eval_csv), str(train_csv)


def read_lines(path):
    return path.read_text().splitlines()


class TestWeightsCommand:
    def test_hand_instance(self, hand_instance, capsys):
        ev, tr = hand_instance
        assert main(["weights", "--eval", ev, "--train", tr, "--k", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "index,weight"
        assert out[1].startswith("0,1.333333333333333")
        assert out[2].startswith("1,0.666666666666666")

    def test_k_too_large_exits_2(self, hand_instance, capsys):
        ev, tr = hand_instance
        assert main(["weights", "--eval", ev, "--train", tr, "--k", "3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_csv_exits_2(self, tmp_path, hand_instance, capsys):
        ev, tr = hand_instance
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["weights", "--eval", str(empty), "--train", tr]) == 2

    def test_missing_file_exits_2(self, hand_instance):
        ev, tr = hand_instance
        assert main(["weights", "--eval", "/nonexistent.csv", "--train", tr]) == 2


class TestDistanceCommand:
    def test_closed_form_q1(self, hand_instance, capsys):
        ev, tr = hand_instance
        assert main(["distance", "--eval", ev, "--train", tr, "--q", "1", "--k", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "wq_q_power,method"
        value, method = out[1].split(",")
        assert float(value) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert method == "closed_form_1nn"

    def test_exact_lp_matches(self, hand_instance, capsys):
        ev, tr = hand_instance
        assert main(["distance", "--eval", ev, "--train", tr, "--q", "1", "--exact"]) == 0
        value, method = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(value) == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert method == "exact_lp"

    def test_bound_method_for_k2(self, hand_instance, capsys):
        ev, tr = hand_instance
        assert main(["distance", "--eval", ev, "--train", tr, "--q", "1", "--k", "2"]) == 0
        value, method = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(value) == 5.0
        assert method == "knn_bound"

    def test_overflowing_cost_exits_3(self, hand_instance, capsys):
        # The 2-NN distances reach 9, and 9**1000 overflows float64.
        ev, tr = hand_instance
        for extra in ([], ["--exact"]):
            argv = ["distance", "--eval", ev, "--train", tr, "--q", "1e3", "--k", "2", *extra]
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "numerical failure" in captured.err


class TestOverflowingDistances:
    """An evaluation point whose distance to every training point overflows float64."""

    @pytest.mark.parametrize("m", [5, 40], ids=["brute", "index"])
    @pytest.mark.parametrize(
        "argv", [["weights"], ["distance"], ["distance", "--exact"]],
        ids=["weights", "distance", "exact"],
    )
    def test_exits_3(self, tmp_path, capsys, m, argv):
        ev, tr = tmp_path / "eval.csv", tmp_path / "train.csv"
        # Two rows, so that m=40 reaches the index.
        write_sample_csv(ev, Sample([[1e308, -1e308], [-1e308, 1e308]]))
        write_sample_csv(tr, Sample(np.random.default_rng(m).random((m, 2))))
        assert main([*argv, "--eval", str(ev), "--train", str(tr)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "numerical failure" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowWithoutWarnings(TestOverflowingDistances):
    """The overflow cases again, with any numpy RuntimeWarning raised as an
    error: the overflow must reach the user only as the exit-3 message."""

    def test_exact_large_q_exits_3(self, hand_instance, capsys):
        # The 1-NN costs stay finite; the full cost matrix holds 9**1000.
        ev, tr = hand_instance
        assert main(["distance", "--eval", ev, "--train", tr, "--q", "1e3", "--exact"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "numerical failure" in captured.err


class TestConstantsCommand:
    def test_identity_row_contains_half(self, capsys):
        assert main(["constants", "--scenario", "identity_1d_uniform", "--q", "1"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["rate_constant"]) == pytest.approx(0.5, rel=1e-12)
        assert float(cols["inv_density_moment"]) == 1.0
        assert float(cols["zador_exponent"]) == 0.5

    def test_rerun_identical_bytes(self, capsys):
        main(["constants", "--scenario", "gauss_gauss", "--q", "2", "--seed", "3"])
        first = capsys.readouterr().out
        main(["constants", "--scenario", "gauss_gauss", "--q", "2", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_large_q_exits_3(self, capsys):
        # Gamma(1 + q/d) and 2^(q/d + 1) overflow float64 at q=1000, d=1.
        assert main(["constants", "--scenario", "identity_1d_uniform", "--q", "1000"]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestRateExpCommand:
    def run(self, out_dir, seed="7", extra=()):
        return main(
            ["rate-exp", "--scenario", "diag_uniform_gauss", "--scorr", "0.9",
             "--m-grid", "40,80", "--n", "20", "--reps", "10", "--seed", seed,
             "--out", str(out_dir), *extra]
        )

    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.run(out1) == 0
        assert self.run(out2, extra=["--threads", "3"]) == 0
        # thread count must not change any emitted number
        for name in ("summary.csv", "ratefit.csv"):
            assert (out1 / name).read_text() == (out2 / name).read_text()
        # runs.csv identical except the wall-time column
        strip = lambda p: [",".join(l.split(",")[:-1]) for l in read_lines(p / "runs.csv")]
        assert strip(out1) == strip(out2)

    def test_identical_rerun_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert self.run(out1) == 0
        assert self.run(out2) == 0
        for name in ("summary.csv", "ratefit.csv"):
            assert (out1 / name).read_text() == (out2 / name).read_text()
        # manifests differ only in the out path they record
        m1 = [l for l in read_lines(out1 / "manifest.txt") if not l.startswith("out=")]
        m2 = [l for l in read_lines(out2 / "manifest.txt") if not l.startswith("out=")]
        assert m1 == m2
        strip = lambda p: [",".join(l.split(",")[:-1]) for l in read_lines(p / "runs.csv")]
        assert strip(out1) == strip(out2)

    def test_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        self.run(out1, seed="7")
        self.run(out2, seed="8")
        assert (out1 / "summary.csv").read_text() != (out2 / "summary.csv").read_text()

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m"
        self.run(out)
        manifest = (out / "manifest.txt").read_text()
        assert "command=rate-exp" in manifest
        assert "seed.resolved=7" in manifest
        assert "version.wknn=" in manifest
        assert "statistic=closed_form_1nn" in manifest

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WKNN_SEED", "55")
        out = tmp_path / "env"
        assert main(
            ["rate-exp", "--m-grid", "40,80", "--n", "10", "--reps", "4",
             "--out", str(out)]
        ) == 0
        assert "seed.resolved=55" in (out / "manifest.txt").read_text()

    def test_missing_out_exits_2(self):
        assert main(["rate-exp", "--m-grid", "40,80", "--reps", "2"]) == 2


class TestQiAndAtomCommands:
    def test_qi_exp_small(self, tmp_path):
        out = tmp_path / "qi"
        assert main(
            ["qi-exp", "--m", "60", "--n", "50", "--k", "4",
             "--scorr-grid=-0.5,0.5", "--reps", "8", "--seed", "2",
             "--out", str(out)]
        ) == 0
        lines = read_lines(out / "summary.csv")
        assert lines[0] == "s_corr,mean,stderr,count"
        assert len(lines) == 3

    def test_atom_demo_small(self, tmp_path):
        out = tmp_path / "atom"
        assert main(
            ["atom-demo", "--m-grid", "50,100", "--n", "10", "--reps", "6",
             "--seed", "3", "--out", str(out)]
        ) == 0
        assert (out / "summary_k1.csv").exists()
        assert (out / "summary_ksqrt.csv").exists()
        assert (out / "runs.csv").exists()

    def test_regress_exp_small(self, tmp_path):
        out = tmp_path / "reg"
        assert main(
            ["regress-exp", "--scenario", "identity_1d_uniform", "--m", "200",
             "--k", "1", "--n-test", "50", "--seed", "4", "--out", str(out)]
        ) == 0
        header, row = read_lines(out / "summary.csv")
        assert header == "mse,stderr,n_test"
        assert float(row.split(",")[0]) < 1e-2


class TestConfigFile:
    def test_config_applied_and_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 1\nscenario = identity_1d_uniform\n")
        assert main(["constants", "--config", str(cfg)]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("identity_1d_uniform,1,")
        # explicit flag wins over the config value
        assert main(["constants", "--config", str(cfg), "--q", "2"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("identity_1d_uniform,2,")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("whatever = 3\n")
        assert main(["constants", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# a comment\n\nq = 1\n")
        assert main(["constants", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("command", ["weights", "distance"])
    def test_eval_and_train_from_config(self, tmp_path, hand_instance, capsys, command):
        ev, tr = hand_instance
        assert main([command, "--eval", ev, "--train", tr, "--k", "2"]) == 0
        expected = capsys.readouterr()
        cfg = tmp_path / "pair.cfg"
        cfg.write_text(f"eval = {ev}\ntrain = {tr}\nk = 2\n")
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr() == expected
        # A flag still overrides its config key.
        assert main([command, "--config", str(cfg), "--train", ev]) == 0
        assert capsys.readouterr().out != expected.out

    @pytest.mark.parametrize("given, missing", [("eval", "--train"), ("train", "--eval")])
    def test_missing_pair_member_exits_2(self, tmp_path, hand_instance, capsys, given, missing):
        ev, tr = hand_instance
        path = {"eval": ev, "train": tr}[given]
        cfg = tmp_path / "half.cfg"
        cfg.write_text(f"{given} = {path}\n")
        # An empty path, as a flag or as a config value, counts as missing.
        empty = tmp_path / "empty.cfg"
        empty.write_text(f"{given} = {path}\n{missing[2:]} =\n")
        before = set(tmp_path.rglob("*"))
        for argv in (["weights", f"--{given}", path], ["distance", "--config", str(cfg)],
                     ["weights", f"--{given}", path, missing, ""],
                     ["distance", "--config", str(empty)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: the following arguments are required: {missing}\n"
        assert set(tmp_path.rglob("*")) == before

    def test_empty_config_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["rate-exp", "--config", "", "--m-grid", "40,80", "--n", "10",
                     "--reps", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--config" in captured.err
        assert not out.exists()


class TestInvalidFlags:
    def rate(self, out_dir, *extra):
        return main(["rate-exp", "--m-grid", "40,80", "--n", "10", "--reps", "2",
                     "--out", str(out_dir), *extra])

    @pytest.mark.parametrize(
        "rule", ["power:abc", "const:x", "const:1.5", "power:nan", "power:inf", "power:1000"]
    )
    def test_bad_k_rule_exits_2(self, tmp_path, capsys, rule):
        assert self.rate(tmp_path, "--k-rule", rule) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exits_2(self, tmp_path, hand_instance, capsys, threads):
        assert self.rate(tmp_path, "--threads", threads) == 2
        ev, tr = hand_instance
        assert main(["weights", "--eval", ev, "--train", tr, "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_non_integer_env_seed_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("WKNN_SEED", "abc")
        assert main(["constants", "--scenario", "identity_1d_uniform", "--q", "1"]) == 2
        assert "WKNN_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [str(2**64), str(2**64 + 7)])
    def test_seed_beyond_64_bits_exits_2(self, tmp_path, capsys, seed):
        # Masked to 64 bits, 2**64 would silently rerun seed 0.
        assert self.rate(tmp_path, "--seed", seed) == 2
        assert "seed must satisfy 0 <= seed <= 18446744073709551615" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["rate-exp", "--no-such-flag"], ["bogus"]])
    def test_usage_errors_return_2(self, capsys, argv):
        assert main(argv) == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["rate-exp", "--help"]])
    def test_help_returns_0(self, capsys, argv):
        assert main(argv) == 0
        assert "usage" in capsys.readouterr().out

    def test_zero_reps_exits_2(self, tmp_path, capsys):
        assert main(["atom-demo", "--m-grid", "50,100", "--n", "10", "--reps", "0",
                     "--out", str(tmp_path)]) == 2
        assert "replications" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["qi-exp", "--n", "-1", "--m", "20", "--k", "2"],
            ["qi-exp", "--m", "-3", "--n", "5", "--k", "2"],
            ["atom-demo", "--n", "-1", "--m-grid", "20,40"],
            ["atom-demo", "--n", "5", "--m-grid=-5,50"],
        ],
    )
    def test_negative_sizes_exit_2(self, tmp_path, capsys, argv):
        assert main([*argv, "--reps", "2", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err


class TestOutDirectory:
    """--out is checked up front and created only just before the first write."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rate-exp", "--m-grid", "5,3"], "increasing"),
            (["qi-exp", "--reps", "0"], "replications"),
            (["regress-exp", "--m", "0"], "m must be a positive integer"),
        ],
    )
    def test_invalid_run_leaves_no_directory(self, tmp_path, capsys, argv, message):
        out = tmp_path / "new" / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_at_or_below_a_file_exits_2(self, tmp_path, capsys, below):
        blocker = tmp_path / "F"
        blocker.write_text("not a directory\n")
        out = blocker / below if below else blocker
        assert main(["rate-exp", "--m-grid", "20,40", "--n", "5", "--reps", "2",
                     "--out", str(out)]) == 2
        assert "not a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "not a directory\n"

    def test_error_while_writing_exits_2(self, tmp_path, capsys):
        # A directory where runs.csv should go: the write itself fails.
        (tmp_path / "runs.csv").mkdir()
        assert main(["atom-demo", "--m-grid", "20,40", "--n", "5", "--reps", "2",
                     "--out", str(tmp_path)]) == 2
        assert "cannot write to --out" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--config", "--eval", "--train"])
def test_undecodable_input_exits_2(tmp_path, hand_instance, capsys, option):
    ev, tr = hand_instance
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe" + Path(ev).read_bytes())
    paths = {"--eval": ev, "--train": tr, option: str(bad)}
    assert main(["weights", *(tok for pair in paths.items() for tok in pair)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and str(bad) in err


class TestUnreadOptions:
    """Flags are registered only on the subcommands that read them."""

    def test_certify_rejected_on_qi_exp(self, tmp_path):
        assert main(["qi-exp", "--certify", "--reps", "2", "--out", str(tmp_path)]) == 2

    def test_certify_config_key_rejected_on_qi_exp(self, tmp_path, capsys):
        cfg = tmp_path / "qi.cfg"
        cfg.write_text("certify = 1\n")
        assert main(["qi-exp", "--config", str(cfg), "--reps", "2",
                     "--out", str(tmp_path)]) == 2
        assert "unknown config key 'certify'" in capsys.readouterr().err

    def test_reps_rejected_on_regress_exp(self, tmp_path):
        assert main(["regress-exp", "--reps", "2", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, flag",
        [("weights", "seed"), ("weights", "threads"), ("distance", "seed"),
         ("distance", "threads"), ("constants", "threads"), ("regress-exp", "threads")],
    )
    def test_unread_seed_and_threads_rejected(self, tmp_path, hand_instance, capsys,
                                              command, flag):
        ev, tr = hand_instance
        argv = {
            "weights": ["weights", "--eval", ev, "--train", tr],
            "distance": ["distance", "--eval", ev, "--train", tr],
            "constants": ["constants", "--draws", "10"],
            "regress-exp": ["regress-exp", "--scenario", "identity_1d_uniform", "--m", "20",
                            "--n-test", "5", "--out", str(tmp_path / "reg")],
        }[command]
        assert main([*argv, f"--{flag}", "2"]) == 2
        assert f"--{flag}" in capsys.readouterr().err
        cfg = tmp_path / "flag.cfg"
        cfg.write_text(f"{flag} = 2\n")
        assert main([*argv, "--config", str(cfg)]) == 2
        assert f"unknown config key '{flag}'" in capsys.readouterr().err

    def test_regress_manifest_has_no_threads(self, tmp_path):
        out = tmp_path / "reg"
        assert main(["regress-exp", "--scenario", "identity_1d_uniform", "--m", "20",
                     "--n-test", "5", "--out", str(out)]) == 0
        keys = {line.partition("=")[0] for line in read_lines(out / "manifest.txt")}
        assert "seed" in keys and "threads" not in keys

    def test_manifests_list_only_read_options(self, tmp_path):
        out = tmp_path / "atom"
        assert main(["atom-demo", "--m-grid", "20,40", "--n", "5", "--reps", "2",
                     "--out", str(out)]) == 0
        keys = {line.partition("=")[0] for line in read_lines(out / "manifest.txt")}
        assert "reps" in keys and "certify" not in keys


_SIZE = st.integers(-2, 6)
_M = st.integers(-3, 60)
_GRID = st.lists(_M, min_size=0, max_size=3).map(lambda ms: ",".join(map(str, ms)))
# --out kinds: a fresh path, an existing directory, an existing file, a path below a file.
_OUT = st.sampled_from(["{tmp}/new/out", "{tmp}", "{tmp}/file", "{tmp}/file/sub"])


@st.composite
def experiment_argv(draw):
    command = draw(st.sampled_from(["rate-exp", "qi-exp", "atom-demo"]))
    argv = [command, "--n", str(draw(_SIZE)), "--reps", str(draw(st.integers(-1, 3))),
            "--threads", str(draw(st.sampled_from([1, 2]))), "--seed", "1"]
    if command == "qi-exp":
        argv += ["--m", str(draw(_M)), "--k", str(draw(_SIZE)), "--scorr-grid=0"]
    else:
        argv.append(f"--m-grid={draw(_GRID)}")
    if command == "rate-exp":
        argv += ["--k-rule", f"const:{draw(_SIZE)}"]
        if draw(st.booleans()):
            argv.append("--certify")
    return [*argv, "--out", draw(_OUT)]


_Q = st.sampled_from(["0.5", "1", "2", "1e3", "nan"])


@st.composite
def tiny_sample(draw, d, rows=st.integers(1, 4)):
    """Points with coordinates in {-2, 0, 0.5, 3} times one scale up to 1e308 / 3."""
    n = draw(rows)
    scale = draw(st.sampled_from([1.0, 1e150, 1e308 / 3.0]))
    coords = st.sampled_from([-2.0, 0.0, 0.5, 3.0])
    points = draw(st.lists(st.tuples(*[coords] * d), min_size=n, max_size=n))
    return scale * np.array(points)


@st.composite
def other_argv(draw):
    """Argument lists for the subcommands that take CSVs or print constants.

    ``{eval}`` and ``{train}`` are placeholders; the returned dict maps each
    CSV placeholder to the points to write there, or to None for a CSV that
    is not valid UTF-8. Paths hold ``{tmp}`` (see ``run_in_tmp``).
    """
    command = draw(st.sampled_from(["weights", "distance", "regress-exp", "constants"]))
    k = str(draw(_SIZE))
    if command in {"weights", "distance"}:
        d = draw(st.integers(1, 2))
        # The training sample sometimes has another dimension: exit 2.
        d_train = draw(st.sampled_from([d, d, 3 - d]))
        # Training samples on both sides of the kd-tree threshold m = 32.
        m = st.one_of(st.integers(1, 4), st.integers(32, 36))
        csvs = {"{eval}": draw(tiny_sample(d)), "{train}": draw(tiny_sample(d_train, m))}
        garbled = draw(st.sampled_from([None, None, None, "{eval}", "{train}"]))
        if garbled:
            csvs[garbled] = None
        # Mostly k = 1, which every sample size accepts.
        k = str(draw(st.one_of(st.just(1), _SIZE)))
        argv = [command, "--eval", "{eval}", "--train", "{train}", "--k", k]
        if command == "distance":
            argv += ["--q", draw(_Q)]
            if draw(st.booleans()):
                argv.append("--exact")
        return argv, csvs
    scenario = draw(st.sampled_from(["identity_1d_uniform", "gauss_gauss", "diag_uniform_gauss"]))
    if command == "regress-exp":
        return ["regress-exp", "--scenario", scenario, "--m", str(draw(_M)), "--k", k,
                "--n-test", str(draw(st.integers(-1, 20))), "--seed", "1", "--out", draw(_OUT)], {}
    return ["constants", "--scenario", scenario, "--q", draw(_Q),
            "--draws", str(draw(st.integers(-1, 50))), "--seed", "1"], {}


def run_in_tmp(argv, csvs=None):
    """``main(argv)`` in a fresh directory, with ``{tmp}/file`` an existing file,
    ``{tmp}`` replaced by that directory and each CSV placeholder by a
    written CSV (undecodable bytes where its points are None). Returns the
    exit code, stdout, and the paths the run created."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        Path(tmp, "file").write_text("not a directory\n")
        paths = {}
        for name, points in (csvs or {}).items():
            paths[name] = Path(tmp, name.strip("{}") + ".csv")
            if points is None:
                paths[name].write_bytes(b"x\xff\xfe\n1\n")
            else:
                write_sample_csv(paths[name], Sample(points))
        before = set(Path(tmp).rglob("*"))
        code = main([str(paths.get(arg, arg)).replace("{tmp}", tmp) for arg in argv])
        created = set(Path(tmp).rglob("*")) - before
    return code, stdout.getvalue(), created


class TestExitCodeProperty:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(argv=experiment_argv())
    def test_experiments_exit_0_2_or_3(self, argv):
        code, _, created = run_in_tmp(argv)
        assert code in {0, 2, 3}
        if code == 2:
            assert not created

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=other_argv())
    def test_other_commands_exit_0_2_or_3(self, case):
        argv, csvs = case
        code, stdout, created = run_in_tmp(argv, csvs)
        assert code in {0, 2, 3}
        if code == 2:
            assert not created
        if code == 0 and argv[0] in {"weights", "distance"}:
            # Every printed weight or cost is finite; an overflow exits 3.
            for line in stdout.splitlines()[1:]:
                assert math.isfinite(float(line.split(",")[0 if argv[0] == "distance" else 1]))
