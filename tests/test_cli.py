"""Exit codes, output files, and rerun determinism of the command line."""

import os
import re
import shlex
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from tamseg import cli, gradcheck, metrics
from tamseg import tensor as T
from tamseg.cli import main
from tamseg.errors import ValidationError
from tamseg.experiments import ExperimentConfig
from tamseg.tensor import Tensor
from tamseg.tnsr import (read_array, read_bundle, read_json, write_array, write_bundle,
                         write_json)

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main(list(argv))


def gen_tiny(tmp_path, name="ds", frames=2, **extra):
    args = ["gen", "--out", str(tmp_path / name), "--size", "32",
            "--t", str(frames), "--tier", "good",
            "--train-cases", "2", "--val-cases", "1", "--test-cases", "1"]
    for k, v in extra.items():
        args += [f"--{k}", str(v)]
    assert run(*args) == 0
    return tmp_path / name


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_required_flag(self, capsys):
        assert run("gen") == 1
        assert "required" in capsys.readouterr().err

    def test_no_command(self):
        assert run() == 1

    def test_bad_choice(self, capsys):
        assert run("gradcheck", "--scope", "everything") == 1


def readme_commands() -> list[list[str]]:
    """Every ``tamseg ...`` command in README.md's shell blocks, as argv."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("tamseg "):
                commands.append(shlex.split(line)[1:])
    return commands


class TestDocumentedCommands:
    def test_readme_commands_parse(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == {
            "gen", "train", "eval", "ablate", "gradcheck", "cost"}
        for argv in commands:
            cli.build_parser().parse_args(argv)

    def test_train_defaults_are_the_config_defaults(self, monkeypatch, capsys):
        built = []

        def fake_train(cfg, log=None):
            built.append(cfg)
            return {"initial_loss": 0.0, "final_loss": 0.0}

        monkeypatch.setattr(cli, "train", fake_train)
        assert run("train", "--dataset", "d", "--out", "o") == 0
        assert built == [ExperimentConfig(dataset="d", outdir="o")]


class TestGen:
    def test_writes_manifest(self, tmp_path, capsys):
        ds = gen_tiny(tmp_path)
        manifest = read_json(ds / "manifest.json")
        assert manifest["format"] == "synth-dataset"
        assert len(manifest["splits"]["train"]) == 2
        assert manifest["splits"]["train"][0]["annotated"] == [0, 1]
        assert str(ds) in capsys.readouterr().out

    def test_frame_validation_maps_to_exit_1(self, tmp_path, capsys):
        code = run("gen", "--out", str(tmp_path / "x"), "--t", "1")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--train-cases", "--val-cases", "--test-cases"])
    def test_negative_case_count_exit_1_before_any_file(self, tmp_path, capsys, flag):
        args = ["gen", "--out", str(tmp_path / "ds"), "--size", "32", "--t", "2",
                "--train-cases", "1", "--val-cases", "0", "--test-cases", "1"]
        args[args.index(flag) + 1] = "-2"
        assert run(*args) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "ds").exists()

    def test_checkpoint_bundle_refused_exit_1(self, tmp_path, capsys):
        write_bundle(tmp_path / "ck", {"w": np.ones(3)}, {"step": 1})
        code = run("gen", "--out", str(tmp_path / "ck"), "--size", "32", "--t", "2",
                   "--train-cases", "1", "--val-cases", "0", "--test-cases", "0")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        arrays, meta = read_bundle(tmp_path / "ck")
        np.testing.assert_array_equal(arrays["w"], np.ones(3))
        assert meta == {"step": 1}
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == [
            "manifest.json", "tensors.tnsr"]

    def test_version_1_dataset_refused_exit_1_before_any_file(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        (ds / "train_000").mkdir(parents=True)
        write_array(ds / "train_000" / "frame_00.tnsr", np.ones((32, 32), np.float32))
        write_json(ds / "manifest.json", {"format": "synth-dataset", "version": 1,
                                          "splits": {"train": []}})
        before = {p: p.read_bytes() for p in ds.rglob("*") if p.is_file()}
        code = run("gen", "--out", str(ds), "--size", "32", "--t", "2",
                   "--train-cases", "1", "--val-cases", "0", "--test-cases", "0")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ds) in err and "version 1" in err
        assert {p: p.read_bytes() for p in ds.rglob("*") if p.is_file()} == before

    def test_identical_flags_identical_bytes(self, tmp_path):
        a = gen_tiny(tmp_path, "a")
        b = gen_tiny(tmp_path, "b")
        rels = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert rels == sorted(p.relative_to(b) for p in b.rglob("*")
                              if p.is_file())
        for rel in rels:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()


class TestTrainEval:
    def train_args(self, ds, out, steps="6"):
        return ["train", "--dataset", str(ds), "--out", str(out),
                "--config", "C1", "--t", "2", "--levels", "2",
                "--channels", "4,8", "--heads", "1", "--steps", steps,
                "--eval-every", "3", "--quiet"]

    def test_train_then_eval(self, tmp_path, capsys):
        ds = gen_tiny(tmp_path)
        out = tmp_path / "run"
        assert run(*self.train_args(ds, out)) == 0
        assert "final loss" in capsys.readouterr().out
        assert (out / "checkpoint_best" / "manifest.json").exists()

        code = run("eval", "--checkpoint", str(out / "checkpoint_best"),
                   "--dataset", str(ds), "--out", str(tmp_path / "eval"))
        assert code == 0
        lines = capsys.readouterr().out
        assert "class 1: dsc" in lines and "class 2: dsc" in lines
        assert (tmp_path / "eval" / "metrics.csv").exists()

    def test_eval_oracle_needs_no_checkpoint(self, tmp_path, capsys):
        ds = gen_tiny(tmp_path)
        code = run("eval", "--oracle", "--dataset", str(ds),
                   "--out", str(tmp_path / "eval"))
        assert code == 0
        assert "dsc 1.0000" in capsys.readouterr().out

    ERROR = (1, "error: cannot score case_seed20000\n")
    DEATH = (2, "i/o failure: case_seed20001: worker process died (exit code -9)\n")

    @pytest.mark.parametrize("failure, workers, expected", [
        ("error", 1, ERROR), ("error", 2, ERROR), ("error", 4, ERROR),
        ("kill", 2, DEATH), ("kill", 4, DEATH)])
    def test_eval_case_failure_exit_code(self, tmp_path, capsys, monkeypatch, failure,
                                         workers, expected):
        ds = gen_tiny(tmp_path, **{"test-cases": 3})
        parent = os.getpid()
        scored = metrics.MetricReport.add_case

        def add_case(report, case, *args):
            if failure == "error":  # every case fails: the first one's error wins
                raise ValidationError(f"cannot score {case}")
            if case == "case_seed20001" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return scored(report, case, *args)

        monkeypatch.setattr(metrics.MetricReport, "add_case", add_case)
        monkeypatch.setattr("tamseg.workers.cpu_count", lambda: workers)
        capsys.readouterr()
        code = run("eval", "--oracle", "--dataset", str(ds), "--out", str(tmp_path / "eval"))
        assert (code, capsys.readouterr().err) == expected

    def test_eval_without_checkpoint_or_oracle(self, tmp_path, capsys):
        ds = gen_tiny(tmp_path)
        code = run("eval", "--dataset", str(ds),
                   "--out", str(tmp_path / "eval"))
        assert code == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_missing_dataset_is_io_failure(self, tmp_path, capsys):
        code = run(*self.train_args(tmp_path / "nope", tmp_path / "run"))
        assert code == 2
        assert "i/o failure" in capsys.readouterr().err

    def test_missing_checkpoint_is_io_failure(self, tmp_path, capsys):
        ds = gen_tiny(tmp_path)
        code = run("eval", "--checkpoint", str(tmp_path / "nope"),
                   "--dataset", str(ds), "--out", str(tmp_path / "eval"))
        assert code == 2

    @pytest.mark.parametrize("damage", ["truncated_tensor", "foreign_format",
                                        "no_config", "tensors_dict", "payload_short",
                                        "v1_bundle"])
    def test_damaged_checkpoint_exit_1(self, tmp_path, capsys, damage):
        ds = gen_tiny(tmp_path)
        ckpt = tmp_path / "run" / "checkpoint_best"
        assert run(*self.train_args(ds, tmp_path / "run", steps="2")) == 0
        manifest = read_json(ckpt / "manifest.json")
        payload = ckpt / "tensors.tnsr"
        if damage == "truncated_tensor":
            payload.write_bytes(payload.read_bytes()[:-4])
        elif damage == "foreign_format":
            manifest["format"] = "zip-bundle"
        elif damage == "tensors_dict":
            manifest["tensors"] = dict(manifest["tensors"])
        elif damage == "payload_short":
            write_array(payload, read_array(payload)[:-1])
        elif damage == "v1_bundle":
            # one file per tensor, as version 1 wrote them
            arrays, _ = read_bundle(ckpt)
            payload.unlink()
            for name, arr in arrays.items():
                write_array(ckpt / f"{name.replace('/', '_')}.tnsr", arr)
            manifest.update(version=1, tensors={name: f"{name.replace('/', '_')}.tnsr"
                                                for name in arrays})
        else:
            del manifest["meta"]["config"]
        write_json(ckpt / "manifest.json", manifest)
        capsys.readouterr()
        code = run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
                   "--out", str(tmp_path / "eval"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and str(ckpt) in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("damage, names", [
        ("manifest_list", None), ("manifest_truncated", None), ("splits_list", None),
        ("split_of_objects", None), ("case_not_object", "train case 0"),
        ("unknown_spec_key", "train_000"), ("spacing_not_numbers", "train_000"),
        ("version_1", "version 1")])
    def test_hostile_dataset_manifest_exit_1(self, tmp_path, capsys, command, damage,
                                             names):
        ds = gen_tiny(tmp_path)
        path = ds / "manifest.json"
        manifest = read_json(path)
        if damage == "manifest_list":
            manifest = [1, 2]
        elif damage == "splits_list":
            manifest["splits"] = list(manifest["splits"].values())
        elif damage == "split_of_objects":
            manifest["splits"]["train"] = {"case": manifest["splits"]["train"][0]}
        elif damage == "case_not_object":
            manifest["splits"]["train"][0] = 5
        elif damage == "unknown_spec_key":
            manifest["splits"]["train"][0]["spec"]["speckle"] = 0.5
        elif damage == "spacing_not_numbers":
            manifest["splits"]["train"][0]["spec"]["spacing"] = ["a", "b"]
        elif damage == "version_1":
            manifest["version"] = 1
        write_json(path, manifest)
        if damage == "manifest_truncated":
            path.write_text("{")
        out = tmp_path / "run"
        argv = (self.train_args(ds, out) if command == "train"
                else ["eval", "--oracle", "--dataset", str(ds), "--out", str(out)])
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ds) in err
        assert names is None or names in err
        assert not out.exists()

    def test_divergence_maps_to_exit_2(self, tmp_path, capsys):
        ds = gen_tiny(tmp_path)
        # poison train_000's first frame: splits lie in name order in the
        # payload, so it follows the two frames of test_000
        frames = read_array(ds / "frames.tnsr")
        frames[2 * 32 * 32:3 * 32 * 32] = np.nan
        write_array(ds / "frames.tnsr", frames)
        code = run(*self.train_args(ds, tmp_path / "run"))
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--steps", "--eval-every"])
    def test_zero_count_exit_1_before_any_file(self, tmp_path, capsys, flag):
        ds = gen_tiny(tmp_path)
        args = self.train_args(ds, tmp_path / "run")
        args[args.index(flag) + 1] = "0"
        capsys.readouterr()
        assert run(*args) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    def test_more_frames_than_the_dataset_exit_1_before_any_file(self, tmp_path, capsys):
        ds = gen_tiny(tmp_path)  # two frames per sequence
        args = self.train_args(ds, tmp_path / "run")
        args[args.index("--t") + 1] = "4"
        capsys.readouterr()
        assert run(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "need 4 frames" in err
        assert not (tmp_path / "run").exists()

    def test_eval_refuses_fewer_frames_before_any_file(self, tmp_path, capsys):
        args = self.train_args(gen_tiny(tmp_path, "ds3", frames=3), tmp_path / "run",
                               steps="2")
        args[args.index("--t") + 1] = "3"
        assert run(*args) == 0
        capsys.readouterr()
        code = run("eval", "--checkpoint", str(tmp_path / "run" / "checkpoint_best"),
                   "--dataset", str(gen_tiny(tmp_path)), "--out", str(tmp_path / "eval"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "eval").exists()

    def test_train_rerun_byte_identical(self, tmp_path):
        ds = gen_tiny(tmp_path)
        out = tmp_path / "run"
        assert run(*self.train_args(ds, out, steps="4")) == 0
        files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert run(*self.train_args(ds, out, steps="4")) == 0
        for p, blob in files.items():
            assert p.read_bytes() == blob, p


class TestGradcheckCommand:
    def test_ops_scope_passes(self, capsys):
        assert run("gradcheck", "--scope", "ops", "--seeds", "1") == 0
        out = capsys.readouterr().out
        assert "all" in out and "checks passed" in out
        assert "ok" in out

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seeds_exit_1(self, capsys, seeds):
        assert run("gradcheck", "--scope", "ops", "--seeds", seeds) == 1
        captured = capsys.readouterr()
        assert "checks passed" not in captured.out
        assert captured.err.startswith("error: ")


def failing_suite(fail):
    """A gradcheck suite of one 96-coordinate check, three units of 32.

    Every difference evaluates the loss in full (no guard), and the loss
    calls ``fail`` with the first coordinate that differs from its start, so
    only the units holding a coordinate that ``fail`` rejects fail.
    """
    def suite(seeds=None):
        x = Tensor(np.linspace(-1.0, 1.0, 96), requires_grad=True)
        base = x.data.copy()

        def build_loss():
            moved = np.flatnonzero(x.data != base)
            if moved.size:
                fail(int(moved[0]))
            return T.tsum(x * x)

        return [gradcheck.GradCheckResult("x", gradcheck.check_gradients(build_loss,
                                                                          {"x": x}))]
    return suite


class TestGradcheckFailures:
    """A failing or dying work unit of ``tamseg gradcheck``, at its exit code."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_unit_exit_1(self, capsys, monkeypatch, workers):
        def fail(i):
            if i >= 32:  # units [32:64] and [64:96]; the later one fails first
                if i < 64:
                    time.sleep(0.2)
                raise ValidationError(f"coordinate {i} moved")

        monkeypatch.setitem(gradcheck.SUITES, "tam", failing_suite(fail))
        monkeypatch.setattr("tamseg.workers.cpu_count", lambda: workers)
        capsys.readouterr()
        assert run("gradcheck", "--scope", "tam") == 1
        assert capsys.readouterr() == ("", "error: coordinate 32 moved\n")

    @pytest.mark.parametrize("workers", [2, 3])
    def test_dead_worker_names_the_coordinate_range_exit_2(self, capsys, monkeypatch,
                                                          workers):
        parent = os.getpid()

        def fail(i):
            if 32 <= i < 64 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setitem(gradcheck.SUITES, "tam", failing_suite(fail))
        monkeypatch.setattr("tamseg.workers.cpu_count", lambda: workers)
        capsys.readouterr()
        assert run("gradcheck", "--scope", "tam") == 2
        assert capsys.readouterr() == (
            "", "i/o failure: x [32:64]: worker process died (exit code -9)\n")

    def test_dead_worker_names_the_op_case_and_seed_exit_2(self, capsys, monkeypatch):
        parent, softmax = os.getpid(), T.softmax

        def dying_softmax(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return softmax(*args, **kwargs)

        monkeypatch.setattr(T, "softmax", dying_softmax)
        monkeypatch.setattr("tamseg.workers.cpu_count", lambda: 2)
        capsys.readouterr()
        assert run("gradcheck", "--scope", "ops", "--seeds", "2") == 2
        assert capsys.readouterr() == (
            "", "i/o failure: softmax seed 0: worker process died (exit code -9)\n")


class TestAblateFailures:
    """A failing or dying cell of ``tamseg ablate``, at its exit code."""

    ARGS = ("ablate", "--axis", "config", "--values", "C1", "--seeds", "0,1,2",
            "--levels", "2", "--channels", "4,8", "--heads", "1", "--size", "32",
            "--train-cases", "1", "--val-cases", "1", "--test-cases", "1", "--quiet")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_cell_exit_1(self, tmp_path, capsys, monkeypatch, workers):
        def fail(cfg, log=None):
            if cfg.seed == 0:  # the first cell fails last
                time.sleep(0.2)
            raise ValidationError(f"cell seed {cfg.seed} failed")

        monkeypatch.setattr("tamseg.experiments.train", fail)
        monkeypatch.setattr("tamseg.workers.cpu_count", lambda: workers)
        capsys.readouterr()
        assert run(*self.ARGS, "--workdir", str(tmp_path / "w")) == 1
        assert capsys.readouterr() == ("", "error: cell seed 0 failed\n")
        assert not (tmp_path / "w" / "results.csv").exists()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_dead_worker_names_the_cell_exit_2(self, tmp_path, capsys, monkeypatch,
                                              workers):
        parent = os.getpid()

        def fail(cfg, log=None):
            if cfg.seed == 0 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValidationError(f"cell seed {cfg.seed} failed")

        monkeypatch.setattr("tamseg.experiments.train", fail)
        monkeypatch.setattr("tamseg.workers.cpu_count", lambda: workers)
        capsys.readouterr()
        assert run(*self.ARGS, "--workdir", str(tmp_path / "w")) == 2
        cell = tmp_path / "w" / "config_C1_seed0"
        assert capsys.readouterr() == (
            "", f"i/o failure: {cell}: worker process died (exit code -9)\n")
        assert not (tmp_path / "w" / "results.csv").exists()


class TestCostCommand:
    def test_single_report(self, tmp_path, capsys):
        code = run("cost", "--configs", "C1", "--size", "32", "--levels", "3",
                   "--channels", "4,8,16", "--heads", "1")
        assert code == 0
        out = capsys.readouterr().out
        assert "total" in out and "C1" in out

    def test_comparison_and_json(self, tmp_path, capsys):
        json_path = tmp_path / "costs.json"
        code = run("cost", "--configs", "C1,C3,C2", "--size", "32",
                   "--levels", "5", "--channels", "2,4,6,8,10",
                   "--heads", "1", "--json", str(json_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "tam.E5.attention" in out  # C3's attention row
        data = read_json(json_path)
        assert len(data["reports"]) == 3
        flops = {r["label"].split(" ")[0]: r["total_flops"]
                 for r in data["reports"]}
        assert flops["C1"] < flops["C3"] < flops["C2"]

    def test_unknown_config_exit_1(self, capsys):
        assert run("cost", "--configs", "C99") == 1

    def test_refused_config_prints_no_table(self, tmp_path, capsys):
        # C1 prices at 512 px; C5's slot E3 then holds 16,384 positions
        json_path = tmp_path / "costs.json"
        assert run("cost", "--configs", "C1,C5", "--size", "512",
                   "--json", str(json_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not json_path.exists()

    @pytest.mark.parametrize("size", ["0", "-16"])
    def test_non_positive_size_exit_1(self, capsys, size):
        assert run("cost", "--configs", "C1", "--size", size) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "non-positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("frames", ["0", "1", "6"])
    def test_zero_frames_exit_1(self, capsys, frames):
        assert run("cost", "--configs", "C1", "--t", frames) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "total" not in captured.out


class TestAblateCommand:
    def test_tiny_sweep(self, tmp_path, capsys):
        work = tmp_path / "work"
        code = run("ablate", "--axis", "config", "--values", "C1",
                   "--seeds", "0", "--workdir", str(work),
                   "--levels", "2", "--channels", "4,8", "--heads", "1",
                   "--steps", "3", "--size", "32", "--tier", "good",
                   "--train-cases", "1", "--val-cases", "1",
                   "--test-cases", "1", "--quiet")
        assert code == 0
        assert (work / "results.csv").exists()
        out = capsys.readouterr().out
        assert "config=C1 seed=0" in out

    def test_progress_lines_name_their_cell(self, tmp_path, capfd, monkeypatch):
        # fd-level capture also sees what the worker processes print
        monkeypatch.setattr("tamseg.workers.cpu_count", lambda: 2)
        code = run("ablate", "--axis", "config", "--values", "C1", "--seeds", "0,1",
                   "--workdir", str(tmp_path / "w"), "--levels", "2",
                   "--channels", "4,8", "--heads", "1", "--steps", "3",
                   "--train-cases", "1", "--val-cases", "1", "--test-cases", "1")
        assert code == 0
        progress = sorted(line.split(": train loss ")[0]
                          for line in capfd.readouterr().out.splitlines()
                          if ": step " in line)
        assert progress == ["config_C1_seed0: step 0", "config_C1_seed0: step 2",
                            "config_C1_seed1: step 0", "config_C1_seed1: step 2"]

    def test_negative_case_count_exit_1_before_any_file(self, tmp_path, capsys):
        code = run("ablate", "--axis", "heads", "--values", "1", "--levels", "2",
                   "--channels", "4,8", "--train-cases", "-1",
                   "--workdir", str(tmp_path / "w"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "w").exists()

    def test_bad_axis_exit_1(self, tmp_path, capsys):
        code = run("ablate", "--axis", "kernel", "--values", "3",
                   "--workdir", str(tmp_path / "w"))
        assert code == 1

    def test_non_integer_seed_is_usage_error(self, tmp_path, capsys):
        code = run("ablate", "--axis", "config", "--values", "C1",
                   "--seeds", "0,x", "--workdir", str(tmp_path / "w"))
        assert code == 1
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("axis,values", [("heads", "x"), ("heads", "2,x"),
                                             ("config", "C1,C4")])
    def test_bad_value_exit_1_before_any_file(self, tmp_path, capsys, axis,
                                              values):
        # C4's slot E5 does not exist in a 2-level backbone
        code = run("ablate", "--axis", axis, "--values", values,
                   "--levels", "2", "--channels", "4,8",
                   "--workdir", str(tmp_path / "w"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "w").exists()
