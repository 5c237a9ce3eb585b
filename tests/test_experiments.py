"""Train/eval/ablate drivers: artifacts, determinism, failure modes."""

import json

import numpy as np
import pytest

from tamseg import experiments
from tamseg.errors import NumericError, ValidationError
from tamseg.experiments import (ExperimentConfig, ablate, evaluate,
                                load_checkpoint, make_dataset,
                                select_frame_indices, train)
from tamseg.synth import load_dataset
from tamseg.tnsr import read_array, read_json, write_array
from tamseg.unet import build_model

TINY = dict(levels=2, channels=(4, 8), heads=1, steps=10, lr=1e-3,
            frames=2, tier="good", eval_every=5)


def tiny_dataset(root, seed=0, frames=2, tier="good"):
    make_dataset(root, seed=seed, size=32, frames=frames, tier=tier,
                 counts={"train": 2, "val": 1, "test": 1},
                 dropout_target="unannotated")


REPORT_FILES = ["ecdf_dsc.csv", "ecdf_hd_mm.csv", "ecdf_masd_mm.csv", "metrics.csv",
                "metrics.json"]


@pytest.fixture(scope="module")
def three_case_run(tmp_path_factory):
    """A dataset with three test cases and a C1 checkpoint trained on it."""
    root = tmp_path_factory.mktemp("three_cases")
    make_dataset(root / "ds", seed=0, size=32, frames=2, tier="good",
                 counts={"train": 2, "val": 1, "test": 3}, dropout_target="unannotated")
    train(ExperimentConfig(dataset=str(root / "ds"), outdir=str(root / "run"), **TINY))
    return root


def set_workers(monkeypatch, count):
    monkeypatch.setattr("tamseg.workers.cpu_count", lambda: count)


class TestExperimentConfig:
    def test_json_round_trip(self):
        cfg = ExperimentConfig(config_id="C4", frames=3, heads=2, d_embed=16,
                               steps=5, lr=1e-4, seed=9, dataset="ds",
                               tier="poor", outdir="out", levels=3,
                               channels=(4, 8, 16))
        assert ExperimentConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_channels_normalized_to_tuple(self):
        cfg = ExperimentConfig(levels=2, channels=[4, 8])
        assert cfg.channels == (4, 8)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(config_id="C0")
        with pytest.raises(ValidationError):
            ExperimentConfig(frames=1)
        with pytest.raises(ValidationError):
            ExperimentConfig(frames=6)
        with pytest.raises(ValidationError):
            ExperimentConfig(lr=-1.0)
        with pytest.raises(ValidationError):
            ExperimentConfig(batch_size=0)
        with pytest.raises(ValidationError, match="tier"):
            ExperimentConfig(tier="bogus")

    def test_train_requires_dataset(self):
        with pytest.raises(ValidationError, match="dataset"):
            train(ExperimentConfig(outdir="somewhere"))


    def test_unhostable_configuration_makes_no_run_directory(self, tmp_path):
        # C4 needs slot E5, which a 4-level backbone does not have
        cfg = ExperimentConfig(config_id="C4", levels=4, channels=(4, 8, 16, 32),
                               dataset=str(tmp_path / "no_dataset"),
                               outdir=str(tmp_path / "run"))
        with pytest.raises(ValidationError, match="E5"):
            train(cfg)
        assert not (tmp_path / "run").exists()


class TestFrameSelection:
    def test_evenly_spaced_with_endpoints(self):
        assert select_frame_indices(5, 3) == [0, 2, 4]
        assert select_frame_indices(5, 2) == [0, 4]
        assert select_frame_indices(4, 2) == [0, 3]
        assert select_frame_indices(2, 2) == [0, 1]

    def test_want_above_available_refused(self):
        assert select_frame_indices(3, 3) == [0, 1, 2]
        with pytest.raises(ValidationError, match="need 4 frames"):
            select_frame_indices(3, 4)

    def test_minimum(self):
        with pytest.raises(ValidationError):
            select_frame_indices(5, 1)


class TestMakeDataset:
    def test_split_sizes_and_seed_offsets(self, tmp_path):
        tiny_dataset(tmp_path / "ds", seed=5)
        data = load_dataset(tmp_path / "ds")
        assert {k: len(v) for k, v in data.items()} == \
            {"train": 2, "val": 1, "test": 1}
        # split seeds never collide, so no case repeats across splits
        assert data["train"][0].spec.seed == 5
        assert data["val"][0].spec.seed == 10_005
        assert data["test"][0].spec.seed == 20_005


class TestTraining:
    def test_artifacts_and_loss_decrease(self, tmp_path):
        tiny_dataset(tmp_path / "ds")
        cfg = ExperimentConfig(dataset=str(tmp_path / "ds"),
                               outdir=str(tmp_path / "run"), **TINY)
        summary = train(cfg)
        assert summary["final_loss"] < summary["initial_loss"]

        out = tmp_path / "run"
        for name in ("config.json", "loss_curve.csv", "summary.json"):
            assert (out / name).exists()
        for ckpt in ("checkpoint_best", "checkpoint_last"):
            assert (out / ckpt / "manifest.json").exists()
        header = (out / "loss_curve.csv").read_text().splitlines()[0]
        assert header == "step,split,loss"
        cfg_json = read_json(out / "config.json")
        assert cfg_json["config"]["config_id"] == "C1"
        model = build_model(cfg.config_id, cfg.backbone(),
                            np.random.default_rng(0))
        assert summary["parameter_count"] == model.parameter_count()

    def test_checkpoint_writes_the_live_arrays(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(**TINY)
        model = build_model(cfg.config_id, cfg.backbone(), np.random.default_rng(0))
        handed = {}
        write_bundle = experiments.write_bundle

        def capture(path, arrays, meta):
            handed.update(arrays)
            write_bundle(path, arrays, meta)

        monkeypatch.setattr(experiments, "write_bundle", capture)
        experiments._save_checkpoint(tmp_path / "live", model, cfg, 3, 0.5)
        live = {name: t.data for name, t in model.named_parameters().items()}
        live.update({name: getattr(state, attr)
                     for name, (state, attr) in model.stats.items()})
        assert model.stats and handed.keys() == live.keys()
        for name, arr in live.items():
            assert np.shares_memory(handed[name], arr), name
        # the same bytes as a bundle of copies
        copies = model.to_arrays()
        monkeypatch.setattr(model, "named_arrays", lambda: copies)
        experiments._save_checkpoint(tmp_path / "copies", model, cfg, 3, 0.5)
        for name in ("manifest.json", "tensors.tnsr"):
            assert ((tmp_path / "live" / name).read_bytes()
                    == (tmp_path / "copies" / name).read_bytes())

    def test_checkpoint_round_trip(self, tmp_path):
        tiny_dataset(tmp_path / "ds")
        cfg = ExperimentConfig(dataset=str(tmp_path / "ds"),
                               outdir=str(tmp_path / "run"), **TINY)
        train(cfg)
        model, loaded_cfg, meta = load_checkpoint(tmp_path / "run"
                                                  / "checkpoint_last")
        assert loaded_cfg == cfg
        assert meta["step"] == cfg.steps - 1

    def test_zero_lr_keeps_initial_parameters(self, tmp_path):
        tiny_dataset(tmp_path / "ds")
        cfg = ExperimentConfig(dataset=str(tmp_path / "ds"),
                               outdir=str(tmp_path / "run"),
                               **{**TINY, "lr": 0.0, "steps": 3})
        train(cfg)
        model, _, _ = load_checkpoint(tmp_path / "run" / "checkpoint_last")
        init = build_model(cfg.config_id, cfg.backbone(),
                           np.random.default_rng(cfg.seed))
        # weights must be untouched; norm running stats may move
        got = model.named_parameters()
        for name, want in init.named_parameters().items():
            np.testing.assert_array_equal(got[name].data, want.data)

    def test_nan_input_aborts_with_numeric_error(self, tmp_path):
        tiny_dataset(tmp_path / "ds")
        # poison one training frame on disk
        # poison train_000's first frame: splits lie in name order in the
        # payload, so it follows the two frames of test_000
        frames = read_array(tmp_path / "ds" / "frames.tnsr")
        frames[2 * 32 * 32:3 * 32 * 32] = np.nan
        write_array(tmp_path / "ds" / "frames.tnsr", frames)
        cfg = ExperimentConfig(dataset=str(tmp_path / "ds"),
                               outdir=str(tmp_path / "run"), **TINY)
        with pytest.raises(NumericError, match="diverged at step"):
            train(cfg)

    def test_one_fresh_shuffle_per_pass_with_batches(self, tmp_path, monkeypatch):
        make_dataset(tmp_path / "ds", seed=0, size=32, frames=2, tier="good",
                     counts={"train": 4, "val": 1, "test": 1},
                     dropout_target="unannotated")
        cfg = ExperimentConfig(dataset=str(tmp_path / "ds"), outdir=str(tmp_path / "run"),
                               **{**TINY, "steps": 6, "batch_size": 2})
        drawn, case_loss = [], experiments._case_loss

        def spy(model, sample, indices, training):
            if training:
                drawn.append(sample.spec.seed)
            return case_loss(model, sample, indices, training)

        monkeypatch.setattr(experiments, "_case_loss", spy)
        train(cfg)
        # replicate the run's stream: the weights first, then one shuffle per
        # pass of 4 cases, 2 steps of 2 each
        rng = np.random.default_rng(cfg.seed)
        build_model(cfg.config_id, cfg.backbone(), rng)
        seeds = [s.spec.seed for s in load_dataset(tmp_path / "ds")["train"]]
        order, expected = np.arange(4), []
        for _ in range(3):
            rng.shuffle(order)
            expected += [seeds[i] for i in order]
        assert drawn == expected

    def test_rerun_reproduces_files_byte_for_byte(self, tmp_path):
        tiny_dataset(tmp_path / "ds")
        cfg = ExperimentConfig(dataset=str(tmp_path / "ds"),
                               outdir=str(tmp_path / "run"),
                               **{**TINY, "steps": 4})
        train(cfg)
        files = sorted(p for p in (tmp_path / "run").rglob("*") if p.is_file())
        first = {p: p.read_bytes() for p in files}
        train(cfg)
        for p, blob in first.items():
            assert p.read_bytes() == blob, p


class TestEvaluation:
    def test_oracle_is_perfect(self, tmp_path):
        tiny_dataset(tmp_path / "ds")
        result = evaluate(None, str(tmp_path / "ds"), tmp_path / "eval",
                          oracle=True)
        classes = result["aggregate"]["classes"]
        assert set(classes) == {"1", "2"}
        for entry in classes.values():
            assert entry["dsc_mean"] == 1.0
            assert entry["hd_mm_mean"] == 0.0
            assert entry["masd_mm_mean"] == 0.0
            assert entry["undefined"] == 0
        for name in ("metrics.csv", "metrics.json", "ecdf_dsc.csv",
                     "ecdf_hd_mm.csv", "ecdf_masd_mm.csv"):
            assert (tmp_path / "eval" / name).exists()

    def test_oracle_scores_annotated_frames_only(self, tmp_path):
        make_dataset(tmp_path / "ds", seed=0, size=32, frames=4, tier="good",
                     counts={"train": 1, "test": 1}, dropout_target="unannotated")
        result = evaluate(None, str(tmp_path / "ds"), tmp_path / "eval",
                          oracle=True)
        frames = {r["frame"] for r in result["rows"]}
        assert frames == {0, 3}

    def test_checkpoint_evaluation_structure(self, tmp_path):
        tiny_dataset(tmp_path / "ds")
        cfg = ExperimentConfig(dataset=str(tmp_path / "ds"),
                               outdir=str(tmp_path / "run"),
                               **{**TINY, "steps": 4})
        train(cfg)
        result = evaluate(tmp_path / "run" / "checkpoint_best",
                          str(tmp_path / "ds"), tmp_path / "eval")
        assert result["split"] == "test"
        assert result["config"]["config_id"] == "C1"
        for row in result["rows"]:
            assert 0.0 <= row["dsc"] <= 1.0
        data = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert data["rows"] == result["rows"]

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("workers", [2, 5])
    def test_files_identical_for_any_worker_count(self, three_case_run, tmp_path,
                                                  monkeypatch, oracle, workers):
        def tree(count):
            set_workers(monkeypatch, count)
            out = tmp_path / f"eval_{count}"
            evaluate(three_case_run / "run" / "checkpoint_best",
                     str(three_case_run / "ds"), out, oracle=oracle)
            return {p.name: p.read_bytes() for p in out.iterdir()}

        serial = tree(1)
        assert sorted(serial) == REPORT_FILES
        assert tree(workers) == serial

    def test_missing_split_rejected(self, tmp_path):
        make_dataset(tmp_path / "ds", seed=0, size=32, frames=2, tier="good",
                     counts={"train": 1}, dropout_target="unannotated")
        with pytest.raises(ValidationError, match="test"):
            evaluate(None, str(tmp_path / "ds"), tmp_path / "eval",
                     oracle=True)


class TestAblation:
    def test_axis_validated(self, tmp_path):
        with pytest.raises(ValidationError):
            ablate("kernel", ["3"], ExperimentConfig(), [0], tmp_path, size=32,
                   dataset_counts={"train": 1}, dropout_target="unannotated")

    def test_config_axis_smoke(self, tmp_path):
        base = ExperimentConfig(**{**TINY, "steps": 3})
        rows = ablate("config", ["C1"], base, seeds=[0, 1],
                      workdir=tmp_path / "work", size=32,
                      dataset_counts={"train": 1, "val": 1, "test": 1},
                      dropout_target="unannotated")
        assert len(rows) == 2
        for row in rows:
            assert row["axis"] == "config" and row["value"] == "C1"
            assert row["flops"] > 0 and row["params"] > 0
        csv_lines = (tmp_path / "work" / "results.csv").read_text().splitlines()
        assert csv_lines[0] == "axis,value,seed,dsc,hd_mm,masd_mm,flops,params"
        assert len(csv_lines) == 3
        results = read_json(tmp_path / "work" / "results.json")
        assert results["axis"] == "config"
        assert len(results["rows"]) == 2
        # both seeds share one dataset directory
        assert (tmp_path / "work" / "datasets" / "shared").exists()

    def test_files_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        base = ExperimentConfig(**{**TINY, "steps": 2})
        work = tmp_path / "work"

        def tree(count):
            # the same workdir both times: each cell's config.json records its paths
            set_workers(monkeypatch, count)
            ablate("frames", ["2", "3"], base, seeds=[0, 1], workdir=work, size=32,
                   dataset_counts={"train": 1, "val": 1, "test": 1},
                   dropout_target="unannotated")
            return {p.relative_to(work).as_posix(): p.read_bytes()
                    for p in sorted(work.rglob("*")) if p.is_file()}

        serial = tree(1)
        assert {"results.csv", "results.json", "frames_3_seed1/eval/metrics.json",
                "datasets/frames_3/manifest.json"} <= set(serial)
        assert tree(2) == serial

    def test_cells_sharing_an_outdir_refused(self, tmp_path):
        base = ExperimentConfig(**{**TINY, "steps": 1})
        with pytest.raises(ValidationError, match="share an outdir"):
            ablate("config", ["C1", "C1"], base, seeds=[0], workdir=tmp_path, size=32,
                   dataset_counts={"train": 1, "val": 1, "test": 1},
                   dropout_target="unannotated")
        assert not (tmp_path / "config_C1_seed0").exists()

    def test_rerun_at_another_size_regenerates_the_dataset(self, tmp_path):
        base = ExperimentConfig(**{**TINY, "steps": 1})

        def run(workdir, size):
            ablate("config", ["C1"], base, seeds=[0], workdir=workdir, size=size,
                   dataset_counts={"train": 1, "val": 1, "test": 1},
                   dropout_target="unannotated")
            return read_json(workdir / "results.json")["rows"]

        run(tmp_path / "work", 32)
        rows = run(tmp_path / "work", 64)
        for split in load_dataset(tmp_path / "work" / "datasets" / "shared").values():
            for sample in split:
                assert tuple(sample.spec.extents) == (64, 64)
                assert all(image.shape == (64, 64) for image in sample.images)
        assert rows == run(tmp_path / "fresh", 64)
