"""Training, evaluation, and ablation drivers behind the command line.

Runs are deterministic given their config: a fixed seed drives init, data
order, and generation, file writes are atomic, and no output embeds a
timestamp, so rerunning a command reproduces its result files byte for byte
in single-threaded mode. Every run writes its resolved config next to its
results.
"""

from __future__ import annotations

import dataclasses
import io
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .costs import configuration_report
from .errors import NumericError, ValidationError
from .losses import dice_ce_loss, one_hot
from .metrics import MetricReport, SegmentationMask, ecdf_csv
from .optim import Adam
from .synth import SequenceSpec, load_dataset, write_dataset
from .tensor import Tensor, assert_finite, backward
from .tnsr import atomic_write_text, read_bundle, write_bundle, write_json
from .unet import BackboneConfig, build_model, lookup_configuration

ABLATION_AXES = ("config", "heads", "frames", "tier")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a training run needs; serializes losslessly to JSON."""

    config_id: str = "C1"
    frames: int = 2
    heads: int = 4
    d_embed: int | None = None
    steps: int = 200
    batch_size: int = 1
    lr: float = 1e-3
    seed: int = 0
    dataset: str = ""
    tier: str = "medium"
    outdir: str = ""
    levels: int = 5
    channels: tuple[int, ...] = (16, 32, 64, 128, 256)
    classes: int = 3
    in_channels: int = 1
    eval_every: int = 25

    def __post_init__(self):
        lookup_configuration(self.config_id)
        if not 2 <= self.frames <= 5:
            raise ValidationError(f"frames must be in [2, 5], got {self.frames}")
        if self.steps < 0 or self.batch_size < 1:
            raise ValidationError("steps must be >= 0 and batch_size >= 1")
        if self.lr < 0:
            raise ValidationError("lr must be >= 0")
        object.__setattr__(self, "channels", tuple(self.channels))

    def backbone(self) -> BackboneConfig:
        return BackboneConfig(
            spatial_rank=2, levels=self.levels, channels=self.channels,
            in_channels=self.in_channels, classes=self.classes,
            heads=self.heads, d_embed=self.d_embed)

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["channels"] = list(self.channels)
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        d = dict(d)
        d["channels"] = tuple(d["channels"])
        return ExperimentConfig(**d)


def select_frame_indices(available: int, want: int) -> list[int]:
    """Evenly spaced frame indices including both endpoints (ED and ES)."""
    if want < 2:
        raise ValidationError("need at least 2 frames")
    want = min(want, available)
    return sorted({int(round(i * (available - 1) / (want - 1)))
                   for i in range(want)})


def _write_config(outdir: Path, cfg: ExperimentConfig) -> None:
    write_json(outdir / "config.json",
               {"artifact_version": __version__, "config": cfg.to_json_dict()})


def _case_loss(model, sample, indices, training: bool) -> Tensor:
    frames = [Tensor(sample.images[i][None]) for i in indices]
    probs = model.forward(frames, training=training)
    total = None
    count = 0
    for pos, frame_idx in enumerate(indices):
        if frame_idx not in sample.annotated:
            continue
        truth = one_hot(sample.masks[frame_idx].labels, probs[pos].shape[0])
        term = dice_ce_loss(probs[pos], truth)
        total = term if total is None else total + term
        count += 1
    if total is None:
        raise ValidationError("no annotated frames among the selected indices")
    return total * (1.0 / count)


def train(cfg: ExperimentConfig, log=None) -> dict:
    """Train one configuration; returns a summary dict.

    Writes into ``cfg.outdir``: config.json, loss_curve.csv, summary.json,
    and checkpoint bundles (best validation and last step). Aborts with
    :class:`NumericError` on a non-finite loss.
    """
    if not cfg.dataset:
        raise ValidationError("config has no dataset path")
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_config(outdir, cfg)

    data = load_dataset(cfg.dataset)
    if "train" not in data or not data["train"]:
        raise ValidationError(f"dataset {cfg.dataset} has no train split")
    train_cases = data["train"]
    val_cases = data.get("val", [])

    rng = np.random.default_rng(cfg.seed)
    model = build_model(cfg.config_id, cfg.backbone(), rng)
    params = model.named_parameters()
    opt = Adam(params.values(), lr=cfg.lr)

    indices_for = {id(s): select_frame_indices(s.frames, cfg.frames)
                   for split in data.values() for s in split}

    def val_loss() -> float:
        total = 0.0
        for s in val_cases:
            total += _case_loss(model, s, indices_for[id(s)], training=False).item()
        return total / len(val_cases)

    curve_rows = [("step", "split", "loss")]
    order = np.arange(len(train_cases))
    best_val = None
    initial_loss = None
    final_loss = None
    for step in range(cfg.steps):
        if step % len(train_cases) == 0:
            rng.shuffle(order)
        opt.zero_grad()
        batch_loss = 0.0
        for b in range(cfg.batch_size):
            sample = train_cases[order[(step * cfg.batch_size + b) % len(order)]]
            loss = _case_loss(model, sample, indices_for[id(sample)], training=True)
            try:
                assert_finite(loss, "training loss")
            except NumericError as exc:
                raise NumericError(
                    f"training diverged at step {step}: {exc}") from exc
            backward(loss * (1.0 / cfg.batch_size), free_graph=True)
            batch_loss += loss.item() / cfg.batch_size
        opt.step()
        if initial_loss is None:
            initial_loss = batch_loss
        final_loss = batch_loss
        curve_rows.append((str(step), "train", f"{batch_loss:.6f}"))
        if log is not None and (step % 10 == 0 or step == cfg.steps - 1):
            log(f"step {step}: train loss {batch_loss:.4f}")
        last_step = step == cfg.steps - 1
        if val_cases and (step % cfg.eval_every == cfg.eval_every - 1 or last_step):
            v = val_loss()
            curve_rows.append((str(step), "val", f"{v:.6f}"))
            if best_val is None or v < best_val:
                best_val = v
                _save_checkpoint(outdir / "checkpoint_best", model, cfg, step, v)

    _save_checkpoint(outdir / "checkpoint_last", model, cfg, cfg.steps - 1,
                     best_val)
    if best_val is None:
        _save_checkpoint(outdir / "checkpoint_best", model, cfg,
                         cfg.steps - 1, None)

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(curve_rows)
    atomic_write_text(outdir / "loss_curve.csv", buf.getvalue())
    summary = {
        "artifact_version": __version__,
        "config": cfg.to_json_dict(),
        "initial_loss": initial_loss,
        "final_loss": final_loss,
        "best_val_loss": best_val,
        "parameter_count": model.parameter_count(),
    }
    write_json(outdir / "summary.json", summary)
    return summary


def _save_checkpoint(path: Path, model, cfg: ExperimentConfig, step: int,
                     val_loss) -> None:
    write_bundle(path, model.to_arrays(), {
        "artifact_version": __version__,
        "config": cfg.to_json_dict(),
        "step": step,
        "val_loss": val_loss,
    })


def load_checkpoint(path) -> tuple[object, ExperimentConfig, dict]:
    """Rebuild the model stored in a checkpoint bundle."""
    arrays, meta = read_bundle(path)
    cfg = ExperimentConfig.from_json_dict(meta["config"])
    model = build_model(cfg.config_id, cfg.backbone(), np.random.default_rng(0))
    model.load_arrays(arrays)
    return model, cfg, meta


def evaluate(checkpoint, dataset: str, outdir, split: str = "test",
             oracle: bool = False, labels: list[int] | None = None) -> dict:
    """Evaluate a checkpoint (or the identity oracle) on a dataset split.

    Emits metrics.csv, metrics.json, and per-metric ECDF CSVs into ``outdir``.
    ``oracle=True`` scores the ground-truth masks against themselves,
    exercising the full reporting path with known-perfect values.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    data = load_dataset(dataset)
    if split not in data or not data[split]:
        raise ValidationError(f"dataset {dataset} has no {split!r} split")
    cases = data[split]

    model = cfg = meta = None
    if not oracle:
        model, cfg, meta = load_checkpoint(checkpoint)

    report = MetricReport()
    for sample in sorted(cases, key=lambda s: s.spec.seed):
        case_id = f"case_seed{sample.spec.seed}"
        indices = (list(sample.annotated) if oracle else
                   select_frame_indices(sample.frames, cfg.frames))
        preds: dict[int, SegmentationMask] = {}
        if oracle:
            for idx in sample.annotated:
                preds[idx] = sample.masks[idx]
        else:
            frames = [Tensor(sample.images[i][None]) for i in indices]
            probs = model.forward(frames, training=False)
            for pos, idx in enumerate(indices):
                if idx in sample.annotated:
                    pred_labels = np.argmax(probs[pos].data, axis=0).astype(np.int64)
                    preds[idx] = SegmentationMask(pred_labels,
                                                  sample.masks[idx].spacing)
        for idx in sorted(preds):
            truth = sample.masks[idx]
            use_labels = labels if labels is not None else sorted(
                set(np.unique(truth.labels)) - {0})
            report.add_case(case_id, idx, preds[idx], truth,
                            [int(v) for v in use_labels])

    result = {
        "artifact_version": __version__,
        "config": None if cfg is None else cfg.to_json_dict(),
        "oracle": oracle,
        "split": split,
        **report.to_json_dict(),
    }
    atomic_write_text(outdir / "metrics.csv", report.to_csv())
    write_json(outdir / "metrics.json", result)
    for metric in ("dsc", "hd_mm", "masd_mm"):
        values = [getattr(r, "dsc" if metric == "dsc" else metric)
                  for r in report.rows if not r.error]
        if values:
            atomic_write_text(outdir / f"ecdf_{metric}.csv",
                              ecdf_csv(values, metric))
    return result


def make_dataset(root, seed: int, size: int, frames: int, tier: str,
                 counts: dict[str, int] | None = None,
                 dropout_target: str = "unannotated",
                 contraction: float = 0.35) -> None:
    """Generate a train/val/test dataset directory from one base seed."""
    counts = counts or {"train": 8, "val": 2, "test": 4}
    splits: dict[str, list[SequenceSpec]] = {}
    offset = {"train": 0, "val": 10_000, "test": 20_000}
    for split, n in counts.items():
        specs = []
        for i in range(n):
            specs.append(SequenceSpec.for_tier(
                tier, seed=seed + offset.get(split, 30_000) + i,
                extents=(size, size), frames=frames,
                dropout_target=dropout_target, contraction=contraction))
        splits[split] = specs
    write_dataset(root, splits)


def ablate(axis: str, values: list[str], base: ExperimentConfig,
           seeds: list[int], workdir, size: int = 32,
           dataset_counts: dict[str, int] | None = None,
           dropout_target: str = "unannotated", log=None) -> list[dict]:
    """Train/eval a sweep along one axis; one result row per (value, seed).

    ``config``/``heads`` cells share a dataset; ``frames``/``tier`` cells get
    their own (the sequences themselves change). Rows carry metric means over
    the test split plus closed-form FLOPs/params for the cell's architecture.
    """
    if axis not in ABLATION_AXES:
        raise ValidationError(f"unknown ablation axis {axis!r}; "
                              f"choose from {ABLATION_AXES}")
    workdir = Path(workdir)
    rows = []
    for value in values:
        cell = _apply_axis(base, axis, value)
        data_key = f"{axis}_{value}" if axis in ("frames", "tier") else "shared"
        data_dir = workdir / "datasets" / data_key
        if not (data_dir / "manifest.json").exists():
            make_dataset(data_dir, seed=base.seed, size=size,
                         frames=cell.frames, tier=cell.tier,
                         counts=dataset_counts, dropout_target=dropout_target)
        cost = configuration_report(cell.config_id, cell.backbone(),
                                    (size, size), cell.frames)
        for seed in seeds:
            run = dataclasses.replace(
                cell, seed=seed, dataset=str(data_dir),
                outdir=str(workdir / f"{axis}_{value}_seed{seed}"))
            if log is not None:
                log(f"ablate {axis}={value} seed={seed}")
            train(run, log=log)
            result = evaluate(Path(run.outdir) / "checkpoint_best",
                              run.dataset, Path(run.outdir) / "eval")
            agg = result["aggregate"]["classes"]
            defined = [v for v in agg.values() if v["hd_mm_mean"] is not None]
            rows.append({
                "axis": axis, "value": value, "seed": seed,
                "dsc": float(np.mean([v["dsc_mean"] for v in agg.values()])),
                "hd_mm": (float(np.mean([v["hd_mm_mean"] for v in defined]))
                          if defined else None),
                "masd_mm": (float(np.mean([v["masd_mm_mean"] for v in defined]))
                            if defined else None),
                "flops": cost.total_flops,
                "params": cost.total_params,
            })
    _write_ablation(workdir, axis, rows, base)
    return rows


def _apply_axis(base: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    if axis == "config":
        return dataclasses.replace(base, config_id=value)
    if axis == "heads":
        return dataclasses.replace(base, heads=int(value))
    if axis == "frames":
        return dataclasses.replace(base, frames=int(value))
    if axis == "tier":
        if value not in ("good", "medium", "poor"):
            raise ValidationError(f"unknown tier {value!r}")
        return dataclasses.replace(base, tier=value)
    raise ValidationError(f"unknown ablation axis {axis!r}")


def _write_ablation(workdir: Path, axis: str, rows: list[dict],
                    base: ExperimentConfig) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["axis", "value", "seed", "dsc", "hd_mm", "masd_mm",
                     "flops", "params"])
    for r in rows:
        writer.writerow([r["axis"], r["value"], r["seed"],
                         "" if r["dsc"] is None else f"{r['dsc']:.6f}",
                         "" if r["hd_mm"] is None else f"{r['hd_mm']:.6f}",
                         "" if r["masd_mm"] is None else f"{r['masd_mm']:.6f}",
                         r["flops"], r["params"]])
    atomic_write_text(workdir / "results.csv", buf.getvalue())
    write_json(workdir / "results.json", {
        "artifact_version": __version__,
        "axis": axis,
        "base_config": base.to_json_dict(),
        "rows": rows,
    })
