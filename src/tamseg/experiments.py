"""Training, evaluation, and ablation drivers behind the command line.

Runs are deterministic given their config: a fixed seed drives init, data
order, and generation, file writes are atomic, and no output embeds a
timestamp, so rerunning a command reproduces its result files byte for byte
with single-threaded BLAS. Every run writes its resolved config next to its
results.

``evaluate`` scores its cases in forked worker processes
(``workers.map_in_workers``), one per CPU of the process's affinity set
(``taskset -c 0`` gives one, which runs in-process),
and puts the rows back in case order, so its files are the same bytes for
any worker count. Each worker holds its own activations. Training, its
validation passes and the cells of ``ablate`` run one after the other in
this process; a cell's evaluation is scored as above.
"""

from __future__ import annotations

import dataclasses
import io
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, metrics, workers
from .costs import configuration_report
from .errors import NumericError, ValidationError
from .losses import dice_ce_loss, one_hot
from .metrics import MetricReport, SegmentationMask, ecdf_csv
from .optim import Adam
from .synth import QUALITY_TIERS, SequenceSpec, load_dataset, write_dataset
from .tensor import Tensor, assert_finite, backward, no_grad
from .tnsr import atomic_write_text, read_bundle, write_bundle, write_json
from .unet import BackboneConfig, build_model, check_frames, lookup_configuration

# each ablation axis: the ExperimentConfig field it sets and the value's parser
_AXIS_FIELDS = {"config": ("config_id", str), "heads": ("heads", int),
                "frames": ("frames", int), "tier": ("tier", str)}
ABLATION_AXES = tuple(_AXIS_FIELDS)
# the dataset split evaluate scores unless told otherwise
EVAL_SPLIT = "test"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a training run needs; serializes losslessly to JSON."""

    config_id: str = "C1"
    frames: int = 2
    heads: int = BackboneConfig.heads
    d_embed: int | None = BackboneConfig.d_embed
    steps: int = 200
    batch_size: int = 1
    lr: float = 1e-3
    seed: int = 0
    dataset: str = ""
    tier: str = "medium"
    outdir: str = ""
    levels: int = BackboneConfig.levels
    channels: tuple[int, ...] = BackboneConfig.channels
    classes: int = BackboneConfig.classes
    in_channels: int = BackboneConfig.in_channels
    eval_every: int = 25

    def __post_init__(self):
        lookup_configuration(self.config_id)
        check_frames(self.frames)
        if self.tier not in QUALITY_TIERS:
            raise ValidationError(f"unknown tier {self.tier!r}")
        if self.steps < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValidationError("steps, batch_size and eval_every must be >= 1")
        if self.lr < 0:
            raise ValidationError("lr must be >= 0")
        object.__setattr__(self, "channels", tuple(self.channels))

    def backbone(self) -> BackboneConfig:
        return BackboneConfig(levels=self.levels, channels=self.channels,
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
    if want > available:
        raise ValidationError(f"need {want} frames, the sequence has {available}")
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
    and the bundles (``tnsr``) checkpoint_best and checkpoint_last, each a
    manifest.json and a tensors.tnsr. Validation passes run under
    ``tensor.no_grad``. Aborts with :class:`NumericError` on a non-finite loss.
    """
    if not cfg.dataset:
        raise ValidationError("config has no dataset path")
    # a configuration the backbone cannot host, a dataset with no train split
    # and a case with fewer frames than the config feeds fail before any file
    rng = np.random.default_rng(cfg.seed)
    model = build_model(cfg.config_id, cfg.backbone(), rng)
    data = load_dataset(cfg.dataset)
    if "train" not in data or not data["train"]:
        raise ValidationError(f"dataset {cfg.dataset} has no train split")
    train_cases = data["train"]
    val_cases = data.get("val", [])
    indices_for = {id(s): select_frame_indices(s.frames, cfg.frames)
                   for split in data.values() for s in split}
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_config(outdir, cfg)

    params = model.named_parameters()
    opt = Adam(params.values(), lr=cfg.lr)

    def val_loss() -> float:
        total = 0.0
        with no_grad():
            for s in val_cases:
                total += _case_loss(model, s, indices_for[id(s)], training=False).item()
        return total / len(val_cases)

    curve_rows = [("step", "split", "loss")]
    order = np.arange(len(train_cases))
    best_val = None
    initial_loss = None
    final_loss = None
    for step in range(cfg.steps):
        opt.zero_grad()
        batch_loss = 0.0
        for b in range(cfg.batch_size):
            position = (step * cfg.batch_size + b) % len(order)
            if position == 0:  # one fresh order per pass over the cases
                rng.shuffle(order)
            sample = train_cases[order[position]]
            loss = _case_loss(model, sample, indices_for[id(sample)], training=True)
            try:
                assert_finite(loss, "training loss")
            except NumericError as exc:
                raise NumericError(
                    f"training diverged at step {step}: {exc}") from exc
            backward(loss * (1.0 / cfg.batch_size))
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
    write_bundle(path, model.named_arrays(), {
        "artifact_version": __version__,
        "config": cfg.to_json_dict(),
        "step": step,
        "val_loss": val_loss,
    })


def load_checkpoint(path) -> tuple[object, ExperimentConfig, dict]:
    """Rebuild the model stored in a checkpoint bundle.

    A foreign, malformed or version-1 manifest, a payload that is truncated
    or not the length its extents add up to, or a manifest whose ``meta``
    has no ``config`` raises :class:`ValidationError` naming the checkpoint.
    """
    try:
        arrays, meta = read_bundle(path)
        cfg = ExperimentConfig.from_json_dict(meta["config"])
    except KeyError as exc:
        raise ValidationError(f"checkpoint {path}: manifest has no {exc} entry") from exc
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"checkpoint {path}: {exc}") from exc
    model = build_model(cfg.config_id, cfg.backbone(), np.random.default_rng(0))
    model.load_arrays(arrays)
    return model, cfg, meta


def evaluate(checkpoint, dataset: str, outdir, split: str = EVAL_SPLIT,
             oracle: bool = False) -> dict:
    """Evaluate a checkpoint (or the identity oracle) on a dataset split.

    Emits metrics.csv, metrics.json, and per-metric ECDF CSVs into ``outdir``.
    The model runs under ``tensor.no_grad``. ``oracle=True`` scores the
    ground-truth masks against themselves, exercising the full reporting
    path with known-perfect values. The split, the checkpoint and every
    case's frames are checked before ``outdir`` is made.

    Cases are scored in forked worker processes, one per CPU of the affinity
    set and at most one per case, each holding its own activations; with one
    CPU (``taskset -c 0``) they are scored in this process. The rows come
    back in case order, so the files are the same bytes for any worker
    count. A case's exception is re-raised with its type and message, the
    first failing case's when several fail; a worker that dies raises
    ``ChildProcessError`` naming its case.
    """
    data = load_dataset(dataset)
    if split not in data or not data[split]:
        raise ValidationError(f"dataset {dataset} has no {split!r} split")
    cases = sorted(data[split], key=lambda s: s.spec.seed)

    model = cfg = meta = None
    if not oracle:
        model, cfg, meta = load_checkpoint(checkpoint)
    indices_for = [list(s.annotated) if oracle else
                   select_frame_indices(s.frames, cfg.frames) for s in cases]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def score(case) -> list:
        case_id, sample, indices = case
        preds: dict[int, SegmentationMask] = {}
        if oracle:
            for idx in sample.annotated:
                preds[idx] = sample.masks[idx]
        else:
            frames = [Tensor(sample.images[i][None]) for i in indices]
            with no_grad():
                probs = model.forward(frames, training=False)
            for pos, idx in enumerate(indices):
                if idx in sample.annotated:
                    pred_labels = np.argmax(probs[pos].data, axis=0)
                    preds[idx] = SegmentationMask(pred_labels,
                                                  sample.masks[idx].spacing)
        report = MetricReport()
        for idx in sorted(preds):
            truth = sample.masks[idx]
            labels = [int(v) for v in np.unique(truth.labels) if v]
            report.add_case(case_id, idx, preds[idx], truth, labels)
        return report.rows

    # scipy.ndimage loads on its first attribute read: once here, not per worker
    metrics.ndimage.distance_transform_edt
    case_ids = [f"case_seed{s.spec.seed}" for s in cases]
    report = MetricReport()
    for rows in workers.map_in_workers(score, list(zip(case_ids, cases, indices_for)),
                                       case_ids):
        report.rows.extend(rows)

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
                 counts: dict[str, int], dropout_target: str) -> None:
    """Generate ``counts[split]`` cases per split from one base seed.

    A negative count raises :class:`ValidationError` before any file is made.
    """
    for split, n in counts.items():
        if n < 0:
            raise ValidationError(f"{split} case count must be >= 0, got {n}")
    splits: dict[str, list[SequenceSpec]] = {}
    offset = {"train": 0, "val": 10_000, "test": 20_000}
    for split, n in counts.items():
        specs = []
        for i in range(n):
            specs.append(SequenceSpec.for_tier(
                tier, seed=seed + offset.get(split, 30_000) + i,
                extents=(size, size), frames=frames,
                dropout_target=dropout_target))
        splits[split] = specs
    write_dataset(root, splits)


def ablate(axis: str, values: list[str], base: ExperimentConfig,
           seeds: list[int], workdir, size: int, dataset_counts: dict[str, int],
           dropout_target: str, log=None) -> list[dict]:
    """Train/eval a sweep along one axis; one result row per (value, seed).

    ``config``/``heads`` cells share a dataset; ``frames``/``tier`` cells get
    their own (the sequences themselves change). Rows carry metric means over
    the test split plus closed-form FLOPs/params for the cell's architecture.
    Every cell's value and architecture are checked before any file is made.
    Each dataset is generated once per call from the call's settings, also
    where an earlier call left one in ``workdir``.
    """
    if axis not in ABLATION_AXES:
        raise ValidationError(f"unknown ablation axis {axis!r}; "
                              f"choose from {ABLATION_AXES}")
    workdir = Path(workdir)
    cells = [_apply_axis(base, axis, value) for value in values]
    # the cost walk refuses an architecture the cell's backbone cannot host
    costs = [configuration_report(c.config_id, c.backbone(), (size, size), c.frames)
             for c in cells]
    rows = []
    made = set()
    for value, cell, cost in zip(values, cells, costs):
        data_key = f"{axis}_{value}" if axis in ("frames", "tier") else "shared"
        data_dir = workdir / "datasets" / data_key
        # made once per call from this call's settings: a dataset left in
        # the workdir by an earlier call may have another size or count
        if data_key not in made:
            make_dataset(data_dir, seed=base.seed, size=size,
                         frames=cell.frames, tier=cell.tier,
                         counts=dataset_counts, dropout_target=dropout_target)
            made.add(data_key)
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
    field, parse = _AXIS_FIELDS[axis]
    try:
        parsed = parse(value)
    except ValueError:
        raise ValidationError(f"ablation axis {axis!r} takes integers, "
                              f"got {value!r}") from None
    return dataclasses.replace(base, **{field: parsed})


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
