"""Command-line interface: gen, train, eval, ablate, gradcheck, cost.

Exit codes: 0 success, 1 validation/usage error, 2 runtime or numeric
failure. Thread counts are pinned to 1 before numpy loads so reruns of a
command with the same flags and seed reproduce result files byte for byte.

A flag for an ExperimentConfig field has the field's name as its dest. Defaults
are read from ExperimentConfig, BackboneConfig, SequenceSpec and
experiments.EVAL_SPLIT; literal ones are the command line's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

# must happen before numpy's first import anywhere in the process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .costs import compare_architectures, configuration_report
from .errors import NumericError, ShapeError, UndefinedMetricError, ValidationError
from .experiments import (ABLATION_AXES, EVAL_SPLIT, ExperimentConfig, ablate,
                          evaluate, make_dataset, train)
from .gradcheck import SUITES, TOLERANCE, run_suite
from .synth import DROPOUT_TARGETS, QUALITY_TIERS, SequenceSpec
from .tnsr import write_json
from .unet import BackboneConfig


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _csv_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in _csv_list(text))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tamseg",
                description="motion-enhanced segmentation experiments")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--out", required=True, help="dataset directory to create")
    g.add_argument("--seed", type=int, default=SequenceSpec.seed)
    g.add_argument("--t", dest="frames", type=int, default=SequenceSpec.frames,
                   help="frames per sequence")
    g.add_argument("--size", type=int, default=SequenceSpec.extents[0],
                   help="square image extent")
    g.add_argument("--tier", default=ExperimentConfig.tier, choices=QUALITY_TIERS)
    g.add_argument("--dropout-target", default=SequenceSpec.dropout_target,
                   choices=DROPOUT_TARGETS, help="which frames dropout patches hit")
    g.add_argument("--train-cases", type=int, default=8)
    g.add_argument("--val-cases", type=int, default=2)
    g.add_argument("--test-cases", type=int, default=4)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train one configuration")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", dest="outdir", required=True, help="run output directory")
    t.add_argument("--config", dest="config_id", default=ExperimentConfig.config_id,
                   help="C1..C11")
    t.add_argument("--t", dest="frames", type=int, default=ExperimentConfig.frames,
                   help="frames fed per sequence")
    t.add_argument("--heads", type=int, default=ExperimentConfig.heads)
    t.add_argument("--d-embed", type=int, default=ExperimentConfig.d_embed)
    t.add_argument("--steps", type=int, default=ExperimentConfig.steps)
    t.add_argument("--batch-size", type=int, default=ExperimentConfig.batch_size)
    t.add_argument("--lr", type=float, default=ExperimentConfig.lr)
    t.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    t.add_argument("--levels", type=int, default=ExperimentConfig.levels)
    t.add_argument("--channels", type=_int_list, default=ExperimentConfig.channels,
                   help="comma-separated widths, one per level")
    t.add_argument("--eval-every", type=int, default=ExperimentConfig.eval_every)
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    e.add_argument("--checkpoint", help="checkpoint bundle directory")
    e.add_argument("--dataset", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--split", default=EVAL_SPLIT)
    e.add_argument("--oracle", action="store_true",
                   help="score ground truth against itself (reporting path check)")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="sweep one experiment axis")
    a.add_argument("--axis", required=True, choices=ABLATION_AXES)
    a.add_argument("--values", required=True, type=_csv_list,
                   help="comma-separated cell values")
    a.add_argument("--seeds", type=_int_list, default=(0,),
                   help="comma-separated run seeds shared across cells")
    a.add_argument("--seed", type=int, default=ExperimentConfig.seed,
                   help="base seed for dataset generation")
    a.add_argument("--workdir", required=True)
    a.add_argument("--config", dest="config_id", default=ExperimentConfig.config_id)
    a.add_argument("--t", dest="frames", type=int, default=ExperimentConfig.frames)
    a.add_argument("--heads", type=int, default=ExperimentConfig.heads)
    a.add_argument("--steps", type=int, default=60)
    a.add_argument("--lr", type=float, default=ExperimentConfig.lr)
    a.add_argument("--size", type=int, default=32)
    a.add_argument("--tier", default=ExperimentConfig.tier, choices=QUALITY_TIERS)
    a.add_argument("--levels", type=int, default=ExperimentConfig.levels)
    a.add_argument("--channels", type=_int_list, default=(8, 16, 32, 64, 128))
    a.add_argument("--train-cases", type=int, default=4)
    a.add_argument("--val-cases", type=int, default=1)
    a.add_argument("--test-cases", type=int, default=2)
    a.add_argument("--dropout-target", default=SequenceSpec.dropout_target,
                   choices=DROPOUT_TARGETS)
    a.add_argument("--quiet", action="store_true")
    a.set_defaults(func=cmd_ablate)

    c = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    c.add_argument("--scope", required=True, choices=SUITES)
    c.add_argument("--seeds", type=int, default=None,
                   help="number of seeds (defaults per scope)")
    c.set_defaults(func=cmd_gradcheck)

    k = sub.add_parser("cost", help="closed-form MAC/FLOP/parameter report")
    k.add_argument("--configs", type=_csv_list, default=["C1", "C2", "C3"])
    k.add_argument("--size", type=int, default=SequenceSpec.extents[0])
    k.add_argument("--t", dest="frames", type=int, default=ExperimentConfig.frames)
    k.add_argument("--levels", type=int, default=BackboneConfig.levels)
    k.add_argument("--channels", type=_int_list, default=BackboneConfig.channels)
    k.add_argument("--heads", type=int, default=BackboneConfig.heads)
    k.add_argument("--json", dest="json_out", default=None,
                   help="also write the reports as JSON to this path")
    k.set_defaults(func=cmd_cost)
    return p


def cmd_gen(args) -> int:
    make_dataset(args.out, seed=args.seed, size=args.size, frames=args.frames,
                 tier=args.tier,
                 counts={"train": args.train_cases, "val": args.val_cases,
                         "test": args.test_cases},
                 dropout_target=args.dropout_target)
    print(f"dataset written to {args.out}")
    return 0


def _from_flags(cls, args):
    """Build ``cls`` from the flags named after its fields; it defaults the rest."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls)
                  if f.name in given})


def cmd_train(args) -> int:
    cfg = _from_flags(ExperimentConfig, args)
    log = None if args.quiet else (lambda msg: print(msg, flush=True))
    summary = train(cfg, log=log)
    print(f"final loss {summary['final_loss']:.4f} "
          f"(initial {summary['initial_loss']:.4f}); outputs in {args.outdir}")
    return 0


def cmd_eval(args) -> int:
    if not args.oracle and not args.checkpoint:
        raise ValidationError("--checkpoint is required unless --oracle is set")
    result = evaluate(args.checkpoint, args.dataset, args.out,
                      split=args.split, oracle=args.oracle)
    for label, entry in result["aggregate"]["classes"].items():
        hd = entry["hd_mm_mean"]
        print(f"class {label}: dsc {entry['dsc_mean']:.4f}"
              + (f", hd {hd:.3f} mm" if hd is not None else "")
              + (f", undefined {entry['undefined']}" if entry["undefined"] else ""))
    return 0


def cmd_ablate(args) -> int:
    # ablate assigns per-cell dataset/outdir paths under --workdir
    base = _from_flags(ExperimentConfig, args)
    log = None if args.quiet else (lambda msg: print(msg, flush=True))
    rows = ablate(args.axis, args.values, base,
                  seeds=args.seeds, workdir=args.workdir,
                  size=args.size,
                  dataset_counts={"train": args.train_cases,
                                  "val": args.val_cases,
                                  "test": args.test_cases},
                  dropout_target=args.dropout_target, log=log)
    for r in rows:
        hd = "" if r["hd_mm"] is None else f" hd {r['hd_mm']:.3f}"
        print(f"{r['axis']}={r['value']} seed={r['seed']}: "
              f"dsc {r['dsc']:.4f}{hd} flops {r['flops']}")
    print(f"results in {args.workdir}/results.csv")
    return 0


def cmd_gradcheck(args) -> int:
    kwargs = {}
    if args.seeds is not None:
        if args.seeds < 1:
            raise ValidationError(f"--seeds must be >= 1, got {args.seeds}")
        kwargs["seeds"] = range(args.seeds)
    results = run_suite(args.scope, **kwargs)
    failed = [r for r in results if not r.passed]
    # NaN first: as a bare key it compares false both ways and lands anywhere
    for r in sorted(results, key=lambda r: (not math.isnan(r.max_rel_error),
                                            -r.max_rel_error)):
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4} {r.name:<20} max rel err {r.max_rel_error:.3e} "
              f"(tol {TOLERANCE:g})")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def cmd_cost(args) -> int:
    base = _from_flags(BackboneConfig, args)
    spatial = (args.size, args.size)
    # price every configuration before printing any, so a refused one prints nothing
    reports = [configuration_report(cid, base, spatial, args.frames)
               for cid in args.configs]
    for rep in reports:
        print(rep.to_text())
    if len(args.configs) > 1:
        print(compare_architectures(args.configs, reports))
    if args.json_out:
        write_json(args.json_out, {"reports": [r.to_json_dict() for r in reports]})
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValidationError, ShapeError, UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        path = getattr(exc, "filename", None)
        where = f" ({path})" if path else ""
        print(f"i/o failure: {exc}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
