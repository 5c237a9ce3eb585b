"""Benchmark for tamseg: train, eval and gradcheck throughput plus per-layer times.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-c4-32 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the same loop untraced and then traced, and reports the per-layer
metrics together with the tracing overhead. ``--workload all`` runs every
workload, each in its own process. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report. Full records go to
``.perfbench/results/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, pinned before numpy loads anywhere in the process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# compiling the sources on every start keeps set-up time the same in a fresh
# checkout and in a used one
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train-c4-32", "eval-baselines-128", "gradcheck")
# set-up is repeated in fresh processes, at least SETUP_MIN_REPEATS times and
# until SETUP_MIN_S have passed, and its median reported
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 3, 9, 3.0
SETUP_TIMEOUT_S = 170
WORKLOAD_TIMEOUT_S = 175


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _load_package() -> float:
    """Import the checkout's package; returns the import wall time."""
    src = ROOT / "src"
    if not (src / "tamseg" / "__init__.py").is_file():
        raise BenchError(f"no tamseg sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import tamseg
    import workloads  # noqa: F401  (imports numpy, scipy and every tamseg module)
    if Path(tamseg.__file__).resolve().parent != (src / "tamseg").resolve():
        raise BenchError(f"imported tamseg from {tamseg.__file__}, not from {src}")
    return time.perf_counter() - start


def _host_probe_ms() -> float:
    """Best of three runs of a fixed pure-Python loop; tracks host CPU speed."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _machine() -> dict:
    import platform

    import numpy
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    blas = ""
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '')} {deps.get('version', '')}".strip()
    except (TypeError, KeyError):  # older numpy has no dict form
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _tree_digest(root: Path) -> str:
    """Digest of every array file under ``root`` (manifests name their own paths)."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.tnsr")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _prepare_child(name: str, seed: int, target: Path) -> None:
    """Set-up process: imports plus the workload's inputs, then report readiness."""
    _load_package()
    from workloads import WORKLOADS
    WORKLOADS[name].prepare(target, seed)
    print(json.dumps({"ready": time.perf_counter()}), flush=True)


def _measure_setup(name: str, seed: int, work: Path) -> tuple[list[float], Path, bool]:
    """Run set-up in fresh processes; returns the times, the last tree, and
    whether every repetition produced the same files."""
    times, digests = [], []
    started = time.perf_counter()
    k = 0
    while k < SETUP_MIN_REPEATS or (k < SETUP_MAX_REPEATS
                                    and time.perf_counter() - started < SETUP_MIN_S):
        target = work / f"setup_{k}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--prepare", str(target)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - start)
        digests.append(_tree_digest(target) if target.exists() else "")
        if k:
            shutil.rmtree(work / f"setup_{k - 1}", ignore_errors=True)
        k += 1
    return times, work / f"setup_{k - 1}", len(set(digests)) == 1


def _run_units(workload, root: Path, seed: int, seconds: float, first: int,
               warmup: int) -> tuple[list, list]:
    """``warmup`` untimed rounds, then timed rounds for ``seconds``; all are checked."""
    warm = [workload.unit(root, seed, first + i) for i in range(warmup)]
    units = []
    first += len(warm)
    start = time.perf_counter()
    while len(units) < workload.min_units or time.perf_counter() - start < seconds:
        units.append(workload.unit(root, seed, first + len(units)))
    return warm, units


def _ops_per_s(units: list) -> float:
    good = [u for u in units if u.wall_s > 0 and not u.failed] or \
           [u for u in units if u.wall_s > 0]
    return statistics.median(u.attempted / u.wall_s for u in good) if good else 0.0


def _mac_check(workload, tracer) -> list[dict]:
    """Traced MACs of one forward per model against the counter and the cost table."""
    import numpy as np
    from tamseg import costs, tensor, unet
    from workloads import backbone

    rows = []
    rng = np.random.default_rng(0)
    for config_id, frames, size in workload.models:
        model = unet.build_model(config_id, backbone(), rng)
        inputs = [tensor.Tensor(rng.standard_normal((1, size, size)).astype(np.float32))
                  for _ in range(frames)]
        before = tracer.counts.get("macs.conv_nd", 0) + tracer.counts.get("macs.matmul", 0)
        with tensor.count_macs() as counter:
            model.forward(inputs, training=False)
        traced = tracer.counts.get("macs.conv_nd", 0) + tracer.counts.get("macs.matmul", 0)
        rows.append({"model": config_id, "frames": frames, "size": size,
                     "traced": traced - before, "counted": counter.total,
                     "closed_form": costs.configuration_report(
                         config_id, backbone(), (size, size), frames).total_macs})
    return rows


def _unit_records(units: list) -> list[dict]:
    return [{"wall_s": u.wall_s, "attempted": u.attempted, "failed": u.failed,
             "errors": u.errors, "notes": u.notes} for u in units]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    probe_before = _host_probe_ms()
    import_s = _load_package()
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": _machine(), "parent_import_s": import_s}
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems = []
    try:
        if not trace:
            setup_times, root, same = _measure_setup(name, seed, work)
            record["setup_s"] = setup_times
            if not same:
                problems.append("set-up repetitions produced different files")
            warm, timed = _run_units(workload, root, seed, seconds, 0,
                                     workload.warmup_units)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "ops_per_s": (_ops_per_s(timed), "ops/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MiB"),
            }
            record["warmup_units"] = _unit_records(warm)
            record["units"] = _unit_records(timed)
            units = warm + timed
        else:
            metrics, units = _traced(workload, seed, seconds, work, record, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe_after = _host_probe_ms()
    record["host_probe_ms"] = [probe_before, probe_after]
    if trace:
        metrics["bench.host_probe_ms"] = ((probe_before + probe_after) / 2, "ms")
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    record["problems"] = problems
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["result"] = {"correct": failed == 0 and not problems,
                        "attempted": attempted, "failed": failed}
    return record


def _traced(workload, seed, seconds, work, record, problems):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    root = work / "setup"
    tracer.install()
    try:
        start = time.perf_counter()
        workload.prepare(root, seed)
        record["traced_setup_s"] = time.perf_counter() - start
        setup_generate_ms = tracer.total("synth.generate") * 1e3
    finally:
        tracer.uninstall()

    warm, plain = _run_units(workload, root, seed, seconds, 0, workload.warmup_units)

    tracer.install()
    try:
        tracer.reset()
        macs = _mac_check(workload, tracer)
        tracer.reset()
        _, traced = _run_units(workload, root, seed, seconds, len(warm) + len(plain), 0)
    finally:
        tracer.uninstall()
    record["mac_check"] = macs
    for row in macs:
        if not row["traced"] == row["counted"] == row["closed_form"]:
            problems.append(f"MAC mismatch for {row['model']}: {row}")

    metrics = layer_metrics(tracer, max(workload.layer_units(traced), 1),
                            sum(u.wall_s for u in traced))
    metrics["synth.generate_ms"] = (setup_generate_ms, "ms")
    metrics["costs.macs_per_forward"] = (
        statistics.mean(r["closed_form"] for r in macs) if macs else 0.0, "count")
    metrics["bench.trace_overhead"] = (
        statistics.median(u.wall_s for u in traced)
        / statistics.median(u.wall_s for u in plain), "ratio")
    record["warmup_units"] = _unit_records(warm)
    record["units"] = _unit_records(plain)
    record["traced_units"] = _unit_records(traced)
    spans_path = OUT / "results" / f"{workload.name}-seed{seed}-spans.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"spans": tracer.span_records(),
                                      "aggregate": {k: [a.count, a.total, a.self_time]
                                                    for k, a in tracer.agg.items()}}))
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, warm + plain + traced


def _declared(trace: bool) -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text()) \
        if (HERE.parent / "BENCHMARK.json").is_file() else {}
    return [m["name"] for m in spec.get("per_layer" if trace else "end_to_end", [])]


def _report(record: dict) -> None:
    from workloads import WORKLOADS
    workload = WORKLOADS[record["workload"]]
    m = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']!r}")
    before, after = record["host_probe_ms"]
    print(f"bench.host_probe_ms before={before:.2f} after={after:.2f} ms")
    units = record["units"]
    if units:
        walls = [u["wall_s"] for u in units]
        ops = [u["attempted"] / u["wall_s"] for u in units if u["wall_s"] > 0]
        rate = statistics.median(ops) if ops else 0.0
        print(f"units: {len(units)} untraced, wall s {[round(w, 3) for w in walls]}")
        if workload.program_metric == "gradcheck_s":
            print(f"gradcheck_s {statistics.median(walls):.3f} s")
        else:
            print(f"{workload.program_metric} {rate:.4f} cases/s")
    for key, val in record["metrics"].items():
        print(f"{key} {val['value']:.6g} {val['unit']}")
    for row in record.get("mac_check", []):
        print(f"mac_check {row['model']} T={row['frames']} {row['size']}px: traced "
              f"{row['traced']} counted {row['counted']} closed-form {row['closed_form']}")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")
    for u in record["warmup_units"] + record["units"] + record.get("traced_units", []):
        for err in u["errors"][:3]:
            print(f"FAILED: {err.strip().splitlines()[-1]}")
    res = record["result"]
    print(f"attempted {res['attempted']} failed {res['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.prepare is not None:
            _prepare_child(args.workload, args.seed, args.prepare)
            return 0
        if args.workload == "all":
            return _run_all(args)
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    _report(record)
    declared = _declared(bool(args.trace))
    metrics = {k: v for k, v in record["metrics"].items() if k in declared} \
        if declared else record["metrics"]
    print(json.dumps({**record["result"], "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
