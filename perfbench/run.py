"""End-to-end benchmark of ``repro run -O`` and ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the
same operations twice, untraced and then with span wrappers installed,
and prints the per-layer metrics (the Chrome trace and a span table go
to ``.perfbench/``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Workload
parameters, metric definitions and the layer -> end-to-end pairing are
in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="stop after this many operations instead of --seconds "
                             "(the determinism self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _die(f"no program source at {SRC}: run from a repository checkout")
    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(config['workloads'])}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import layers
    import workloads

    OUT.mkdir(exist_ok=True)
    spec = config["workloads"][args.workload]["params"]
    classes = {"query-mix": workloads.QueryMix, "compile-mix": workloads.CompileMix,
               "serve-churn": workloads.ServeChurn}
    cls = classes[args.workload]
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        extra = (str(workdir),) if cls is workloads.ServeChurn else ()
        workload = cls(args.seed, spec, *extra)
        workload.reference = in_child(workload.compute_reference)
        if args.trace:
            result = layers.traced_run(workload, args, OUT)
        else:
            result = untraced_run(workload, args, spec["setup_repeats"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def in_child(fn):
    """``fn()`` computed in a forked child process and passed back
    pickled, so its memory never counts toward this process's peak RSS.
    The benchmark's reference answers are computed this way."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(fn(), out, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        except BaseException:  # noqa: BLE001 - reported by the parent's exit
            traceback.print_exc(file=sys.stderr)
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        _die("computing the reference answers failed")
    return pickle.loads(data)


def peak_rss_mb() -> float:
    """This process's peak resident set size since the last
    :func:`reset_peak_rss` (``VmHWM``), or since it started where Linux's
    ``/proc`` interface is missing."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reset_peak_rss() -> bool:
    """Reset the peak RSS to the current RSS; False where unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as clear:
            clear.write("5")
        return True
    except OSError:
        return False


def untraced_run(workload, args, setup_repeats: int) -> dict:
    from workloads import measure, percentile, timed_setups

    state, setups = timed_setups(workload.setup, setup_repeats)
    setup_peak = peak_rss_mb()
    # the peak of the timed operations (and serve-churn's recovery) alone
    if not reset_peak_rss():
        print("# peak RSS cannot be reset here: peak_rss_mb includes the set-ups")
    outcome = measure(workload, state, args.seconds, args.ops)
    lat = outcome.reference_ms()
    loop_peak = peak_rss_mb()
    reference_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"# peak RSS by phase: reference (child process) {reference_peak:.1f} MB, "
          f"imports + set-ups {setup_peak:.1f} MB, timed operations {loop_peak:.1f} MB")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (loop_peak, "MB"),
        "ok_ratio": ((outcome.attempted - outcome.failed) / max(1, outcome.attempted), "ratio"),
        "op_ms_p50": (percentile(lat, 50), "ms"),
        "op_ms_p90": (percentile(lat, 90), "ms"),
        "ops_per_s": (len(lat) / (sum(lat) / 1e3) if lat else 0.0, "1/s"),
    }
    report(workload.name, args.seed, outcome, metrics)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(name: str, seed: int, outcome, metrics: dict) -> None:
    """Human-readable lines: the metrics, the workload-specific names the
    operation metrics go by (run_ms_* for jobs; insert/retract/read and
    recover for serve batches) and the raw wall-clock figures."""
    from calibrate import REFERENCE_MS
    from workloads import percentile

    wall = outcome.latencies_ms
    calibrations = [ms for _, ms in outcome.calibrations]
    print(f"# {name} seed={seed} ops={len(wall)} attempted={outcome.attempted} "
          f"failed={outcome.failed} (wrong={outcome.wrong} errors={outcome.errors})")
    print(f"# times in reference-speed units (calibration {REFERENCE_MS} ms; measured "
          f"{min(calibrations):.2f}-{max(calibrations):.2f} ms over {len(calibrations)} runs)")
    for key, (value, unit) in metrics.items():
        print(f"#   {key:24s} {value:12.4f} {unit}")
    aliases = (("run_ms_p50", "op_ms_p50"), ("run_ms_p90", "op_ms_p90"),
               ("runs_per_s", "ops_per_s"))
    sub = outcome.extra.get("sub_ms")
    if sub is None:
        for key, metric in aliases:
            value, unit = metrics[metric]
            print(f"#   {key:24s} {value:12.4f} {unit}")
    elif "recover_ms" in outcome.extra:
        print(f"#   {'recover_ms':24s} {outcome.extra['recover_ms']:12.4f} ms"
              f"   (replayed {outcome.extra['replayed_batches']} batches)")
    print(f"# wall clock: op_ms_p50 {percentile(wall, 50):.4f} ms, "
          f"op_ms_p90 {percentile(wall, 90):.4f} ms, "
          f"ops_per_s {len(wall) / (outcome.op_ns / 1e9):.4f} 1/s")
    for kind, values in (sub or {}).items():
        if values:
            print(f"# wall clock: {kind}_ms_p50 {percentile(values, 50):.4f} ms, "
                  f"{kind}_ms_p90 {percentile(values, 90):.4f} ms (n={len(values)})")


def pin_hash_seed(seed: int) -> None:
    """Re-execute under ``PYTHONHASHSEED`` derived from ``--seed``.

    Set and dict iteration order over strings follows the per-process
    hash seed, and the optimizer's deletion pass does a different amount
    of work under different orders; pinning it makes one ``--seed`` one
    reproducible run."""
    want = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != want:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": want})


if __name__ == "__main__":
    pin_hash_seed(parse_args().seed)
    sys.exit(main())
