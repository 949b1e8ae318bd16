"""Benchmark of rcontinuity through the entry points users call.

One process, one client, closed loop: each job of a workload starts when the
previous one returns, and one run of the whole job list is a *pass*.  Job
lists and checks live in ``jobs.py``; metric names and units are read from
``BENCHMARK.json`` at the repository root.

    python3 perfbench/run.py --workload modulus-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload long-trace --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --quick            # one short run per workload and mode

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``tracer.py``.  End-to-end times are
in reference seconds: scaled by a calibration kernel timed between jobs
and around every set-up probe, so that the machine's speed drift cancels
(see README.md).  The line before the last carries run details
(environment, pass counts, raw wall times, fail ratio, layer shares).  Job
artifacts go to ``.perfbench_run/jobs`` and are removed at the end; traced
runs keep their spans in ``.perfbench_run``.
"""

import os

# BLAS threads must be pinned before numpy is imported, here and in the probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
REFERENCE = HERE / "reference_digests.json"
REFERENCE_SEED = 0
#: Fresh interpreters started per run to measure set-up; setup_s is their median.
SETUP_PROBES = 7
#: Duration of ``calibrate()`` that defines one reference second.  Timings are
#: reported at reference speed: each measured time is scaled by
#: CALIBRATION_REF_S over the mean of the calibrations taken just before and
#: just after it, which cancels the machine's speed drift between runs.
CALIBRATION_REF_S = 0.04
#: Jobs are timed in stretches of at least this many seconds between
#: calibrations, so that a calibration stays close to the work it scales
#: (see README.md for the spreads with calibration at pass boundaries only).
CALIBRATION_INTERVAL_S = 0.5

sys.path.insert(0, str(HERE))
import jobs  # noqa: E402
from jobs import Outcome  # noqa: E402
from tracer import Tracer  # noqa: E402

_ALGORITHMS = ("ppa", "gdm", "qpower", "dca", "shifted-ppa")
_LAYERS = ("cli", "setmap", "geometry", "catalog", "analysis", "solvers", "certify", "serialize")


# -- set-up -----------------------------------------------------------------------

def measure_setup(workload: str, seed: int, importtime: bool) -> dict:
    """Wall time of one fresh interpreter running ``setup_probe.py``."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-800:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = wall
    if importtime:
        record.update(_import_split(proc.stderr))
    return record


def _import_split(importtime_log: str) -> dict:
    """Catalog build (the self time of ``rcontinuity.catalog``) and the rest of
    the package import, from ``-X importtime`` output."""
    self_us, cumulative_us = {}, {}
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if fields[0].isdigit():
            self_us[fields[2]] = int(fields[0])
            cumulative_us[fields[2]] = int(fields[1])
    catalog_s = self_us["rcontinuity.catalog"] / 1e6
    return {"catalog_s": catalog_s, "package_import_s": cumulative_us["rcontinuity"] / 1e6 - catalog_s}


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that does not touch rcontinuity:
    small-array numpy calls and interpreter arithmetic, the mix that
    dominates the package's own hot loops.  Its duration tracks the speed the
    machine gives this process at the moment."""
    import numpy as np

    t0 = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 257).reshape(-1, 1)
    acc = 0.0
    for i in range(4000):
        p = np.asarray([i * 1e-3], dtype=float)
        acc += float(np.min(np.linalg.norm(grid - p, axis=1)))
    for i in range(150_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class ReferenceClock:
    """Converts measured wall seconds to reference seconds.

    ``book`` adds a measured stretch; once ``CALIBRATION_INTERVAL_S`` has
    passed since the last calibration, the kernel runs again and everything
    booked in between is scaled by the mean of the two calibrations around
    it.  ``total`` closes the current stretch and returns the reference
    seconds booked since the previous ``total``.
    """

    def __init__(self):
        self.calibrations = [calibrate()]
        self._since = time.perf_counter()
        self._pending = 0.0
        self._total = 0.0

    def _calibrate(self) -> None:
        c = calibrate()
        self._total += self._pending * CALIBRATION_REF_S / ((self.calibrations[-1] + c) / 2)
        self.calibrations.append(c)
        self._pending = 0.0
        self._since = time.perf_counter()

    def book(self, seconds: float) -> None:
        self._pending += seconds
        if time.perf_counter() - self._since >= CALIBRATION_INTERVAL_S:
            self._calibrate()

    def total(self) -> float:
        if self._pending:
            self._calibrate()
        out, self._total = self._total, 0.0
        return out


# -- passes -------------------------------------------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plain(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot render {type(value).__name__}")


class Runner:
    """Runs the jobs of one workload and checks every outcome."""

    def __init__(self, workload: str):
        import rcontinuity
        from rcontinuity import cli

        self.rc = rcontinuity
        self.cli = cli
        self.jobs = jobs.WORKLOADS[workload]
        self.first_digests = {}  # (seed, job) -> digests of the first repetition
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.job_seconds = {job.name: [] for job in self.jobs}  # timed, untraced passes only

    def _execute(self, job: jobs.Job, seed: int, config):
        cli = self.cli
        try:
            if config is not None:
                report = cli.run_experiment(cli.ExperimentConfig.from_dict(config), out_dir=WORK / "jobs" / job.name)
                return Outcome(4 if report.any_verdict_failed else 0, verdicts=report.verdicts), report
            return Outcome(0, result=job.call(self.rc, seed)), None
        except cli.ConfigError as exc:
            return Outcome(2, error=f"configuration error: {exc}"), None
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            return Outcome(3, error=f"{type(exc).__name__}: {exc}"), None

    def _digests(self, job: jobs.Job, outcome: Outcome, report) -> dict:
        """Digests of every file the job wrote, hashed here rather than taken
        from the report manifest, or of the rendered library result."""
        out_dir = WORK / "jobs" / job.name
        if report is not None:
            return {path.relative_to(out_dir).as_posix(): _digest(path.read_bytes())
                    for path in sorted(out_dir.rglob("*")) if path.is_file()}
        if outcome.result is not None:
            rendered = json.dumps(dataclasses.asdict(outcome.result), default=_plain, sort_keys=True)
            return {"result": _digest(rendered.encode())}
        return {}

    def _check(self, job: jobs.Job, seed: int, outcome: Outcome, digests: dict) -> list:
        problems = []
        if outcome.error:
            problems.append(outcome.error)
        if outcome.exit_code != job.expect_exit:
            problems.append(f"exit code {outcome.exit_code}, expected {job.expect_exit}")
        if not outcome.error:
            try:
                problems += job.check(outcome)
            except Exception as exc:  # a malformed outcome fails the job
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        first = self.first_digests.setdefault((seed, job.name), digests)
        if digests != first:
            problems.append("artifact digests differ from the first repetition in this run")
        return problems

    def run_pass(self, seed: int, tracer: Tracer = None, tag: str = "", record: bool = False,
                 clock: ReferenceClock = None):
        """Run every job once, each into an emptied directory; returns
        (seconds, digests).  Each job's time is also booked on ``clock``."""
        now = time.perf_counter
        elapsed = 0.0
        digests = {}
        for job in self.jobs:
            config = job.config(seed) if job.config is not None else None
            shutil.rmtree(WORK / "jobs" / job.name, ignore_errors=True)
            with tracer.root(f"{tag}:{job.name}") if tracer else nullcontext():
                t0 = now()
                outcome, report = self._execute(job, seed, config)
                dt = now() - t0
            elapsed += dt
            if clock is not None:
                clock.book(dt)
            if record:
                self.job_seconds[job.name].append(dt)
            digests[job.name] = self._digests(job, outcome, report)
            problems = self._check(job, seed, outcome, digests[job.name])
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{job.name} (seed {seed}): " + "; ".join(problems))
        return elapsed, digests


# -- metrics ------------------------------------------------------------------------

def tail(samples: list) -> float:
    """The 90th percentile, interpolated between the samples around it."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def layer_metrics(tr: Tracer, pass_s: float) -> dict:
    """Per-layer values of one traced pass."""
    s, total, calls, n = tr.self_s, tr.total_s, tr.calls, tr.counts
    m = {
        "cli.validate_s": s["cli.validate"],
        "cli.run_self_s": s["cli.run"],
        "setmap.eval_calls": calls["setmap.eval"],
        "setmap.eval_s": s["setmap.eval"],
        "setmap.eval_points": n["setmap.eval_points"],
        "setmap.eval_empty_ratio": n["setmap.eval_empty"] / calls["setmap.eval"] if calls["setmap.eval"] else 0.0,
        "setmap.member_dist_calls": calls["setmap.member_dist"],
        "setmap.member_dist_s": s["setmap.member_dist"],
        "setmap.prox_calls": calls["setmap.prox"],
        "setmap.prox_s": s["setmap.prox"],
        "geometry.excess_calls": calls["geometry.excess"],
        "geometry.excess_s": s["geometry.excess"],
        "geometry.excess_pairs": n["geometry.excess_pairs"],
        "geometry.region_distance_calls": calls["geometry.region_distance"],
        "geometry.region_distance_s": s["geometry.region_distance"],
        "geometry.sample_window_s": s["geometry.sample_window"],
        "catalog.oracle_calls": calls["catalog.oracle"],
        "catalog.oracle_s": s["catalog.oracle"],
        "analysis.modulus_samples": n["analysis.modulus_samples"],
        "analysis.estimate_modulus_self_s": s["analysis.estimate_modulus"],
        "analysis.fit_holder_s": s["analysis.fit_holder"],
        "analysis.lojasiewicz_self_s": s["analysis.lojasiewicz"],
        "analysis.plk_self_s": s["analysis.plk"],
        "analysis.closed_graph_self_s": s["analysis.closed_graph"],
        "analysis.calmness_self_s": s["analysis.calmness"],
        "analysis.inverse_lipschitz_self_s": s["analysis.inverse_lipschitz"],
        "certify.steps_checked": n["certify.steps_checked"],
        "certify.checks_self_s": s["certify.checks"],
        "certify.h4_s": s["certify.h4"],
        "certify.distance_trace_self_s": s["certify.distance_trace"],
        "serialize.trace_csv_s": s["serialize.trace_csv"],
        "serialize.json_csv_s": s["serialize.json_csv"],
        "serialize.sha256_s": s["serialize.sha256"],
        "serialize.bytes_written": n["serialize.bytes_written"],
    }
    for alg in _ALGORITHMS:
        iters = n[f"solvers.{alg}.iterations"]
        m[f"solvers.{alg}.iterations"] = iters
        m[f"solvers.{alg}.self_s"] = s[f"solvers.{alg}"]
        m[f"solvers.{alg}.us_per_iter"] = 1e6 * total[f"solvers.{alg}"] / iters if iters else 0.0
    m["solvers.iterations"] = sum(m[f"solvers.{alg}.iterations"] for alg in _ALGORITHMS)
    m["solvers.self_s"] = sum(m[f"solvers.{alg}.self_s"] for alg in _ALGORITHMS)
    layers = {layer: sum(v for k, v in s.items() if k.split(".")[0] == layer) for layer in _LAYERS}
    m.update({f"share.{layer}": v / pass_s for layer, v in layers.items()})
    return m


def _median_dicts(samples: list) -> dict:
    return {k: statistics.median(d[k] for d in samples) for k in samples[0]}


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "load_avg_at_start": list(load_at_start),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def emit(metrics: dict, names: list, runner: Runner, info: dict) -> None:
    missing = [entry["name"] for entry in names if entry["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {', '.join(missing)}")
    out = {entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]} for entry in names}
    info["fail_ratio"] = runner.failed / runner.attempted
    info["failures"] = runner.problems[:20]
    for name, rec in out.items():
        print(f"{name:36s} {rec['value']:.6g} {rec['unit']}", file=sys.stderr)
    print(f"{'fail_ratio':36s} {info['fail_ratio']:.6g} ratio", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": out}))


# -- modes --------------------------------------------------------------------------

def run(args, spec: dict) -> int:
    load_at_start = os.getloadavg()
    # One CPU for this process and the probes it starts, so that the
    # calibration kernel measures the speed of the CPU the timed work runs on.
    pinned = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})
    probes, setup_ref = [], []
    clock = ReferenceClock()
    for _ in range(SETUP_PROBES):
        probes.append(measure_setup(args.workload, args.seed, importtime=bool(args.trace)))
        clock.book(probes[-1]["wall_s"])
        setup_ref.append(clock.total())
    shutil.rmtree(WORK / "jobs", ignore_errors=True)
    runner = Runner(args.workload)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": environment(load_at_start), "setup_probes": SETUP_PROBES, "pinned_cpu": pinned,
            "setup_wall_s": statistics.median(p["wall_s"] for p in probes)}
    try:
        runner.run_pass(args.seed, tag="warmup")
        tracer = Tracer() if args.trace else None
        plain, traced, layer_samples = [], [], []
        clock = ReferenceClock()
        cpu0, start = time.process_time(), time.perf_counter()
        while True:
            gc.collect()
            if tracer is not None and len(plain) > len(traced):
                tracer.reset()
                tracer.install()
                try:
                    seconds, _ = runner.run_pass(args.seed, tracer, tag=f"pass{len(traced)}", clock=clock)
                finally:
                    tracer.uninstall()
                layer_samples.append(layer_metrics(tracer, seconds))
                samples = traced
            else:
                seconds = runner.run_pass(args.seed, record=True, clock=clock)[0]
                samples = plain
            samples.append((seconds, clock.total()))
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or traced):
                break
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = [w for w, _ in plain]
        ref = [r for _, r in plain]
        info.update(passes=len(plain), traced_passes=len(traced), pass_seconds=wall,
                    job_seconds=runner.job_seconds, cpu_s_per_pass=cpu_s / (len(plain) + len(traced)),
                    pass_wall_s=statistics.median(wall), calibration_s=statistics.median(clock.calibrations),
                    calibrations=len(clock.calibrations))
        if tracer is None:
            info.update(pass_ref_s=ref, pass_tail_percentile=90, pass_tail_wall_s=tail(wall))
            metrics = {
                "setup_s": statistics.median(setup_ref),
                "pass_s": statistics.median(ref),
                "pass_tail_s": tail(ref),
                "peak_rss_mb": peak_rss_mb,
            }
            emit(metrics, spec["end_to_end"], runner, info)
            return 0
        metrics = _median_dicts(layer_samples)
        info["layer_share"] = {layer: metrics.pop(f"share.{layer}") for layer in _LAYERS}
        _, ref_digests = runner.run_pass(REFERENCE_SEED, tag="reference")
        metrics.update({
            "cli.digest_drift": digest_drift(args.workload, ref_digests),
            "setup.import_s": statistics.median(p["package_import_s"] for p in probes),
            "setup.catalog_s": statistics.median(p["catalog_s"] for p in probes),
            "trace.overhead_ratio": statistics.median(r for _, r in traced) / statistics.median(ref) - 1.0,
        })
        info["traced_pass_wall_s"] = statistics.median(w for w, _ in traced)
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.spans), encoding="utf-8")
        info["spans_file"] = str(spans.relative_to(ROOT))
        emit(metrics, spec["per_layer"], runner, info)
        return 0
    finally:
        shutil.rmtree(WORK / "jobs", ignore_errors=True)


def digest_drift(workload: str, digests: dict) -> int:
    """Artifacts whose digest differs from the reference recorded at the seed commit."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    drift = 0
    for job in set(reference) | set(digests):
        ref, got = reference.get(job, {}), digests.get(job, {})
        drift += sum(ref.get(name) != got.get(name) for name in set(ref) | set(got))
    return drift


def quick(spec: dict) -> int:
    """One short run per workload and mode; checks every named metric and its unit."""
    ok = True
    print(f"{'workload':16s} {'metric':36s} {'value':>12s} unit")
    for workload in jobs.WORKLOADS:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "0", "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload}: run failed (exit {proc.returncode}): {proc.stderr[-800:]}")
                ok = False
                continue
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            expected = {entry["name"]: entry["unit"] for entry in names}
            got = {name: rec["unit"] for name, rec in result["metrics"].items()}
            if got != expected or not all(isinstance(r["value"], (int, float)) for r in result["metrics"].values()):
                print(f"{workload}: metrics or units differ from BENCHMARK.json")
                ok = False
            if not result["correct"] or info["fail_ratio"] != 0:
                print(f"{workload}: fail_ratio {info['fail_ratio']}: {info['failures']}")
                ok = False
            if trace == 0:
                for name, rec in result["metrics"].items():
                    print(f"{workload:16s} {name:36s} {rec['value']:12.6g} {rec['unit']}")
                print(f"{workload:16s} {'fail_ratio':36s} {info['fail_ratio']:12.6g} ratio")
            else:
                m = result["metrics"]
                print(f"{workload:16s} {'trace.overhead_ratio':36s} {m['trace.overhead_ratio']['value']:12.6g} ratio")
                print(f"{workload:16s} {'cli.digest_drift':36s} {m['cli.digest_drift']['value']:12.6g} count")
    print("quick check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke check of every workload")
    args = parser.parse_args()
    if not (SRC / "rcontinuity" / "__init__.py").is_file():
        print(f"error: no rcontinuity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    if args.quick:
        return quick(spec)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
