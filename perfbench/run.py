"""nlsquench benchmark: seeded streams of CLI jobs, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads (see jobs.py and BENCHMARK.json for the job mix of each):
  census    scatter and quench jobs with the bound-state search
  realaxis  real-axis scatter, quench and verify jobs, no zero search
  inverse   reconstruct and darboux jobs (GLM resolvent, dressing)

Each job is one in-process ``nlsquench.cli.main`` call on a config (and,
for reconstruct, a scattering file) generated from the seed during set-up.
The job list is run closed-loop by one client for the number of whole
passes whose total comes closest to --seconds, judged by the first pass (at
least one).  Every job's run directory is digested and
checked against the release tolerances outside the timed region; a nonzero
exit code, a raised exception, a failed check or a digest that differs
between passes counts as a failed job.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass and reports per-layer busy time, self time and work counts
from spans recorded around the package's public entry points.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Run records (environment, job digests,
spans) go to .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# BLAS threads are fixed before numpy is imported.  One thread: a run is a
# single closed-loop client, and idle OpenBLAS threads spinning next to the
# per-step Python loops made realaxis ~13% slower and noisier with two
# threads on a 2-core AMD EPYC VM.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 3
RUNS_DIR = ".perfbench_runs"

# (metric, span name, span field); "self_s" is self time, "work" the count
# the span recorded, "calls" the number of spans
LAYER_METRICS = (
    ("zsdirect.analytic_continue_a.s", "zsdirect.analytic_continue_a", "s"),
    ("zsdirect.analytic_continue_a.calls", "zsdirect.analytic_continue_a", "calls"),
    ("zsdirect.analytic_continue_a.k_points", "zsdirect.analytic_continue_a", "work"),
    ("zsdirect.find_zeros.s", "zsdirect.find_zeros", "s"),
    ("zsdirect.find_zeros.self_s", "zsdirect.find_zeros", "self_s"),
    ("zsdirect.find_zeros.zeros", "zsdirect.find_zeros", "work"),
    ("zsdirect.norming_constant.s", "zsdirect.norming_constant", "s"),
    ("zsdirect.norming_constant.calls", "zsdirect.norming_constant", "calls"),
    ("zsdirect.scattering_batch.s", "zsdirect.scattering_batch", "s"),
    ("zsdirect.scattering_batch.calls", "zsdirect.scattering_batch", "calls"),
    ("zsdirect.scattering_batch.k_points", "zsdirect.scattering_batch", "work"),
    ("quench.verify_factorization.s", "quench.verify_factorization", "s"),
    ("quench.verify_factorization.self_s", "quench.verify_factorization", "self_s"),
    ("quench.quench_map.s", "quench.quench_map", "s"),
    ("glm.reconstruct_field.s", "glm.reconstruct_field", "s"),
    ("glm.reconstruct_field.x_points", "glm.reconstruct_field", "work"),
    ("darboux.apply_bt.s", "darboux.apply_bt", "s"),
    ("darboux.apply_bt.self_s", "darboux.apply_bt", "self_s"),
    ("darboux.apply_bt.calls", "darboux.apply_bt", "calls"),
    ("darboux.strip_solitons.s", "darboux.strip_solitons", "s"),
    ("darboux.dual_quench.self_s", "darboux.dual_quench", "self_s"),
    ("oracle.evolve.s", "oracle.evolve", "s"),
    ("oracle.evolve.steps", "oracle.evolve", "work"),
    ("oracle.fft_upsample.s", "oracle.fft_upsample", "s"),
    ("cli.self_s", "cli.job", "self_s"),
    ("cli.dump_json.s", "cli.dump_json", "s"),
)

# the layer(s) that should carry most of each workload's traced time
DOMINANT = {
    "census": ("zsdirect.analytic_continue_a.s",),
    "realaxis": ("zsdirect.scattering_batch.s", "quench.verify_factorization.self_s"),
    "inverse": ("glm.reconstruct_field.s",),
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package(root):
    """Import nlsquench from the checkout's own src/ tree."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nlsquench", "cli.py")):
        raise SystemExit(f"error: no nlsquench sources under {src}")
    sys.path.insert(0, src)
    import nlsquench.cli

    if not os.path.abspath(nlsquench.cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit("error: nlsquench was imported from outside the checkout")
    return nlsquench.cli


def _digest(out):
    """sha256 over the sorted (name, bytes) of a run directory, and its size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as f:
            data = f.read()
        h.update(name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


def _environment(workload, seed):
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS}


class Runner:
    def __init__(self, cli, workload, seed):
        import checks
        import jobs

        self.cli, self.checks, self.jobs_mod = cli, checks, jobs
        self.workload, self.seed = workload, seed
        self.work = os.path.join(RUNS_DIR, f"{workload}-seed{seed}")
        self.jobs = []
        self.digests = {}          # job name -> digest of its first run
        self.checked = {}          # (job name, digest) -> failure messages
        self.failures = []         # (job name, messages) per failed job run
        self.attempted = 0

    def _call(self, job, out):
        """Run one job; returns (wall seconds, error message or None)."""
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            rc = self.cli.main([job.command, "--config", job.config_path, "--out", out])
            err = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # a raised exception is a failed job, not a crash
            err = f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, err

    def setup(self):
        """Generate configs and data files, then one untimed warm-up job."""
        shutil.rmtree(self.work, ignore_errors=True)
        data, self.jobs = self.jobs_mod.generate(self.workload, self.seed)
        cfg_dir = os.path.join(self.work, "configs")
        data_dir = os.path.join(self.work, "data")
        self.jobs_mod.write_configs(data + self.jobs, cfg_dir, data_dir)
        for job in data:
            out = os.path.join(data_dir, job.name)
            _, err = self._call(job, out)
            if err is None:
                problems = self.checks.run_check(job, out)
                err = "; ".join(problems) if problems else None
            if err is not None:
                raise RuntimeError(f"data file {job.name} could not be made: {err}")
        warm = next(j for j in self.jobs if j.name == self.jobs_mod.WARMUP[self.workload])
        self._call(warm, os.path.join(self.work, "warmup"))

    def run_job(self, job, tracer=None):
        """Timed CLI call, then (untimed) digest and output check."""
        out = os.path.join(self.work, "out", job.name)
        if tracer is not None:
            span = tracer.begin_job(job.name)
        dt, err = self._call(job, out)
        if tracer is not None:
            tracer.end_job(span)
        self.attempted += 1
        size = 0
        problems = [err] if err else []
        if not problems:
            try:
                digest, size = _digest(out)
                first = self.digests.setdefault(job.name, digest)
                if digest != first:
                    problems.append("run directory differs from an earlier pass")
                # a check reads nothing but the run directory, so equal
                # digests give equal verdicts
                key = (job.name, digest)
                if key not in self.checked:
                    self.checked[key] = self.checks.run_check(job, out)
                problems += self.checked[key]
            except Exception as exc:  # unreadable or malformed output
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        if problems:
            self.failures.append((job.name, problems))
        return dt, size

    def run_pass(self, tracer=None):
        times, written = [], 0
        for job in self.jobs:
            dt, size = self.run_job(job, tracer)
            times.append(dt)
            written += size
        return times, written


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = _parse(argv)
    t_start = time.perf_counter()
    root = os.getcwd()
    cli = _import_package(root)
    import jobs  # the script's own directory leads sys.path

    if args.workload not in jobs.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(jobs.WORKLOADS)}")
    import_s = time.perf_counter() - t_start

    runner = Runner(cli, args.workload, args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        runner.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    env = _environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    passes = []
    trace_record = None
    if args.trace:
        from spans import Tracer

        plain, _ = runner.run_pass()
        tracer = Tracer()
        tracer.install()
        try:
            traced, written = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        metrics = {}
        for name, span, field in LAYER_METRICS:
            value = summary.get(span, {}).get(field, 0)
            unit = "s" if field in ("s", "self_s") else "count"
            metrics[name] = _metric(value, unit)
        rf = summary.get("glm.reconstruct_field")
        metrics["glm.reconstruct_field.s_per_x"] = _metric(
            rf["s"] / rf["work"] if rf and rf["work"] else 0.0, "s")
        metrics["cli.bytes_written"] = _metric(written, "bytes")
        metrics["trace.overhead_s"] = _metric(sum(traced) - sum(plain), "s")
        share = sum(metrics[m]["value"] for m in DOMINANT[args.workload]) / sum(traced)
        print(f"traced wall_s {sum(traced):.4f} s, untraced {sum(plain):.4f} s; "
              f"dominant layer {' + '.join(DOMINANT[args.workload])} "
              f"= {share:.3f} of traced wall_s")
        passes = [plain, traced]
        trace_record = {"summary": summary, "spans": tracer.records()}
    else:
        # the pass count whose total the first pass says comes closest to
        # --seconds
        passes.append(runner.run_pass()[0])
        for _ in range(round(args.seconds / sum(passes[0])) - 1):
            passes.append(runner.run_pass()[0])
        job_times = [t for p in passes for t in p]
        per_job = [statistics.median(ts) for ts in zip(*passes)]
        metrics = {
            "wall_s": _metric(sum(per_job), "s"),
            "job_s.p50": _metric(statistics.median(job_times), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        print(f"passes {len(passes)}, jobs per pass {len(runner.jobs)}; "
              f"job_s.p50 rests on {len(job_times)} job runs")

    failed = len(runner.failures)
    for name, problems in runner.failures:
        print(f"FAILED {name}: {'; '.join(problems)}")
    print(f"fail_ratio {failed / runner.attempted} failed/attempted ({failed}/{runner.attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")

    record = {"env": env, "digests": runner.digests, "metrics": metrics,
              "failures": runner.failures, "setup_times": setup_times,
              "passes": passes}
    if trace_record is not None:
        record["trace"] = trace_record
    tag = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    with open(os.path.join(RUNS_DIR, tag + ".json"), "w", encoding="utf-8") as f:
        json.dump(record, f, sort_keys=True, indent=1)
    shutil.rmtree(runner.work, ignore_errors=True)
    print("digest " + hashlib.sha256(
        json.dumps(runner.digests, sort_keys=True).encode()).hexdigest())

    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
