"""xmodlab benchmark: one workload, closed loop, in this one process.

    python3 perfbench/run.py --workload s4_table --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One caller, no threads: each job starts when the previous one
has finished.  A pass runs every job of the workload once, in an order
shuffled by ``--seed`` (which also seeds ``interchange_sampled``).  Another
pass starts while it is expected to end within half a pass after
``--seconds``; there is always at least one.

End-to-end metrics (``--trace 0``):

- ``cost_ref``: the median over passes of a pass's cost, the sum of its
  jobs' costs.  A job's cost is its seconds divided by the harmonic mean of
  its own calibration-kernel timings (see ``calibrate.py``): three before,
  three after, and one every 0.1 s during the job, whose time is taken off
  the job's.  On a shared 2-core virtual machine the speed switched
  between two levels every second or so, so kernel timings were bimodal;
  the harmonic mean of samples spread over the job's own seconds follows
  the mix of levels the job met, where a median, or samples taken only
  around jobs, would not.
- ``setup_s``: the median of set-up probes (``probe.py``), each a fresh
  interpreter: one at the start, then one due every ``seconds/10``, run
  between jobs and never two at once.  It is given in seconds at a fixed
  machine speed, the one at which the kernel takes ``KERNEL_REF_S``: the
  probes' median wall seconds times ``KERNEL_REF_S`` over the run's kernel
  time.  That 2-core machine sometimes ran whole 30 s runs at its faster
  level; between two sets of ten runs the median wall seconds moved by up
  to 18%, the scaled figure by up to 8%.  The wall seconds are printed
  beside it.
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

``--trace 1`` runs the same passes, then one more pass with the tracer
(``tracer.py``) installed, and reports the per-layer metrics instead.

Every job's output is checked against ``golden/``.  A wrong output or an
unexpected exception fails the job and the command exits 1.  A typed
refusal that the golden file expects (S5 with P = C5 today) is counted
apart and printed as part of ``fail_share``.  The last line of standard
output is the JSON result; the line before it carries the raw seconds, the
kernel time (raw seconds over cost) and the job counts, and ``out/`` keeps
the run's details.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
KERNEL_SAMPLES = 3  # on each side of every job
SAMPLE_INTERVAL_S = 0.1  # and one every this many seconds during it
PROBES_PER_RUN = 10  # beyond the first, one due every seconds/10
PROBE_GAP_S = 0.2  # between probes that are due after the same job
KERNEL_REF_S = 0.005  # the kernel time setup_s is scaled to


class SetupError(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("XMODLAB_LIMIT", "PYTHONPATH", "PYTHONSTARTUP")
    }
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """State of one benchmark run: samples, probes and job outcomes."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.probes = []
        self.jobs = []  # (pass, job name, seconds, outcome, kernel samples)
        self.next_probe = None  # when the next probe is due
        self.just_probed = False

    # -- set-up probes ----------------------------------------------------

    def probe(self) -> None:
        """One set-up probe in a fresh interpreter; the only child process."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), self.workload.name],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(result["module"]).resolve().parent.parent != SRC.resolve():
            raise SetupError(f"probe imported xmodlab from {result['module']}")
        want = workloads.expected_names(self.workload)
        if result["names"] != want:
            raise SetupError(
                f"catalogue call gave {result['names']}, want {want}"
            )
        self.probes.append(result["seconds"])
        self.just_probed = True
        if self.next_probe is None:
            self.next_probe = time.perf_counter()
        self.next_probe += self.seconds / PROBES_PER_RUN

    def probes_due(self) -> None:
        """The probes due by now, so a workload of few long jobs gets as many."""
        while (
            len(self.probes) <= PROBES_PER_RUN
            and time.perf_counter() >= self.next_probe
        ):
            if self.just_probed:
                time.sleep(PROBE_GAP_S)
            self.probe()

    # -- jobs and passes ----------------------------------------------------

    def job(self, pass_no: int, job, state: dict, tracer=None) -> tuple[float, float]:
        """Run, time and check one job: its seconds and its cost in ref."""
        gc.collect()
        samples = []
        calibrate.sample(samples, KERNEL_SAMPLES)
        if tracer is not None:
            tracer.job = f"{pass_no}:{job.name}"
        during = calibrate.DuringJob(
            samples, SAMPLE_INTERVAL_S, tracer.exclude if tracer else None
        )
        t0 = time.perf_counter()
        try:
            with during:
                result = job.run(state)
        except Exception as exc:  # the job boundary: record, check, go on
            result = exc
            if not isinstance(exc, workloads.xl().XmodlabError):
                traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0 - during.spent
        calibrate.sample(samples, KERNEL_SAMPLES)
        outcome = workloads.outcome(job, result)
        if outcome not in workloads.PASSED:
            print(f"FAILED {job.name}: {outcome}", file=sys.stderr)
        kernel_s = statistics.harmonic_mean(samples)
        if tracer is not None:
            tracer.kernel_s[tracer.job] = kernel_s
        self.jobs.append((pass_no, job.name, seconds, outcome, samples))
        self.just_probed = False
        return seconds, seconds / kernel_s

    def run_pass(self, pass_no: int, state: dict, tracer=None) -> tuple[float, float]:
        """Every job once: summed seconds and summed cost in ref."""
        # traced counts must not depend on the seed: the sampled blocks
        # decide how many products membership tests make
        state["rng"] = random.Random("traced" if tracer else f"{self.seed}:{pass_no}")
        seconds = cost = 0.0
        for job in workloads.pass_order(self.workload.groups(state), self.rng):
            job_seconds, job_cost = self.job(pass_no, job, state, tracer)
            seconds += job_seconds
            cost += job_cost
            if tracer is None:
                self.probes_due()
        return seconds, cost

    def passes(self, state: dict) -> list[tuple[float, float]]:
        """Untraced passes while the next one is expected to end in time."""
        start = time.perf_counter()
        totals = []
        while not totals or (
            (time.perf_counter() - start) * (1 + 0.5 / len(totals))
            <= self.seconds
        ):
            totals.append(self.run_pass(len(totals), state))
        if not self.just_probed:
            self.probe()
        return totals

    def counts(self) -> dict:
        failed = sum(1 for j in self.jobs if j[3] not in workloads.PASSED)
        refused = sum(1 for j in self.jobs if j[3] == workloads.REFUSED)
        return {"attempted": len(self.jobs), "failed": failed, "refused": refused}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xmodlab" / "__init__.py").is_file():
        print(f"no xmodlab package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("XMODLAB_LIMIT", None)  # cli reads it
    # compile once, so no set-up probe pays for writing .pyc files
    if not compileall.compile_dir(str(SRC / "xmodlab"), quiet=1):
        print("xmodlab does not byte-compile", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import xmodlab
    import xmodlab.cli  # noqa: F401  (the package does not import it)

    if Path(xmodlab.__file__).resolve().parent.parent != SRC.resolve():
        print(f"imported xmodlab from {xmodlab.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds)
    try:
        run.probe()
        state = workload.inputs()
        # warm the in-process catalogue; probes time the cold path
        names = workloads.catalogue_call(workload, state)
        if names != workloads.expected_names(workload):
            raise SetupError(f"catalogue call gave {names}")
        if "row6" in state and not xmodlab.validate(state["row6"]).ok:
            raise SetupError("row-6 fixture fails validate")
        totals = run.passes(state)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = run.run_pass(len(totals), state, tracer)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    raw_s = statistics.median(seconds for seconds, _ in totals)
    cost_ref = statistics.median(cost for _, cost in totals)
    kernel_s = sum(s for s, _ in totals) / sum(c for _, c in totals)
    setup_wall_s = statistics.median(run.probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = run.counts()
    if tracer is not None:
        metrics = tracer.metrics(traced[1] / cost_ref)
    else:
        metrics = {
            "cost_ref": {"value": cost_ref, "unit": "ref"},
            "setup_s": {"value": setup_wall_s * KERNEL_REF_S / kernel_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": [{"seconds": s, "cost_ref": c} for s, c in totals],
        "kernel_ms": kernel_s * 1000,
        "setup_probes_s": run.probes,
        "setup_wall_s": setup_wall_s,
        "jobs": run.jobs,
        **counts,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.tsv")

    print(
        f"{workload.name}: passes={len(totals)} "
        f"raw_s={raw_s:.4f} kernel_ms={kernel_s * 1000:.4f} "
        f"cost_ref={cost_ref:.1f} setup_probes={len(run.probes)} "
        f"setup_wall_s={setup_wall_s:.4f} "
        f"fail_share={counts['failed'] + counts['refused']}/{counts['attempted']} "
        f"(refused {counts['refused']}, wrong or crashed {counts['failed']})"
    )
    print(
        json.dumps(
            {
                "correct": counts["failed"] == 0,
                "attempted": counts["attempted"],
                "failed": counts["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if counts["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
