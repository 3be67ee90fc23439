"""partitio benchmark: seeded workloads run as a closed loop, one client.

    python3 perfbench/run.py --workload sparse-slices --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

Each workload runs in this fresh, single-threaded Python process: one job at
a time, each starting when the previous one has finished, in passes over the
seeded job list for ``--seconds`` (an untimed first pass, then at least two
timed passes; no pass is started that would, at the median pass time so
far, end after ``--seconds``).  The first pass checks the outputs (see
``oracles.py``) and sets the peak RSS; every later pass must reproduce it
byte for byte.  A pass's time is the sum of its job latencies; the
benchmark's own bookkeeping is not timed.

Every time reported is scaled to a reference machine speed (see
``Calibration``): the host is shared, and its speed drifts by up to a third
within seconds.  The run record keeps the raw times beside the scaled ones.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass time),
``job_p50_ms`` and ``job_p90_ms`` (percentiles of the latencies of every
timed job run; every job list holds at least 100 jobs),
``setup_s`` (median time from a fresh interpreter to a ready job list) and
``peak_rss_mb``; ``failed_frac`` is printed beside them.  ``--trace 1``
spends half the time on untraced passes and half on traced ones, and reports
the per-layer metrics of the traced passes (see ``tracer.py``) with
``trace.overhead``, the traced over the untraced median pass time, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record and,
for traced runs, the spans of the last traced pass are written under
``.perfbench-out/`` (one pass of sparse-slices holds about 150,000 spans).
"""

from __future__ import annotations

import os

# one BLAS thread: set before numpy is first imported, here and in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("sparse-slices", "dense-weyl", "exact-tables")
SETUP_SPAWNS = 9
#: Median seconds of one ``Calibration`` call on the reference machine
#: (2-vCPU Intel Xeon, Python 3.11, numpy 2.4).
REF_CAL_S = 0.0028
#: Calibrations on each side of a job that set the machine speed it ran at.
CAL_WINDOW = 5


class Calibration:
    """A fixed piece of work that uses none of partitio: Python integer
    arithmetic, exact rationals and a numpy complex exponential, the mix the
    workloads spend their time in.

    The benchmark shares a host whose speed drifts by up to a third within
    seconds, alike for all three kinds of work.  Timing this work next to
    each job measures the speed the job ran at, and every reported time is
    scaled to the reference speed ``REF_CAL_S``; a change in partitio moves
    the job but not its calibration.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._phases = np.random.default_rng(0).random((32, 1000))
        # written in place: arrays allocated between jobs fragment the heap
        # and moved the peak RSS by several MB from run to run
        self._buf = np.empty(self._phases.shape, dtype=complex)

    def __call__(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        acc = 0
        for i in range(6000):
            acc += i * i % 7
        frac = Fraction(0)
        for i in range(1, 200):
            frac += Fraction(i % 13 + 1, i % 11 + 1)
        np.multiply(self._phases, 2j * np.pi, out=self._buf)
        np.exp(self._buf, out=self._buf).sum()
        return time.perf_counter() - t0


def memory_releaser():
    """A function that collects garbage and returns the heap's free pages to
    the system (glibc's ``malloc_trim``; elsewhere it only collects)."""
    import ctypes

    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return gc.collect
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int

    def release() -> None:
        gc.collect()
        trim(0)

    return release


def at_reference_speed(latencies: list[float], cal: list[float]) -> list[float]:
    """Scale each latency by ``REF_CAL_S`` over the median of the calibrations
    around it.  ``cal[i]`` ran just before job i and ``cal[i + 1]`` just after
    it; job i's window is ``CAL_WINDOW`` calibrations on each side."""
    return [t * REF_CAL_S / statistics.median(cal[max(0, i + 1 - CAL_WINDOW):i + 1 + CAL_WINDOW])
            for i, t in enumerate(latencies)]


def load_partitio() -> None:
    """Import partitio from this checkout's sources, and from nowhere else."""
    package = SRC / "partitio"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no partitio sources at {package}")
    sys.path.insert(0, str(SRC))
    import partitio

    if Path(partitio.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: partitio imported from {partitio.__file__}, not {package}")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _digest(obj, h) -> None:
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        if obj.dtype != object:
            h.update(obj.tobytes())
            return
        # in slices: the repr of a whole table of big integers runs to megabytes,
        # which would show in the peak RSS
        for start in range(0, obj.size, 4096):
            h.update(repr(obj.flat[start:start + 4096].tolist()).encode())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            _digest(getattr(obj, field.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _digest(item, h)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _digest(obj, h)
    return h.hexdigest()


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its ready job list, at the
    reference speed, and the raw seconds."""
    calibrate = Calibration()
    times, raw = [], []
    for _ in range(SETUP_SPAWNS):
        cal = [calibrate() for _ in range(CAL_WINDOW)]
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        line = proc.stdout.readline()
        raw.append(time.perf_counter() - start)
        proc.communicate()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SystemExit("error: set-up probe failed")
        cal += [calibrate() for _ in range(CAL_WINDOW)]
        times.append(raw[-1] * REF_CAL_S / statistics.median(cal))
    return times, raw


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """The checkout's commit read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one client",
        "nproc": os.cpu_count(), "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_model": _cpu_model(), "git_commit": _git_commit(),
    }


class Bench:
    """Passes over one workload's job list, with the bookkeeping for failures.

    Each result is digested, and on the first pass checked by the oracles,
    right after its job and outside the job's timing; nothing is kept but
    the digest.  The first pass must run untraced, so oracles make no spans.
    """

    def __init__(self, jobs: list[dict]):
        from oracles import Oracles

        self.jobs = jobs
        self.oracles = Oracles()
        self.digests = [None] * len(jobs)
        self.wrong: set[int] = set()  # jobs whose first output failed an oracle
        self.runs = [0] * len(jobs)
        self.bad = [0] * len(jobs)
        self.problems: dict[int, list[str]] = {}
        self.calibrate = Calibration()
        self.release_memory = memory_releaser()
        self.raw_latencies: list[list[float]] = []  # per pass, in seconds as measured
        self.cal_times: list[list[float]] = []  # per pass, before each job and after the last

    def run_pass(self, tracer=None, release: bool = False) -> list[float]:
        """Run every job once; return the job latencies in seconds at the
        reference speed.  A calibration runs before each job and after the
        last and, with ``release``, memory is released before each job, all
        outside the jobs' timing."""
        from workloads import is_failure, run_job

        latencies, cal = [], [self.calibrate()]
        for i, job in enumerate(self.jobs):
            if release:
                self.release_memory()
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            try:
                result = run_job(job)
                error = "exit code 2" if is_failure(job, result) else None
            except Exception as exc:  # a failed job is counted, and the loop goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            self._account(i, result, error)
            del result  # no job runs while the previous one's output is held
            cal.append(self.calibrate())
        self.raw_latencies.append(latencies)
        self.cal_times.append(cal)
        return at_reference_speed(latencies, cal)

    def _account(self, i: int, result, error) -> None:
        self.runs[i] += 1
        found = [error] if error else []
        if not found:
            d = digest(result)
            if self.digests[i] is None:
                self.digests[i] = d
                try:
                    found = self.oracles.check(self.jobs[i], result)
                except Exception as exc:  # an output the oracle cannot read is wrong
                    found = [f"oracle could not read the output: {type(exc).__name__}: {exc}"]
                if found:
                    self.wrong.add(i)
            elif d != self.digests[i]:
                found = ["output differs from the first pass"]
            elif i in self.wrong:
                found = ["same output as the first pass, which failed an oracle"]
        if found:
            self.bad[i] += 1
            self.problems.setdefault(i, []).extend(found)

    @property
    def attempted(self) -> int:
        return sum(self.runs)

    @property
    def failed(self) -> int:
        return sum(self.bad)


def another_pass(ends: list[float], start: float, seconds: float, min_passes: int) -> bool:
    """True while fewer than ``min_passes`` ran, or while a pass as long as the
    median pass so far, bookkeeping included, still ends within ``seconds`` of
    ``start``.  ``ends`` holds the clock when the passes began and at the end
    of each pass."""
    if len(ends) <= min_passes:
        return True
    lengths = [b - a for a, b in zip(ends, ends[1:])]
    return time.perf_counter() - start + statistics.median(lengths) <= seconds


def warm_up(bench: Bench) -> float:
    """The first pass, untimed: it checks every output against the oracles
    and gives the peak RSS in MB.  Each of its jobs starts from live memory
    alone, as in a fresh CLI process; otherwise the garbage and free pages
    that earlier jobs left set the peak by how they happen to be laid out,
    which moved it by up to 8 MB between runs of one job list.  The timed
    passes release nothing, so that no job pays for faulting its pages in."""
    bench.run_pass(release=True)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_passes(bench: Bench, start: float, seconds: float, min_passes: int):
    """Pass times, and every job's latency in every pass, at the reference
    speed, for passes that end within ``seconds`` of ``start``.  A pass's
    time is the sum of its job latencies: the benchmark's bookkeeping is not
    timed."""
    walls, latencies, ends = [], [], [time.perf_counter()]
    while another_pass(ends, start, seconds, min_passes):
        latencies.append(bench.run_pass())
        walls.append(sum(latencies[-1]))
        ends.append(time.perf_counter())
    return walls, latencies


def end_to_end(bench: Bench, args, setup: tuple) -> tuple[list[tuple], dict]:
    """(name, value, unit, samples) rows of the untraced end-to-end metrics,
    and the timings, scaled and raw, for the run record.  ``setup`` is what
    ``measure_setup`` returned."""
    start = time.perf_counter()
    rss = warm_up(bench)
    walls, latencies = timed_passes(bench, start, args.seconds, 2)
    # over every timed job run: one job's median over a few passes moves with
    # the host's speed more than a percentile of all runs does
    runs = [t for latency in latencies for t in latency]
    per_job = f"{len(runs)} job runs: {len(bench.jobs)} jobs in each of {len(walls)} passes"
    return [
        ("wall_s", statistics.median(walls), "s", f"median of {len(walls)} passes"),
        ("job_p50_ms", percentile(runs, 50) * 1e3, "ms", per_job),
        ("job_p90_ms", percentile(runs, 90) * 1e3, "ms", per_job),
        ("setup_s", statistics.median(setup[0]), "s",
         f"median of {len(setup[0])} interpreter starts"),
        ("peak_rss_mb", rss, "MB", "ru_maxrss of this process after the first pass"),
    ], {"pass_walls": walls, "setup_times": setup[0], "job_latencies": latencies,
        "raw_setup_times": setup[1], "raw_job_latencies": bench.raw_latencies,
        "calibration_times": bench.cal_times}


def per_layer(bench: Bench, args) -> tuple[list[tuple], dict, list]:
    """Rows of the per-layer metrics (half the time untraced, half traced),
    the pass times, and the spans of the last traced pass."""
    from tracer import Tracer, layer_metrics, median_metrics

    start = time.perf_counter()
    warm_up(bench)
    walls, _ = timed_passes(bench, start, args.seconds / 2, 1)
    tracer = Tracer()
    per_pass, traced_walls = [], []
    tracer.install()
    try:
        ends = [time.perf_counter()]
        while another_pass(ends, ends[0], args.seconds / 2, 1):
            traced_walls.append(sum(bench.run_pass(tracer)))
            # spans hold raw times, so shares are taken of the raw pass time
            per_pass.append(layer_metrics(tracer.spans, sum(bench.raw_latencies[-1])))
            spans = tracer.spans[:]
            tracer.spans.clear()
            ends.append(time.perf_counter())
    finally:
        tracer.restore()
    layers = median_metrics(per_pass)
    layers["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls) - 1
    shares = {n.split(".")[0]: v for n, v in layers.items() if n.endswith(".share")}
    print(f"largest share: {max(shares, key=shares.get)}; {len(walls)} untraced and "
          f"{len(traced_walls)} traced passes", flush=True)
    note = f"median of {len(traced_walls)} traced passes"
    rows = [(name, value, _layer_unit(name), note) for name, value in layers.items()]
    return rows, {"pass_walls": walls, "traced_pass_walls": traced_walls}, spans


def run_workload(args) -> dict:
    load_partitio()
    from tracer import dump_spans
    from workloads import job_list

    record = run_record(args)
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    jobs = job_list(args.workload, args.seed)
    bench = Bench(jobs)
    print(f"{args.workload} seed={args.seed}: {len(jobs)} jobs, closed loop, one client",
          flush=True)
    if args.trace:
        rows, timings, spans = per_layer(bench, args)
    else:
        rows, timings = end_to_end(bench, args, setup)
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    rows.append(("failed_frac", bench.failed / bench.attempted, "ratio",
                 f"{bench.failed} of {bench.attempted} job runs"))
    for name, value, unit, note in rows:
        print(f"  {name:24s} {value:14.6g} {unit:6s} ({note})")
    for i, found in sorted(bench.problems.items()):
        print(f"FAILED job {i} {json.dumps(jobs[i])}: {'; '.join(found[:3])}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(jobs=len(jobs), metrics=metrics, **timings,
                  failed=bench.failed, attempted=bench.attempted,
                  problems={str(i): p for i, p in bench.problems.items()})
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(dump_spans(spans)) + "\n")
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    suffix = name.split(".", 1)[1]
    if suffix == "self_s":
        return "s"
    if suffix in ("share", "sample_yield", "bigint_share", "overhead"):
        return "ratio"
    return {"terms_per_s": "1/s", "bytes": "bytes"}.get(suffix, "count")


def run_all(args) -> dict:
    """Every workload in its own fresh process; one summary line at the end."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = out.stdout.strip().split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0:
            raise SystemExit(f"error: workload {workload} exited with {out.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        load_partitio()
        from workloads import job_list

        job_list(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
