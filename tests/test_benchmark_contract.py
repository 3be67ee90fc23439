"""The benchmark's entry points still work against the library.

``perfbench/`` reaches into the library (``cli.main``, ``arcs.size_slices``,
``expsums.sup_profile``, ``singular._GaussSumCache`` and more), so a library
change that breaks one of them should fail here, not only in a benchmark run.
Each check runs in a fresh interpreter, as the benchmark does, with bytecode
writing off so that nothing is written into the checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# one pass of the exact-tables jobs for seed 1, and the first job of each kind
# in the other workloads (size_slices, sup_profile, ...), each checked by its oracle
_ONE_PASS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
run.load_partitio()
import workloads
from oracles import Oracles
oracles, bad = Oracles(), []
jobs = workloads.job_list("exact-tables", 1)
for workload in ("sparse-slices", "dense-weyl"):
    jobs += list({job["job"]: job for job in workloads.job_list(workload, 1)[::-1]}.values())
for i, job in enumerate(jobs):
    result = workloads.run_job(job)
    problems = oracles.check(job, result)
    if problems or workloads.is_failure(job, result):
        bad.append([i, job, problems])
print(json.dumps({"jobs": len(jobs), "bad": bad}, default=str))
"""

# the first job of each kind (each library call, each CLI command) of the
# three workloads at seed 1, traced as a traced pass is: the tracer's
# counters bind library parameters by name, and some key on a function's
# name, so a renamed parameter or function fails here
_TRACED = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import run
run.load_partitio()
import workloads
from oracles import Oracles
from tracer import Tracer, layer_metrics
jobs = {}
for workload in ("sparse-slices", "dense-weyl", "exact-tables"):
    for job in workloads.job_list(workload, 1):
        jobs.setdefault(job["argv"][0] if job["job"] == "cli" else job["job"], job)
oracles, bad, tracer = Oracles(), [], Tracer()
tracer.install()
start = time.perf_counter()
try:
    for i, job in enumerate(jobs.values()):
        tracer.job = i
        result = workloads.run_job(job)
        problems = oracles.check(job, result)
        if problems or workloads.is_failure(job, result):
            bad.append([i, job, problems])
finally:
    tracer.restore()
metrics = layer_metrics(tracer.spans, time.perf_counter() - start)
print(json.dumps({"kinds": sorted(jobs), "bad": bad, "metrics": metrics}, default=str))
"""


def _run(argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARTITIO_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, "-B", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


def test_perfbench_selftest_passes():
    proc = _run([str(PERFBENCH / "selftest.py")])
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_exact_tables_pass_has_no_problem():
    proc = _run(["-c", _ONE_PASS, str(PERFBENCH)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["jobs"] >= 100
    assert summary["bad"] == []


def test_traced_pass_of_every_job_kind():
    proc = _run(["-c", _TRACED, str(PERFBENCH)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert len(summary["kinds"]) == 14, summary["kinds"]
    assert summary["bad"] == []
    for counter in ("counting.fold_cells", "expsums.terms", "singular.series_q",
                    "arith.sieve_n", "weights.support", "report.bytes",
                    "arcs.approx_calls", "arcs.points_sampled"):
        assert summary["metrics"][counter] > 0, counter
