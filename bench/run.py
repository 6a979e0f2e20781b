"""speclab benchmark: cold ``speclab report`` processes on seeded configs.

Usage, from the repository root:

    python3 bench/run.py --workload fd-lshape --seed 1 --seconds 25 --trace 0

Each repetition spawns one fresh ``python -m speclab.cli report`` process
on the workload's config, so every run pays the cold costs a CLI user
pays (imports, the Bessel zero caches).  Repetitions run one after
another (one client, closed loop) until ``--seconds`` have passed.  Every
repetition's outputs are checked against independent oracles and must be
byte-identical to the first repetition's.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the repetitions): ``wall_s`` from spawn to exit, ``cpu_s``
and ``peak_rss_mb`` of the child from ``os.wait4``, and ``setup_s``, the
median of several processes that only start Python, import
``speclab.cli`` and parse the config.  With ``--trace 1`` repetitions
alternate between an untraced process and one run through
``traced_cli.py`` (with ``-X importtime``), and the last line reports
per-function call counts and self-time shares, per-layer import and self
times, and work counters.  Lines before it record the environment, each
repetition and the traced functions' self times in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import traced_cli
import workloads

ROOT = workloads.HERE.parent
SRC = ROOT / "src"

#: Fewest set-up probes per run; the median is reported.
SETUP_SAMPLES = 5

#: A child still running after this long is killed and its experiments fail.
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

SETUP_PROBE = (
    "import sys, speclab.cli as cli\n"
    "cli.parse_config(open(sys.argv[1]).read())\n"
    "print(cli.__file__)\n"
)


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def traced_functions() -> list[tuple[str, str]]:
    """(layer, function) for the root span and every wrapped function."""
    return [(layer, fn) for _, fn, layer in [traced_cli.ROOT, *traced_cli.TRACED]]


def layers() -> list[str]:
    return list(dict.fromkeys(layer for layer, _ in traced_functions()))


def per_layer_units() -> dict[str, str]:
    """Name and unit of every metric a traced run reports.

    Function metrics are call counts and shares of the traced self time,
    not seconds: a function a workload never calls would report a time of
    exactly zero on every run.  Layer times include the layer's own module
    import, which every process pays, so they are never zero.
    """
    units = {}
    for layer, fn in traced_functions():
        units[f"{layer}.{fn}.calls"] = "count"
        units[f"{layer}.{fn}.self_share"] = "ratio"
    units.update(traced_cli.COUNTER_UNITS)
    for layer in layers():
        units[f"{layer}.import_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


IMPORT_TIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*speclab\.(\S+)\s*$", re.M)


def import_times(log: str) -> dict[str, float]:
    """Seconds each layer module spent importing itself, from ``-X importtime`` lines."""
    times = {layer: 0.0 for layer in layers()}
    for micros, module in IMPORT_TIME.findall(log):
        if module in times:
            times[module] += int(micros) / 1e6
    return times


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = done.stdout.strip() or commit
        except OSError:
            pass  # no git binary: the source digest still identifies the code
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def child_env() -> dict:
    """The caller's environment with src/ first on the path and serial experiments."""
    env = {k: v for k, v in os.environ.items() if k != "SPECLAB_JOBS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], log: Path, env: dict) -> dict:
    """Run one child to completion; wall time, rusage and exit code."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=log.parent, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


class Bench:
    """One run of one workload: its config, oracles, work directory and tallies."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.config = workloads.make_config(workload, seed)
        self.expected = workloads.expected_spectra(self.config, workloads.load_refs())
        self.work = work
        self.env = child_env()
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.first_outputs: dict[str, bytes] | None = None
        self.reps = 0
        self.attempted = 0
        self.failed = 0

    def setup_probe(self) -> dict:
        log = self.work / "setup.log"
        sample = spawn([sys.executable, "-c", SETUP_PROBE, str(self.config_path)], log, self.env)
        imported = Path(log.read_text().strip().splitlines()[-1] if sample["code"] == 0 else "")
        if sample["code"] != 0 or SRC.resolve() not in imported.resolve().parents:
            raise RuntimeError(f"set-up probe did not import speclab from {SRC}:\n{log.read_text()}")
        return sample

    def repetition(self, traced: bool) -> dict:
        """Run the workload once in a fresh process and check what it wrote."""
        self.reps += 1
        out = self.work / f"rep{self.reps}"
        out.mkdir()
        cli = ["report", "--config", str(self.config_path), "--out", str(out)]
        if traced:
            trace_path = self.work / f"trace{self.reps}.json"
            script = str(workloads.HERE / "traced_cli.py")
            cmd = [sys.executable, "-X", "importtime", script, str(trace_path), *cli]
        else:
            cmd = [sys.executable, "-m", "speclab.cli", *cli]
        sample = spawn(cmd, out / "child.log", self.env)
        sample["problems"] = self._check(out, sample["code"])
        if traced and sample["code"] == 0:
            sample["trace"] = json.loads(trace_path.read_text())
            sample["trace"]["imports"] = import_times((out / "child.log").read_text())
        return sample

    def _check(self, out: Path, code: int) -> dict[str, list[str]]:
        outputs = {
            p.name: p.read_bytes() for p in out.iterdir() if p.suffix in (".csv", ".json")
        }
        if self.first_outputs is None:
            self.first_outputs = outputs
        problems = {}
        for exp in self.config["experiments"]:
            found = workloads.check_experiment(exp, out, self.expected)
            if code != 0:
                found.append(f"exit code {code}")
            for suffix in (".spectra.csv", ".report.json"):
                name = exp["name"] + suffix
                if outputs.get(name) != self.first_outputs.get(name):
                    found.append(f"{name} differs from the first repetition")
            self.attempted += 1
            if found:
                self.failed += 1
                problems[exp["name"]] = found
        return problems


def _rep_line(kind: str, index: int, sample: dict) -> str:
    status = "ok" if not sample["problems"] else json.dumps(sample["problems"])
    return (
        f"rep {index} {kind}: wall_s={sample['wall_s']:.4f} cpu_s={sample['cpu_s']:.4f} "
        f"peak_rss_mb={sample['peak_rss_mb']:.1f} {status}"
    )


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    # Set-up probes are spread over the run, one before each repetition,
    # so that they sample the same machine state as the repetitions.
    setup, samples = [], []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        setup.append(bench.setup_probe()["wall_s"])
        samples.append(bench.repetition(traced=False))
        print(_rep_line("untraced", len(samples), samples[-1]))
    while len(setup) < SETUP_SAMPLES:
        setup.append(bench.setup_probe()["wall_s"])
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    values = {name: [s[name] for s in samples] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = setup
    return {
        name: {"value": statistics.median(values[name]), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def _trace_values(trace: dict) -> dict[str, float]:
    """Per-layer metric values of one traced repetition."""
    values = dict(trace["counters"])
    busy = dict(trace["imports"])
    for layer, fn in traced_functions():
        busy[layer] += trace["functions"][f"{layer}.{fn}"]["self_s"]
    everything = sum(busy.values())
    for layer, fn in traced_functions():
        stat = trace["functions"][f"{layer}.{fn}"]
        values[f"{layer}.{fn}.calls"] = stat["calls"]
        values[f"{layer}.{fn}.self_share"] = stat["self_s"] / everything
    for layer in layers():
        values[f"{layer}.import_s"] = trace["imports"][layer]
        values[f"{layer}.self_s"] = busy[layer]
        values[f"{layer}.self_share"] = busy[layer] / everything
    return values


def layer_metrics(traces: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics, each the low median over the traced repetitions.

    The low median is one of the measured values, so counts stay whole.
    """
    per_rep = [_trace_values(t) for t in traces]
    metrics = {}
    for name, unit in per_layer_units().items():
        if name == "trace.overhead_s":
            value = overhead_s
        else:
            value = statistics.median_low(v[name] for v in per_rep)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def measure_layers(bench: Bench, seconds: float) -> dict:
    # A pair of processes costs twice a repetition, so a pair starts only
    # when it is expected to end within the run.
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() + pair_s <= start + seconds:
        pair_start = time.perf_counter()
        plain.append(bench.repetition(traced=False))
        print(_rep_line("untraced", len(plain), plain[-1]))
        traced.append(bench.repetition(traced=True))
        print(_rep_line("traced", len(traced), traced[-1]))
        pair_s = time.perf_counter() - pair_start
    traces = [s["trace"] for s in traced if "trace" in s]
    if not traces:
        raise RuntimeError("no traced repetition finished")
    overhead = statistics.median(s["wall_s"] for s in traced) - statistics.median(
        s["wall_s"] for s in plain
    )
    print(f"tracing overhead: {overhead:.4f} s per process")
    self_s = {key: stat["self_s"] for key, stat in traces[0]["functions"].items()}
    print("traced self_s:", json.dumps(self_s))
    return layer_metrics(traces, overhead)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "speclab" / "cli.py").is_file():
        print(f"bench: no speclab sources under {SRC}", file=sys.stderr)
        return 2
    print("environment:", json.dumps(environment(args.workload, args.seed)))
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = base / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        bench = Bench(args.workload, args.seed, work)
        bench.setup_probe()  # warm-up: compiles bytecode and fills the page cache
        if args.trace:
            metrics = measure_layers(bench, args.seconds)
        else:
            metrics = measure_end_to_end(bench, args.seconds)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    per_process = len(bench.config["experiments"])
    print(f"failed_ratio: {bench.failed}/{bench.attempted} experiments ({per_process} per process)")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
