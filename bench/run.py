"""fsqubit benchmark: one workload and one seed, end to end or traced.

    python3 bench/run.py --workload dynamics --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from the
checkout's `src`.  It prints every metric by name with its unit, then the
machine record, and as the last stdout line one JSON object with the keys
correct, attempted, failed and metrics.  `--trace 0` reports the end-to-end
metrics named in BENCHMARK.json, measured with tracing off and scaled to
the baseline machine's speed by a reference kernel; `--trace 1`
reports its per-layer metrics from pairs of an untraced and a traced pass,
interleaved item by item.  `attempted` and `failed` count the program's own preset
checks and the analysis truth checks.  The exit code is 1 when a check
fails and 2 when the package or BENCHMARK.json is missing.

One pass runs every item of the workload once, in order, starting with a
warm-up pass.  Passes then repeat until about `--seconds` have been
measured: another pass starts only while it is expected to end less than
half a pass past the limit.  The warm-up pass is timed but left out of
the per-item medians that the times are made of, so that a slow first call
drops out.  Each run also writes its full record and, when traced, the raw
spans under bench/_work/<workload>/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One BLAS thread, set before numpy is first imported here or in a probe.
# With the library default of one thread per core, OpenBLAS spins on both
# cores of a 2-core shared machine, and a run times the scheduler: per-item
# times then varied by half between runs of the same code.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_ENV:
    os.environ[_var] = "1"

SETUP_PROBES = 5
# The reference kernel's median seconds on the 2-vCPU Intel Xeon (SkylakeX,
# OpenBLAS 0.3.31, one thread) machine that recorded bench/baseline.json.
REF_S = 0.015
REF_EVERY_S = 0.5
SETUP_REF_SAMPLES = 3  # reference samples before, between and after the probes
PROBE_TIMEOUT_S = 120
# Imported packages reported with their cumulative import time; fsqubit
# modules are reported with their own (self) import time.
THIRD_PARTY = ("numpy", "scipy.signal", "scipy.stats", "scipy.optimize")


@dataclass
class Pass:
    """Per-item wall and CPU seconds of one pass, and its checks."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    tracer: object = None  # the Tracer of a traced pass

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


def run_item(item, p: Pass) -> None:
    """Run and time one item, then evaluate its checks untimed into `p`."""
    if p.tracer is not None:
        p.tracer.install()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a failed item is counted, and the pass goes on
            out = exc
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if p.tracer is not None:
            p.tracer.remove()
    p.walls.append(wall)
    p.cpus.append(cpu)
    if isinstance(out, Exception):
        p.attempted += 1
        p.failures.append(f"{item.label}: raised " + "".join(
            traceback.format_exception(type(out), out, out.__traceback__)).rstrip())
        return
    n, bad = item.evaluate(out)
    p.attempted += n
    p.failures += bad


class Reference:
    """A fixed kernel that uses no fsqubit code, timed between items.

    This 2-core machine is shared, and its speed drifts by up to half
    within minutes, longer than a run.  The kernel mixes what the workloads
    do (small complex `expm`s, 169x169 `expm`s, an interpreter loop), so
    the host's speed during a run slows it by about as much.  Scaling a time
    by REF_S over the kernel's median time during the same run reports it
    at the speed of the baseline machine.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = 0.1 * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        self.large = 0.01 * rng.standard_normal((169, 169))
        self.samples: list[float] = []
        self.last = -float("inf")

    def sample(self) -> None:
        from scipy.linalg import expm

        t0 = time.perf_counter()
        for _ in range(100):
            expm(self.small)
        for _ in range(2):
            expm(self.large)
        acc = 0
        for i in range(40000):
            acc += i * i % 7
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def maybe_sample(self) -> None:
        """Sample when REF_EVERY_S have passed since the last sample."""
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def scale(self) -> float:
        return REF_S / statistics.median(self.samples)


def run_pass(items, ref: Reference | None = None) -> list[Pass]:
    p = Pass()
    for item in items:
        if ref is not None:
            ref.maybe_sample()
        run_item(item, p)
    return [p]


def run_pair(items) -> list[Pass]:
    """An untraced and a traced pass, interleaved item by item, so that the
    two runs of an item are seconds apart and host drift between them stays
    small."""
    from tracer import Tracer

    untraced, traced = Pass(), Pass(tracer=Tracer())
    for item in items:
        run_item(item, untraced)
        run_item(item, traced)
    return [untraced, traced]


def measure(unit, seconds: float) -> list[Pass]:
    """Repeat `unit` (returning a list of passes) until about `seconds` are measured."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        a = time.perf_counter()
        passes += unit()
        took = time.perf_counter() - a
        if time.perf_counter() - start + took / 2 > seconds:
            return passes


def item_medians(passes: list[Pass], attr: str) -> list[float]:
    """Per item, the median of its times over `passes`."""
    return [statistics.median(col) for col in zip(*(getattr(p, attr) for p in passes))]


def probe(workload: str, seed: int, importtime: bool = False) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "probe.py"), workload, str(seed)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)


def module_prefix(module: str) -> str:
    return module if module == "fsqubit" else module.removeprefix("fsqubit.")


def import_metrics(stderr: str) -> dict[str, float]:
    """`<module>.import_s` from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cum_us, name = (x.strip() for x in line[len("import time:"):].split("|"))
        if not self_us.isdigit():
            continue  # the header line
        if name == "fsqubit" or name.startswith("fsqubit."):
            out[f"{module_prefix(name)}.import_s"] = int(self_us) / 1e6
        elif name in THIRD_PARTY:
            out[f"{name}.import_s"] = int(cum_us) / 1e6
    return out


def line_metrics() -> dict[str, int]:
    """`<module>.lines` for each fsqubit module and `src.lines` for all of src/."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        n = len(path.read_text(encoding="utf-8").splitlines())
        out["src.lines"] = out.get("src.lines", 0) + n
        if parts[0] == "fsqubit" and n:  # an empty __init__ has nothing to count
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            out[f"{module_prefix(module)}.lines"] = n
    return out


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process, with their thread counts."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in info:
                    get_threads.restype = ctypes.c_int
                    info["threads"] = get_threads()
                if get_config is not None and "config" not in info:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
        found.append(info)
    return found


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": _blas_libraries(),
        "thread_env": {k: os.environ[k] for k in BLAS_THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src.lines": line_metrics()["src.lines"],
    }


def end_to_end(passes: list[Pass], setup: list[float], setup_ref: Reference,
               pass_ref: Reference) -> tuple[dict[str, float], dict[str, float]]:
    """Each time is a median over its repetitions, scaled to the baseline
    machine's speed by the reference kernel timed in the same phase of the
    run: set-up over the probes, and wall and CPU seconds summed over the
    items of each item's median over the measured passes.

    The host's speed also flips within seconds between a fast and a slow
    state.  The least time of an item depends on whether a fast spell
    happened to cover it, and it varied more between runs than the median.

    Returns the metrics and, for the record, the times before scaling with
    the kernel's medians.
    """
    unscaled = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(item_medians(passes, "walls")),
        "cpu_s": sum(item_medians(passes, "cpus")),
        "setup_ref_s": statistics.median(setup_ref.samples),
        "pass_ref_s": statistics.median(pass_ref.samples),
    }
    values = {
        "setup_s": unscaled["setup_s"] * setup_ref.scale(),
        "wall_s": unscaled["wall_s"] * pass_ref.scale(),
        "cpu_s": unscaled["cpu_s"] * pass_ref.scale(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, unscaled


def per_layer(figures, untraced: list[Pass], traced: list[Pass], imports: dict) -> dict:
    """Per-layer metrics from pairs of untraced and traced passes.  Analysed
    traces come first in a pass and presets last, in `figures` order."""
    from tracer import LAYERS, wrapper_cost

    def med(values):
        return statistics.median(list(values))

    spans = [p.tracer.summary() for p in traced]
    # A span that wraps nothing any more is left out, and so reported absent.
    out = {}
    for name in LAYERS:
        if name in traced[0].tracer.installed:
            out[f"{name}_calls"] = med(s.get(name, {}).get("calls", 0) for s in spans)
            out[f"{name}_self_s"] = med(s.get(name, {}).get("self_s", 0.0) for s in spans)
    if "dsp.extract_rabi_calls" in out:
        out["dsp.extract_rabi_s"] = med(s.get("dsp.extract_rabi", {}).get("incl_s", 0.0)
                                        for s in spans)
    if out.get("harness.csv_write_calls"):
        out["harness.csv_bytes_written"] = med(
            p.tracer.counters["harness.csv_bytes_written"] for p in traced)
    if out.get("dsp.nlls_calls"):
        out["dsp.nlls_iterations"] = med(p.tracer.counters["dsp.nlls_iterations"] for p in traced)
        out["dsp.nlls_converged_ratio"] = med(
            p.tracer.counters["dsp.nlls_converged"] / s["dsp.nlls"]["calls"]
            for p, s in zip(traced, spans))
    n_traces = len(untraced[0].walls) - len(figures)
    for fig, t in zip(figures, item_medians(untraced, "walls")[n_traces:]):
        out[f"presets.{fig}_s"] = t
    if n_traces:
        cut = statistics.quantiles([x for p in untraced for x in p.walls[:n_traces]],
                                   n=20, method="inclusive")
        out["analysis.trace_p50_ms"] = 1e3 * cut[9]
        out["analysis.trace_p95_ms"] = 1e3 * cut[18]
    # Accounting, per pair: traced wall = self_sum + unwrapped by definition,
    # and traced wall - overhead - untraced wall = gap, the drift the pair
    # leaves unexplained.  The overhead is the wrapper's cost per call, timed
    # in this process, times the calls the traced pass made.
    cost = wrapper_cost()
    self_sum = [sum(v["self_s"] for v in s.values()) for s in spans]
    overhead = [cost * sum(v["calls"] for v in s.values()) for s in spans]
    out["trace.untraced_wall_s"] = med(p.wall_s for p in untraced)
    out["trace.traced_wall_s"] = med(p.wall_s for p in traced)
    out["trace.wrapper_cost_us"] = 1e6 * cost
    out["trace.overhead_s"] = med(overhead)
    out["trace.self_sum_s"] = med(self_sum)
    out["trace.unwrapped_s"] = med(t.wall_s - s for t, s in zip(traced, self_sum))
    out["trace.gap_s"] = med(t.wall_s - o - u.wall_s
                             for u, t, o in zip(untraced, traced, overhead))
    out.update(imports)
    out.update(line_metrics())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fsqubit" / "__init__.py").is_file():
        print(f"error: no fsqubit package under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(SRC))
    import fsqubit
    import workloads

    if Path(fsqubit.__file__).resolve().parent != SRC / "fsqubit":
        print(f"error: imported fsqubit from {fsqubit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workdir = BENCH / "_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    items = workloads.build_items(args.workload, args.seed, workdir)

    [warmup] = run_pass(items)
    if args.trace:
        passes = measure(lambda: run_pair(items), args.seconds)
        untraced = [p for p in passes if p.tracer is None]
        traced = [p for p in passes if p.tracer is not None]
        imports = import_metrics(probe(args.workload, args.seed, importtime=True).stderr)
        values = per_layer(workloads.WORKLOADS[args.workload], untraced, traced, imports)
        wanted = spec["per_layer"]
        missing_code = sorted({m for p in traced for m in p.tracer.missing})
        unscaled = {}
    else:
        setup_ref, pass_ref = Reference(), Reference()
        setup = []
        for _ in range(SETUP_PROBES):
            for _ in range(SETUP_REF_SAMPLES):
                setup_ref.sample()
            setup.append(float(probe(args.workload, args.seed).stdout))
        for _ in range(SETUP_REF_SAMPLES):
            setup_ref.sample()
        passes = measure(lambda: run_pass(items, pass_ref), args.seconds)
        values, unscaled = end_to_end(passes, setup, setup_ref, pass_ref)
        wanted = spec["end_to_end"]
        missing_code = []

    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent and not args.trace:
        print(f"error: end-to-end metrics not measured: {absent}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    attempted = sum(p.attempted for p in [warmup, *passes])
    failures = [f for p in [warmup, *passes] for f in p.failures]
    machine = machine_record()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "machine": machine,
        "metrics": metrics, "unscaled": unscaled, "absent": absent,
        "missing_code": missing_code,
        "item_wall_s": [p.walls for p in [warmup, *passes]], "failures": failures,
    }
    if args.trace:
        record["spans_by_pass"] = [p.tracer.summary() for p in traced]
        (workdir / "spans.json").write_text(json.dumps([p.tracer.spans for p in traced]))
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}{'  (absent)' if name in absent else ''}")
    if unscaled:
        print("unscaled: " + json.dumps(unscaled))
    print(f"passes = {len(passes)}, checks attempted = {attempted}, failed = {len(failures)}")
    print("machine: " + json.dumps(machine))
    for line in failures:
        print(f"FAILED CHECK: {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
