#!/usr/bin/env python3
"""daisymimo benchmark: three closed-loop workloads with one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``bench/README.md`` for sources and overrides):

``mse_m256``        ``harness.run_mse_sweep``, 100 trials per call.
``ber_m256_16qam``  ``harness.run_ber_sweep``, three SNR points, early stopping.
``slot_m256_c32``   ``chain_sim.build_chain`` + ``simulate_slot`` for rls, sgd
                    and asgd on one 400-RE coherence block.

A run sets up the workload, makes one untimed warm-up call, then times calls
one after another until ``--seconds`` of call time is spent. Every call gets
a master seed derived from ``--seed`` and its index, and its outputs are
checked after the timer stops; a call fails if it raises or a check fails.
Throughputs are those of the run's slowest call (the README says why).

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` alternates untraced and traced calls and prints the per-layer
metrics: spans and kernel counters recorded by wrapping the public functions
of ``harness``, ``signal_model``, ``detectors``, ``chain_sim`` and ``config``
from this directory (no library file changes), an L0/L1 kernel ladder at
K = 8, 16, 64, and the traced / untraced throughput ratio. Spans are written
to ``bench/out/`` when the run ends. A per-layer metric of a layer the
workload does not run is 0.

Every metric is printed as ``metric <name> = <value> <unit>``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os

# Single-threaded BLAS/OpenMP, set before NumPy loads: with default threading
# the same wall time cost twice the CPU time on a 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 7
LOAD_SPEC_REPEATS = 25
LADDER_KS = (8, 16, 64)
LADDER_REPEATS = 7
# A run stops starting calls after this much wall time, whatever --seconds says.
WALL_LIMIT_S = 120.0

TRACED_MODULES = ("harness", "signal_model", "detectors", "chain_sim", "config")
KERNELS = ("rls_step", "sgd_step", "asgd_step", "gamma_update")
CHAIN_ALGS = ("rls", "sgd", "asgd")
# Layers whose share of the traced call time is always printed, 0 when unused.
SHARE_LAYERS = (
    "harness", "signal_model", "detectors.run_chain", "detectors.rls_preprocess",
    "detectors.zf_detect", "detectors.steps_in_chain_sim", "chain_sim", "config",
)
SIM_STATS = ("jobs", "skipped_jobs", "skip_ratio", "busy_ratio", "total_ticks", "pipeline_delay_ticks")

END_TO_END_UNITS = {"trials_per_s": "1/s", "re_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {
        "harness.self_ms_per_trial": "ms",
        "signal_model.draw_ms_per_trial": "ms",
        "signal_model.demodulate_hard.us_per_call": "us",
    }
    units.update({f"detectors.run_chain.{a}.ns_per_antenna": "ns" for a in CHAIN_ALGS})
    units["detectors.rls_preprocess.ns_per_antenna"] = "ns"
    units["detectors.rls_preprocess.useful_ratio"] = "ratio"
    units["detectors.zf_detect.us_per_call"] = "us"
    units.update({f"detectors.kernel_calls.{k}": "count" for k in KERNELS})
    units.update({f"detectors.kernel_ns.{k}": "ns" for k in KERNELS})
    units["chain_sim.simulate_slot.self_us_per_job"] = "us"
    units.update({f"chain_sim.{s}": "ratio" if s.endswith("ratio") else "count" for s in SIM_STATS})
    units["config.load_spec_ms"] = "ms"
    units["trace_overhead"] = "ratio"
    for k in LADDER_KS:
        units.update({f"detectors.run_chain.{a}.k{k}.ns_per_antenna": "ns" for a in CHAIN_ALGS})
        units[f"detectors.rls_preprocess.k{k}.ns_per_antenna"] = "ns"
    return units


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git; "unknown" outside a clone."""
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
    return "unknown"


def setup_probe(name: str, seed: int, size: str) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), size],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


def timed_calls(workload, seed: int, seconds: float, tracer=None, between=None) -> tuple:
    """Closed loop of timed calls; with a tracer, every second call is traced.

    ``between()``, when given, runs after each call, outside the timed region.
    Returns ``(samples, failures)``: one dict per successful call and one
    message per failed call.
    """
    from workloads import master_seed

    samples, failures = [], []
    spent, index, wall_start = 0.0, 1, time.perf_counter()
    while True:
        n_traced = sum(s["traced"] for s in samples)
        balanced = tracer is None or (n_traced and 2 * n_traced == len(samples))
        if spent >= seconds and balanced:
            break
        if (samples or failures) and time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
        traced = tracer is not None and index % 2 == 0
        inputs = workload.prepare(master_seed(seed, index))
        elapsed, start = None, time.perf_counter()
        try:
            with tracer if traced else contextlib.nullcontext():
                if traced:
                    tracer.call_id = index
                start = time.perf_counter()
                result = workload.call(inputs)
                elapsed = time.perf_counter() - start
            errors = workload.check(inputs, result, index)
        except Exception as exc:  # a failed call is counted, not fatal
            errors = [f"raised {exc!r}"]
        spent += time.perf_counter() - start if elapsed is None else elapsed
        if errors:
            failures.append(f"call {index}: {'; '.join(errors)}")
        else:
            sample = {
                "index": index,
                "traced": traced,
                "seconds": elapsed,
                "trials": workload.trials(result),
                "detections": workload.detections(result),
            }
            if hasattr(workload, "sim_stats"):
                sample["jobs"] = workload.sim_stats(result)["jobs"]
            samples.append(sample)
        index += 1
        if between is not None:
            between()
    return samples, failures


def reference_errors(name: str, digest) -> list:
    with open(BENCH / "reference.json") as fh:
        expected = json.load(fh)[name]
    return list(_compare(expected, json.loads(json.dumps(digest)), name))


def _compare(expected, actual, where):
    """Discrete values must match exactly, continuous ones within rtol 1e-9."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            yield f"{where}: keys {sorted(actual)} != {sorted(expected)}"
            return
        for key in expected:
            yield from _compare(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{where}: length {len(actual)} != {len(expected)}"
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from _compare(e, a, f"{where}[{i}]")
    elif isinstance(expected, float) and isinstance(actual, float):
        if not math.isclose(actual, expected, rel_tol=1e-9, abs_tol=0.0):
            yield f"{where}: {actual!r} != {expected!r}"
    elif type(expected) is not type(actual) or expected != actual:
        yield f"{where}: {actual!r} != {expected!r}"


def layer_metrics(workload, tracer, samples) -> tuple:
    """Per-layer metrics and layer time shares of the traced calls."""
    traced = [s for s in samples if s["traced"]]
    calls = {s["index"] for s in traced}
    spans = [sp for sp in tracer.spans if sp["call"] in calls]
    trials = sum(s["trials"] for s in traced)

    def dur(sp):
        return sp["end_ns"] - sp["start_ns"]

    def named(name):
        return [sp for sp in spans if sp["name"] == name]

    def self_ns(group):
        return sum(dur(sp) - sp["child_ns"] for sp in group)

    m = {}
    m["harness.self_ms_per_trial"] = self_ns([sp for sp in spans if sp["name"].startswith("harness.")]) / trials / 1e6
    draws = [sp for sp in spans if sp["name"] in (
        "signal_model.generate_rayleigh_channel", "signal_model.modulate", "signal_model.transmit")]
    m["signal_model.draw_ms_per_trial"] = sum(map(dur, draws)) / trials / 1e6
    demod = named("signal_model.demodulate_hard")
    m["signal_model.demodulate_hard.us_per_call"] = sum(map(dur, demod)) / len(demod) / 1e3 if demod else 0.0
    for alg in CHAIN_ALGS:
        group = [sp for sp in named("detectors.run_chain") if sp["tag"]["algorithm"] == alg]
        rows = sum(sp["tag"]["rows"] for sp in group)
        m[f"detectors.run_chain.{alg}.ns_per_antenna"] = self_ns(group) / rows if rows else 0.0
    prep = named("detectors.rls_preprocess")
    rows = sum(sp["tag"]["rows"] for sp in prep)
    m["detectors.rls_preprocess.ns_per_antenna"] = self_ns(prep) / rows if rows else 0.0
    m["detectors.rls_preprocess.useful_ratio"] = trials * workload.m / rows if rows else 0.0
    zf = named("detectors.zf_detect")
    m["detectors.zf_detect.us_per_call"] = sum(map(dur, zf)) / len(zf) / 1e3 if zf else 0.0
    for k in KERNELS:
        n = tracer.kernel_calls.get(k, 0)
        m[f"detectors.kernel_calls.{k}"] = n / trials
        m[f"detectors.kernel_ns.{k}"] = tracer.kernel_ns[k] / n if n else 0.0
    slots = named("chain_sim.simulate_slot")
    jobs = sum(s.get("jobs", 0) for s in traced)
    slot_self = sum(dur(sp) - sp["child_ns"] - sp["kernel_ns"] for sp in slots)
    m["chain_sim.simulate_slot.self_us_per_job"] = slot_self / jobs / 1e3 if jobs else 0.0

    shares = dict.fromkeys(SHARE_LAYERS, 0)
    for sp in spans:
        module, func = sp["name"].split(".", 1)
        layer = f"detectors.{func}" if module == "detectors" else module
        own = dur(sp) - sp["child_ns"]
        if module == "chain_sim":
            shares["detectors.steps_in_chain_sim"] += sp["kernel_ns"]
            own -= sp["kernel_ns"]
        shares[layer] = shares.get(layer, 0) + own
    total_ns = sum(s["seconds"] for s in traced) * 1e9
    shares = {layer: ns / total_ns for layer, ns in sorted(shares.items(), key=lambda kv: -kv[1])}
    shares["outside_spans"] = 1.0 - sum(shares.values())
    return m, shares


def kernel_ladder(seed: int, repeats: int) -> dict:
    """L0/L1 ladder: whole-array chains and RLS preprocessing at M=256, K = 8, 16, 64."""
    import numpy as np

    from daisymimo import detectors, signal_model
    from workloads import master_seed

    m_antennas, out = 256, {}
    const = signal_model.Constellation.qam(4)
    for k in LADDER_KS:
        s0, s1, s2 = np.random.SeedSequence(master_seed(seed, 10_000 + k)).generate_state(3, np.uint32)
        h = signal_model.generate_rayleigh_channel(m_antennas, k, int(s0))
        bits = "".join("01"[b] for b in np.random.default_rng(int(s1)).integers(0, 2, 2 * k))
        y = signal_model.transmit(h, signal_model.modulate(bits, const, k), 12.0, int(s2))
        mu = 0.32 / k  # the workloads' mu=0.02 at K=16, scaled so mu * |h|^2 stays fixed
        gains = detectors.rls_preprocess(h.entries)
        jobs = {
            "rls_preprocess": lambda: detectors.rls_preprocess(h.entries),
            "run_chain.rls": lambda: detectors.run_chain("rls", h, y, gains),
            "run_chain.sgd": lambda: detectors.run_chain("sgd", h, y, detectors.SgdParams(mu=mu)),
            "run_chain.asgd": lambda: detectors.run_chain("asgd", h, y, detectors.AsgdParams(mu=2 * mu, n0=75)),
        }
        for label, job in jobs.items():
            times = []
            for _ in range(repeats):
                start = time.perf_counter_ns()
                job()
                times.append(time.perf_counter_ns() - start)
            layer, _, alg = label.partition(".")
            name = f"detectors.{layer}.{alg}." if alg else f"detectors.{layer}."
            out[f"{name}k{k}.ns_per_antenna"] = statistics.median(times) / m_antennas
    return out


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full", out=sys.stdout) -> dict:
    """Run one workload and print its metrics; returns the final JSON object."""
    import workloads

    def say(line: str) -> None:
        print(line, file=out, flush=True)

    load_start = os.getloadavg()
    facts = {"workload": name, "seed": seed, "trace": int(trace), "size": size, **machine_facts()}
    # Set-up probes are spread over the run (one before the warm-up, then one
    # after each timed call) so that they sample the machine as the calls do.
    setups = []

    def probe_setup() -> None:
        if not trace and len(setups) < SETUP_REPEATS:
            setups.append(setup_probe(name, seed, size))

    probe_setup()

    workload = workloads.make(name, ROOT, size)
    warm_inputs = workload.prepare(workloads.master_seed(seed, 0))
    warm = workload.call(warm_inputs)
    problems = [f"warm-up: {e}" for e in workload.check(warm_inputs, warm, 0)]
    if seed == DEFAULT_SEED and size == "full":
        problems += reference_errors(name, workload.digest(warm))

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer([importlib.import_module(f"daisymimo.{mod}") for mod in TRACED_MODULES], KERNELS)
    samples, failures = timed_calls(workload, seed, seconds, tracer, probe_setup)
    while not trace and len(setups) < SETUP_REPEATS:
        probe_setup()
    problems += failures
    attempted = len(samples) + len(failures)

    def throughput(key, group, stat=min):
        rates = [s[key] / s["seconds"] for s in group]
        return stat(rates) if rates else 0.0

    units = END_TO_END_UNITS
    if trace:
        metrics, shares = layer_metrics(workload, tracer, samples)
        sim = workload.sim_stats(warm) if hasattr(workload, "sim_stats") else {}
        metrics.update({f"chain_sim.{s}": sim.get(s, 0) for s in SIM_STATS})
        with tracer:
            tracer.call_id = -1
            for _ in range(LOAD_SPEC_REPEATS):
                workloads.config.load_spec(ROOT / workload.source)
        loads = [sp["end_ns"] - sp["start_ns"] for sp in tracer.spans if sp["call"] == -1 and sp["name"] == "config.load_spec"]
        metrics["config.load_spec_ms"] = statistics.median(loads) / 1e6
        plain = [s for s in samples if not s["traced"]]
        traced = [s for s in samples if s["traced"]]
        untraced_rate = throughput("detections", plain, statistics.median)
        metrics["trace_overhead"] = throughput("detections", traced, statistics.median) / untraced_rate if untraced_rate else 0.0
        metrics.update(kernel_ladder(seed, LADDER_REPEATS if size == "full" else 1))
        units = per_layer_units()
        metrics = {key: metrics[key] for key in units}
        for layer, share in shares.items():
            say(f"share {layer} = {share:.4f} of traced call time")
    else:
        metrics = {
            "trials_per_s": throughput("trials", samples),
            "re_per_s": throughput("detections", samples),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    facts["loadavg_start"], facts["loadavg_end"] = load_start, os.getloadavg()
    facts["call_seconds"] = [round(s["seconds"], 4) for s in samples]
    if setups:
        facts["setup_samples_s"] = setups
    if tracer is not None:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace_{name}_seed{seed}_{size}.json", {"facts": facts, "metrics": metrics, "shares": shares})
    say("facts " + json.dumps(facts, default=str))
    for problem in problems:
        say(f"problem {problem}")
    say(f"metric failed_share = {len(failures) / attempted if attempted else 1.0:.4f} share ({len(failures)} of {attempted} calls)")
    for key, value in metrics.items():
        say(f"metric {key} = {value!r} {units[key]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    say(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("mse_m256", "ber_m256_16qam", "slot_m256_c32"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/daisymimo/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}; run from a full source tree", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if result["attempted"] else 1


if __name__ == "__main__":
    sys.exit(main())
