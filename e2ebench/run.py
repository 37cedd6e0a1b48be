#!/usr/bin/env python3
"""cgdnn end-to-end benchmark.

    python3 e2ebench/run.py --workload train_lenet|train_cifar|serve_cifar \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --benchmark-json   # prints BENCHMARK.json

Run from the root of a source checkout. It builds the library and the
e2ebench measuring program (Release) under .bench_build/, runs the self-tests, runs one
workload, checks its outputs, and prints every metric by name with its unit.
The last stdout line is one JSON object: correct, attempted, failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Results and spans are kept under .bench_build/e2ebench/results/.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
RUN_TIMEOUT_S = 170
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
             "avx512vl", "avx512_vnni", "avx512_bf16", "amx_tile",
             "amx_bf16", "amx_int8")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(HERE, "spec.json")) as f:
        return json.load(f)


def per_layer_metrics(spec):
    """[(name, unit, better)] in spec order, groups expanded."""
    out = []
    for group in spec["per_layer_groups"]:
        if "pattern" in group:
            for v in group["values"]:
                out.append((group["pattern"].format(v), group["unit"],
                            group["better"]))
        else:
            out.extend(tuple(n) for n in group["names"])
    return out


def benchmark_json(spec):
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": spec["run_seconds"],
        "workloads": [{"name": k, "why": w["why"]}
                      for k, w in spec["workloads"].items()],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in spec["end_to_end"]],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_metrics(spec)],
    }


# ------------------------------------------------------------------ build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("e2ebench: no cgdnn source tree at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "-j", jobs])
    with open(logfile, "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(logfile) as f:
                    log("".join(f.readlines()[-30:]))
                raise SystemExit("e2ebench: build failed (" + logfile + ")")


def self_tests():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    native = subprocess.run([BINARY, "selftest"], timeout=60)
    if not result.wasSuccessful() or native.returncode != 0:
        raise SystemExit("e2ebench: self-tests failed")


# ------------------------------------------------------------ provenance

def provenance(raw, workload, threads):
    cpu, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and cpu == "unknown":
                    cpu = value.strip()
                elif key == "flags" and not flags:
                    have = set(value.split())
                    flags = [x for x in ISA_FLAGS if x in have]
    except OSError:
        pass
    meta = raw.get("meta", {})
    prov = {
        "workload": workload,
        "buildinfo": meta,
        "build_type": meta.get("build_type", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "workers": raw.get("workers"),
        "cpu_model": cpu,
        "isa_flags": flags,
    }
    if prov["build_type"] != "Release":
        log("WARNING: build type is %r, not Release: timings are not "
            "comparable with Release runs" % prov["build_type"])
    return prov


# ---------------------------------------------------------------- metrics

def train_end_to_end(raw):
    step_p50 = stats.median(raw["step_ms"])
    return {
        "latency_p50_ms": step_p50,
        "throughput_per_s": raw["batch"] * 1e3 / step_p50,
        "latency_1t_p50_ms": stats.median(raw["step_1t_ms"]),
        "eval_batch_p50_ms": stats.median(raw["eval_ms"]),
    }


def request_latencies(raw):
    """Latency from due time per request; a request that was not answered
    OK counts as over any limit (infinite)."""
    req = raw["requests"]
    return [lat if (status == 0 and lat is not None) else math.inf
            for lat, status in zip(req["latency_ms"], req["status"])]


def tail(xs, p, what):
    """stats.percentile, with a warning when fewer than ten samples lie
    beyond p (the highest percentile the sample supports is lower)."""
    if stats.tail_percentile(len(xs)) < p:
        log("WARNING: %s: %d samples support p%s, not p%s" %
            (what, len(xs), stats.tail_percentile(len(xs)), p))
    return stats.percentile(xs, p)


def latency_percentile(raw, p):
    """Request latency percentile; one that lands on a failed request reads
    as the whole offered window (no answer arrived within it)."""
    return min(tail(request_latencies(raw), p, "request latency"),
               raw["window_s"] * 1e3)


def serve_end_to_end(raw):
    good = sum(1 for x in request_latencies(raw) if x <= raw["limit_ms"])
    return {
        "latency_p50_ms": latency_percentile(raw, 50),
        "throughput_per_s": good / raw["window_s"],
        # The server's compute stage: a request forwarded alone, and requests
        # in batches that ran in the max_batch bucket.
        "latency_1t_p50_ms": stats.median(compute_ms(raw, 1, 1)),
        "eval_batch_p50_ms": stats.median(
            compute_ms(raw, raw["max_batch"] // 2 + 1, raw["max_batch"])),
    }


def compute_ms(raw, lo, hi):
    """Compute-stage times (ms) of OK requests in batches of lo..hi."""
    req = raw["requests"]
    return [c * 1e-3 for c, b, s in zip(req["compute_us"], req["batch_size"],
                                        req["status"])
            if s == 0 and lo <= b <= hi]


def end_to_end(raw, wl):
    m = train_end_to_end(raw) if wl["kind"] == "train" \
        else serve_end_to_end(raw)
    m["setup_s"] = stats.median(raw["setup_s"])
    m["peak_rss_mb"] = raw["peak_rss_mb"]
    m["ok_rate"] = 1.0 - raw["failed"] / max(1.0, raw["attempted"])
    return m


class Spans:
    """The run's spans with self times, grouped by the name of their root."""

    def __init__(self, doc):
        self.names = doc["names"]
        self.rows = doc["rows"]  # [name, parent, id, start_us, end_us]
        self.self_us = stats.self_times(
            [(int(r[1]), r[3], r[4]) for r in self.rows])
        self.root = []
        for r in self.rows:
            p = int(r[1])
            self.root.append(self.root[p] if p >= 0 else self.names[int(r[0])])

    def by_iteration(self, root):
        """{iteration id: {span name: [(duration_us, self_us)]}}."""
        out = {}
        for i, r in enumerate(self.rows):
            if self.root[i] != root:
                continue
            per = out.setdefault(int(r[2]), {})
            per.setdefault(self.names[int(r[0])], []).append(
                (r[4] - r[3], self.self_us[i]))
        return out

    def median_self(self, root, name):
        return stats.median([s for it in self.by_iteration(root).values()
                             for _, s in it.get(name, [])])


def span_total(iteration, names):
    """Summed duration (us) of the named spans of one iteration."""
    return sum(d for n in names for d, _ in iteration.get(n, []))


def layer_metrics(m, raw, spans, root, root_1t, threads):
    """layer.*, parallel.*, net.* and trace.* from layer-by-layer spans.
    Returns the iterations that timed Net calls, and the summed median self
    time (us) of all layer calls."""
    layer_sum = 0.0
    for phase in ("fwd", "bwd"):
        for layer in raw["layers"]:
            name = layer["name"]
            us = spans.median_self(root, "layer.%s.%s" % (name, phase))
            if us <= 0:
                continue
            layer_sum += us
            m["layer.%s.%s_us" % (name, phase)] = us
            flops = stats.layer_flops(layer)
            if flops:
                m["layer.%s.%s_gflops" % (name, phase)] = \
                    flops[0 if phase == "fwd" else 1] / (us * 1e3)
            if root_1t and flops:
                us1 = spans.median_self(root_1t, "layer.%s.%s" % (name, phase))
                m["layer.%s.%s_speedup" % (name, phase)] = us1 / us

    lbl = ("lbl.forward", "lbl.backward")
    net = ("net.forward", "net.backward")
    timed = [it for it in spans.by_iteration(root).values()
             if "net.forward" in it]
    layer_spans = sorted({n for it in timed for n in it
                          if n.startswith("layer.")})
    m["net.forward_ms"] = stats.median(
        [span_total(it, ("net.forward",)) for it in timed]) / 1e3
    m["net.backward_ms"] = stats.median(
        [span_total(it, ("net.backward",)) for it in timed]) / 1e3
    m["net.overhead_us"] = stats.median(
        [span_total(it, net) - span_total(it, layer_spans) for it in timed])
    m["trace.overhead_pct"] = stats.median(
        [(span_total(it, lbl) / span_total(it, net) - 1) * 100
         for it in timed])
    if root_1t:
        pass_t = stats.median([span_total(it, lbl) for it in timed])
        pass_1 = stats.median([span_total(it, lbl) for it in
                               spans.by_iteration(root_1t).values()])
        m["parallel.speedup"] = pass_1 / pass_t
        m["parallel.efficiency"] = pass_1 / pass_t / threads
    return timed, layer_sum


def blas_metrics(m, raw):
    for probe in raw["blas"]:
        flops = 2.0 * probe["m"] * probe["n"] * probe["k"]
        for op in ("fwd", "bwd_w", "bwd_d"):
            m["blas.gemm.%s.%s_gflops" % (probe["layer"], op)] = \
                flops / (probe[op + "_us"] * 1e3)
        m["blas.im2col.%s_gbps" % probe["layer"]] = \
            probe["im2col_bytes"] / (probe["im2col_us"] * 1e3)


def train_per_layer(raw, threads, report):
    spans = Spans(raw["spans"])
    m = {}
    timed, layer_sum = layer_metrics(m, raw, spans, "iteration",
                                     "iteration_1t", threads)
    m["solver.update_ms"] = stats.median(
        [span_total(it, ("solver.step",))
         - span_total(it, ("net.clear", "net.forward", "net.backward"))
         for it in timed]) / 1e3
    m["solver.step_p90_ms"] = tail(
        [span_total(it, ("solver.step",)) for it in timed], 90,
        "traced Step(1)") / 1e3
    m["setup.build_ms"] = stats.median(raw["setup_build_ms"])
    m["setup.first_iter_ms"] = stats.median(raw["setup_first_iter_ms"])
    blas_metrics(m, raw)

    # Do layer self times + net overhead + update (+ the diff clear) account
    # for the traced iteration?
    step_ms = stats.median(
        [span_total(it, ("solver.step",)) for it in timed]) / 1e3
    clear_ms = stats.median(
        [span_total(it, ("net.clear",)) for it in timed]) / 1e3
    accounted = ((layer_sum + m["net.overhead_us"]) / 1e3
                 + m["solver.update_ms"] + clear_ms)
    report["accounting"] = {"traced_iter_p50_ms": step_ms,
                            "layers_ms": layer_sum / 1e3,
                            "net_overhead_ms": m["net.overhead_us"] / 1e3,
                            "solver_update_ms": m["solver.update_ms"],
                            "clear_ms": clear_ms,
                            "accounted_ms": accounted}
    log("traced iteration p50 %.3f ms; layers + net overhead + update + clear "
        "= %.3f ms (%+.1f%%)" % (step_ms, accounted,
                                 (accounted / step_ms - 1) * 100))
    return m, spans


def serve_per_layer(raw, threads, report):
    spans = Spans(raw["spans"])
    m = {}
    layer_metrics(m, raw, spans, "deploy_forward", None, threads)
    m["setup.build_ms"] = stats.median(raw["setup_build_ms"])
    m["setup.first_iter_ms"] = stats.median(raw["setup_first_iter_ms"])
    m["plan.build_ms"] = stats.median(raw["plan_build_ms"])
    m["plan.arena_kb"] = raw["plan_arena_bytes"] / 1024.0
    blas_metrics(m, raw)

    req = raw["requests"]
    srv = raw["server"]
    ok = [i for i, s in enumerate(req["status"]) if s == 0]
    # Status codes: 0 ok, 1-2 shed at admission, 3 expired, 4 stalled, 5 error.
    queued = [i for i, s in enumerate(req["status"]) if s not in (1, 2)]
    to_ms = 1e-3
    m["serve.queue_wait_p50_ms"] = stats.percentile(
        [req["queue_wait_us"][i] * to_ms for i in queued], 50)
    m["serve.queue_wait_p99_ms"] = tail(
        [req["queue_wait_us"][i] * to_ms for i in queued], 99, "queue wait")
    m["serve.batch_form_p99_ms"] = tail(
        [req["batch_form_us"][i] * to_ms for i in ok], 99, "batch form")
    m["serve.compute_p50_ms"] = stats.percentile(
        [req["compute_us"][i] * to_ms for i in ok], 50)
    m["serve.compute_p99_ms"] = tail(
        [req["compute_us"][i] * to_ms for i in ok], 99, "compute")
    m["serve.batch_size_mean"] = srv["ok"] / max(1, srv["batches"])
    submitted = max(1, srv["submitted"])
    m["serve.shed_frac"] = srv["shed"] / submitted
    m["serve.expired_frac"] = srv["expired"] / submitted
    lat = request_latencies(raw)
    late = sum(1 for i in range(len(lat))
               if req["status"][i] not in (1, 2) and lat[i] > raw["limit_ms"])
    m["serve.admitted_late_frac"] = late / max(1, srv["admitted"])
    m["serve.latency_p99_ms"] = latency_percentile(raw, 99)
    m["loadgen.lag_p99_ms"] = tail(req["lag_ms"], 99, "send lag")
    report["requests"] = len(lat)
    return m, spans


# -------------------------------------------------------------------- run

def run_program(workload, wl, spec, seed, seconds, trace, threads):
    cmd = [BINARY, wl["kind"], "--seed=%d" % seed, "--seconds=%s" % seconds,
           "--trace=%d" % trace, "--setups=%d" % spec["setups_per_run"]]
    if wl["kind"] == "train":
        cmd += ["--model=" + wl["model"], "--threads=%d" % threads]
    else:
        burst = wl["burst"]
        workers = wl["workers"] if threads >= 3 else 1
        cmd += ["--rate=%s" % wl["rate_rps"], "--limit-ms=%s" % wl["limit_ms"],
                "--burst-period=%s" % burst["period_s"],
                "--burst-spike=%d" % burst["spike"],
                "--workers=%d" % workers, "--max-batch=%d" % wl["max_batch"],
                "--threads=%d" % threads]
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                          timeout=RUN_TIMEOUT_S, cwd=BUILD)
    if proc.returncode != 0:
        raise SystemExit("e2ebench: measuring program exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--benchmark-json", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.benchmark_json:
        print(json.dumps(benchmark_json(spec), indent=2))
        return
    if args.workload not in spec["workloads"]:
        ap.error("--workload must be one of " + ", ".join(spec["workloads"]))
    wl = spec["workloads"][args.workload]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    threads = len(os.sched_getaffinity(0))

    t0 = time.time()
    build()
    log("build ready in %.1f s" % (time.time() - t0))
    self_tests()
    raw = run_program(args.workload, wl, spec, args.seed, seconds, args.trace,
                     threads)

    prov = provenance(raw, args.workload, threads)
    report = {"provenance": prov, "seed": args.seed, "seconds": seconds,
              "trace": args.trace}
    if args.trace:
        fn = train_per_layer if wl["kind"] == "train" else serve_per_layer
        measured, spans = fn(raw, threads, report)
        listed = per_layer_metrics(spec)
    else:
        measured, spans = end_to_end(raw, wl), None
        listed = [(m["name"], m["unit"], m["better"])
                  for m in spec["end_to_end"]]
    # Every listed metric is printed; 0 marks a layer or stage this
    # workload does not exercise.
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit, _ in listed}

    if wl["kind"] == "train" and not args.trace:
        checks = raw["trajectory"]
        correct = raw["failed"] == 0
    elif wl["kind"] == "train":
        checks = {"failed": raw["failed"]}
        correct = raw["failed"] == 0
    else:
        checks = dict(raw["check"], **raw["server"])
        correct = raw["check"]["mismatched"] == 0 and raw["check"]["checked"] > 0
    report["checks"] = checks
    report["metrics"] = metrics

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    if spans is not None:
        with open(os.path.join(results, stem + ".spans.json"), "w") as f:
            json.dump({"names": spans.names,
                       "columns": ["name", "parent", "id", "start_us",
                                   "end_us", "self_us"],
                       "rows": [r + [s] for r, s in
                                zip(spans.rows, spans.self_us)]}, f)

    print("# %s seed=%d trace=%d nproc=%d threads=%d workers=%s build=%s" %
          (args.workload, args.seed, args.trace, prov["nproc"], threads,
           prov["workers"], prov["build_type"]))
    print("# cpu: %s; isa: %s; git: %s" % (prov["cpu_model"],
                                           " ".join(prov["isa_flags"]),
                                           prov["buildinfo"].get("git_sha")))
    print("# checks: %s" % json.dumps(checks))
    for name, entry in metrics.items():
        print("%-32s %14.6g %s" % (name, entry["value"], entry["unit"]))
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
