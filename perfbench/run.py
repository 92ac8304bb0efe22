#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer timing of gpupower.

Run from the repository root:

    python3 perfbench/run.py --workload figure_sweep --seed 42 --seconds 25 --trace 0

Workloads (perfbench/baseline.json records why each was chosen, which
layers it loads, and the pinned work counts):

  figure_sweep   the 14 paper figure sweeps x {fp32, fp16, fp16t, int8} on
                 one engine, n=128, 1 seed, sampled; no store
  fleet_capping  examples/specs/fleet_capping.json (base_seed = --seed) on a
                 fresh engine; no store
  serve_mixed    2 closed-loop clients against `gpowerctl serve --socket`
                 with a fresh, pre-seeded result store

The first run builds perfbench_driver and gpowerctl (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  Every
repetition runs in a fresh process; a run repeats the workload until
--seconds have passed and reports medians.

--trace 0 prints the end-to-end metrics (host time); --trace 1 runs the
workload with each layer's public calls timed from outside the library and
prints the per-layer table and metrics.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Any output check or
exact-count mismatch makes `correct` false and the exit code 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import serve_mix  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench")
SERVE_SETUP_SPAWNS = 2  # extra serve spawns per repetition, set-up only
SERVE_REQUESTS = 500    # per client, per repetition
MIN_REPS = 3

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("req_per_s", "1/s"),
              ("req_p50_ms", "ms"), ("req_p99_ms", "ms"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("inputs.build_ms", "ms"), ("inputs.builds", "count"),
    ("activity.estimate_ms", "ms"), ("activity.calls", "count"),
    ("activity.tiles_walked", "count"), ("activity.ns_per_tile", "ns"),
    ("activity.distinct", "count"), ("activity.useful_ratio", "frac"),
    ("power.evaluate_ms", "ms"), ("telemetry.sample_ms", "ms"),
    ("telemetry.samples", "count"), ("fleet.replay_ms", "ms"),
    ("dvfs.slices", "count"),
    ("engine.submitted", "count"), ("engine.cache_hits", "count"),
    ("engine.jobs_computed", "count"), ("engine.replicas_run", "count"),
    ("engine.queue_wait_ms", "ms"), ("engine.reduce_ms", "ms"),
    ("engine.worker_busy_frac", "frac"),
    ("store.open_ms", "ms"), ("store.load_ms", "ms"), ("store.save_ms", "ms"),
    ("store.hits", "count"), ("store.writes", "count"),
    ("store.hit_ratio", "frac"), ("store.bytes", "B"),
    ("spec.parse_ms", "ms"), ("spec.points", "count"),
    ("dag.nodes", "count"), ("dag.overhead_ms", "ms"),
    ("json.parse_ms", "ms"), ("json.dump_ms", "ms"),
    ("serve.accept_ms_p50", "ms"), ("serve.first_result_ms_p50", "ms"),
    ("serve.frame_ms", "ms"), ("serve.bytes_streamed", "B"),
    ("serve.dedup_hits", "count"), ("rss_growth_mb", "MB"),
    ("trace_overhead_frac", "frac"), ("unattributed_frac", "frac"),
]

# Timed layers of the outside-in replica recomposition, in pipeline order.
REPLICA_LAYERS = ["inputs.build_ms", "activity.estimate_ms", "power.evaluate_ms",
                  "telemetry.sample_ms", "fleet.replay_ms"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail_setup(message):
    log("perfbench: " + message)
    sys.exit(2)


# --- build ------------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src", "tools/gpowerctl.cpp",
                 "examples/specs/fleet_capping.json", "BENCH_fleet.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail_setup("run from the repository root (missing %s)" % need)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_driver", "gpowerctl"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            fail_setup("build step failed: " + " ".join(step))
    driver = os.path.join(BUILD, "perfbench_driver")
    gpowerctl = os.path.join(BUILD, "tools", "gpowerctl")
    for path in (driver, gpowerctl):
        if not os.path.exists(path):
            fail_setup("build did not produce " + path)
    return driver, gpowerctl


def files_hash(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


# --- statistics -------------------------------------------------------------

def percentile(values, q):
    """Linear interpolation between order statistics, q in [0, 1]."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def median(values):
    return statistics.median(values)


class Verdict:
    """Output checks: every failed check is recorded, none is fatal early."""

    def __init__(self):
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def check(self, ok, message, failed=1):
        if not ok:
            self.problems.append(message)
            self.failed += failed
        return ok


def check_counts(verdict, label, counts, pinned):
    for key, want in pinned.items():
        got = counts.get(key)
        verdict.check(got == want, "%s: %s = %s, pinned %s" % (label, key, got, want))


def check_digest(verdict, baseline, workload, seed, digest, bin_hash):
    """The result digest must match the one pinned for this seed, if any,
    and repeat across runs of one seed and build."""
    verdict.digest = digest
    pinned = baseline["workloads"][workload]["digests"].get(str(seed))
    if pinned is not None:
        verdict.check(digest == pinned, "result digest %s differs from the one "
                      "pinned for seed %d (%s)" % (digest, seed, pinned))
    directory = os.path.join(BUILD, "digests")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-%d-%s" % (workload, seed, bin_hash))
    if os.path.exists(path):
        with open(path) as f:
            previous = f.read().strip()
        verdict.check(previous == digest,
                      "result digest %s differs from an earlier run's %s"
                      % (digest, previous))
    else:
        with open(path, "w") as f:
            f.write(digest + "\n")


def repeat(seconds, min_reps, once):
    """One warm-up call, then once() until `seconds` have passed (at least
    min_reps times).  The warm-up is checked like every repetition but not
    timed: the first process after an idle spell runs cold."""
    warmup = once()
    reps = []
    start = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        reps.append(once())
    return warmup, reps


# --- batch workloads --------------------------------------------------------

def run_driver(args, timeout=170):
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=timeout, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(args[:3]), done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(reps, setups, latencies):
    """End-to-end metrics over timed repetitions, each the median across
    repetitions; a latency percentile is taken within each repetition first,
    so a repetition hit by outside load moves it no more than any other."""
    e2e = {
        "setup_s": median(setups),
        "wall_s": median([rep["wall_s"] for rep in reps]),
        "req_per_s": median([len(l) / rep["wall_s"] for rep, l in zip(reps, latencies)]),
        "req_p50_ms": median([percentile(l, 0.50) for l in latencies]),
        "req_p99_ms": median([percentile(l, 0.99) for l in latencies]),
        "peak_rss_mb": median([rep["peak_rss_kb"] / 1024 for rep in reps]),
    }
    samples = {"setup_s": len(setups), "wall_s": len(reps), "req_per_s": len(reps),
               "req_p50_ms": len(latencies[0]), "req_p99_ms": len(latencies[0]),
               "peak_rss_mb": len(reps)}
    return e2e, samples


def batch(opts, driver, baseline, verdict, bin_hash):
    def once():
        args = [driver, "batch", "--workload", opts.workload, "--seed",
                str(opts.seed), "--root", ROOT]
        return run_driver(args + (["--trace"] if opts.trace else []))

    warmup, reps = repeat(opts.seconds, 2 if opts.trace else MIN_REPS, once)
    pinned = baseline["workloads"][opts.workload]["pinned_counts"]
    for i, rep in enumerate([warmup] + reps):
        verdict.attempted += rep["points"]
        verdict.check(not rep["errors"], "rep %d: %s" % (i, "; ".join(rep["errors"][:5])),
                      failed=min(rep["points"], len(rep["errors"])))
        verdict.check(rep["digest"] == warmup["digest"],
                      "rep %d: result digest differs within one seed" % i)
        for counts in (rep["counts"], rep.get("layers", {})):
            check_counts(verdict, "rep %d" % i, counts,
                         {k: v for k, v in pinned.items() if k in counts})
    check_digest(verdict, baseline, opts.workload, opts.seed, warmup["digest"], bin_hash)

    setups = [s for rep in reps for s in rep["setup_s"]]
    e2e, samples = end_to_end(reps, setups, [rep["latency_ms"] for rep in reps])
    layer = None
    if opts.trace:
        layer = batch_layers(reps)
    return e2e, samples, layer, len(reps), warmup["workers"]


def replica_layers(layers):
    """Shares and closure of the outside-in replica recomposition.  The
    closure is against the library's own replica time (replica_ms); it is
    not clipped, so a negative value means the timed layer calls took longer
    than the program's replicas did."""
    attributed = sum(layers[name] for name in REPLICA_LAYERS)
    return {
        "activity.ns_per_tile": layers["activity.estimate_ms"] * 1e6
        / max(1, layers["activity.tiles_walked"]),
        "activity.useful_ratio": layers["activity.distinct"]
        / max(1, layers["activity.calls"]),
        "unattributed_frac": 1.0 - attributed / layers["replica_ms"]
        if layers["replica_ms"] > 0 else 0.0,
        "trace_overhead_frac": layers["traced_wall_s"] / layers["untraced_wall_s"] - 1.0,
    }


def batch_layers(reps):
    per_rep = []
    for rep in reps:
        if "layers" not in rep:  # a repetition that failed its output checks
            continue
        layers = dict(rep["layers"])
        layers.update(rep["counts"])
        layers.update(replica_layers(layers))
        layers["rss_growth_mb"] = (rep["rss_end_kb"] - rep["rss_tenth_kb"]) / 1024
        per_rep.append(layers)
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        values = [layers[name] for layers in per_rep if name in layers]
        if values:
            out[name] = median(values)
    if not per_rep:
        out["replica_ms"] = 0.0
        return out
    out["replica_ms"] = median([layers["replica_ms"] for layers in per_rep])
    # Exact counts repeat on every repetition (checked); report them as is.
    out.update({name: per_rep[0][name] for name, unit in PER_LAYER
                if unit == "count" and name in per_rep[0]})
    return out


# --- serve_mixed ------------------------------------------------------------

def proc_status_kb(pid, field):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def dir_bytes(path):
    total = 0
    for entry in os.scandir(path):
        if entry.is_file():
            total += entry.stat().st_size
    return total


def serve_env(store):
    """gpowerctl's environment: no inherited GPUPOWER_* knobs (so the
    engine runs one worker per hardware thread, untraced), and the store."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPUPOWER_")}
    env["GPUPOWER_STORE_DIR"] = store
    return env


class Server:
    """One `gpowerctl serve --socket` process on a given store directory."""

    def __init__(self, gpowerctl, store, sock):
        self.sock = os.path.relpath(sock, ROOT)
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen([gpowerctl, "serve", "--socket", self.sock],
                                     cwd=ROOT, env=serve_env(store),
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        try:
            self.control = serve_mix.Connection(self.sock, time.monotonic() + 30)
            self.control.stats()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.monotonic() - self.t_spawn

    def stop(self):
        self.control.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if os.path.exists(self.sock):
            os.unlink(self.sock)


def quiesced_stats(control):
    """Engine stats once the server is idle.  The last done event can reach
    the client before the engine has counted that job's store write-back, so
    poll until two snapshots agree and every computed job is written."""
    previous = None
    deadline = time.monotonic() + 5
    while True:
        stats = control.stats()["metrics"]["engine"]
        counters = {k: v for k, v in stats.items() if not k.endswith("seconds")}
        settled = counters == previous and stats["store_writes"] == stats["jobs_computed"]
        if settled or time.monotonic() > deadline:
            return stats
        previous = counters
        time.sleep(0.01)


def serve_rep(mix, gpowerctl, template, work, index):
    store = os.path.join(work, "store%d" % index)
    if os.path.exists(store):
        shutil.rmtree(store)
    shutil.copytree(template, store)
    setups = []
    for k in range(SERVE_SETUP_SPAWNS):
        probe = Server(gpowerctl, store, os.path.join(work, "p%d.sock" % k))
        setups.append(probe.setup_s)
        probe.stop()
    server = Server(gpowerctl, store, os.path.join(work, "s.sock"))
    setups.append(server.setup_s)
    try:
        total = len(mix.lines)
        progress = {"done": 0, "rss_tenth_kb": 0}
        lock = threading.Lock()

        def on_progress():
            with lock:
                progress["done"] += 1
                if progress["done"] == max(1, total // 10):
                    progress["rss_tenth_kb"] = proc_status_kb(server.proc.pid, "VmRSS")

        loop = serve_mix.ClosedLoop(mix, server.sock, on_progress)
        t_end = loop.run()
        rss_end = proc_status_kb(server.proc.pid, "VmRSS")
        peak = proc_status_kb(server.proc.pid, "VmHWM")
        stats = quiesced_stats(server.control)
    finally:
        server.stop()
    return {
        "setup_s": setups,
        "wall_s": t_end - loop.first_write,
        "loop": loop,
        "stats": stats,
        "peak_rss_kb": peak,
        "rss_growth_mb": (rss_end - progress["rss_tenth_kb"]) / 1024,
        "store": store,
        "store_bytes": dir_bytes(store),
    }


def event_digest(loop):
    h = hashlib.sha256()
    for index in sorted(loop.events):
        for line in sorted(loop.events[index]):
            h.update(("%d\t%s\n" % (index, line)).encode())
    return h.hexdigest()[:16]


def serve(opts, driver, gpowerctl, baseline, verdict, bin_hash):
    mix = serve_mix.Mix(opts.seed, SERVE_REQUESTS)
    work = os.path.join(BUILD, "serve", str(os.getpid()))
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    try:
        lines_path = os.path.join(work, "lines.ndjson")
        with open(lines_path, "w") as f:
            f.write("\n".join(mix.lines) + "\n")
        # Pre-seed: serve the preseed lines over stdin into the template
        # store, which every repetition copies.
        template = os.path.join(work, "template")
        seeded = subprocess.run([gpowerctl, "serve"], cwd=ROOT,
                                env=serve_env(template),
                                input="\n".join(mix.preseed) + "\n",
                                stdout=subprocess.DEVNULL, stderr=sys.stderr,
                                text=True, timeout=120)
        if seeded.returncode != 0:
            raise RuntimeError("pre-seeding serve exited %d" % seeded.returncode)

        counter = [0]

        def once():
            counter[0] += 1
            return serve_rep(mix, gpowerctl, template, work, counter[0])

        warmup, reps = repeat(opts.seconds, MIN_REPS, once)
        pinned = baseline["workloads"]["serve_mixed"]["pinned_counts"]
        digest = None
        for i, rep in enumerate([warmup] + reps):
            loop = rep["loop"]
            verdict.attempted += len(mix.lines)
            verdict.check(not loop.errors, "rep %d: %s" % (i, "; ".join(loop.errors)),
                          failed=len(mix.lines) - len(loop.events))
            counts = serve_counts(rep)
            check_counts(verdict, "rep %d" % i, counts,
                         {k: v for k, v in pinned.items() if k in counts})
            rep["counts"] = counts
            d = event_digest(loop)
            digest = digest or d
            verdict.check(d == digest, "rep %d: serve events differ within one seed" % i)
        check_digest(verdict, baseline, opts.workload, opts.seed, digest, bin_hash)

        # Every result / node event of the first repetition against the same
        # lines run in-process.
        events_path = os.path.join(work, "events.tsv")
        with open(events_path, "w") as f:
            for index, lines in sorted(warmup["loop"].events.items()):
                for line in lines:
                    f.write("%d\t%s\n" % (index, line))
        check = [driver, "serve-check", "--lines", lines_path, "--events",
                 events_path]
        if opts.trace:
            check += ["--trace", "--store", reps[-1]["store"]]
        checked = run_driver(check)
        verdict.check(not checked["failures"], "; ".join(checked["failures"][:5]),
                      failed=len(checked["failures"]))
        check_counts(verdict, "in-process", checked,
                     {k: v for k, v in pinned.items() if k in ("spec.points", "dag.nodes")})
        verdict.check(not checked.get("trace_errors"),
                      "; ".join(checked.get("trace_errors", [])[:5]))

        setups = [s for rep in reps for s in rep["setup_s"]]
        e2e, samples = end_to_end(
            reps, setups, [[t[2] for t in rep["loop"].timing.values()] for rep in reps])
        layer = serve_layers(reps, checked, mix) if opts.trace else None
        return e2e, samples, layer, len(reps), warmup["stats"]["workers"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def serve_counts(rep):
    stats = rep["stats"]
    events = [json.loads(line) for lines in rep["loop"].events.values()
              for line in lines]
    return {
        "engine.submitted": stats["submitted"],
        "engine.cache_hits": stats["cache_hits"],
        "engine.jobs_computed": stats["jobs_computed"],
        "engine.replicas_run": stats["replicas_run"],
        "store.hits": stats["store_hits"],
        "store.writes": stats["store_writes"],
        "serve.requests": sum(1 for e in events if e["type"] == "done"),
        "serve.result_events": sum(1 for e in events if e["type"] == "result"),
        "serve.node_events": sum(1 for e in events if e["type"] == "node"),
    }


def serve_layers(reps, checked, mix):
    out = {name: 0.0 for name, _ in PER_LAYER}
    layers = dict(checked["layers"])
    layers.update(replica_layers(layers))
    for name in out:
        if name in layers:
            out[name] = layers[name]
    out["replica_ms"] = layers["replica_ms"]
    out["spec.points"] = checked["spec.points"]
    out["dag.nodes"] = checked["dag.nodes"]

    per_rep = []
    for rep in reps:
        stats, loop = rep["stats"], rep["loop"]
        timing = list(loop.timing.values())
        lookups = stats["submitted"] - stats["cache_hits"]
        wall = rep["wall_s"]
        served = {
            "engine.queue_wait_ms": stats["queue_wait_seconds"] * 1e3,
            "engine.reduce_ms": stats["reduce_seconds"] * 1e3,
            "engine.worker_busy_frac": stats["compute_seconds"]
            / (stats["workers"] * wall),
            "store.load_ms": stats["store_read_seconds"] * 1e3,
            "store.save_ms": stats["store_write_seconds"] * 1e3,
            "store.hit_ratio": stats["store_hits"] / max(1, lookups),
            "store.bytes": rep["store_bytes"],
            "serve.accept_ms_p50": percentile([t[0] for t in timing], 0.5),
            "serve.first_result_ms_p50": percentile(
                [t[1] for t in timing if t[1] is not None], 0.5),
            "serve.bytes_streamed": loop.bytes_read,
            "serve.dedup_hits": stats["cache_hits"],
            "rss_growth_mb": rep["rss_growth_mb"],
        }
        served.update(rep["counts"])
        # Closure over request time: server-side engine and store seconds
        # plus the outside-in parse/frame/dag time, against the summed
        # write -> done latencies of the stream.
        attributed_ms = (stats["compute_seconds"] + stats["queue_wait_seconds"]
                         + stats["reduce_seconds"] + stats["store_read_seconds"]
                         + stats["store_write_seconds"]) * 1e3 + sum(
            layers[k] for k in ("json.parse_ms", "spec.parse_ms",
                                "serve.frame_ms", "dag.overhead_ms"))
        request_ms = sum(t[2] for t in timing)
        served["unattributed_frac"] = 1.0 - attributed_ms / request_ms
        per_rep.append(served)
    for name in per_rep[0]:
        if name in out:
            out[name] = median([r[name] for r in per_rep])
    # Exact counts repeat on every repetition (checked); report them as is.
    out.update({k: v for k, v in reps[0]["counts"].items() if k in out})
    return out


# --- report -----------------------------------------------------------------

def print_table(opts, e2e, samples, layer, reps, workers, verdict):
    print("perfbench %s seed=%d: %d repetition(s), %d worker(s)"
          % (opts.workload, opts.seed, reps, workers))
    if layer is None:
        for name, unit in END_TO_END:
            extra = ""
            if name in ("req_p50_ms", "req_p99_ms"):
                beyond = int(samples[name] * (1 - int(name[5:7]) / 100))
                extra = " per repetition (%d beyond%s), median of %d" % (
                    beyond, "" if beyond >= 10 else ", fewer than 10",
                    samples["wall_s"])
            print("  %-14s %14.6g %-4s n=%d%s" % (name, e2e[name], unit,
                                                  samples[name], extra))
    else:
        total = layer["replica_ms"]
        print("  replica recomposition (thread-time across workers): %.1f ms" % total)
        print("  %-22s %12s %8s" % ("layer", "self_ms", "share"))
        for name in REPLICA_LAYERS:
            share = layer[name] / total if total else 0.0
            print("  %-22s %12.3f %7.1f%%" % (name[:-3], layer[name], 100 * share))
        rest = total - sum(layer[name] for name in REPLICA_LAYERS)
        print("  %-22s %12.3f %7.1f%%" % ("(unattributed)", rest,
                                          100 * rest / total if total else 0.0))
        for name, unit in PER_LAYER:
            if name not in REPLICA_LAYERS:
                print("  %-26s %14.6g %s" % (name, layer[name], unit))
    print("  result digest %s" % verdict.digest)
    for problem in verdict.problems[:20]:
        print("  CHECK FAILED: " + problem)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["figure_sweep", "fleet_capping", "serve_mixed"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args()

    driver, gpowerctl = build()
    bin_hash = files_hash([driver, gpowerctl] + sorted(
        os.path.join(HERE, name) for name in os.listdir(HERE) if name.endswith(".py")))
    with open(os.path.join(HERE, "baseline.json")) as f:
        baseline = json.load(f)
    verdict = Verdict()
    try:
        if opts.workload == "serve_mixed":
            e2e, samples, layer, reps, workers = serve(
                opts, driver, gpowerctl, baseline, verdict, bin_hash)
        else:
            e2e, samples, layer, reps, workers = batch(
                opts, driver, baseline, verdict, bin_hash)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1

    print_table(opts, e2e, samples, layer, reps, workers, verdict)
    names = PER_LAYER if opts.trace else END_TO_END
    values = layer if opts.trace else e2e
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
