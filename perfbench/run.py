#!/usr/bin/env python3
"""The repository benchmark: builds the harness, runs one workload and
prints its metrics as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload warehouse --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout. The harness (harness.cpp) is built
from ../src into $CARGO_TARGET_DIR/perfbench (default .bench_build). The
seed picks one input family of the workload (seed mod the number of
families in pins.json); every run is checked against that family's
pinned event count, trace digest and known failures. A run whose
outputs differ from the pins prints "correct": false.

    python3 perfbench/run.py --repin warehouse

re-runs every family of a workload once and rewrites its pins; use it
only for a change that is meant to alter simulated behaviour.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
GIB = float(1 << 30)

# Some warehouse families page a few MiB cluster-wide; that is incidental
# next to the tens of GiB a single contended cell pages.
WAREHOUSE_MAX_PAGED_OUT_GIB = 1.0


class Fatal(Exception):
    """The benchmark could not run; no result is printed."""


# --- statistics ---------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def pct(values, p):
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return float(ordered[min(len(ordered), int(rank)) - 1])


def ratio(num, den):
    return num / den if den else 0.0


def on_ref(seconds, gauge_s, ref_s):
    """A time measured while the host gauge read `gauge_s`, put on the
    scale of a host on which it reads `ref_s` (see README.md)."""
    return seconds * ref_s / gauge_s


# --- build and run the harness -------------------------------------------------


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.path.dirname(HERE), ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_harness", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise Fatal("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_harness")


def run_harness(binary, workload, args, seconds, trace):
    tmp = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    log = os.path.join(build_dir(), "harness-%s.log" % workload)
    argv = [binary, workload] + ["%s=%s" % kv for kv in sorted(args.items())]
    argv += ["seconds=%g" % seconds, "trace=%d" % trace, "tmp=" + tmp]
    try:
        with open(log, "w") as err:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=err, timeout=170)
        if proc.returncode != 0:
            with open(log) as err:
                tail = err.read()[-2000:]
            raise Fatal("harness exited with %d:\n%s" % (proc.returncode, tail))
        return json.loads(proc.stdout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --- counters -------------------------------------------------------------------


def node_totals(counters):
    """Fold per-node counters (node17.vmm.paged_out_bytes) into cluster
    totals keyed by suffix (.vmm.paged_out_bytes)."""
    out = {}
    for name, value in counters.items():
        if name.startswith("node"):
            i = 4
            while i < len(name) and name[i].isdigit():
                i += 1
            if i > 4 and name[i:i + 1] == ".":
                out[name[i:]] = out.get(name[i:], 0) + value
                continue
        out[name] = out.get(name, 0) + value
    return out


def observed_layers(obs_list):
    """Per-layer counts summed over observability dumps."""
    m = {}

    def add(key, v):
        m[key] = m.get(key, 0) + v

    for obs in obs_list:
        c = node_totals(obs["counters"])
        hp = obs["hot_paths"]
        add("sim.events", obs["events_processed"])
        add("dispatch_calls", hp["EventDispatch"]["calls"])
        add("dispatch_work", hp["EventDispatch"]["work"])
        add("sim.fluid_updates", hp["FluidUpdate"]["calls"])
        add("hadoop.heartbeats", hp["HeartbeatHandle"]["calls"])
        add("hadoop.heartbeat_actions", c.get("jobtracker.actions_sent", 0))
        add("hadoop.spec_scan_calls", hp["SpeculationScan"]["calls"])
        add("hadoop.spec_scan_work", hp["SpeculationScan"]["work"])
        add("hadoop.spec_launched", c.get("speculation.launched", 0))
        add("spec_won", c.get("speculation.won", 0))
        add("sched.assign_calls", hp["SchedulerAssign"]["calls"])
        add("assign_launches", hp["SchedulerAssign"]["work"])
        add("preempt.suspends", c.get("jobtracker.suspend_requests", 0))
        add("preempt.resumes", c.get("jobtracker.resume_requests", 0))
        add("preempt.tasks_lost", c.get("jobtracker.tasks_lost", 0))
        add("policy.decisions", c.get("policy.decisions", 0))
        add("policy.swap_demotions", c.get("policy.swap_demotions", 0))
        add("policy_refused", c.get("policy.orders_refused", 0))
        add("os.vmm_commit_calls", hp["VmmCommit"]["calls"])
        add("os.vmm_reclaim_calls", hp["VmmReclaim"]["calls"])
        add("os.paged_out_gib", c.get(".vmm.paged_out_bytes", 0) / GIB)
        add("os.paged_in_gib", c.get(".vmm.paged_in_bytes", 0) / GIB)
        add("os.swap_discarded_gib", c.get(".vmm.swap_discarded_bytes", 0) / GIB)
        add("os.oom_kills", c.get(".kernel.oom_kills", 0))
        add("net.deliveries", hp["NetDelivery"]["calls"])
        add("audit.sweeps", obs["audit_sweeps"]["sweeps"])
        add("audit.auditors_run", hp["AuditSweep"]["work"])
    m["sim.dispatch_pending_mean"] = ratio(m.pop("dispatch_work", 0), m.pop("dispatch_calls", 0))
    m["hadoop.spec_win_ratio"] = ratio(m.pop("spec_won", 0), m.get("hadoop.spec_launched", 0))
    m["sched.launch_ratio"] = ratio(m.pop("assign_launches", 0), m.get("sched.assign_calls", 0))
    m["preempt.resume_ratio"] = ratio(m.get("preempt.resumes", 0), m.get("preempt.suspends", 0))
    m["policy.refused_ratio"] = ratio(m.pop("policy_refused", 0), m.get("policy.decisions", 0))
    return m


# --- workloads -------------------------------------------------------------------
#
# Each evaluator returns (attempted, failed, end_to_end, per_layer,
# problems); `problems` lists every way the run differs from its pins or
# from what the workload claims to exercise and to bypass. `attempted`
# counts the distinct operations of the family's input (warehouse jobs,
# grid cells) and `failed` those that failed. A run repeats them to time
# them, and every repetition must reproduce the pins, so both counts
# depend on the family alone, not on how many repetitions fit the time.


def eval_warehouse(out, fam, ref):
    problems = []
    its = out["iterations"]
    for it in its:
        if (it["events"], it["digest"]) != (fam["events"], fam["digest"]):
            problems.append("iteration reproduced events=%d digest=%s, pinned %d %s"
                            % (it["events"], it["digest"], fam["events"], fam["digest"]))
        if it["jobs"] != out["jobs"] or it["jobs_ok"] != it["jobs"]:
            problems.append("%d of %d jobs succeeded" % (it["jobs_ok"], it["jobs"]))
    layers = observed_layers([out["observability"]])
    if layers["hadoop.spec_launched"] <= 0:
        problems.append("no speculative attempt launched")
    for key in ("preempt.suspends", "audit.sweeps"):
        if layers[key] != 0:
            problems.append("%s is %g, the workload claims to bypass it" % (key, layers[key]))
    if layers["os.paged_out_gib"] >= WAREHOUSE_MAX_PAGED_OUT_GIB:
        problems.append("%.3f GiB paged out, the workload claims under %g GiB"
                        % (layers["os.paged_out_gib"], WAREHOUSE_MAX_PAGED_OUT_GIB))

    plain = [it for it in its if not it["traced"]]
    traced = [it for it in its if it["traced"]]

    def t(it, key):
        return on_ref(it[key], it["gauge_s"], ref)

    e2e = {
        "events_per_sec": median([it["events"] / t(it, "run_s") for it in plain]),
        "cell_ms_p50": median([t(it, "setup_s") + t(it, "run_s") for it in plain]) * 1e3,
        "setup_s": median([t(s, "setup_s") for s in out["setups"]]),
        "peak_rss_mib": out["peak_rss_mib"],
    }
    if traced:
        if traced[0]["assign_calls"] != layers["sched.assign_calls"]:
            problems.append("the decorator saw %d assign calls, the profiler %d"
                            % (traced[0]["assign_calls"], layers["sched.assign_calls"]))
        run_s = median([t(it, "run_s") for it in traced])
        assign_s = median([t(it, "assign_busy_s") for it in traced])
        submit_s = median([t(it, "submit_busy_s") for it in traced])
        layers.update({
            "sim.run_self_s": run_s - assign_s - submit_s,
            "hadoop.submit_busy_s": submit_s,
            "sched.assign_calls": traced[0]["assign_calls"],
            "sched.assign_busy_s": assign_s,
            "sched.assign_share": assign_s / run_s,
            "sched.assign_ns_p50": median([t(it, "assign_ns_p50") for it in traced]),
            "sched.assign_ns_p99": median([t(it, "assign_ns_p99") for it in traced]),
            "sched.launch_ratio": ratio(traced[0]["assign_launches"], traced[0]["assign_calls"]),
            "trace.overhead_ratio": run_s / median([t(it, "run_s") for it in plain]),
        })
    layers["workload.swim_gen_s"] = median([t(s, "swim_gen_s") for s in out["setups"]])
    layers["host.gauge_ms"] = median([it["gauge_s"] for it in plain]) * 1e3
    layers["host.wall_events_per_sec"] = median([it["events"] / it["run_s"] for it in plain])
    layers["cell_samples"] = len(plain)
    failed = max(it["jobs"] - it["jobs_ok"] for it in its)
    return out["jobs"], failed, e2e, layers, problems


def short_cell(descriptor, axes):
    kv = dict(item.split("=", 1) for item in descriptor.split(";"))
    return ";".join("%s=%s" % (k, kv[k]) for k in axes)


def contended_failures(out, cells):
    return sorted([short_cell(out["descriptors"][i], ("scheduler", "primitive", "seed")), c["error"]]
                  for i, c in enumerate(cells) if not c["ok"])


def eval_contended(out, fam, ref):
    problems = []
    descs = out["descriptors"]
    known = sorted([f["cell"], f["error"]] for f in fam["known_failures"])
    prims = [dict(item.split("=", 1) for item in d.split(";"))["primitive"] for d in descs]
    first = out["passes"][0]["cells"]
    attempted, failed = len(first), sum(1 for c in first if not c["ok"])
    for p in out["passes"]:
        cells = p["cells"]
        events = sum(c["events"] for c in cells)
        if (events, p["digest"]) != (fam["events"], fam["digest"]):
            problems.append("pass reproduced events=%d digest=%s, pinned %d %s"
                            % (events, p["digest"], fam["events"], fam["digest"]))
        got = contended_failures(out, cells)
        if got != known:
            problems.append("failed cells %s, pinned known failures %s" % (got, known))
        for c, prim, d in zip(cells, prims, descs):
            if not c["ok"]:
                continue
            where = short_cell(d, ("scheduler", "primitive", "seed"))
            rc = c["counters"]
            if rc["speculation.launched"] != 0:
                problems.append(where + ": speculation ran")
            if prim in ("susp", "natjam") and rc["jobtracker.suspend_requests"] <= 0:
                problems.append(where + ": no suspend/resume round trip")
            if rc["policy.decisions"] <= 0:
                problems.append(where + ": no preemption decision")
            if p["traced"]:
                obs = c["observability"]
                if obs is None:
                    problems.append(where + ": no counters file")
                    continue
                lay = observed_layers([obs])
                if lay["audit.sweeps"] <= 0:
                    problems.append(where + ": no audit sweep")
                if lay["hadoop.spec_scan_calls"] != 0:
                    problems.append(where + ": speculation scans ran")
                if prim == "susp" and lay["os.paged_out_gib"] <= 0:
                    problems.append(where + ": suspended state was never paged out")

    plain = [p for p in out["passes"] if not p["traced"]]
    traced = [p for p in out["passes"] if p["traced"]]
    # Each cell's time is its median over the run's passes. The rate is
    # the median over successful cells of each cell's own rate: a
    # deadline+natjam cell runs 10-30x slower per event than the rest and
    # takes most of a pass, so a rate summed over the grid would follow
    # how many of those the family holds (per-layer core.cell_busy_s
    # and core.cell_ms_p99 show them).
    cell_s = [median([on_ref(p["cells"][i]["wall_s"], p["cells"][i]["gauge_s"], ref) for p in plain])
              for i in range(len(descs))]
    ok = [i for i, c in enumerate(plain[0]["cells"]) if c["ok"]]
    ok_ms = [cell_s[i] * 1e3 for i in ok]
    events = [plain[0]["cells"][i]["events"] for i in ok]
    e2e = {
        "events_per_sec": median([e / cell_s[i] for e, i in zip(events, ok)]),
        "cell_ms_p50": median(ok_ms),
        "setup_s": median([on_ref(s, g, ref) for s, g in zip(out["setup_s"], out["setup_gauge_s"])]),
        "peak_rss_mib": out["peak_rss_mib"],
    }
    layers = {}
    if traced:
        t = traced[0]
        layers = observed_layers([c["observability"] for c in t["cells"] if c["observability"]])
        layers["trace.overhead_ratio"] = t["wall_s"] / median([p["wall_s"] for p in plain])
    wall_s = [median([p["cells"][i]["wall_s"] for p in plain]) for i in ok]
    layers.update({
        "host.gauge_ms": median([c["gauge_s"] for p in plain for c in p["cells"]]) * 1e3,
        "host.wall_events_per_sec": median([e / w for e, w in zip(events, wall_s)]),
        "core.cell_busy_s": sum(cell_s),
        "core.cell_ms_p50": e2e["cell_ms_p50"],
        "core.cell_ms_p99": pct(ok_ms, 99),
        "cell_samples": len(ok_ms),
    })
    return attempted, failed, e2e, layers, problems


def eval_sweep(out, fam, ref):
    problems = []
    uncached = [p for p in out["passes"] if p["kind"] == "uncached"]
    cold = [p for p in out["passes"] if p["kind"] == "cold"]
    warm = [p for p in out["passes"] if p["kind"] == "warm"]
    for p in out["passes"]:
        if (p["cells"], p["events"], p["digest"]) != (fam["cells"], fam["events"], fam["digest"]):
            problems.append("%s pass reproduced %d cells events=%d digest=%s, pinned %d %d %s"
                            % (p["kind"], p["cells"], p["events"], p["digest"],
                               fam["cells"], fam["events"], fam["digest"]))
    for p in cold:
        if p["cache_stores"] != p["cells"]:
            problems.append("cold pass: %d of %d cells were stored" % (p["cache_stores"], p["cells"]))
    for p in warm:
        if p["cache_hits"] != p["cells"]:
            problems.append("warm pass: %d of %d cells were cache hits" % (p["cache_hits"], p["cells"]))
        if p["cache_difference"]:
            problems.append("warm summary differs from cold: " + p["cache_difference"])
    reference = out.get("reference")
    if reference is not None and reference["digest"] != fam["digest"]:
        problems.append("in-process reference pass reproduced digest %s, pinned %s"
                        % (reference["digest"], fam["digest"]))
    failed_cells = max(p["cells"] - p["ok"] for p in out["passes"])
    order_diffs = [p["order_difference"] for p in cold if p["order_difference"]]
    if order_diffs:
        # A defect of the program, not of this run: osapd aggregates cells
        # in completion order, so the summary's floating-point means depend
        # on pool scheduling. Reported, not gated (see pins.json).
        print("note: summary bytes depend on completion order: " + order_diffs[0])

    def t(p, seconds):
        return on_ref(seconds, p["gauge_s"], ref)

    cold_wall = median([t(p, p["wall_s"]) for p in cold])
    e2e = {
        "events_per_sec": median([p["events"] / t(p, p["wall_s"]) for p in uncached]),
        "cell_ms_p50": median([t(p, p["cell_ms_p50"]) for p in uncached]),
        "setup_s": median([t(p, s) for p in uncached for s in p["setup_s"]]),
        "peak_rss_mib": out["peak_rss_mib"],
    }
    layers = {
        "sim.events": cold[0]["events"],
        "host.gauge_ms": median([p["gauge_s"] for p in uncached]) * 1e3,
        "host.wall_events_per_sec": median([p["events"] / p["wall_s"] for p in uncached]),
        "osapd.expand_s": median([t(p, p["expand_s"]) for p in cold]),
        "osapd.summary_s": median([t(p, p["summary_s"]) for p in cold]),
        "osapd.cache_hits": warm[0]["cache_hits"],
        "osapd.cache_stores": cold[0]["cache_stores"],
        "osapd.worker_deaths": sum(p["worker_deaths"] for p in out["passes"]),
        "osapd.rescheduled": sum(p["rescheduled"] for p in out["passes"]),
        "osapd.cold_cells_per_sec": median([p["cells"] / t(p, p["wall_s"]) for p in cold]),
        "osapd.warm_cells_per_sec": median([p["cells"] / t(p, p["wall_s"]) for p in warm]),
        "osapd.cell_ms_p99": median([t(p, p["cell_ms_p99"]) for p in uncached]),
        "osapd.summary_order_diffs": len(order_diffs),
        "cell_samples": sum(p["ok"] for p in uncached),
    }
    if reference is not None:
        # The in-process pass runs after the last pass; the run's median
        # gauge puts it on the reference scale.
        gauge_s = median([p["gauge_s"] for p in out["passes"]])
        cell_ms = [on_ref(ms, gauge_s, ref) for ms in reference["cell_ms"]]
        busy_s = sum(cell_ms) / 1e3
        layers.update({
            "core.cell_busy_s": busy_s,
            "core.cell_ms_p50": median(cell_ms),
            "core.cell_ms_p99": pct(cell_ms, 99),
            "osapd.harness_share": 1.0 - busy_s / (out["workers"] * cold_wall),
            "trace.overhead_ratio": (cold_wall + on_ref(reference["wall_s"], gauge_s, ref)) / cold_wall,
        })
    return fam["cells"], failed_cells, e2e, layers, problems


EVALUATORS = {"warehouse": eval_warehouse, "contended": eval_contended, "sweep": eval_sweep}


def family_args(workload, fam):
    """The harness arguments that select a family's inputs."""
    if workload == "warehouse":
        return {"input_seed": fam["input_seed"]}
    if workload == "contended":
        return {"seeds": ",".join(str(s) for s in fam["seeds"])}
    return {"seed_first": fam["seed_first"], "seed_count": fam["seed_count"]}


def gauge_ref_s(pins):
    """The host gauge's time on the host the benchmark was sized for."""
    return pins["sized_for"]["gauge_s"]


def metric_units():
    """{name: unit} of the end-to-end and of the per-layer metrics, as
    BENCHMARK.json declares them."""
    with open(BENCHMARK) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def measure(workload, seed, seconds, trace):
    end_to_end, per_layer = metric_units()
    with open(PINS) as f:
        pins = json.load(f)
    if workload not in pins["workloads"]:
        raise Fatal("unknown workload '%s' (%s)" % (workload, ", ".join(pins["workloads"])))
    spec = pins["workloads"][workload]
    fam = spec["families"][seed % len(spec["families"])]
    binary = build()
    out = run_harness(binary, workload, family_args(workload, fam),
                     seconds, trace)
    attempted, failed, e2e, layers, problems = EVALUATORS[workload](out, fam, gauge_ref_s(pins))
    for p in problems:
        print("check failed: " + p)
    layers["fail_ratio"] = ratio(failed, attempted)
    undeclared = sorted(set(e2e) - set(end_to_end)) + sorted(set(layers) - set(per_layer))
    missing = sorted(set(end_to_end) - set(e2e))
    if undeclared or missing:
        raise Fatal("metrics differ from BENCHMARK.json: not declared %s, not measured %s"
                    % (undeclared, missing))
    if trace:
        # A layer this workload's traced run cannot reach reads 0.
        metrics = {k: {"value": float(layers.get(k, 0)), "unit": u} for k, u in per_layer.items()}
    else:
        metrics = {k: {"value": float(e2e[k]), "unit": u} for k, u in end_to_end.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def repin(workload):
    """Run every family once (traced, so every check runs) and rewrite
    its pinned outputs."""
    with open(PINS) as f:
        pins = json.load(f)
    spec = pins["workloads"][workload]
    binary = build()
    for i, fam in enumerate(spec["families"]):
        out = run_harness(binary, workload, family_args(workload, fam), 0, 1)
        if workload == "warehouse":
            it = out["iterations"][0]
            fam.update(events=it["events"], digest=it["digest"])
        elif workload == "contended":
            p = out["passes"][0]
            cells = p["cells"]
            fam.update(cells=len(cells), events=sum(c["events"] for c in cells), digest=p["digest"],
                       known_failures=[{"cell": c, "error": e}
                                       for c, e in contended_failures(out, cells)])
        else:
            p = out["passes"][0]
            fam.update(cells=p["cells"], events=p["events"], digest=p["digest"])
        problems = EVALUATORS[workload](out, fam, gauge_ref_s(pins))[4]
        print("family %d: %s" % (i, "; ".join(problems) if problems else "ok"), file=sys.stderr)
    # Re-read so that repins of different workloads may run side by side.
    with open(PINS) as f:
        pins = json.load(f)
    pins["workloads"][workload] = spec
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repin", metavar="WORKLOAD")
    a = ap.parse_args()
    try:
        if a.repin:
            repin(a.repin)
        elif a.workload:
            measure(a.workload, a.seed, a.seconds, a.trace)
        else:
            raise Fatal("--workload is required")
    except Fatal as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
