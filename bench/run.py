"""Benchmark of the orituran exact search engine, end to end and per layer.

    python3 bench/run.py --workload oracle|census|embed|cli|all --seed N \
        [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: a pass runs the workload's
fixed task list one task after another, and passes repeat until --seconds
have gone by.  With --trace 0 the run reports, by name and with units,
    setup_s      median over five fresh processes of the time from process
                 start to the first timed pass (import, inputs, warm-up)
    pass_s       median wall time of one pass
    peak_rss_mb  peak resident set of the processes doing the work
With --trace 1 it runs one traced pass of every workload and reports the
per-layer metrics listed in BENCHMARK.json.  Every answer is checked against
computations made apart from the program (bench/check.py) after all timing
is done.  The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(workload: str, seed: int, outputs, failed) -> list[str]:
    """Problems with one pass's answers, judged apart from the program."""
    import check as checks  # networkx is imported only once timing is over

    if workload == "cli":
        made = spec.cli_tasks(seed)
        return checks.check_cli(made["tasks"], outputs, failed, made["files"])
    tasks = spec.tasks_for(workload, seed)
    if workload == "embed":
        return checks.check_embed(tasks, outputs, failed, rerun_faks)
    return getattr(checks, f"check_{workload}")(tasks, outputs, failed)


def rerun_faks(task) -> dict:
    """faks_pipeline again in this process, with the task's seed."""
    sys.path.insert(0, str(ROOT / "src"))
    from orituran.graphs import BipartiteDigraph, OrientedGraph
    from orituran.regularize import faks_pipeline

    arc = BipartiteDigraph.from_arcs(spec.ARC["u"], spec.ARC["w"], spec.ARC["arcs"])
    g = OrientedGraph.from_arcs(task["n"], task["arcs"])
    return json.loads(json.dumps(
        faks_pipeline(g, arc, task["r"], task["seed"], t_override=task["t"]).to_json_obj()))


def agreement_problems(passes) -> list[str]:
    """Every pass must give the same answers and fail the same operations."""
    first = passes[0]
    problems = []
    for i, p in enumerate(passes[1:], start=2):
        if p["failed"] != first["failed"]:
            problems.append(f"pass {i} failed other operations than pass 1")
        if [strip(o) for o in p["outputs"]] != [strip(o) for o in first["outputs"]]:
            problems.append(f"pass {i} gave other answers than pass 1")
    return problems


def strip(out):
    """An answer without the stderr text of a CLI run, which may name temp paths."""
    if isinstance(out, dict) and "stderr" in out:
        return {k: v for k, v in out.items() if k != "stderr"}
    return out


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setups = [spawn_worker(workload, seed, seconds, 0, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = spawn_worker(workload, seed, seconds, 0)
    setups.append(res["setup_s"])
    passes = res["passes"]
    first = passes[0]
    problems = agreement_problems(passes) + check(workload, seed, first["outputs"], first["failed"])
    for p in problems:
        print(f"[{workload}] PROBLEM {p}")
    print(f"[{workload}] passes: " + " ".join(f"{p['seconds']:.4f}" for p in passes)
          + "  setups: " + " ".join(f"{s:.4f}" for s in setups))
    return {
        "correct": not problems,
        "attempted": sum(len(p["failed"]) for p in passes),
        "failed": sum(sum(p["failed"]) for p in passes),
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(p["seconds"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        },
    }


def layer_metrics(traced: dict, cli: dict, seed: int) -> dict:
    """Per-layer metrics from one traced pass of each workload."""
    calls, secs, hits, extra = Counter(), Counter(), Counter(), Counter()
    for res in traced.values():
        t = res.get("tracer")
        if t:
            calls.update(t["calls"])
            secs.update(t["seconds"])
            hits.update(t["hits"])
            extra.update(t["extra"])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for key in ("containment.contains_copy_through", "containment.contains_copy",
                "canon.accept_child", "canon.canonical_code", "extremal.build_construction",
                "homomorphism.compressibility", "graphs.BipartiteDigraph.restrict"):
        put(f"{key}.calls", calls[key], "count")
        put(f"{key}.s", secs[key], "s")
    key = "containment.contains_copy_through"
    put(f"{key}.hit_ratio", ratio(hits[key], calls[key]), "ratio")
    put("containment.searches_per_orientation",
        ratio(extra["sweep_searches"], extra["orientations"]), "ratio")
    put("containment.orientations_per_s", ratio(extra["orientations"], secs["sweep"]), "1/s")
    key = "canon.accept_child"
    put(f"{key}.accept_ratio", ratio(hits[key], calls[key]), "ratio")
    enum_s = secs["canon.enumerate_tournaments"] + secs["canon.enumerate_oriented_graphs"]
    put("canon.enumerate_tournaments.s", secs["canon.enumerate_tournaments"], "s")
    put("canon.enumerate_oriented_graphs.s", secs["canon.enumerate_oriented_graphs"], "s")
    census_tasks = spec.census_tasks(seed)
    classes = sum(len(out) for t, out in zip(census_tasks, traced["census"]["outputs"])
                  if t["op"] in ("tournaments", "oriented"))
    put("canon.classes_per_s", ratio(classes, enum_s), "1/s")

    oracle = traced["oracle"]
    tasks = spec.oracle_tasks(seed)
    timing = {int(i): s for i, s in oracle["timings"].items()}
    serial = [i for i, t in enumerate(tasks) if t["jobs"] == 1]
    exo_s = sum(timing[i] for i in serial)
    nodes = sum(oracle["outputs"][i]["nodes"] for i in serial)
    put("extremal.oracle_exo.s", exo_s, "s")
    put("extremal.oracle_exo.nodes", nodes, "count")
    put("extremal.oracle_exo.nodes_per_s", ratio(nodes, exo_s), "1/s")
    j1 = next(i for i in serial if tasks[i]["pattern"] == spec.ORACLE_JOBS2)
    j2 = next(i for i, t in enumerate(tasks) if t["jobs"] == 2)
    put("extremal.oracle_exo.jobs1_s", timing[j1], "s")
    put("extremal.oracle_exo.jobs2_s", timing[j2], "s")
    put("extremal.oracle_exo.jobs2_speedup", ratio(timing[j1], timing[j2]), "x")

    for name in ("extract_bipartite", "almost_regular_subdigraph", "random_zoom",
                 "find_rich_set", "embed_via_rich_set", "faks_pipeline"):
        put(f"regularize.{name}.s", secs[f"regularize.{name}"], "s")
    put("regularize.zoom.trials_per_accept",
        ratio(extra["zoom_trials"], extra["zoom_accepts"]), "ratio")

    put("cli.interpreter_s", cli["interpreter_s"], "s")
    put("cli.import_s", cli["import_s"], "s")
    put("cli.main_s", traced["cli"]["main_s"], "s")
    return m


def run_traced(workload: str, seed: int) -> dict:
    res = spawn_worker(workload, seed, 0, 1)
    traced = res["traced"]
    problems = []
    for name, p in traced.items():
        problems += [f"[{name}] {x}" for x in check(name, seed, p["outputs"], p["failed"])]
    cli_pass = traced["cli"]
    for task, sub, inproc, bad in zip(spec.cli_tasks(seed)["tasks"], cli_pass["outputs"],
                                      cli_pass["in_process"], cli_pass["failed"]):
        if not bad and (inproc["exit"], inproc["stdout"]) != (sub["exit"], sub["stdout"]):
            problems.append(f"[cli] {task['name']}: cli.main in-process differs from the CLI")
    for p in problems:
        print(f"[trace] PROBLEM {p}")
    for name, p in traced.items():
        shares = sorted(p.get("tracer", {}).get("seconds", {}).items(), key=lambda kv: -kv[1])
        if "main_s" in p:
            shares = [("cli.main in-process", p["main_s"])]
        print(f"[trace] {name}: traced pass {p['seconds']:.4f} s; "
              + ", ".join(f"{k} {s:.3f} s ({s / p['seconds']:.0%})" for k, s in shares))
    mine = traced[workload]
    return {
        "correct": not problems,
        "attempted": len(mine["failed"]),
        "failed": sum(mine["failed"]),
        "metrics": layer_metrics(traced, res["cli"], seed),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "orituran" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'orituran'}", file=sys.stderr)
        return 2
    names = spec.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace:
        names = names[:1]  # one traced run already covers every workload
    results = {}
    for name in names:
        if args.trace:
            r = run_traced(name, args.seed)
        else:
            r = run_untraced(name, args.seed, args.seconds)
        results[name] = r
        shown = "  ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"{name}: {shown}  attempted {r['attempted']} failed {r['failed']}"
              f"  correct {str(r['correct']).lower()}")
    if len(results) == 1:
        final = results[names[0]]
        final = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
