"""The measuring process: import the program, build inputs, warm up, then time
whole passes over a workload's task list.

Every pass, and the warm-up, runs in a process forked from this one after set-up,
so each pass starts with the program's private caches as cold as a fresh process
that has imported it: `enumerate_tournaments` memoises per process, and
`BipartiteDigraph.in_masks` is cached per object.  This process never imports
networkx or the checker, so neither counts in set-up time or peak memory.

Usage (bench/run.py starts it):
    python bench/worker.py --workload W --seed N --seconds S --trace 0|1 --t0 T [--setup-only]
--t0 is the CLOCK_MONOTONIC reading taken just before this process was started.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def run_forked(fn):
    """Run fn() in a forked child and return its JSON-able result."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            payload = {"ok": fn()}
        except BaseException:  # noqa: BLE001 - reported to the parent, which fails the run
            payload = {"error": traceback.format_exc()}
        data = json.dumps(payload).encode()
        with os.fdopen(w, "wb") as out:
            out.write(data)
        os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as inp:
        data = inp.read()
    os.waitpid(pid, 0)
    result = json.loads(data) if data else {"error": "child died without a result"}
    if "error" in result:
        raise RuntimeError(result["error"])
    return result["ok"]


def error_text() -> str:
    exc = sys.exc_info()[1]
    return f"{type(exc).__name__}: {exc}"


def masks_of(g) -> list:
    return [g.n, list(g.out)]


# --- inputs, built once per process in set-up ----------------------------------


class Oracle:
    def __init__(self, seed: int):
        from orituran.extremal import PatternSpec

        self.tasks = spec.oracle_tasks(seed)
        self.patterns = [PatternSpec.parse(t["pattern"]) for t in self.tasks]

    def warm_up(self):
        from orituran import extremal

        extremal.oracle_exo(5, extremal.PatternSpec.parse("prop23"))

    def run(self, i: int, timings: dict):
        from orituran import extremal

        task = self.tasks[i]
        t0 = time.perf_counter()
        rec = extremal.oracle_exo(task["n"], self.patterns[i], jobs=task["jobs"])
        timings[i] = time.perf_counter() - t0
        return {"value": rec.value, "nodes": rec.nodes, "witness": masks_of(rec.witness)}


class Census:
    def __init__(self, seed: int):
        from orituran.graphs import OrientedGraph

        self.tasks = spec.census_tasks(seed)
        self.patterns = [
            OrientedGraph.from_arcs(t["pattern"]["n"], t["pattern"]["arcs"]) if "pattern" in t
            else None
            for t in self.tasks
        ]
        self.warm_pattern = OrientedGraph.from_arcs(*spec.pattern_arcs("dpath4"))

    def warm_up(self):
        from orituran import canon, containment

        list(canon.enumerate_oriented_graphs(4))
        n, edges = spec.odd_wheel_plus(5, [])
        containment.all_orientations_contain(n, edges, self.warm_pattern)

    def run(self, i: int, timings: dict):
        from orituran import canon, containment

        task = self.tasks[i]
        op = task["op"]
        if op == "tournaments":
            return [list(g.out) for g in canon.enumerate_tournaments(task["k"])]
        if op == "oriented":
            return [list(g.out) for g in canon.enumerate_oriented_graphs(task["n"])]
        if op == "all_tournaments":
            holds, cx = containment.all_tournaments_contain(task["k"], self.patterns[i])
        else:
            holds, cx = containment.all_orientations_contain(
                task["n"], task["edges"], self.patterns[i]
            )
        return {"holds": holds, "counterexample": None if cx is None else masks_of(cx)}


class Embed:
    def __init__(self, seed: int):
        from orituran.graphs import BipartiteDigraph, OrientedGraph

        self.tasks = spec.embed_tasks(seed)
        self.arc = BipartiteDigraph.from_arcs(spec.ARC["u"], spec.ARC["w"], spec.ARC["arcs"])
        hosts = {}
        self.inputs = []
        for t in self.tasks:
            if t["op"] == "zoom":
                key = json.dumps(t["host"], sort_keys=True)
                if key not in hosts:
                    u, w, masks = spec.bipartite_host(t["host"])
                    hosts[key] = BipartiteDigraph(tuple(u), tuple(w), tuple(masks))
                self.inputs.append(hosts[key])
            else:
                self.inputs.append(OrientedGraph.from_arcs(t["n"], t["arcs"]))
        small = [t for t in self.tasks if t["op"] == "zoom" and t["host"]["nu"] < 1000]
        self.warm_tasks = [self.tasks.index(small[0])] + [
            next(i for i, t in enumerate(self.tasks) if t["op"] == op) for op in ("refine", "faks")
        ]

    def warm_up(self):
        for i in self.warm_tasks:
            self.run(i, {})

    def run(self, i: int, timings: dict):
        from orituran import regularize

        task = self.tasks[i]
        g = self.inputs[i]
        if task["op"] == "refine":
            bip = regularize.extract_bipartite(g, task["seed"])
            eps = 1.0 - 1.0 / task["r"]
            c = 4.0 * bip.arc_count / (bip.n ** (1.0 + eps))
            res = regularize.almost_regular_subdigraph(bip, c, task["r"], t_override=task["t"])
            sub = res.subgraph
            return {
                "x": list(bip.part_u), "y": list(bip.part_w), "masks": list(bip.out_masks),
                "sub_u": list(sub.part_u), "sub_w": list(sub.part_w),
                "sub_masks": list(sub.out_masks),
                "c": res.c, "t": res.t, "K": res.K, "K1": res.K1, "K2": res.K2, "n_s": res.n_s,
            }
        if task["op"] == "zoom":
            cfg = regularize.ZoomConfig.for_instance(g, r=task["r"], h=2, seed=task["seed"])
            vm = regularize.random_zoom(g, self.arc, cfg)
            return {"mapping": [list(p) for p in vm.mapping]}
        result = regularize.faks_pipeline(g, self.arc, task["r"], task["seed"],
                                          t_override=task["t"])
        return result.to_json_obj()


class Cli:
    """CLI invocations run in a temporary directory holding their input files."""

    def __init__(self, files: dict, tasks: list):
        self.tasks = tasks
        WORK.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=WORK)
        for name, text in files.items():
            Path(self.dir, name).write_text(text)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def warm_up(self):
        self.invoke(["construct", "turan", "--n", "5", "--r", "2"])

    def invoke(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "orituran.cli", *argv],
            cwd=self.dir, env=self.env, capture_output=True, text=True,
        )
        return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def run(self, i: int, timings: dict):
        return self.invoke(self.tasks[i]["argv"])

    def run_in_process(self):
        """Every argv once through cli.main in this process; (seconds, results)."""
        from orituran import cli

        total = 0.0
        results = []
        os.chdir(self.dir)
        for task in self.tasks:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(task["argv"])
            except Exception:  # noqa: BLE001 - a traceback is the fault being counted
                code = None
            total += time.perf_counter() - t0
            results.append({"exit": code, "stdout": out.getvalue()})
        return total, results


KINDS = {"oracle": Oracle, "census": Census, "embed": Embed,
         "cli": lambda seed: Cli(**spec.cli_tasks(seed))}


def failed_op(workload: str, task: dict, out) -> bool:
    """An operation fails when it raised, or when a CLI invocation ends with an
    exit code the README does not give it, a traceback, or (for embed) without
    one JSON object on stdout."""
    if workload != "cli":
        return isinstance(out, dict) and "error" in out and len(out) == 1
    if out["exit"] not in task["exits"] or "Traceback" in out["stderr"]:
        return True
    if task["argv"][0] == "embed" and out["exit"] in (0, 1):
        try:
            json.loads(out["stdout"])
        except ValueError:
            return True
        return len(out["stdout"].splitlines()) != 1
    return False


def one_pass(workload: str, work, tracer=None) -> dict:
    timings = {}
    outputs = []
    t0 = time.perf_counter()
    for i in range(len(work.tasks)):
        try:
            outputs.append(work.run(i, timings))
        except Exception:  # noqa: BLE001 - a raising task is a failed operation
            outputs.append({"error": error_text()})
    seconds = time.perf_counter() - t0
    failed = [failed_op(workload, t, o) for t, o in zip(work.tasks, outputs)]
    res = {"seconds": seconds, "outputs": outputs, "failed": failed, "timings": timings}
    if tracer is not None:
        res["tracer"] = {
            "calls": dict(tracer.calls), "seconds": dict(tracer.seconds),
            "hits": dict(tracer.hits), "extra": dict(tracer.extra),
        }
    return res


def traced_pass(workload: str, work) -> dict:
    if workload == "cli":
        res = one_pass(workload, work)
        res["main_s"], res["in_process"] = work.run_in_process()
        return res
    tracer = layers.Tracer()
    layers.install(tracer)
    return one_pass(workload, work, tracer)


def median_run(argv, env, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import orituran.cli  # noqa: F401 - the program's import is part of set-up

    names = spec.WORKLOADS if args.trace else (args.workload,)
    works = {}
    try:
        for name in names:
            works[name] = KINDS[name](args.seed)
            run_forked(works[name].warm_up)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if args.trace:
            result["traced"] = {
                name: run_forked(lambda: traced_pass(name, works[name])) for name in names
            }
            env = works["cli"].env
            interp = median_run([sys.executable, "-c", "pass"], env)
            imp = median_run([sys.executable, "-c", "import orituran.cli"], env)
            result["cli"] = {"interpreter_s": interp, "import_s": imp - interp}
        elif not args.setup_only:
            passes = []
            start = time.monotonic()
            while not passes or time.monotonic() - start < args.seconds:
                passes.append(run_forked(lambda: one_pass(args.workload, works[args.workload])))
            result["passes"] = passes
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        for work in works.values():
            if hasattr(work, "close"):
                work.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
