"""Benchmark for the mixedcolor package.

Run from the repository root:

    python3 perfbench/run.py --workload ndm-fpt --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload dense-twdp --seed 1 --trace 1 --out r.json
    python3 perfbench/run.py --diff old.json new.json

Workloads: ndm-fpt, sparse-branch, dense-twdp, analyze-large (see
BENCHMARK.json for why each exists). One operation takes one instance from
its serialized graph text to an answer through the package's public
functions, in a child process capped in address space. The pool is sized
so that one pass takes about ``--seconds``; a run makes one pass, so no
instance repeats.

Times are in reference seconds (``calibration.py``): each one is scaled by
the time of a fixed loop run next to it, which cancels the host's speed
phases. Every answer is checked outside the timed region: solve answers
against a HiGHS integer program (``oracle.py``), analysis answers with the
benchmark's own loops. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from a
separate traced pass. Lines before it give every metric with its unit, the
failure counts per kind and the operation sample count.

``--out FILE`` also writes the metrics, the deterministic counters and the
instance manifest (generator, parameters, size, sha256 of the text, reference
chi). ``--diff A B`` lists every counter that differs between two such files
(written with ``--trace 1``) and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
ORACLE_PROCESSES = 2

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p75": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# Reported on every run but kept out of BENCHMARK.json: on these workloads
# no operation fails, and only analyze-large computes bounds, so both read 0.
REPORTED_ONLY = {"failed_frac": "ratio", "bound_gap": "colors"}


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, start-up excluded."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import mixedcolor; print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True)
    return float(out.stdout)


def measure_setup(workloads, specs) -> tuple[float, list[str]]:
    """Median over repeats of import plus generation, in reference seconds."""
    import calibration

    totals, texts = [], None
    for _ in range(SETUP_REPEATS):
        before = calibration.calibrate()
        imported = import_seconds()
        start = time.perf_counter()
        made = workloads.materialize(specs)
        built = time.perf_counter() - start
        totals.append(calibration.scaled([imported + built], [before, calibration.calibrate()])[0])
        if texts is not None and made != texts:
            raise RuntimeError("instance generation is not deterministic")
        texts = made
    return statistics.median(totals), texts


def run_child(job: dict, timeout: float) -> tuple[list[dict], int | None]:
    # a fixed hash seed keeps any iteration over sets of strings, and so the
    # counters, the same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:  # left early by any other exception
            proc.kill()
            proc.wait()
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line cut short by the child's death
    return records, proc.returncode


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def check_solve(oracle, text: str, chi: int, answer: dict) -> str | None:
    if answer["chi"] != chi:
        return f"chi {answer['chi']} != reference {chi}"
    colors = {int(v): c for v, c in answer["colors"].items()}
    problem = oracle.proper_violation(text, colors)
    if problem:
        return problem
    if len(set(colors.values())) != chi:
        return f"witness uses {len(set(colors.values()))} colors, chi is {chi}"
    return None


def _twin_keys(n, edges, arcs) -> tuple[list[tuple], list[tuple]]:
    """Per vertex, what independent twins share and what clique twins share:
    in- and out-neighborhoods plus the open or the closed undirected one."""
    ins = [set() for _ in range(n + 1)]
    outs = [set() for _ in range(n + 1)]
    und = [set() for _ in range(n + 1)]
    for u, v in arcs:
        outs[u].add(v)
        ins[v].add(u)
    for u, v in edges:
        und[u].add(v)
        und[v].add(u)
    directed = [(frozenset(ins[v]), frozenset(outs[v])) for v in range(n + 1)]
    open_keys = [directed[v] + (frozenset(und[v]),) for v in range(n + 1)]
    closed_keys = [directed[v] + (frozenset(und[v] | {v}),) for v in range(n + 1)]
    return open_keys, closed_keys


def _partition_problem(n, edges, arcs, classes) -> str | None:
    if sorted(v for c in classes for v in c) != list(range(1, n + 1)):
        return "classes do not partition the vertices"
    open_keys, closed_keys = _twin_keys(n, edges, arcs)
    for c in classes:
        if len({open_keys[v] for v in c}) > 1 and len({closed_keys[v] for v in c}) > 1:
            return f"class {c[:5]}... mixes vertices of different types"
    # no vertex has twins of both kinds, so each kind of key merges
    # n - (distinct keys) vertices into classes of others
    coarsest = len(set(open_keys[1:])) + len(set(closed_keys[1:])) - n
    if len(classes) != coarsest:
        return f"{len(classes)} classes, the coarsest partition has {coarsest}"
    return None


def check_analyze(oracle, text: str, answer: dict) -> str | None:
    n, edges, arcs = oracle.parse(text)
    underlying = edges + arcs
    problem = _partition_problem(n, edges, arcs, answer["mixed"])
    if problem:
        return f"mixed partition: {problem}"
    problem = _partition_problem(n, underlying, [], answer["undirected"])
    if problem:
        return f"undirected partition: {problem}"
    cover = set(answer["cover"])
    if len(cover) != answer["vc"] or any(u not in cover and v not in cover for u, v in underlying):
        return "vertex cover does not cover every relation"
    rank = oracle.longest_path(n, arcs)
    if answer["maxrank"] != rank:
        return f"maxrank {answer['maxrank']} != {rank}"
    lower, upper = answer["lower"], answer["upper"]
    if not (max(answer["omega"], rank + 1) <= lower <= upper):
        return f"bounds out of order: omega {answer['omega']}, maxrank {rank}, lower {lower}, upper {upper}"
    colors = {int(v): c for v, c in answer["colors"].items()}
    problem = oracle.proper_violation(text, colors)
    if problem:
        return f"upper witness: {problem}"
    if len(set(colors.values())) != upper:
        return "upper witness color count differs from the upper bound"
    expr = answer["expr_graph"]
    if (expr["n"], len(expr["edges"]), len(expr["arcs"])) != (n, len(edges), len(arcs)):
        return "expression evaluates to a graph of another size"
    if _degrees(n, expr["edges"], expr["arcs"]) != _degrees(n, edges, arcs):
        return "expression evaluates to a graph with other degrees"
    if answer["width"] > len(answer["mixed"]) + 1:
        return f"expression width {answer['width']} exceeds ndm + 1"
    return None


def _degrees(n, edges, arcs) -> list[tuple[int, int, int]]:
    deg = [[0, 0, 0] for _ in range(n + 1)]
    for u, v in edges:
        deg[u][2] += 1
        deg[v][2] += 1
    for u, v in arcs:
        deg[u][1] += 1
        deg[v][0] += 1
    return sorted(tuple(d) for d in deg[1:])


def verify(oracle, method, specs, texts, answers, reference_many) -> tuple[list[str], list[int]]:
    """Check every answer; returns the problems found and the bound gaps."""
    if method is not None:
        answered = sorted(answers)
        for i, chi in zip(answered, reference_many([texts[i] for i in answered])):
            specs[i].chi = chi
    problems, gaps = [], []
    for i, answer in sorted(answers.items()):
        if method is None:
            problem = check_analyze(oracle, texts[i], answer)
            gaps.append(answer["upper"] - answer["lower"])
        else:
            problem = check_solve(oracle, texts[i], specs[i].chi, answer)
        if problem:
            problems.append(f"{specs[i].name}: {problem}")
    return problems, gaps


def oracle_process(texts: list[str]) -> list[int]:
    """Reference chi of each text, from one ``oracle.py`` process that is
    waited for (and killed on timeout) before this returns."""
    out = subprocess.run([sys.executable, str(HERE / "oracle.py")], input=json.dumps(texts),
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def reference_many(texts: list[str]) -> list[int]:
    """Reference chi of each text, split over a few oracle processes run
    side by side once the workload has ended."""
    shares = [texts[k::ORACLE_PROCESSES] for k in range(ORACLE_PROCESSES)]
    with ThreadPoolExecutor(max_workers=ORACLE_PROCESSES) as pool:
        results = list(pool.map(oracle_process, shares))
    chis = [0] * len(texts)
    for k, share in enumerate(results):
        chis[k::ORACLE_PROCESSES] = share
    return chis


def run(args) -> dict:
    sys.path[:0] = [str(SRC), str(HERE)]
    return measure(args, reference_many)


def measure(args, reference_many) -> dict:
    import calibration
    import oracle
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    specs = workload.plan(args.seed, args.seconds)
    setup_s, texts = measure_setup(workloads, specs)
    job = {"method": workload.method, "texts": texts, "seconds": args.seconds, "trace": args.trace}
    if args.out and args.trace:
        job["spans_path"] = args.out + ".spans.jsonl"
    records, returncode = run_child(job, timeout=min(150, 6 * args.seconds + 60))

    ops = [r for r in records if "t" in r]
    answers = {r["ans"]: r["value"] for r in records if "ans" in r}
    done = next((r for r in records if r.get("done")), None)
    kinds: dict[str, int] = {}
    for r in ops:
        if r["err"]:
            kinds[r["err"]] = kinds.get(r["err"], 0) + 1
    attempted = len(ops)
    if done is None:
        # the child died: what is left of the pass it was in counts as failed
        unfinished = len(texts) - len(ops) % len(texts)
        kinds[f"child_exit:{returncode}"] = unfinished
        attempted += unfinished
    failed = sum(kinds.values())

    problems, gaps = verify(oracle, workload.method, specs, texts, answers, reference_many)
    if done and done["mismatched"]:
        problems += [f"{specs[i].name}: answer changed between passes" for i in done["mismatched"]]
    correct = not problems

    closing = [done["c_end"]] if done and "c_end" in done else [r["c"] for r in ops[-1:]]
    scaled = calibration.scaled([r["t"] for r in ops], [r["c"] for r in ops] + closing,
                                [r.get("ticks", []) for r in ops])
    times = [t for t, r in zip(scaled, ops) if not r["err"]]
    p50, p75 = quartiles(times) if times else (0.0, 0.0)
    busy = sum(scaled)
    bound_gap = statistics.fmean(gaps) if gaps else 0.0
    end_to_end = {
        "ops_per_s": len(times) / busy if busy else 0.0,
        "op_s.p50": p50,
        "op_s.p75": p75,
        "peak_rss_mb": (done["maxrss_kb"] if done else 0) / 1024,
        "setup_s": setup_s,
        "failed_frac": failed / attempted if attempted else 0.0,
        "bound_gap": bound_gap,
    }
    units = dict(END_TO_END, **REPORTED_ONLY)
    if args.trace:
        layers = dict(done["layers"]) if done else {name: 0.0 for name in tracing.PER_LAYER}
        layers["bounds.gap"] = bound_gap
        metrics = {name: {"value": layers[name], "unit": u} for name, (u, _) in tracing.PER_LAYER.items()}
        counters = {name: layers[name] for name in tracing.DETERMINISTIC}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
        counters = {}
    counters["reference_chi.sum"] = sum(s.chi for s in specs if s.chi is not None)

    for line in problems[:20]:
        print(f"WRONG {line}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} samples={len(times)} "
          f"instances={len(texts)} failed_by_kind={json.dumps(kinds, sort_keys=True)}")
    if args.trace:
        print(f"  failed_frac = {end_to_end['failed_frac']:.6g} ratio")
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        if done:
            target = tracing.TARGET_LAYERS[args.workload]
            share = sum(layers[f"self.{layer}"] for layer in target)
            print(f"  target self share ({' + '.join(target)}) = {share:.3f}; spans={done['spans']}")
    else:
        for name, value in end_to_end.items():
            print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        manifest = [
            {
                "name": s.name, "generator": s.generator, "params": s.params, "relabel": s.relabel,
                "n": n, "edges": len(e), "arcs": len(a),
                "sha256": hashlib.sha256(t.encode()).hexdigest(), "reference_chi": s.chi,
            }
            for s, t, (n, e, a) in zip(specs, texts, (oracle.parse(t) for t in texts))
        ]
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      end_to_end={k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()},
                      failed_by_kind=kinds, samples=len(times), counters=counters,
                      problems=problems, manifest=manifest)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return result


def diff(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)["counters"]
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)["counters"]
    changed = 0
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            changed += 1
            print(f"{key}: {a.get(key)} -> {b.get(key)}")
    print(f"{changed} counter(s) changed")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["ndm-fpt", "sparse-branch", "dense-twdp", "analyze-large"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write metrics, counters and the instance manifest here")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare the counters of two --out files")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if not args.workload:
        parser.error("--workload is required")
    if not (SRC / "mixedcolor" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
