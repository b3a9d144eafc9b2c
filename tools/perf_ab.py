#!/usr/bin/env python3
"""A/B-tests two revisions on the repository benchmark (perfbench).

    python3 tools/perf_ab.py --base REV [--change REV] --workload W \
        --pairs N --seconds S --seed S [--trace 0|1]

Run from anywhere inside the repository.  Both revisions are exported with
`git archive` into target/perf-ab/base and target/perf-ab/change, so neither
side runs from the working tree and both sides' sources sit at the same
depth.  Each side's run.py builds perfbench into its own CARGO_TARGET_DIR
(target/perf-ab/<side>-target); an export is reused, with its build, while
it still holds the requested commit.

Pair i runs `perfbench/run.py` once per side with seed S+i, and the side
that goes first alternates from pair to pair.  For every metric that
BENCHMARK.json declares (end-to-end with --trace 0, per-layer with
--trace 1) the tool prints each side's median and quartiles over the pairs,
the ratio change/base, how many pairs the change won (direction from the
metric's `better`), and whether the medians lie further apart than the
base's interquartile range.  A metric with a `bound` (the end-to-end ones)
also gets a verdict in the `bound` column, the first of these that holds:
`better` (every change run beats every base run), `unresolved` (the base's
interquartile range is wider than bound x the base median), `over` (the
change median is worse than the base median by more than the bound) or
`ok`.  The `claim` column reads `gain` when the change won at least 9 of
every 10 pairs and the medians lie further apart than the base's
interquartile range (the test a claimed gain must pass), and is empty
otherwise.  The verdicts and claims do not change the exit status.

A metric that no pair read on both sides still gets a row: a run reports
null for a metric it did not measure (a per-layer rung that times an event
the run never saw, such as `epoch_chain.grow_call_us.*` when the traced
replay never grows the chain).  Each side's cell then holds its median over
the runs that read the metric, followed by `null in k/N` when k of the N
pairs read null on that side, and the comparison columns read `-`.  The
per-pair values are written to
target/perf-ab/<workload>-seed<S>-trace<T>.json.  Exits non-zero if a
build or a run fails or a run is not `"correct": true`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(root: Path, out: Path, side: str, rev: str) -> tuple[Path, Path]:
    """Exports `rev` into out/<side> unless it already holds that commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree, target = out / side, out / f"{side}-target"
    stamp = out / f"{side}.commit"
    if not (stamp.exists() and stamp.read_text() == commit and tree.is_dir()):
        shutil.rmtree(tree, ignore_errors=True)
        shutil.rmtree(target, ignore_errors=True)
        tree.mkdir(parents=True)
        archive = subprocess.Popen(["git", "-C", str(root), "archive", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"perf_ab: git archive {rev} failed")
        stamp.write_text(commit)
    print(f"perf_ab: {side} = {rev} ({commit[:12]})", file=sys.stderr)
    return tree, target


def run(tree: Path, target: Path, args, seed: int, side: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", args.trace]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    result = subprocess.run(cmd, cwd=tree, env=env, text=True, check=False,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = result.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if lines else {}
    if result.returncode != 0 or record.get("correct") is not True:
        sys.stderr.write(result.stderr)
        sys.exit(f"perf_ab: {side} run with seed {seed} failed "
                 f"(exit {result.returncode}): {lines[-1] if lines else 'no output'}")
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def num(v: float) -> str:
    return f"{v:.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def cell(q: tuple[float, float, float]) -> str:
    return f"{num(q[1])} [{num(q[0])}-{num(q[2])}]"


def verdict(metric: dict, both: list[tuple[float, float]],
            base: tuple[float, float, float], change: tuple[float, float, float]) -> str:
    """Judges a metric against its `bound`; empty for a metric without one."""
    bound = metric.get("bound")
    if bound is None:
        return ""
    sign = 1 if metric["better"] == "higher" else -1
    if min(sign * c for _, c in both) > max(sign * b for b, _ in both):
        return "better"
    if base[2] - base[0] > bound * abs(base[1]):
        return "unresolved"
    if sign * (base[1] - change[1]) > bound * abs(base[1]):
        return "over"
    return "ok"


def claim(won: int, pairs: int, apart: bool) -> str:
    """`gain` when the change won at least 9/10 of the pairs and the medians
    lie further apart than the base's interquartile range; empty otherwise."""
    return "gain" if apart and 10 * won >= 9 * pairs else ""


def side_cell(values: list) -> str:
    """One side's cell for a metric that no pair read on both sides: its
    median and quartiles over the runs that read it, and how many read null."""
    read = [v for v in values if v is not None]
    nulls = f"null in {len(values) - len(read)}/{len(values)}"
    if not read:
        return nulls
    return cell(quartiles(read)) + (f", {nulls}" if len(read) < len(values) else "")


def report(spec: list[dict], pairs: list[dict]) -> None:
    header = f"{'metric':<34} {'base median [q1-q3]':>28} {'change median [q1-q3]':>28}" \
             f" {'ratio':>7} {'won':>6} {'apart':>6} {'bound':>10} {'claim':>5}"
    print(header)
    print("-" * len(header))
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(p["base"].get(name), p["change"].get(name)) for p in pairs]
        both = [(b, c) for b, c in both if b is not None and c is not None]
        if not both:
            base, change = ([p[side].get(name) for p in pairs] for side in SIDES)
            print(f"{name:<34} {side_cell(base):>28} {side_cell(change):>28} {'-':>7}"
                  f" {'-':>6} {'-':>6} {'-':>10} {'':>5}")
            continue
        base = quartiles([b for b, _ in both])
        change = quartiles([c for _, c in both])
        won = sum((c > b) if higher else (c < b) for b, c in both)
        ratio = change[1] / base[1] if base[1] else float("nan")
        apart = abs(change[1] - base[1]) > base[2] - base[0]
        print(f"{name:<34} {cell(base):>28} {cell(change):>28} {ratio:>7.3f}"
              f" {won:>3}/{len(both):<2} {'yes' if apart else 'no':>6}"
              f" {verdict(metric, both, base, change):>10} {claim(won, len(both), apart):>5}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision under test (HEAD)")
    parser.add_argument("--workload", required=True, choices=["churn", "reclaim", "bursty"])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="pair i uses seed+i")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("perf_ab: --pairs must be at least 1")

    root = Path(git("rev-parse", "--show-toplevel"))
    out = root / "target" / "perf-ab"
    sides = {side: export(root, out, side, rev)
             for side, rev in zip(SIDES, (args.base, args.change))}

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            record = run(*sides[side], args, seed, side)
            pair[side] = {k: v["value"] for k, v in record["metrics"].items()}
        pairs.append(pair)
        print(f"perf_ab: pair {i + 1}/{args.pairs} done (seed {seed}, "
              f"{order[0]} first)", file=sys.stderr)

    bench = json.loads((sides["change"][0] / "BENCHMARK.json").read_text())
    spec = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    raw = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"base": args.base, "change": args.change,
                               "workload": args.workload, "seconds": args.seconds,
                               "trace": args.trace, "pairs": pairs}, indent=1))
    print(f"# {args.workload}: {args.pairs} pairs x {args.seconds:g} s, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}, base {args.base}, "
          f"change {args.change}; per-pair values in {raw}")
    report(spec, pairs)


if __name__ == "__main__":
    main()
