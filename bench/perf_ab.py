#!/usr/bin/env python3
"""Host-time A/B of the full-stack benchmark: a parent revision against this
checkout, on one machine, in one run.

    python3 bench/perf_ab.py <parent-rev>

Run from anywhere inside a git checkout. The script extracts <parent-rev>
with `git archive | tar -x` under .bench_build/ab/<sha>/ and builds it and
this checkout, each with its own perfbench/run.py (one unmeasured run per
tree). It then runs PAIRS alternating pairs of `perfbench/run.py --seconds 0`
per workload, seed 1; the parent runs first on even pairs. For each workload
and end_to_end metric it prints the median of the per-pair change/parent
ratios, their quartiles and how many pairs each side won (a tie counts for
neither), as a markdown table on stdout.

The workloads, metrics and bounds are the parent's BENCHMARK.json: a change
cannot loosen its own gate, and a workload or metric it adds goes ungated
until it is itself the parent. The change must still run and report every
one the parent lists.

Exit status 1 when any run does not report "correct": true, when the change
does not report a gated metric, or when a median ratio is worse than the
metric's bound: below 1 - bound for a higher-is-better metric, above
1 + bound for a lower-is-better one. The failures are named on stderr.
Exit status 2 on a bad command line or a revision git cannot resolve.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 30
SIDES = ("parent", "change")  # the order of even pairs
RUN_LIMIT_S = 600  # one run.py call, a cold build included


def die(msg, code=1):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(code)


def git(*args):
    res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if res.returncode != 0:
        die(f"git {' '.join(args)}: {res.stderr.decode().strip()}", 2)
    return res.stdout


def extract(rev):
    """The parent's tree under .bench_build/ab/<sha>/, extracted once."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = ROOT / ".bench_build" / "ab" / sha
    stamp = tree / ".extracted"
    if not stamp.is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(tree)],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            die(f"could not extract {rev} ({sha[:12]}) into {tree}")
        stamp.touch()
    if not (tree / "perfbench" / "run.py").is_file():
        die(f"{rev} ({sha[:12]}) has no perfbench/run.py")
    return sha, tree


def run(tree, workload, show_build=False):
    """One `run.py --seconds 0` in `tree`: its final JSON line, or None."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seconds", "0"]
    try:
        res = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                             stderr=None if show_build else subprocess.PIPE,
                             text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perf_ab: {tree}: {workload} ran past {RUN_LIMIT_S} s",
              file=sys.stderr)
        return None
    lines = res.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        doc = None
    if res.returncode != 0 or not correct(doc):
        print(f"perf_ab: {tree}: {workload} exited {res.returncode}\n"
              f"{res.stdout}{res.stderr or ''}", file=sys.stderr)
    return doc


def correct(doc):
    return isinstance(doc, dict) and doc.get("correct") is True


def gate(trees):
    """The parent's BENCHMARK.json, whose workloads and bounds gate the A/B."""
    path = trees["parent"] / "BENCHMARK.json"
    if not path.is_file():
        die(f"the parent ({trees['parent']}) has no BENCHMARK.json")
    return json.loads(path.read_text())


def verdict(end_to_end, pairs):
    """Judge interleaved pairs against the parent's end-to-end bounds.

    end_to_end: the parent's "end_to_end" list (name, better, bound).
    pairs: {workload: [(parent_doc, change_doc), ...]}, each doc the JSON
    line perfbench/run.py ends with (None for a run that printed none).
    Returns (rows, failures): one row per workload and metric, and one
    message per failed check. The A/B passes when failures is empty.
    """
    failures = []
    for workload, docs in pairs.items():
        bad = sum(not correct(d) for pair in docs for d in pair)
        if bad:
            failures.append(f"{workload}: {bad} run(s) not correct")
    if failures:
        return [], failures
    rows = []
    for workload, docs in pairs.items():
        for m in end_to_end:
            name, higher = m["name"], m["better"] == "higher"
            try:
                values = [(p["metrics"][name]["value"],
                           c["metrics"][name]["value"]) for p, c in docs]
            except KeyError:
                failures.append(f"{workload} {name}: not reported")
                continue
            ratios = [c / p for p, c in values]
            median = statistics.median(ratios)
            q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
            gains = [(c - p) if higher else (p - c) for p, c in values]
            change_wins = sum(g > 0 for g in gains)
            parent_wins = sum(g < 0 for g in gains)
            limit = 1 - m["bound"] if higher else 1 + m["bound"]
            ok = median >= limit if higher else median <= limit
            if not ok:
                failures.append(
                    f"{workload} {name}: median change/parent {median:.3f} "
                    f"{'<' if higher else '>'} {limit:.2f} (bound "
                    f"{m['bound']}, {m['better']} is better)")
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "better": m["better"],
                "parent": statistics.median(p for p, _ in values),
                "change": statistics.median(c for _, c in values),
                "ratio": median, "q1": q1, "q3": q3,
                "change_wins": change_wins, "parent_wins": parent_wins,
                "pairs": len(values), "limit": limit, "ok": ok})
    return rows, failures


def table(rows):
    out = ["| workload | metric | parent | change | change / parent "
           "(per-pair median) [IQR] | change wins | parent wins | limit |",
           "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        out.append(
            f"| `{r['workload']}` | `{r['metric']}` ({r['unit']}, "
            f"{r['better']}) | "
            f"{r['parent']:.6g} | {r['change']:.6g} | {r['ratio']:.3f}× "
            f"[{r['q1']:.3f}, {r['q3']:.3f}] | {r['change_wins']}/{r['pairs']} "
            f"| {r['parent_wins']}/{r['pairs']} | "
            f"{'≥' if r['better'] == 'higher' else '≤'} {r['limit']:.2f}"
            f"{'' if r['ok'] else ' FAILED'} |")
    return "\n".join(out)


def measure(trees, workloads):
    """PAIRS alternating pairs per workload; stops at the first bad run."""
    pairs = {}
    for workload in workloads:
        pairs[workload] = []
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            docs = {side: run(trees[side], workload) for side in order}
            pairs[workload].append((docs["parent"], docs["change"]))
            if not all(map(correct, docs.values())):
                return pairs
            print(f"perf_ab: {workload} pair {i + 1}/{PAIRS}",
                  file=sys.stderr)
    return pairs


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                allow_abbrev=False)
    p.add_argument("parent_rev", help="git revision to compare against")
    args = p.parse_args()
    sha, parent_tree = extract(args.parent_rev)
    head = git("rev-parse", "--short=12", "HEAD").decode().strip()
    trees = {"parent": parent_tree, "change": ROOT}
    spec = gate(trees)
    workloads = [w["name"] for w in spec["workloads"]]
    for side, tree in trees.items():
        print(f"perf_ab: building the {side} ({tree})", file=sys.stderr)
        if not correct(run(tree, workloads[0], show_build=True)):
            die(f"the {side}'s first run is not correct")

    pairs = measure(trees, workloads)
    rows, failures = verdict(spec["end_to_end"], pairs)
    print(f"parent {args.parent_rev} ({sha[:12]}) vs change: the checkout "
          f"at HEAD {head}, working tree included. {PAIRS} pairs of "
          f"`perfbench/run.py --seconds 0` per workload, seed 1, the parent "
          f"first on even pairs; the parent's BENCHMARK.json bounds.\n")
    print(table(rows))
    for f in failures:
        print(f"perf_ab: FAILED {f}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
