"""A seeded mutation survey of the weil_lab package: how many small code
changes `weil-lab verify all` catches, and how many only Tier-1 does.

Sites. Every module of the package but cli.py and __init__.py is parsed
with ast, and each of these is a site:
  - a binary + made -, - made +, * made / and / made *;
  - a single comparison < made <=, <= made <, > made >= and >= made >;
  - a nonzero float literal times (1 + 1e-6) (a zero literal would not
    change);
  - a unary minus dropped.
A site is keyed by its module, kind and the start and end (line, column)
of the node it changes, so nested operators that share a start position
are distinct sites. The seed and the sample size pick the mutants, by
random.Random(seed).sample over the sites in key order; no site is
filtered after an outcome is seen.

Runs. Each mutant is a copy of the package with the one module rewritten
by ast.unparse (which, on an unchanged module, gives a byte-equal report).
It runs

    python -m weil_lab.cli --height-T 50 --cutoff-Z 500 verify all

in a fresh process over that copy, with a 120 s timeout. With --tier1,
each mutant that exits 0 then runs Tier-1 (pytest -x over the tests/
directory beside the tree's src/) against the same copy.

    python tools/survey_mutants.py --seed 1 --sample 20
    python tools/survey_mutants.py --seed 1 --sample 240 --tier1

MUTANTS.json (--out) lists, per mutant: the site, the failing rows, the
exit code (null on a timeout), the last line of its stderr, and the first
failing Tier-1 test, "survived", or "not run". The counts by exit code
and by outcome are printed.
"""

from __future__ import annotations

import argparse
import ast
import collections
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
VERIFY = ["--height-T", "50", "--cutoff-Z", "500", "verify", "all"]
SKIPPED = ("cli.py", "__init__.py")
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _kind(node):
    """The mutation a node takes, or None."""
    if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
        return "%s->%s" % (type(node.op).__name__, SWAPS[type(node.op)].__name__)
    if (isinstance(node, ast.Compare) and len(node.ops) == 1
            and type(node.ops[0]) in SWAPS):
        return "%s->%s" % (type(node.ops[0]).__name__, SWAPS[type(node.ops[0])].__name__)
    if isinstance(node, ast.Constant) and type(node.value) is float and node.value != 0.0:
        return "float*(1+1e-6)"
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return "drop-unary-minus"
    return None


def _key(module, node):
    return (module, _kind(node), node.lineno, node.col_offset,
            node.end_lineno, node.end_col_offset)


def find_sites(src):
    """The site keys of the package at src, in key order."""
    sites = set()
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py") and fname not in SKIPPED:
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            sites.update(_key(fname, node) for node in ast.walk(tree) if _kind(node))
    return sorted(sites)


class _Mutate(ast.NodeTransformer):
    """Applies the mutation of one site key to the node that has it."""

    def __init__(self, key):
        self.key, self.applied = key, 0

    def generic_visit(self, node):
        node = super().generic_visit(node)
        if not (_kind(node) and _key(self.key[0], node) == self.key):
            return node
        self.applied += 1
        if isinstance(node, ast.BinOp):
            node.op = SWAPS[type(node.op)]()
        elif isinstance(node, ast.Compare):
            node.ops = [SWAPS[type(node.ops[0])]()]
        elif isinstance(node, ast.Constant):
            node.value *= 1.0 + 1e-6
        else:
            return node.operand
        return node


def mutant_source(src, key):
    with open(os.path.join(src, key[0]), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    mutate = _Mutate(key)
    tree = mutate.visit(tree)
    if mutate.applied != 1:
        raise RuntimeError("site %r matched %d nodes" % (key, mutate.applied))
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def _run(cmd, cwd, timeout):
    env = dict(os.environ, PYTHONPATH=cwd, OPENBLAS_NUM_THREADS="1")
    try:
        done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timeout after %d s" % timeout, ""
    return done.returncode, (done.stderr.strip().splitlines() or [""])[-1], done.stdout


def run_mutant(src, key, tests):
    """The record of one mutant: its verify run, then Tier-1 if tests."""
    work = tempfile.mkdtemp(prefix="mutant_")
    try:
        pkg = os.path.join(work, os.path.basename(os.path.normpath(src)))
        shutil.copytree(src, pkg, ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(pkg, key[0]), "w", encoding="utf-8") as fh:
            fh.write(mutant_source(src, key))
        out = os.path.join(work, "out")
        code, last, _ = _run([sys.executable, "-m", "weil_lab.cli"] + VERIFY
                             + ["--out", out], work, 120)
        report = os.path.join(out, "report_all.json")
        failing = None
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                failing = [r["check_id"] for r in json.load(fh) if not r["pass"]]
        tier1 = "not run"
        if tests and code == 0:
            rc, _, stdout = _run([sys.executable, "-m", "pytest", "-x", "-q",
                                  "-p", "no:cacheprovider", tests], work, 1200)
            failed = [ln.split()[1] for ln in stdout.splitlines()
                      if ln.startswith(("FAILED ", "ERROR "))]
            if failed:      # pytest names the test by its path from work
                path, _, name = failed[0].partition("::")
                tier1 = "%s::%s" % (os.path.relpath(os.path.join(work, path),
                                                    os.path.dirname(tests)), name)
            else:
                tier1 = "survived" if rc == 0 else "exit %s" % rc
        module, kind, line, col, end_line, end_col = key
        return {"site": {"module": module, "kind": kind, "start": [line, col],
                         "end": [end_line, end_col]},
                "exit_code": code, "failing_rows": failing, "stderr_last_line": last,
                "tier1": tier1}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def outcome(record):
    if record["exit_code"] == 0:
        return {"not run": "passes verify all", "survived": "neither"}.get(
            record["tier1"], "Tier-1 only")
    if record["exit_code"] == 1 and record["failing_rows"]:
        return "a row fails"
    return "exits with an error"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sample", type=int, default=20)
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src", "weil_lab"),
                        help="the package tree to mutate")
    parser.add_argument("--tier1", action="store_true",
                        help="run Tier-1 on each mutant that exits 0")
    parser.add_argument("--out", default="MUTANTS.json")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    tests = (os.path.join(os.path.dirname(os.path.dirname(src)), "tests")
             if args.tier1 else None)
    sites = find_sites(src)
    sample = random.Random(args.seed).sample(sites, min(args.sample, len(sites)))
    print("%d sites in %s; seed %d, %d mutants" % (len(sites), src, args.seed, len(sample)))
    records = []
    for i, key in enumerate(sample, start=1):
        records.append(run_mutant(src, key, tests))
        r, what = records[-1], outcome(records[-1])
        if what == "exits with an error":
            what += " (%s)" % r["stderr_last_line"]
        print("%3d/%d %s:%d:%d %-16s exit %-4s %s" % (
            i, len(sample), key[0], key[2], key[3], key[1], r["exit_code"], what))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"seed": args.seed, "sample": args.sample, "sites": len(sites),
                   "tier1": args.tier1, "mutants": records}, fh, indent=2)
        fh.write("\n")
    codes = collections.Counter(str(r["exit_code"]) for r in records)
    outcomes = collections.Counter(outcome(r) for r in records)
    print("exit codes: " + ", ".join("%s: %d" % kv for kv in sorted(codes.items())))
    print("outcomes: " + ", ".join("%s: %d" % kv for kv in sorted(outcomes.items())))
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
