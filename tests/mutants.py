#!/usr/bin/env python3
"""Run the hand mutants of tests/mutants.txt.

Copies the working tree (tracked and untracked, ignored files left out)
to a temporary directory, then for each mutant: replaces its one line,
builds the named tests, runs each one alone, and restores the file. The
run fails when a named test passes on its mutant (the mutant survived),
when a mutant's anchor line is gone or ambiguous, or when a mutated tree
does not build. Offline, standard library only.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py remove     # mutants whose name contains "remove"
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIST = os.path.join(ROOT, "tests", "mutants.txt")
FIELDS = {"name", "file", "after", "line", "with", "kill"}


def parse(text):
    """The mutants of the list, one dict each; `kill` is a list."""
    mutants = []
    for block in text.split("\n\n"):
        lines = [l for l in block.splitlines() if l and not l.startswith("#")]
        if not lines:
            continue
        m = {"kill": []}
        for l in lines:
            key, sep, value = l.partition(":")
            if not sep or key not in FIELDS:
                raise SystemExit(f"{LIST}: not a field: {l!r}")
            if key == "kill":
                m["kill"].append(value.split())
            else:
                m[key] = value.strip()
        missing = {"name", "file", "line", "with"} - m.keys()
        if missing or not m["kill"]:
            raise SystemExit(f"{LIST}: {m.get('name', block)!r} lacks {sorted(missing) or ['kill']}")
        mutants.append(m)
    return mutants


def mutate(text, m):
    """`(text with the mutant's line replaced, None)`, or `(None, why not)`."""
    lines = text.split("\n")
    start = 0
    if "after" in m:
        hits = [i for i, l in enumerate(lines) if l.strip() == m["after"]]
        if len(hits) != 1:
            return None, f"`after` line occurs {len(hits)} times: {m['after']!r}"
        start = hits[0] + 1
    hits = [i for i, l in enumerate(lines) if i >= start and l.strip() == m["line"]]
    if not hits or ("after" not in m and len(hits) > 1):
        return None, f"`line` occurs {len(hits)} times: {m['line']!r}"
    at = hits[0]
    indent = lines[at][: len(lines[at]) - len(lines[at].lstrip())]
    if m["with"]:
        lines[at] = indent + m["with"]
    else:
        del lines[at]
    return "\n".join(lines), None


def copy_tree(dest):
    listed = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
    for rel in filter(None, listed.decode().split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def cargo(tree, target, args):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(["cargo", "test", "--offline", "-q"] + args, cwd=tree, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def run(m, tree, target):
    """Problems with one mutant; empty when every named test killed it."""
    path = os.path.join(tree, m["file"])
    with open(path) as f:
        original = f.read()
    mutated, error = mutate(original, m)
    if error:
        return [error]
    with open(path, "w") as f:
        f.write(mutated)
    problems = []
    try:
        for kill in m["kill"]:
            args, test = kill[:-1], kill[-1]
            built = cargo(tree, target, args + ["--no-run"])
            if built.returncode != 0:
                problems.append(f"does not build for {' '.join(args)}:\n{built.stdout[-2000:]}")
                continue
            ran = cargo(tree, target, args + ["--", "--exact", test])
            if ran.returncode == 0:
                problems.append(f"survived {' '.join(kill)}")
            elif "1 failed" not in ran.stdout:
                problems.append(f"{' '.join(kill)} did not run as one failing test:\n"
                                f"{ran.stdout[-2000:]}")
    finally:
        with open(path, "w") as f:
            f.write(original)
    return problems


def main():
    with open(LIST) as f:
        mutants = parse(f.read())
    wanted = sys.argv[1:]
    mutants = [m for m in mutants if not wanted or any(w in m["name"] for w in wanted)]
    if not mutants:
        raise SystemExit(f"no mutant in {LIST} matches {wanted}")
    scratch = tempfile.mkdtemp(prefix="mutants-")
    failed = 0
    try:
        tree, target = os.path.join(scratch, "tree"), os.path.join(scratch, "target")
        copy_tree(tree)
        for m in mutants:
            problems = run(m, tree, target)
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'killed'}: {m['name']}", flush=True)
            for p in problems:
                print(f"    {p}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed by every named test")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
