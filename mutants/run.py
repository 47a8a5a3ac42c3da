#!/usr/bin/env python3
"""Mutation check: every mutant in mutants/mutants.json must fail its tests.

Each mutant replaces one exact text in one file and names the tests that
must fail on the mutated tree, as `[package, target, test]`: `target` is
`lib` for a crate's unit tests or the name of an integration test. The
runner exports HEAD with `git archive` into a temporary directory and
checks that every named test passes there unmutated. It then applies one
mutant at a time and runs each of its tests alone (`--exact`, release
profile). Every build shares one cargo target directory,
`target/mutants`, so a mutant rebuilds only the crates its file reaches.

    python3 mutants/run.py

Run from the repository root. Exits non-zero, before building anything,
when a mutant's text is not found exactly once in its file; otherwise
when a named test does not pass unmutated, when a mutated tree does not
build, or when a mutant survives any test named for it.
"""

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time


def cargo(tree, target_dir, test, run):
    """Build (run=False) or run alone (run=True) one named test."""
    package, target, name = test
    cmd = ["cargo", "test", "--offline", "--release", "-q", "-p", package]
    cmd += ["--lib"] if target == "lib" else ["--test", target]
    cmd += ["--", name, "--exact"] if run else ["--no-run"]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


def label(test):
    return " ".join(test)


def check_list(spec):
    """Problems with the mutant list's shape, as a list of strings."""
    bad = []
    names = [m.get("name") for m in spec.get("mutants", [])]
    if not names or len(names) != len(set(names)):
        bad.append("mutant names missing or repeated")
    for m in spec.get("mutants", []):
        if set(m) != {"name", "file", "find", "replace", "tests"}:
            bad.append(f"{m.get('name')}: fields {sorted(m)}")
        elif not m["tests"] or any(len(t) != 3 for t in m["tests"]):
            bad.append(f"{m['name']}: tests must be [package, target, test] triples")
        elif m["find"] == m["replace"]:
            bad.append(f"{m['name']}: the replacement equals the text")
    return bad


def main():
    with open("mutants/mutants.json") as f:
        spec = json.load(f)
    problems = check_list(spec)
    if problems:
        sys.exit("mutants.json: " + "; ".join(problems))
    mutants = spec["mutants"]
    target_dir = os.path.abspath("target/mutants")

    with tempfile.TemporaryDirectory(prefix="og-mutants-") as tree:
        archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"],
                                 capture_output=True, check=True).stdout
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(tree, filter="data")

        not_once = []
        for m in mutants:
            with open(os.path.join(tree, m["file"])) as f:
                found = f.read().count(m["find"])
            if found != 1:
                not_once.append(f"{m['name']}: text found {found} times in {m['file']}")
        if not_once:
            sys.exit("\n".join(not_once))
        tests = sorted({tuple(t) for m in mutants for t in m["tests"]})
        print(f"unmutated HEAD: {len(tests)} tests", flush=True)
        unmutated = []
        for test in tests:
            done = cargo(tree, target_dir, test, run=True)
            if done.returncode != 0 or "1 passed" not in done.stdout:
                unmutated.append(f"unmutated: {label(test)} is missing or fails")
                print(done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
        if unmutated:
            sys.exit("\n".join(unmutated))

        failures = []
        for m in mutants:
            path = os.path.join(tree, m["file"])
            with open(path) as f:
                original = f.read()
            start = time.monotonic()
            with open(path, "w") as f:
                f.write(original.replace(m["find"], m["replace"]))
            try:
                survivors, broken = [], []
                for test in m["tests"]:
                    build = cargo(tree, target_dir, test, run=False)
                    if build.returncode != 0:
                        broken.append(label(test))
                        print(build.stderr[-2000:], file=sys.stderr)
                    elif cargo(tree, target_dir, test, run=True).returncode == 0:
                        survivors.append(label(test))
            finally:
                with open(path, "w") as f:
                    f.write(original)
            secs = time.monotonic() - start
            if broken:
                failures.append(f"{m['name']}: does not build for {', '.join(broken)}")
                print(f"{m['name']}: DOES NOT BUILD ({secs:.0f} s)", flush=True)
            elif survivors:
                failures += [f"{m['name']}: survives {t}" for t in survivors]
                print(f"{m['name']}: SURVIVES {len(survivors)} of {len(m['tests'])} tests "
                      f"({secs:.0f} s)", flush=True)
            else:
                print(f"{m['name']}: killed by all {len(m['tests'])} tests ({secs:.0f} s)",
                      flush=True)

    if failures:
        print("\n".join(failures), file=sys.stderr)
        sys.exit(1)
    print(f"all {len(mutants)} mutants killed")


if __name__ == "__main__":
    main()
