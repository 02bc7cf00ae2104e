#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the root of a checkout; every argument is passed on:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

The binary, the Go build cache and the traced run's spans all go under
$CARGO_TARGET_DIR (default .bench_build) inside the checkout, so nothing is
read from or written to the home directory. A failed build exits non-zero
without printing a result line.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(out, "home")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOENV="off",
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    # PATH first, then $GOROOT, then the standard install location.
    candidates = [shutil.which("go"), os.path.join(os.environ.get("GOROOT", ""), "bin", "go"), "/usr/local/go/bin/go"]
    go = next((c for c in candidates if c and os.access(c, os.X_OK)), None)
    if go is None:
        print("perfbench: no go toolchain found", file=sys.stderr)
        return 2
    os.makedirs(home, exist_ok=True)
    exe = os.path.join(out, "perfbench", "perfbench")
    build = subprocess.run([go, "build", "-buildvcs=false", "-o", exe, "."], cwd=src, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    spans = os.path.join(out, "perfbench", "spans")
    return subprocess.run([exe, *sys.argv[1:], "--span-dir", spans], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
