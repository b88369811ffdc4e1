#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload frame-atfim --seed 1 --seconds 20 --trace 0

Builds cmd/pimfarm and the perfbench program into .bench_build/bin with a
Go build cache under .bench_build, then replaces itself with the program,
passing every argument through. The program prints one JSON result line.
See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the checkout.
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        HOME=os.path.join(BUILD, "home"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def go_binary():
    go = shutil.which("go")
    if go:
        return go
    goroot = os.environ.get("GOROOT", "/usr/local/go")
    return os.path.join(goroot, "bin", "go")


def build():
    env = go_env()
    for d in (BIN, env["HOME"]):
        os.makedirs(d, exist_ok=True)
    go = go_binary()
    steps = [
        (ROOT, [go, "build", "-o", os.path.join(BIN, "pimfarm"), "./cmd/pimfarm"]),
        (HERE, [go, "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n%s" % (" ".join(cmd), proc.stdout))
            sys.exit(1)


def main():
    build()
    exe = os.path.join(BIN, "perfbench")
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
