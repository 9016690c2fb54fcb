#!/usr/bin/env python3
"""Build file of the benchmark.

Compiles, with scalac run straight from the Scala compiler jars in the local
coursier cache (no sbt, no network):
  - every program source under src/main/scala that needs only the Scala
    library (the Spark and DuckDB layers are left out: the benchmark does not
    measure them), and
  - the benchmark's own sources under perfbench/src.

The classes go to <out>/classes and are rebuilt only when a source changes.

    python3 perfbench/build.py [out-dir]     # prints the runtime classpath
"""
import glob
import hashlib
import os
import re
import shutil
import subprocess
import sys

SCALA_VERSION = "2.13.17"  # the repository's build.sbt scalaVersion
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NEEDS_MORE_THAN_SCALA = re.compile(r"org\.apache\.spark|duckdb|java\.sql")


class BuildError(Exception):
    pass


def scala_jar(artifact):
    caches = [os.environ.get("COURSIER_CACHE"), os.path.expanduser("~/.cache/coursier")]
    for cache in filter(None, caches):
        pattern = f"{cache}/**/org/scala-lang/{artifact}/{SCALA_VERSION}/{artifact}-{SCALA_VERSION}.jar"
        hits = sorted(glob.glob(pattern, recursive=True))
        if hits:
            return hits[0]
    raise BuildError(f"{artifact}-{SCALA_VERSION}.jar is not in the coursier cache")


def sources():
    program = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src/main/scala/**/*.scala"), recursive=True)):
        with open(path, encoding="utf-8") as f:
            if not NEEDS_MORE_THAN_SCALA.search(f.read()):
                program.append(path)
    if not program:
        raise BuildError("no program sources under src/main/scala")
    bench = sorted(glob.glob(os.path.join(HERE, "src/**/*.scala"), recursive=True))
    return program + bench


def build(out_dir):
    """Compiles if needed; returns the runtime classpath."""
    library, reflect, compiler = (scala_jar(a) for a in ("scala-library", "scala-reflect", "scala-compiler"))
    srcs = sources()
    h = hashlib.sha256(SCALA_VERSION.encode())
    for path in srcs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    stamp = os.path.join(out_dir, "stamp")
    classes = os.path.join(out_dir, "classes")
    classpath = os.pathsep.join([classes, library])
    if os.path.isdir(classes) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == h.hexdigest():
                return classpath
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", os.pathsep.join([compiler, library, reflect]),
           "scala.tools.nsc.Main", "-classpath", library, "-nowarn", "-d", tmp] + srcs
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BuildError("scalac failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.replace(tmp, classes)
    with open(stamp, "w") as f:
        f.write(h.hexdigest())
    return classpath


if __name__ == "__main__":
    try:
        print(build(sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, ".bench_build", "perfbench")))
    except BuildError as e:
        sys.exit(f"build failed: {e}")
