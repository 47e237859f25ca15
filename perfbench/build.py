#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (perfbench/src) with the Scala compiler that ships in the
Spark distribution's jars, so no dependency resolution is needed. Output goes
to .bench_build/perfbench/classes-<hash of the sources>, which is reused
while the sources are unchanged.

    python3 perfbench/build.py      # prints the classes directory
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise BuildError("neither SPARK_HOME nor spark-submit on PATH is set")
        home = Path(submit).resolve().parent.parent
    jars = sorted(Path(home, "jars").glob("*.jar"))
    if not any(j.name.startswith("scala-compiler") for j in jars):
        raise BuildError(f"no scala-compiler jar in {home}/jars")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = Path(home, "bin", "java") if home else shutil.which("java")
    if exe is None or not Path(exe).exists():
        raise BuildError("no java executable (JAVA_HOME or PATH)")
    return str(exe)


def sources():
    main = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not main:
        raise BuildError(f"no program sources under {ROOT / 'src/main/scala'}")
    return main + sorted((BENCH / "src").rglob("*.scala"))


def build():
    jars = spark_jars()
    srcs = sources()
    digest = hashlib.sha256()
    for path in srcs + [BENCH / "build.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    digest.update("\n".join(j.name for j in jars).encode())
    classes = OUT / f"classes-{digest.hexdigest()[:16]}"
    if (classes / "BUILD_OK").exists():
        return classes
    if OUT.exists():
        for old in OUT.glob("classes-*"):
            shutil.rmtree(old)
    staging = OUT / "staging"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    cp = os.pathsep.join(str(j) for j in jars)
    cmd = [java(), "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(staging), "-classpath", cp] + [str(s) for s in srcs]
    print(f"# compiling {len(srcs)} sources", file=sys.stderr, flush=True)
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        raise BuildError(f"scalac exited with {done.returncode}")
    (staging / "BUILD_OK").write_text("ok\n")
    staging.rename(classes)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
