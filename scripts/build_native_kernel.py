#!/usr/bin/env python3
"""Build the optional compiled event-queue engine in place.

The simulation kernel works without it (the pure-Python heap in
``repro.simcore.events`` is the reference); when the shared object is
present next to ``_ckernel.c`` the ``native`` engine registers itself and
every simulator uses it. This script needs only a C compiler and the
CPython headers -- no third-party packages.

Usage::

    python scripts/build_native_kernel.py          # build if stale
    python scripts/build_native_kernel.py --force  # always rebuild
    python scripts/build_native_kernel.py --check  # 0 if importable
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "repro" / "simcore" / "_ckernel.c"


def target_path() -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return SOURCE.with_name("_ckernel" + suffix)


def importable() -> bool:
    code = "import repro.simcore._ckernel as m; assert m.EventHeap"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src")},
        capture_output=True,
    )
    return proc.returncode == 0


def build(force: bool) -> int:
    target = target_path()
    if not force and target.exists():
        if target.stat().st_mtime >= SOURCE.stat().st_mtime and importable():
            print(f"up to date: {target.name}")
            return 0
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        print("no C compiler found; the pure-Python backends remain in use")
        return 1
    include = sysconfig.get_paths()["include"]
    command = [
        compiler,
        "-O2",
        "-fPIC",
        "-shared",
        "-I",
        include,
        str(SOURCE),
        "-o",
        str(target),
    ]
    if sys.platform == "darwin":
        command.insert(1, "-undefined")
        command.insert(2, "dynamic_lookup")
    print(" ".join(command))
    proc = subprocess.run(command)
    if proc.returncode != 0:
        target.unlink(missing_ok=True)
        return proc.returncode
    if not importable():
        print("built module failed to import; removing it")
        target.unlink(missing_ok=True)
        return 1
    print(f"built {target.name}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--force", action="store_true", help="always rebuild")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 0 if the compiled backend imports, 1 otherwise",
    )
    options = parser.parse_args()
    if options.check:
        ok = importable()
        print("native kernel importable" if ok else "native kernel missing")
        return 0 if ok else 1
    return build(options.force)


if __name__ == "__main__":
    raise SystemExit(main())
