"""Per-layer microbenchmark of the package's import: what every CLI start pays.

Prints three figures, in milliseconds:

- `import sl2btree.cli` in this process, compiled from source, with the
  package's modules dropped from `sys.modules` before each repeat, as the
  benchmark's set-up (`setup_s`) does; the standard library stays loaded
  after the first repeat, so this is the package's own cost. Minimum and
  median over the repeats.
- a cold `python -m sl2btree.cli covolume`, the minimum over sequential
  fresh processes, less the minimum of `python -c pass` run in turn with
  it, without bytecode (every module compiled from source);
- the same with bytecode: the package is compiled into the temporary copy
  that all runs import, never into the source tree.

Run from the root of a checkout; `--src` measures another checkout's
package, so that two commits can be compared on one machine:

    python3 tools/microbench_import.py [--src path/to/src]
"""

import argparse
import compileall
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

IN_PROCESS_REPEATS = 21
COLD_REPEATS = 15


def _in_process(src: pathlib.Path) -> list[float]:
    sys.dont_write_bytecode = True  # the copy has no bytecode, so every import compiles
    sys.path.insert(0, str(src))
    seconds = []
    for _ in range(IN_PROCESS_REPEATS):
        for name in [n for n in sys.modules if n == "sl2btree" or n.startswith("sl2btree.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        __import__("sl2btree.cli")
        seconds.append(time.perf_counter() - t0)
    sys.path.remove(str(src))
    return seconds


def _cold(argvs: list[list[str]], src: pathlib.Path) -> list[float]:
    """Fastest wall time of each `python argv` over fresh processes that write no bytecode.

    The commands take turns, so that each minimum comes from the same stretch
    of the machine's time.
    """
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    best = [float("inf")] * len(argvs)
    for _ in range(COLD_REPEATS):
        for i, argv in enumerate(argvs):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    root = pathlib.Path(__file__).resolve().parents[1]
    ap.add_argument("--src", type=pathlib.Path, default=root / "src")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp)
        shutil.copytree(
            args.src / "sl2btree", src / "sl2btree", ignore=shutil.ignore_patterns("__pycache__")
        )
        imports = _in_process(src)
        argvs = [["-c", "pass"], ["-m", "sl2btree.cli", "covolume"]]
        cold = [("no bytecode", _cold(argvs, src))]
        compileall.compile_dir(src / "sl2btree", quiet=1)
        cold.append(("bytecode", _cold(argvs, src)))
    ms = 1e3
    print(
        f"import sl2btree.cli in process, from source: min {min(imports) * ms:.1f}, "
        f"median {statistics.median(imports) * ms:.1f} ms over {IN_PROCESS_REPEATS}"
    )
    for label, (base, covolume) in cold:
        print(
            f"cold covolume, {label}: {covolume * ms:.1f} ms, python -c pass {base * ms:.1f} ms, "
            f"difference {(covolume - base) * ms:.1f} ms (minima over {COLD_REPEATS})"
        )


if __name__ == "__main__":
    main()
