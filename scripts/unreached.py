"""Statements of `src/topoinv` that no run reaches, and those only tests reach.

    python3 scripts/unreached.py

Runs tier-1 (`pytest -q`), each `configs/*.cfg` through the CLI with its own
task, and each `scripts/run_*.py` (in an empty working directory), at one
worker and one BLAS thread.  A `sitecustomize` on PYTHONPATH installs a
`sys.settrace` line hook in every Python process they start; pool workers
exit without writing their lines, hence one worker.  Prints (a) the
statements no run executes and (b) those only tier-1 executes, as
`file:line  source`.  Exit code 1 when (a) holds a `raise` or tier-1 fails.
"""

import ast
import configparser
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "topoinv"
HOOK = """import atexit, os, sys, threading
hits, src = set(), os.environ["UNREACHED_SRC"]
def local(frame, event, arg):
    hits.add(f"{frame.f_code.co_filename}:{frame.f_lineno}")
    return local
def hook(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(src) else None
sys.settrace(hook)
threading.settrace(hook)
def dump():
    with open(os.path.join(os.environ["UNREACHED_OUT"], f"hits-{os.getpid()}"), "w") as fh:
        fh.write("\\n".join(hits))
atexit.register(dump)
"""


def statements(path: Path):
    """(first line, lines whose line event means it ran, is a raise) of each statement
    but docstrings: a compound statement runs its header or its first body line."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.stmt) and not (isinstance(node, ast.Expr)
                                               and isinstance(node.value, ast.Constant)):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            last = node.body[0].lineno if hasattr(node, "body") else node.end_lineno
            yield node.lineno, range(first, last + 1), isinstance(node, ast.Raise)


def traced(tmp: Path, name: str, command: list[str], cwd: Path | None = None):
    """Exit code of `command` under the line hook, and the `file:line` it ran."""
    out = tmp / name
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": f"{tmp}:{ROOT / 'src'}", "TOPO_WORKERS": "1",
           "OPENBLAS_NUM_THREADS": "1", "UNREACHED_SRC": str(SRC), "UNREACHED_OUT": str(out)}
    code = subprocess.run(command, cwd=cwd or out, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    return code, {hit for p in out.glob("hits-*") for hit in p.read_text().split()}


def main() -> int:
    runs = set()
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        tmp = Path(tmp)
        (tmp / "sitecustomize.py").write_text(HOOK)
        code, tests = traced(tmp, "tier-1", [sys.executable, "-m", "pytest", "-q"], ROOT)
        for cfg in sorted((ROOT / "configs").glob("*.cfg")):
            parser = configparser.ConfigParser()
            parser.read(cfg)
            runs |= traced(tmp, cfg.stem, [sys.executable, "-m", "topoinv.cli", parser["task"]["name"],
                                           "--config", str(cfg), "--out", "."])[1]
        for script in sorted((ROOT / "scripts").glob("run_*.py")):
            runs |= traced(tmp, script.stem, [sys.executable, str(script)])[1]
    total, unreached, only_tests = 0, [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line, (span, is_raise) in sorted({s[0]: s[1:] for s in statements(path)}.items()):
            total += 1
            ran = {f"{path}:{n}" for n in span}
            row = (f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}", is_raise)
            if not ran & runs:
                (only_tests if ran & tests else unreached).append(row)
    for title, rows in ((f"(a) of {total} statements, no run reaches", unreached),
                        ("(b) only tier-1 reaches", only_tests)):
        print(f"{title} {len(rows)} ({sum(r for _, r in rows)} raise)")
        print("".join(f"  {text}\n" for text, _ in rows))
    print(f"tier-1 exit code {code}")
    return int(code != 0 or any(r for _, r in unreached))


if __name__ == "__main__":
    sys.exit(main())
