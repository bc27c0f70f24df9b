"""List the functions of src/hopfs3 that no CLI path or acceptance
criterion enters.

In this one process, under sys.setprofile, it runs the commands of
README's CLI block, ``hopfs3 verify all --a1=1/3 --a2=-1/2`` and
``pytest tests/test_acceptance.py``.  It then prints, one a line as
``module.qualname``, every function and method defined in src/hopfs3
(dunders, lambdas and comprehensions aside) that none of them called.
Only that list goes to stdout; the pytest report and the exit codes go
to stderr.  It exits 1 when a CLI command or the pytest run fails.
tools/unreached.txt holds the list as committed, so that

    python3 tools/reachability.py | diff tools/unreached.txt -

fails when a function becomes unreached (or reached) without the list
being updated.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def defined_functions() -> dict:
    """(file, first line) -> module.qualname of every named function
    or method; dunders, lambdas and comprehensions aside."""
    out = {}
    for path in sorted((SRC / "hopfs3").glob("*.py")):
        # (code, qualname), the qualname built from the class/def nesting
        todo = [(compile(path.read_text(), str(path), "exec"), "")]
        while todo:
            code, qualname = todo.pop()
            if code.co_flags & inspect.CO_NEWLOCALS:      # not a class body
                inner = qualname + ".<locals>."
                if not code.co_name.startswith(("<", "__")):
                    out[str(path), code.co_firstlineno] = (
                        f"{path.stem}.{qualname}")
            else:                                         # module or class
                inner = qualname and qualname + "."
            todo.extend((c, inner + c.co_name) for c in code.co_consts
                        if hasattr(c, "co_code"))
    return out


def readme_commands() -> list:
    text = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(ln)[1:] for ln in block.splitlines()
            if ln.strip() and not ln.startswith("#")]


def main() -> int:
    import pytest

    from hopfs3.cli import main as hopfs3

    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    runs = readme_commands() + [["verify", "all", "--a1=1/3", "--a2=-1/2"]]
    cwd = os.getcwd()
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            Path("pairs.txt").write_text("1, 0\n-1/2, 1/3\n")
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [hopfs3(argv) for argv in runs]
            os.chdir(cwd)
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  str(ROOT / "tests" / "test_acceptance.py")])
    finally:
        sys.setprofile(None)
        os.chdir(cwd)
    print(f"exit codes: CLI {codes}, pytest {int(status)}", file=sys.stderr)
    defined = defined_functions()
    for key in sorted(set(defined) - entered, key=defined.get):
        print(defined[key])
    # a list taken from a run that failed part way says nothing
    return 1 if any(codes) or status else 0


if __name__ == "__main__":
    sys.exit(main())
