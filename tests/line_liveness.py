"""Print every statement of ``src/epg_mgcn/`` that the tier-1 tests never run.

Run it from the repository root after a change that adds or deletes code in
``src/``:

    python tests/line_liveness.py [extra pytest arguments]

It runs tier-1 in this process under a ``sys.settrace`` line tracer that
records lines of ``src/epg_mgcn/`` only, so the demo tests' subprocesses
are not counted. A statement is a line that starts an ``ast`` statement and
compiles to bytecode (docstrings and ``global`` lines do not). Statements in
``ALLOWED`` are expected to stay unexecuted. The script exits 1 when tier-1
fails, when any other statement never ran, or when an ``ALLOWED`` entry ran
or no longer exists; otherwise 0. It imports only the standard library and
runs pytest by module name.
"""

import ast
import os
import runpy
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "epg_mgcn"

# (file, the statement's first line, stripped) -> why tier-1 never runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard: the tests call main() in process",
    ("autograd.py", 'raise UsageError("backward() through a consumed graph node")'):
        "_consumed is a sentinel: backward() refuses a graph holding a "
        "consumed node before it runs any node's backward",
}


def statements(path: Path) -> dict:
    """Line number -> stripped source of each executable statement."""
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    compiled, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        compiled.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    lines = source.splitlines()
    return {n: lines[n - 1].strip() for n in sorted(starts & compiled)}


def run_traced(pytest_args) -> tuple:
    """(pytest exit code, {absolute file name: executed line numbers})."""
    root = str(PACKAGE) + os.sep
    hits, ours = {}, {}

    def trace_lines(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(root)
            if ours[name]:
                hits[name] = set()
        return trace_lines if ours[name] else None

    sys.path.insert(0, str(PACKAGE.parent))
    sys.argv = ["pytest", "-q", "--continue-on-collection-errors",
                "-p", "no:cacheprovider", *pytest_args]
    os.chdir(REPO)
    sys.settrace(trace_calls)
    try:
        runpy.run_module("pytest", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.settrace(None)
    executed = {}
    for name, lines in hits.items():
        executed.setdefault(os.path.realpath(name), set()).update(lines)
    return code, executed


def main(argv) -> int:
    code, executed = run_traced(argv)
    total, unexpected, allowed_seen = 0, [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path.resolve()), set())
        todo = statements(path)
        total += len(todo)
        for line, text in todo.items():
            if line in ran:
                continue
            if (path.name, text) in ALLOWED:
                allowed_seen.add((path.name, text))
            else:
                unexpected.append(f"src/epg_mgcn/{path.name}:{line}: {text}")
    stale = sorted(set(ALLOWED) - allowed_seen)
    print(f"\nline liveness: {len(unexpected) + len(allowed_seen)} of {total} "
          f"statements in src/epg_mgcn/ never ran; {len(allowed_seen)} of "
          "them are allowed")
    for entry in unexpected:
        print(f"  unexecuted: {entry}")
    for name, text in stale:
        print(f"  allowed but ran or gone: {name}: {text}")
    if code != 0:
        print(f"  tier-1 exited {code}")
    return 1 if unexpected or stale or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
