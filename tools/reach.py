"""List the functions of ``src/parsentropy`` that no benchmark, pinned or verify run enters.

    python3 tools/reach.py OUT

Runs ``tools/snapshot_outputs.py``'s ``main([OUT/snapshot, "--seed", "7"])``
in this process under a ``sys.setprofile`` hook: every step of both benchmark
workloads with its report, the configs pinned in ``tests/test_pinned_outputs.py``
and ``verify --suite all``.  It then prints each function defined in
``src/parsentropy/*.py`` (methods and nested functions too, not lambdas) that
was never entered, as ``file:line  name  (length in lines)``, after a count
of what was reached.  It writes the same list to ``OUT/unreached.txt``.

The snapshot's temporary files go under ``OUT/tmp``, so nothing is written
outside OUT.  Run it in each of two trees and compare the two lists to see
what a change made unreachable.  Standard library only.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "parsentropy"


def defined_functions() -> dict:
    """``{(path, first line of the code object): (qualified name, length in lines)}`` for SRC/*.py.

    A code object's first line is that of its first decorator, if any.
    """
    found = {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    found[(str(path), first)] = (name, child.end_lineno - first + 1)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(args[0])
    (out / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(out / "tmp")
    spec = importlib.util.spec_from_file_location("snapshot_outputs", ROOT / "tools" / "snapshot_outputs.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        snapshot.main([str(out / "snapshot"), "--seed", "7"])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    found = defined_functions()
    missed = sorted(key for key in found if key not in entered)
    lines = [f"{Path(path).name}:{line}  {found[path, line][0]}  ({found[path, line][1]} lines)"
             for path, line in missed]
    head = (f"reached {len(found) - len(missed)} of {len(found)} functions; "
            f"{len(missed)} unreached span {sum(found[key][1] for key in missed)} lines")
    (out / "unreached.txt").write_text("\n".join([head] + lines) + "\n")
    print(head)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
