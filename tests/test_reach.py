"""Every function in the package runs in `fathorse run` plus `fathorse render`.

A fresh interpreter starts a call-only tracer before `import fathorse`,
runs the CLI on a small config and renders one figure from its dataset,
and prints the (file, first line) of every code object it entered.  Each
`def` of src/fathorse/*.py, found with ast, must be among them: code that
only the tests call belongs in tests/ (tests/oracles.py for per-point
oracles), not in the package.  runner.py also reads no underscore name of
another module, so each kernel's internals (the section geometry behind
horseshoe among them) stay with the module that owns them, and only its
run() writes to the output directory: the suites compute, so a refused
run leaves no file behind.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
entered = set()

def tracer(frame, event, arg):
    entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.settrace(tracer)
from fathorse import cli
out, config = sys.argv[1], sys.argv[2]
codes = [
    cli.main(["run", "--config", config, "--out", out]),
    cli.main(["render", "--input", out + "/figures/partition.json", "--kind", "partition",
              "--out", out + "/partition.svg"]),
]
sys.settrace(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _defs():
    """(file, first line, name) of every def; a decorated def starts at its
    first decorator, as its code object does."""
    for path in sorted((SRC / "fathorse").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield str(path.resolve()), first, node.name


def test_every_function_runs_in_the_cli(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"N": 2, "n_max": 2, "level_max": 4}))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "out"), str(config)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    entered = {(str(Path(f).resolve()), line) for f, line in result["entered"]}
    defs = list(_defs())
    assert len(defs) > 100
    never = [f"{Path(f).name}:{line} {name}" for f, line, name in defs if (f, line) not in entered]
    assert never == []


def test_runner_reads_no_private_name_of_another_module():
    # an underscore attribute is allowed only on runner's own classes
    tree = ast.parse((SRC / "fathorse" / "runner.py").read_text(encoding="utf-8"))
    own = {"self"} | {node.name for node in tree.body if isinstance(node, ast.ClassDef)}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    reads = [
        f"runner.py:{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id in own)
    ] + [
        f"runner.py:{node.lineno} import {alias.name}"
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if private(alias.name)
    ]
    assert reads == []


def test_only_run_writes_output():
    # run() alone calls the writers and makes directories; the two writers
    # are the only other callers of write_text, each writing the path it is given
    tree = ast.parse((SRC / "fathorse" / "runner.py").read_text(encoding="utf-8"))
    writers = {"_write_csv", "_write_json"}
    touching = {"_write_csv", "_write_json", "write_text", "mkdir", "open"}
    calls = [
        (fn.name, node.func.id if isinstance(node.func, ast.Name) else node.func.attr)
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    ]
    stray = sorted(
        f"{caller} calls {callee}" for caller, callee in set(calls)
        if callee in touching and caller != "run"
        and not (caller in writers and callee == "write_text")
    )
    assert stray == []
    assert {callee for caller, callee in calls if caller == "run"} >= touching - {"open"}
