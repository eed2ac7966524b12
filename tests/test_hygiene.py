"""Source hygiene, checked with the standard library only.

The benchmark's tracer patches the functions named in
`smokebench/tracing.py` TARGETS; a target that no longer exists would
otherwise show up only in a traced benchmark run. Every function, class
and method of the package must be reached from the CLI or from such a
target. Every package module is also scanned for imported names that it
never uses, and every error class must be raised somewhere in the package. The package needs numpy alone, so
importing its CLI must not load scipy. The package root holds only the
version, `fileio` alone encodes JSON, `metrics` alone compares outputs
with a threshold, no module sets the umask, `fileio` alone opens and
blocks for the CSV writers and turns their floats into text, no module
forks, reaps or ends a process by `os._exit`, the README's library
example runs as written, and every smokewatch command of the CI workflow
parses and its Python heredocs compile.
"""

import ast
import importlib
import importlib.util
import os
import re
import shlex
import string
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from smokewatch import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smokewatch"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def load_targets():
    spec = importlib.util.spec_from_file_location(
        "smokebench_tracing", ROOT / "smokebench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.TARGETS


def unused_imports(source: str) -> list[str]:
    """Names a module imports (not from __future__) but never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """SmokewatchError subclasses defined in errors_source that no `raise`
    in sources names (as `X`, `X(...)` or `module.X(...)`)."""
    errors = set()
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in errors | {"SmokewatchError"}
                for b in node.bases):
            errors.add(node.name)
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return sorted(errors - raised)


@pytest.mark.parametrize("module, function",
                         [(m, f) for m, f, _ in load_targets()])
def test_every_traced_target_exists(module, function):
    mod = importlib.import_module(f"smokewatch.{module}")
    assert callable(getattr(mod, function, None)), f"smokewatch.{module}.{function}"


def _mentioned(nodes) -> set[str]:
    """Every name the nodes mention, as a name or as an attribute."""
    return {getattr(n, "id", getattr(n, "attr", None)) for node in nodes
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreachable_definitions(sources: dict[str, str],
                            roots: list[tuple[str, str]]) -> list[str]:
    """Top-level functions, classes and methods (`module.name`,
    `module.Class.method`) in sources that nothing reaches by name.

    What runs at import reaches the names it mentions: module-level
    statements, class bodies, bases, decorators and default values. So does
    each (module, function) root, and the body of every definition reached.
    A name reaches every definition of that name, in any module. Dunder
    methods count as reached, as Python calls them; their class does not.
    """
    defs: dict[str, tuple[str, list]] = {}  # qualified name -> (name, body)
    at_import = []

    def define(qual, node):
        defs[qual] = (node.name, node.body)
        at_import.extend(node.decorator_list)
        if isinstance(node, ast.ClassDef):
            at_import.extend(node.bases + [k.value for k in node.keywords])
        else:
            at_import.extend(node.args.defaults + [d for d in node.args.kw_defaults if d])

    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                define(f"{module}.{node.name}", node)
            elif isinstance(node, ast.ClassDef):
                define(f"{module}.{node.name}", node)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        define(f"{module}.{node.name}.{item.name}", item)
                    else:
                        at_import.append(item)
            else:
                at_import.append(node)
    by_name: dict[str, list[str]] = {}
    for qual, (name, _) in defs.items():
        by_name.setdefault(name, []).append(qual)

    reached: set[str] = set()
    todo = [f"{m}.{f}" for m, f in roots if f"{m}.{f}" in defs]
    todo += [q for name in _mentioned(at_import) for q in by_name.get(name, [])]
    todo += [q for q, (name, _) in defs.items()
             if name.startswith("__") and name.endswith("__")]
    while todo:
        qual = todo.pop()
        if qual in reached:
            continue
        reached.add(qual)
        todo += [q for n in _mentioned(defs[qual][1]) for q in by_name.get(n, [])]
    return sorted(set(defs) - reached)


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in MODULES}


def test_every_definition_is_reached_from_the_cli_or_the_tracer():
    # a helper that no command runs and the benchmark does not trace belongs
    # in the tests' oracles, not in the package
    roots = [("cli", "main")] + [(m, f) for m, f, _ in load_targets()]
    assert unreachable_definitions(package_sources(), roots) == []


def test_the_reachability_scan_finds_a_planted_def():
    sources = package_sources()
    sources["mlp"] += ("\n\ndef planted_helper(x):\n    return planted_inner(x)\n"
                       "\n\ndef planted_inner(x):\n    return x\n")
    sources["train"] += "\n\ndef planted_root():\n    return planted_traced()\n"
    sources["detect"] += "\n\ndef planted_traced():\n    return 1\n"
    roots = [("cli", "main"), ("train", "planted_root")]
    found = unreachable_definitions(sources, roots)
    assert [q for q in found if "planted" in q] == ["mlp.planted_helper",
                                                    "mlp.planted_inner"]
    # import-time statements and attributes reach; a dunder does not reach
    # its class
    sources = {"a": ("X = make()\n\ndef make():\n    return B().run\n\n"
                     "class B:\n    def run(self):\n        pass\n"
                     "    def idle(self):\n        pass\n\n"
                     "class C:\n    def __init__(self):\n        lost()\n\n"
                     "def lost():\n    pass\n"),
               "b": "def main():\n    pass\n"}
    assert unreachable_definitions(sources, [("b", "main")]) == ["a.B.idle", "a.C"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_error_class_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unraised_errors((PACKAGE / "errors.py").read_text(encoding="utf-8"),
                           sources) == []


def test_the_scan_finds_an_unraised_error():
    errors = ("class SmokewatchError(Exception): pass\n"
              "class A(SmokewatchError): pass\n"
              "class B(A, ValueError): pass\n"
              "class C(SmokewatchError): pass\n"
              "class D(SmokewatchError): pass\n"
              "class Other(Exception): pass\n")
    sources = ["raise A('x') from None\n", "try:\n    pass\nexcept C:\n    raise\n",
               "from . import errors\nraise errors.D\n"]
    assert unraised_errors(errors, sources) == ["B", "C"]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, Union\nx: Union\n") == [
        "line 1: os", "line 2: Any"]


def test_importing_the_cli_loads_no_scipy():
    # a fresh interpreter: this test process may have imported scipy already
    code = ("import sys, smokewatch.cli; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports (`a` for `a.b`)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_fileio_imports_json():
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if "json" in imported_modules(p.read_text(encoding="utf-8"))]
    assert importers == ["fileio.py"]


def umask_calls(source: str) -> list[int]:
    """Lines of calls to `os.umask` (or a bare `umask`). The umask can only
    be read by setting it, which races every other thread's file creation."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "umask"]


def test_no_module_sets_the_umask():
    found = {p.name: umask_calls(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_umask_scan_finds_a_call():
    assert umask_calls("import os\nm = os.umask(0)\nos.umask(m)\n"
                       "from os import umask\numask(0o22)\nos.umask\n") == [2, 3, 5]


def named_lines(source: str, names: set[str]) -> list[int]:
    """Lines that name one of `names`: as a name, an attribute or an
    imported name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                  and getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
                  in names)


def csv_writer_names(source: str) -> list[int]:
    """Lines that name `atomic_open`, `BLOCK_ROWS`, `csv_block`, `mkdir` or
    `makedirs`."""
    return named_lines(source, {"atomic_open", "BLOCK_ROWS", "csv_block", "mkdir", "makedirs"})


def test_only_fileio_opens_and_writes_blocks():
    # one writer: `fileio.write_csv` opens every CSV target, runs the block
    # loop and joins each block's fields into text; `fileio.atomic_open`
    # makes every directory a write needs
    found = {p.name: csv_writer_names(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "fileio.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_writer_scan_finds_a_planted_name():
    assert csv_writer_names("from .fileio import atomic_open, read_json\n"
                            "step = fileio.BLOCK_ROWS\npid = os.fork()\n"
                            "from os import fork\nBLOCK_ROWS = 1\n"
                            "s = 'atomic_open'\nos.forkpty\natomic_write_text(p, s)\n"
                            "Path(p).mkdir()\nos.makedirs(d)\nos._exit(0)\n"
                            "text = fileio.csv_block(fields)\n"
                            ) == [1, 2, 5, 9, 10, 12]


def process_names(source: str) -> list[int]:
    """Lines that name `fork`, `waitpid` or `_exit` (as in `os.fork`,
    `os.waitpid`, `os._exit`)."""
    return named_lines(source, {"fork", "waitpid", "_exit"})


def test_no_module_forks():
    # every write, and everything else, runs in the calling process
    found = {p.name: process_names(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_fork_scan_finds_a_planted_name():
    assert process_names("pid = os.fork()\nfrom os import fork\nos.forkpty\n"
                         "os.waitpid(pid, 0)\nfrom os import waitpid as reap\n"
                         "os._exit(0)\nfork_count = 1\n") == [1, 2, 4, 5, 6]


def repr_names(source: str) -> list[int]:
    """Lines that name `repr`."""
    return named_lines(source, {"repr"})


def repr_rows(source: str) -> list[int]:
    """Lines of f-strings that end a CSV row (their last constant part ends in
    a newline) and convert a value with `!r`. A `!r` in a message is allowed."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            constants = [v.value for v in node.values if isinstance(v, ast.Constant)]
            if constants and constants[-1].endswith("\n") and any(
                    isinstance(v, ast.FormattedValue) and v.conversion == ord("r")
                    for v in node.values):
                lines.append(node.lineno)
    return sorted(lines)


# a %-conversion that prints a float (%f, %.10f, %e, %g, ...) or a repr (%r),
# or the escape %%, which converts nothing
PERCENT_CONVERSION = re.compile(
    r"%%|%(?:\(\w*\))?[-+ #0]*(?:\d+|\*)?(?:\.(?:\d+|\*))?[eEfFgGr]")


# numpy's own routes from floats to text
NUMPY_FLOAT_TEXT = {"format_float_positional", "format_float_scientific", "savetxt"}


def is_float_spec(spec: str) -> bool:
    """Whether a format spec prints a float: it ends in a float type."""
    return spec[-1:] in set("eEfFgG%")


def float_formats(source: str) -> list[int]:
    """Lines of f-strings that end a CSV row (their last constant part ends in
    a newline) and give a value a float format spec (`{o:.10f}`), of
    `%`-formats whose string constant holds a float or `%r` conversion, of
    `format(x, spec)` and `'...'.format(...)` calls with a float spec, and of
    any use of numpy's float-to-text functions. A spec in a message f-string
    is allowed. `str(o)` of a float cannot be told from `str(i)` of an int
    without types, so it is not looked for."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in NUMPY_FLOAT_TEXT:
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "format" and len(node.args) == 2:
            spec = node.args[1]
            if isinstance(spec, ast.Constant) and is_float_spec(str(spec.value)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "format" and isinstance(node.func.value, ast.Constant) \
                and isinstance(node.func.value.value, str):
            fields = string.Formatter().parse(node.func.value.value)
            if any(spec and is_float_spec(spec) for _, _, spec, _ in fields):
                lines.append(node.lineno)
        elif isinstance(node, ast.JoinedStr):
            constants = [v.value for v in node.values if isinstance(v, ast.Constant)]
            specs = [[c.value for c in v.format_spec.values if isinstance(c, ast.Constant)]
                     for v in node.values
                     if isinstance(v, ast.FormattedValue) and v.format_spec]
            if constants and constants[-1].endswith("\n") and any(
                    spec and is_float_spec(spec[-1]) for spec in specs):
                lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            texts = [c.value for c in ast.walk(node.left)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            if any(m != "%%" for text in texts for m in PERCENT_CONVERSION.findall(text)):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_fileio_turns_csv_floats_into_text():
    # one route: `fileio.repr_chars` formats every sample a CSV writer
    # prints, `fileio.output_chars` every detector output
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    found = {name: repr_names(src) for name, src in sources.items() if name != "fileio.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    found = {name: repr_rows(src) for name, src in sources.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}
    found = {name: float_formats(src) for name, src in sources.items() if name != "fileio.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_float_text_scans_find_a_planted_route():
    source = ("s = repr(x)\nf = builtins.repr\n"
              "from builtins import repr\n"
              "row = f'{a!r},{b}\\n'\n"
              "msg = f'unknown class {name!r}'\n"
              "row = f'{a},{b}\\n'\n"
              "x: int = field(repr=False)\n"
              "s = 'repr'\n"
              "rows = ''.join(f'{i},{x!r}\\n' for i, x in rows)\n")
    assert repr_names(source) == [1, 2, 3]
    assert repr_rows(source) == [4, 9]
    source = ("row = f'{i},{o:.10f},{d}\\n'\n"
              "msg = f'accuracy {acc:.3f} -> {path}'\n"
              "row = f'{i:d},{o}\\n'\n"
              "text = ('%.10f\\n' * k) % tuple(values)\n"
              "s = '%e' % x\n"
              "s = '%(v)g, %r' % d\n"
              "s = '%d%%' % n\n"
              "s = '%s' % x\n"
              "rows = ''.join(f'{i},{x:{w}.{p}f}\\n' for i, x in rows)\n"
              "n = k % 7\n"
              "s = '%-8.3f' % x\n"
              "s = format(o, '.10f')\n"
              "s = format(n, 'd')\n"
              "row = '{},{:.10f}\\n'.format(i, o)\n"
              "s = '{}: {}'.format(a, b)\n"
              "s = '{:>8}'.format(name)\n"
              "s = np.format_float_positional(o)\n"
              "s = numpy.format_float_scientific(o, 3)\n"
              "np.savetxt(fh, values)\n"
              "from numpy import savetxt\n"
              "s = '{:{w}.{p}g}'.format(o, w=w, p=p)\n")
    assert float_formats(source) == [1, 4, 5, 6, 9, 11, 12, 14, 17, 18, 19, 20, 21]


def threshold_compares(source: str) -> list[int]:
    """Lines of `>=` comparisons with an operand named `threshold` (a name or
    an attribute) or the constant 0.5."""
    def is_threshold(node):
        return (getattr(node, "id", getattr(node, "attr", None)) == "threshold"
                or (isinstance(node, ast.Constant) and node.value == 0.5))
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(isinstance(op, ast.GtE) for op in node.ops)
            and any(is_threshold(x) for x in [node.left, *node.comparators])]


def test_only_metrics_decides_smoking():
    found = {p.name: threshold_compares(p.read_text(encoding="utf-8"))
             for p in MODULES if p.name != "metrics.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_decision_scan_finds_a_threshold_compare():
    assert threshold_compares("a = y >= 0.5\nb = y >= self.threshold\n"
                              "c = y >= threshold\nd = y > threshold\n"
                              "e = 0.4 <= threshold\nf = y >= 0.25\n") == [1, 2, 3]


def test_the_package_root_binds_only_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = [target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets]
    others = [type(node).__name__ for node in tree.body
              if not isinstance(node, ast.Assign)
              and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert (bound, others) == (["__version__"], [])


def test_the_readme_library_example_runs(capsys, tmp_path, monkeypatch):
    # the example writes files under out/: run it in an empty directory
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert "accuracy" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "out" / "detect").iterdir()) == [
        "plot.csv", "trace.csv"]


def test_the_tool_version_is_the_package_version():
    # the package root holds the one copy of the version, and pyproject.toml
    # reads it from there; a regex, not tomllib: tomllib is new in Python 3.11
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^dynamic = \["version"\]$', pyproject, re.MULTILINE)
    assert re.search(r'^\[tool\.setuptools\.dynamic\]\n'
                     r'version = \{attr = "smokewatch\.__version__"\}$',
                     pyproject, re.MULTILINE)
    assert not re.search(r'^version = "', pyproject, re.MULTILINE)


# The prefixes CI puts before a command, with the words each takes:
# `timeout DURATION`, `taskset -c CPUS` and the shell function `huge`.
PREFIX_WORDS = {"timeout": 2, "taskset": 3, "huge": 1}
ENV_ASSIGNMENT = re.compile(r"[A-Za-z_]\w*=\S*")
REDIRECTION = re.compile(r"\d*(?:>>|&>|<|>)(.*)")


def workflow_scripts(text: str) -> tuple[list[list[str]], list[str]]:
    """The smokewatch command lines and the <<'EOF' heredoc bodies of a
    workflow, read as text: CI installs no YAML parser.

    Continuation lines are joined first. A command line is one whose first
    word, after env assignments and `PREFIX_WORDS` prefixes, is smokewatch,
    or python with `-m smokewatch.cli`; it comes back as its arguments
    with redirections dropped."""
    commands, heredocs = [], []
    lines = iter(re.sub(r"\\\n\s*", " ", text).splitlines())
    for line in lines:
        if "<<'EOF'" in line:
            body = []
            for inner in lines:
                if inner.strip() == "EOF":
                    break
                body.append(inner)
            heredocs.append(textwrap.dedent("\n".join(body)))
            continue
        if not re.search(r"(^|\s)smokewatch(\.cli)?\s", line):
            continue
        words = shlex.split(line.strip())
        while words and (ENV_ASSIGNMENT.fullmatch(words[0]) or words[0] in PREFIX_WORDS):
            words = words[PREFIX_WORDS.get(words[0], 1):]
        if words[:1] == ["python"] and "smokewatch.cli" in words:
            words = ["smokewatch", *words[words.index("smokewatch.cli") + 1:]]
        if words[:1] != ["smokewatch"]:
            continue
        args = []
        rest = iter(words[1:])
        for word in rest:
            redirection = REDIRECTION.fullmatch(word)
            if redirection is None:
                args.append(word)
            elif not redirection.group(1):
                next(rest, None)  # the target is the next word
        commands.append(args)
    return commands, heredocs


def unparsed_commands(commands: list[list[str]]) -> list[str]:
    """The command lines that `cli.build_parser()` rejects."""
    bad = []
    for args in commands:
        try:
            cli.build_parser().parse_args(args)
        except SystemExit:
            bad.append(" ".join(args))
    return bad


def test_every_ci_command_parses_and_every_ci_heredoc_compiles():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    commands, heredocs = workflow_scripts(text)
    # the counts tie the scan to the workflow: a command or heredoc it
    # misses, or one CI gains, changes them
    assert (len(commands), len(heredocs)) == (17, 6)
    assert unparsed_commands(commands) == []
    for k, body in enumerate(heredocs):
        compile(body, f"tests.yml heredoc {k}", "exec")


def test_the_workflow_scan_finds_a_bad_option_and_a_syntax_error():
    text = ("      - run: |\n"
            "          A=1 timeout 60 \\\n"
            "            smokewatch detect --model m.json --session s.csv \\\n"
            "            --bogus 1 2> err.txt\n"
            "          smokewatch eval --model m.json --data d >out.txt 2>> log.txt\n"
            "          test \"$(smokewatch --version)\" = 0.1.0\n"
            "          python - <<'EOF'\n"
            "          def f(:\n"
            "          EOF\n")
    commands, heredocs = workflow_scripts(text)
    assert commands == [["detect", "--model", "m.json", "--session", "s.csv", "--bogus", "1"],
                        ["eval", "--model", "m.json", "--data", "d"]]
    assert unparsed_commands(commands) == ["detect --model m.json --session s.csv --bogus 1"]
    assert heredocs == ["def f(:"]
    with pytest.raises(SyntaxError):
        compile(heredocs[0], "heredoc", "exec")
