"""Dead-code gate over src/poacert, read with the standard library's ast.

Every function, class and module-level name that a poacert module defines
is used again somewhere in the repository's Python code (src, tests,
poabench, demos); a private (_-prefixed) one is used outside the tests
(src, poabench, demos), so a path only tests take does not live in src.
Every method of a poacert class is read as an attribute (.name)
somewhere in those trees: a local variable of the same name is no use.
Only gamefile.py, where input text enters, imports re: no other module
parses text, such as a name it formatted itself.  In oracle.py and
smoothness.py only _cost_tables enumerates profiles and prices them, only
_gaps calls deviation_gaps, only _cost_tables chooses the arithmetic (by
games.rational; neither module names Fraction) and builds a _CostTable,
nothing rewrites a table with _replace, only check_smooth tests
isinstance(..., float), no public function
takes an exact parameter, and the cost table's tol is the one slack: only
check_smooth reads games._tol, and in oracle.py only _CostTable.tol
reads FEAS_TOL.  A cost table is read alone: no function there that
takes one also takes a game, spec, epsilon, sf or values, and no
_CostTable method takes a spec.  Across src, only games.rational and the
converters and writers of numbers test isinstance(..., Fraction), and
the file and trial helpers whose data fix their arithmetic take no exact
parameter, and no module calls the builtin sum.  In linprog.py only
LinearProgram reads a program's bounds, every other reader taking its
neg and free positions; one function holds the fallback to the rational
simplex, one calls phase1 and one, _run, constructs a _Region; only a
_Region builds a standard form, a _Stop declares no default, and only
_Revised.__init__ writes into T and nothing copies it, so no run goes
back to a saved basis.  In formulations.py only _primal writes rows and
copies parts into a coefficient array, and a certificate or column name
is formatted only by the helpers that show one.  smoothness.py imports no linprog
and names no Fraction: the robust PoA solves no program.
Every name a poacert module imports is used in that module.  Every
defaulted parameter of a private function or method (one whose own name
begins with one _) is passed, by keyword or at its position, at some call
outside the tests, so no knob stays that only its default sets.  A
refactor that leaves a helper without callers, an import without a use or
an option without a caller fails here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "poacert"
SEARCHED = ("src", "tests", "poabench", "demos")
PRODUCTION = ("src", "poabench", "demos")
EXEMPT = {"__all__", "__version__"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    """(name, node) of every function and class, at any depth, and of every
    name bound at module level."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, name


def _uses(tree):
    """Every name a tree reads or imports: variables, attributes and the
    names of from-imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _used_in(tops):
    used = set()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            if path.parent == PACKAGE and path.name == "__init__.py":
                continue  # a re-export is not a use
            used.update(_uses(_tree(path)))
    return used


def _unused(used, private_only=False):
    return sorted(
        f"{path.name}:{node.lineno} {name}"
        for path in _modules()
        for name, node in _definitions(_tree(path))
        if name not in used and name not in EXEMPT and not _is_dunder(name)
        and (name.startswith("_") or not private_only)
    )


def test_every_definition_is_used_somewhere():
    unused = _unused(_used_in(SEARCHED))
    assert not unused, "defined but never used: " + ", ".join(unused)


def test_every_method_is_read_as_an_attribute():
    """A method is used through an attribute: a test that names a local
    variable after it does not keep it alive."""
    read = {node.attr for top in SEARCHED for path in (ROOT / top).rglob("*.py")
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{path.name}:{node.lineno} {cls.name}.{node.name}"
                    for path in _modules() for cls in ast.walk(_tree(path))
                    if isinstance(cls, ast.ClassDef) for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _is_dunder(node.name) and node.name not in read)
    assert not unread, "methods never read as .name: " + ", ".join(unread)


def test_every_private_definition_is_used_outside_the_tests():
    unused = _unused(_used_in(PRODUCTION), private_only=True)
    assert not unused, "private, and used by tests alone: " + ", ".join(unused)


@pytest.mark.parametrize("path", [p for p in _modules() if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used_in_its_module(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                    if name not in read)
    assert not unused, "imported but never used: " + ", ".join(unused)


def _knobs(tree):
    """(node, position, name) of every defaulted parameter of a function
    or method whose own name begins with one _: its position among the
    arguments a call passes (a method's self or cls is not one), or None
    for a keyword-only one."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                not node.name.startswith("_") or node.name.startswith("__")):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first:], first):
            yield node, k - bound, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node, None, arg.arg


def _passes(call, position, name):
    """Whether a call passes a parameter: by keyword, at its position, or
    through a * or ** argument that may hold it."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_private_knob_is_set_by_a_caller():
    calls = {}
    for top in PRODUCTION:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    unset = sorted(f"{path.name}:{node.lineno} {node.name}({name}=...)"
                   for path in _modules() for node, position, name in _knobs(_tree(path))
                   if not any(_passes(call, position, name) for call in calls.get(node.name, ())))
    assert not unset, "defaulted, and set by no caller: " + ", ".join(unset)


def _scoped_nodes(tree, scope=""):
    """(scope, node) of every node in a tree but the classes and functions,
    scope being the dotted names of the classes and functions around it."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}".lstrip(".")
        else:
            yield scope, node
        yield from _scoped_nodes(node, inner)


def _attribute_reads(tree, attr):
    """(scope, line) of every read of the attribute attr in a tree, scope
    as in _scoped_nodes."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load):
            yield scope, node.lineno


def test_sign_classes_are_read_through_one_map():
    """In linprog a program's bounds are read only by LinearProgram, which
    works out its sorted neg and free positions once; the standardizer,
    feasibility_report, dual_violations, dualize and to_fixed_format each
    read those, so the map from variables to standard columns is written
    once and no reader turns a name into a position."""
    tree = _tree(PACKAGE / "linprog.py")
    reads = [f"linprog.py:{line} {scope}" for scope, line in _attribute_reads(tree, "bounds")
             if scope.split(".")[0] != "LinearProgram"]
    assert not reads, "bounds read outside LinearProgram: " + ", ".join(reads)
    readers = {"_Standardizer.__init__", "feasibility_report", "dual_violations", "dualize",
               "to_fixed_format"}
    for attr in ("neg", "free"):
        missing = readers - {scope for scope, _ in _attribute_reads(tree, attr)}
        assert not missing, f"{attr} not read by " + ", ".join(sorted(missing))


def _calls(tree):
    """(scope, name, line) of every call in a tree, name being the called
    function's name or the called method's attribute, scope as in
    _scoped_nodes."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield scope, name, node.lineno


@pytest.mark.parametrize("module", ["oracle.py", "smoothness.py"])
def test_profiles_are_priced_and_gapped_in_one_place(module):
    """In the oracle and smoothness layer only _cost_tables enumerates the
    game (.profiles()), prices a profile (games._price) and computes its
    eq1 gaps (games._grouped_gaps), and nothing prices a profile through
    individual_costs, deviation_gaps, deviation_gap, is_eps_pne or
    social_value: every whole-game answer reads one priced pass.  In games
    only _grouped_gaps and deviation_gap call _grouped_gap, the one eq1
    evaluator."""
    owner = {"_price": "_cost_tables", "_costs": "_cost_tables", "profiles": "_cost_tables",
             "_grouped_gaps": "_cost_tables", "individual_costs": None, "deviation_gaps": None,
             "deviation_gap": None, "is_eps_pne": None, "social_value": None}
    calls = [(scope, name, line) for scope, name, line in _calls(_tree(PACKAGE / module))
             if name in owner]
    stray = [f"{module}:{line} {scope} calls {name}" for scope, name, line in calls
             if scope != owner[name]]
    assert not stray, "priced, enumerated or gapped outside its owner: " + ", ".join(stray)
    if module == "oracle.py":
        assert {name for _, name, _ in calls} == {n for n, o in owner.items() if o}
    evaluators = {scope for scope, name, _ in _calls(_tree(PACKAGE / "games.py"))
                  if name == "_grouped_gap"}
    assert evaluators == {"_grouped_gaps", "deviation_gap"}


def test_the_oracle_reads_latencies_in_its_pass_alone():
    """In oracle.py every name or attribute that reads a latency (latency,
    _latency_memo, a memo of them) lies in _cost_tables: a latency is
    evaluated in the table pass, through that call's memo, and nowhere
    else."""
    reads = [f"oracle.py:{node.lineno} {scope}" for scope, node in _scoped_nodes(
                 _tree(PACKAGE / "oracle.py"))
             if "latenc" in ((node.id if isinstance(node, ast.Name) else
                              node.attr if isinstance(node, ast.Attribute) else ""))
             and scope != "_cost_tables"]
    assert not reads, "latency read outside the table pass: " + ", ".join(reads)
    assert any(isinstance(node, ast.Name) and node.id == "_latency_memo"
               for scope, node in _scoped_nodes(_tree(PACKAGE / "oracle.py"))
               if scope == "_cost_tables")


@pytest.mark.parametrize("module", ["oracle.py", "smoothness.py"])
def test_the_cost_table_alone_decides_the_arithmetic(module):
    """In the oracle and smoothness layer only _cost_tables decides whether
    a table is exact, by games.rational, and builds a _CostTable; no table
    is rewritten by _replace; only check_smooth, which judges the
    certificate its caller hands it, tests isinstance(..., float);
    nothing names Fraction, and no public function takes an exact
    parameter: every whole-game answer is solved in the arithmetic of the
    cost table it reads."""
    tree = _tree(PACKAGE / module)
    readers = [f"{module}:{node.lineno} {scope}" for scope, node in _scoped_nodes(tree)
               if isinstance(node, ast.Name) and (node.id == "Fraction" or (
                   node.id == "rational" and scope != "_cost_tables"))]
    assert not readers, "arithmetic chosen outside _cost_tables: " + ", ".join(readers)
    built = [f"{module}:{line} {scope} calls {name}" for scope, name, line in _calls(tree)
             if name == "_replace" or (name == "_CostTable" and scope != "_cost_tables")]
    assert not built, "cost table built or rewritten outside _cost_tables: " + ", ".join(built)
    floats = [f"{module}:{node.lineno} {scope}" for scope, node in _scoped_nodes(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and any(isinstance(n, ast.Name) and n.id == "float" for n in ast.walk(node.args[1]))
              and scope != "check_smooth"]
    assert not floats, "float tested outside check_smooth: " + ", ".join(floats)
    flags = [f"{module}:{node.lineno} {node.name}" for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not node.name.startswith("_")
             and "exact" in {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}]
    assert not flags, "public functions with an exact parameter: " + ", ".join(flags)


@pytest.mark.parametrize("module", ["oracle.py", "smoothness.py"])
def test_the_cost_table_alone_sets_the_slack(module):
    """In the oracle and smoothness layer every comparison read off a cost
    table takes its slack from the table's tol: only check_smooth, which
    judges a certificate its caller hands it, reads games._tol, and in
    oracle.py FEAS_TOL is read by _CostTable.tol alone."""
    nodes = [(scope, node) for scope, node in _scoped_nodes(_tree(PACKAGE / module))
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
    stray = [f"{module}:{node.lineno} {scope}" for scope, node in nodes
             if node.id == "_tol" and scope != "check_smooth"]
    assert not stray, "games._tol read off a table: " + ", ".join(stray)
    if module == "oracle.py":
        assert {scope for scope, node in nodes if node.id == "FEAS_TOL"} == {"_CostTable.tol"}


@pytest.mark.parametrize("module", ["oracle.py", "smoothness.py"])
def test_a_cost_table_is_read_alone(module):
    """A cost table carries the game, the spec and the epsilon it was
    priced for, and its spec's social values: in the oracle and
    smoothness layer no function that takes a table (a parameter named
    table or annotated _CostTable) also takes a parameter named game,
    spec, epsilon, sf or values, and no _CostTable method takes a spec."""
    tree = _tree(PACKAGE / module)
    handed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]
            if any(arg.arg == "table" or any(isinstance(n, ast.Name) and n.id == "_CostTable"
                                             for n in ast.walk(arg.annotation or ast.Pass()))
                   for arg in params):
                handed |= {f"{module}:{node.lineno} {node.name}({arg.arg})" for arg in params
                           if arg.arg in {"game", "spec", "epsilon", "sf", "values"}}
    assert not handed, "a cost table handed what it carries: " + ", ".join(sorted(handed))
    methods = [f"{module}:{method.lineno} _CostTable.{method.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "_CostTable"
               for method in node.body if isinstance(method, ast.FunctionDef)
               and "spec" in {arg.arg for arg in ast.walk(method.args) if isinstance(arg, ast.arg)}]
    assert not methods, "cost table methods that take a spec: " + ", ".join(methods)


def test_the_robust_poa_solves_no_program():
    """smoothness.py imports no linprog, by any import form, and names no
    Fraction: the robust PoA is the minimum of a line envelope, walked in
    the cost table's own arithmetic, not the optimum of an LP."""
    tree = _tree(PACKAGE / "smoothness.py")
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    named = set(_uses(tree)) | {part for module in modules if module for part in module.split(".")}
    assert not {"linprog", "Fraction"} & named, sorted({"linprog", "Fraction"} & named)


# the functions that may test isinstance(..., Fraction): the one rule, and
# the converters and writers that turn a number into a Fraction or text
FRACTION_TESTS = {("games.py", "rational"), ("linprog.py", "_fraction"),
                  ("gamefile.py", "emit_number"), ("cli.py", "as_json")}


def test_one_rule_chooses_float64_or_rationals():
    """Across src, isinstance(..., Fraction) appears only in games.rational
    and in the converters and writers, so every choice between float64 and
    rationals made from the data's types reads games.rational; and the
    default social function of a file (gamefile._social) and the CLI's
    random trials (cli._extensions) take no exact parameter, as their
    data fix their arithmetic."""
    tests = {(path.name, scope) for path in _modules() for scope, node in _scoped_nodes(_tree(path))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
             and "Fraction" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}}
    assert ("games.py", "rational") in tests
    assert tests <= FRACTION_TESTS, sorted(tests - FRACTION_TESTS)
    for module, name in (("gamefile.py", "_social"), ("cli.py", "_extensions")):
        func = next(node for node in ast.walk(_tree(PACKAGE / module))
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        assert "exact" not in {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}


def test_text_is_parsed_only_where_input_enters():
    """Only gamefile.py imports re: the other modules pass positions,
    masks and numbers between them, and format names only to show them."""
    importers = sorted(
        path.name for path in _modules() for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Import) and any(alias.name == "re" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "re"))
    assert importers == ["gamefile.py"]


def test_one_fallback_policy_and_one_phase_1():
    """In linprog one function catches SolverError, and it is the one that
    redoes a run by the rational simplex, _simplex(..., exact=True): every
    solve, of one objective or several, falls back through it.  One
    function calls phase1, where a region's standard form is built, so a
    cold run and each objective of solve_each start from the same code."""
    nodes = list(_scoped_nodes(_tree(PACKAGE / "linprog.py")))
    catchers = {scope for scope, node in nodes if isinstance(node, ast.ExceptHandler)
                and node.type is not None
                and "SolverError" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}}
    redoers = {scope for scope, node in nodes if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_simplex"
               and any(getattr(arg, "value", None) is True
                       for arg in node.args[1:] + [kw.value for kw in node.keywords])}
    starters = {scope for scope, node in nodes if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "phase1"}
    assert catchers == redoers == {"_solve_each"}
    assert starters == {"_Region.__init__"}


def test_every_cold_run_enters_by_run():
    """In linprog only _run constructs a _Region, so a cold run of the
    kernel, float or rational, has one entry, which a test seam sees."""
    builders = {scope for scope, name, _ in _calls(_tree(PACKAGE / "linprog.py"))
                if name == "_Region"}
    assert builders == {"_run"}


def test_no_module_calls_the_builtin_sum():
    """No module under src calls the builtin sum, whose float sums are
    compensated from Python 3.12: every sum adds in order from 0, so a
    check gives the same verdict on every supported Python."""
    calls = [f"{path.name}:{node.lineno}" for path in _modules()
             for node in ast.walk(_tree(path)) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "sum"]
    assert not calls, calls


def test_max_designees_share_one_region():
    """solve_worst_case hands every max designee's objective to
    lp.solve_each over one program: it calls solve_each, calls solve in
    no loop or comprehension, and rewrites no program's rows with
    replace(..., rows=...), as one program per designee did."""
    func = next(node for node in ast.walk(_tree(PACKAGE / "formulations.py"))
                if isinstance(node, ast.FunctionDef) and node.name == "solve_worst_case")

    def called(node):
        return getattr(node.func, "attr", getattr(node.func, "id", None))

    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    looped = {called(node) for loop in ast.walk(func) if isinstance(loop, loops)
              for node in ast.walk(loop) if isinstance(node, ast.Call)}
    assert "solve_each" in {called(node) for node in calls}
    assert "solve" not in looped
    assert not [node.lineno for node in calls if called(node) == "replace"
                and any(kw.arg == "rows" for kw in node.keywords)]


def test_every_stop_is_read_from_its_region():
    """In linprog only a _Region builds a standard form (_system), once in
    its arithmetic and once more for an exact reading, and a _Stop
    declares no default: every stop carries the region it ran in, and
    _read takes the program and the systems from it."""
    tree = _tree(PACKAGE / "linprog.py")
    builders = {scope for scope, name, _ in _calls(tree) if name == "_system"}
    assert builders == {"_Region.__init__", "_Region.exact_system"}
    stop = next(node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == "_Stop")
    defaults = [node.target.id for node in stop.body
                if isinstance(node, ast.AnnAssign) and node.value is not None]
    assert not defaults, defaults


def test_one_writer_for_every_worst_case_program():
    """In formulations only _primal writes a row (lp.Row) or copies a part
    into a coefficient array (np.copyto), and only _primal and
    _certificate_program, which renames lp.dualize's, build an
    lp.LinearProgram: every worst-case program is one _primal call."""
    calls = list(_calls(_tree(PACKAGE / "formulations.py")))
    writers = {scope for scope, name, _ in calls if name in ("Row", "copyto")}
    builders = {scope for scope, name, _ in calls if name == "LinearProgram"}
    assert writers == {"_primal"}
    assert builders == {"_primal", "_certificate_program"}


def test_a_name_is_formatted_only_where_it_is_shown():
    """In formulations only _certificate_program (the dual's variables),
    _dual_report (a violated row's label) and _named_certificate (a
    report's names) call _certificate_name, and only _ColumnNames, which
    names a column when it is read, calls vname: a certificate and a point
    are keyed by position, so no solve or check formats a name.  In cli
    only _extensions hands a certificate to verify_extension."""
    calls = list(_calls(_tree(PACKAGE / "formulations.py")))
    callers = {name: {scope for scope, called, _ in calls if called == name}
               for name in ("_certificate_name", "vname")}
    assert callers == {
        "_certificate_name": {"_certificate_program", "_dual_report", "_named_certificate"},
        "vname": {"_ColumnNames.__getitem__"},
    }
    assert {scope for scope, called, _ in _calls(_tree(PACKAGE / "cli.py"))
            if called == "verify_extension"} == {"_extensions"}


def test_no_run_goes_back_to_a_saved_basis():
    """In linprog only _Revised.__init__ writes into the kernel's T = [B^-1
    | x_B] through a subscript (T[...] = ...), and nothing calls .copy()
    on a T: each run of a region starts at the basis where the last one
    stopped, and _pivot's rank-1 step, T -= ..., is the one other writer."""
    def is_t(node):
        return isinstance(node, ast.Attribute) and node.attr == "T"

    found = []
    for scope, node in _scoped_nodes(_tree(PACKAGE / "linprog.py")):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"{scope}:{node.lineno} writes T" for target in targets
                      for t in ast.walk(target) if isinstance(t, ast.Subscript) and is_t(t.value)
                      and scope != "_Revised.__init__"]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "copy" \
                and is_t(node.func.value):
            found.append(f"{scope}:{node.lineno} copies T")
    assert not found, found
