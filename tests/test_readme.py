"""README's library section against the package it documents."""

import ast
import contextlib
import io
import os
import re
import types

import quandlekit

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _value(text):
    """A printed line or a comment as a Python value where it parses as one,
    so that a printed ['0', 9] matches a comment written [["0", 9]]."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def test_the_quick_start_prints_what_its_comments_say():
    section = _readme().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    want = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert want == ["Z", "0", "9", '[["0", 9]]']
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quick start", "exec"), {})
    got = out.getvalue().splitlines()
    assert [_value(g) for g in got] == [_value(w) for w in want]


def test_every_public_name_of_the_package_is_in_the_readme():
    text = _readme()
    public = [
        name
        for name, value in vars(quandlekit).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    ]
    assert "enumerate_colorings" in public and "boundary_columns" in public
    assert [name for name in public if not re.search(r"`%s`" % re.escape(name), text)] == []


def test_every_name_in_the_library_surface_is_importable():
    # each bullet opens with its module's name; roles, arc_count and face_of
    # are attributes of the records named beside them
    bullets = []
    for line in _readme().split("## Library surface", 1)[1].splitlines():
        if line.startswith("- "):
            bullets.append(line[2:])
        elif line.startswith("  ") and bullets:
            bullets[-1] += " " + line.strip()
        elif bullets:
            break
    names = []
    for bullet in bullets:
        heading, rest = re.match(r"`(\w+)`:(.*)", bullet).groups()
        assert isinstance(getattr(quandlekit, heading), types.ModuleType)
        names += re.findall(r"`([A-Za-z_]\w*)`", rest)
    named = set(names) - {"roles", "arc_count", "face_of"}
    assert {"QuandleTable", "boundary_columns", "state_sum"} <= named
    assert sorted(name for name in named if not hasattr(quandlekit, name)) == []


def _imported_names(tree):
    """Names a module imports from quandlekit or one of its modules."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quandlekit"
        for alias in node.names
    }


def _local_names(fn):
    """Names a function binds itself: its parameters and the names it
    assigns or defines, less those it declares global or nonlocal."""
    a = fn.args
    bound = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
    declared = set()
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)  # its body is another scope
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return bound - declared


def _global_loads(node, local=frozenset()):
    """Names loaded where no enclosing function binds them."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | _local_names(node)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _global_loads(child, local)


def test_a_local_variable_is_not_a_user():
    tree = ast.parse(
        "def f(faces, *args):\n"
        "    arcs = faces\n"
        "    return arcs, args, lambda signs: signs, checkerboard\n"
        "def g():\n"
        "    global orbits\n"
        "    orbits = 1\n"
        "    return orbits, [parse_pd for parse_pd in ()]\n"
    )
    assert set(_global_loads(tree)) == {"checkerboard", "orbits"}


def test_every_public_name_of_the_package_has_a_user():
    # a name at the package root is loaded (other than as a local variable)
    # or imported by another module of the package, imported by the
    # benchmark or by the quick start, or is one of three kept on purpose:
    # the paper's other named family, the Z/m constructor, and homology
    # beside cohomology (one shared _group)
    package = os.path.dirname(os.path.abspath(quandlekit.__file__))
    used = set()
    for name in os.listdir(package):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            used |= _imported_names(tree)
            used |= set(_global_loads(tree))
    bench = os.path.join(os.path.dirname(README), "bench")
    for name in os.listdir(bench):
        if name.endswith(".py"):
            with open(os.path.join(bench, name), encoding="utf-8") as fh:
                used |= _imported_names(ast.parse(fh.read()))
    section = _readme().split("## Library quick start", 1)[1]
    used |= _imported_names(ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1)))
    used |= {"trivial_quandle", "Zm", "homology_group"}
    public = [
        name
        for name, value in vars(quandlekit).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    ]
    assert [name for name in public if name not in used] == []
