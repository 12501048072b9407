"""Import hygiene: every top-level import in the package is used."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modinv"


def unused_imports(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        f"{path.name}:{line} {name}"
        for name, line in bound.items()
        if name not in used and name not in exported
    )


def test_every_import_is_used():
    # __init__.py imports only to re-export
    files = sorted(f for f in SRC.glob("*.py") if f.name != "__init__.py")
    assert files
    problems = [p for f in files for p in unused_imports(f)]
    assert problems == []


PERFBENCH = SRC.parents[1] / "perfbench"

# Public definitions with no caller in src/ or perfbench/, kept on purpose.
UNCALLED = {
    "is_invariant": "the documented checker for one matrix, independent of the search",
    "is_nondegenerate": "the (flag, reason) form of the nondegeneracy rule build applies",
    "model_to_json": "the plain-list model description; model show --json writes the same "
                     "payload with the fusion nonzeros as one int array",
    "relation_residuals": "the modular relation residuals the acceptance suite reads",
    "tadpole_exclusion": "the odd-level tadpole record the acceptance suite reads",
}


def top_level_references(path):
    """{top-level node name or None: names it references}.  A reference is
    a Name, an attribute, or a name imported from a module."""
    tree = ast.parse(path.read_text())
    refs = {}
    for node in tree.body:
        names = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                names.update(alias.name for alias in n.names)
        key = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        refs.setdefault(key, set()).update(names)
    return refs


def test_every_public_definition_has_a_caller():
    # A public top-level function or class of src/ is referenced by other
    # src/ code (not a re-export in __init__.py, not its own body) or by
    # perfbench/; code that only tests call does not belong in src/.
    modules = sorted(f for f in SRC.glob("*.py") if f.name != "__init__.py")
    callers = modules + sorted(PERFBENCH.glob("*.py"))
    refs = {f: top_level_references(f) for f in callers}
    uncalled = set()
    for f in modules:
        for name in refs[f]:
            if name is None or name.startswith("_"):
                continue
            if not any(name in names for g in callers for key, names in refs[g].items()
                       if not (g == f and key == name)):
                uncalled.add(name)
    assert uncalled == set(UNCALLED)


def test_every_public_member_has_a_caller():
    # A public method or property of a src/ class is read as `.name` by
    # src/ or perfbench/ code, not through `self` alone: a second accessor
    # for a fact the class already holds does not belong in src/.
    modules = sorted(f for f in SRC.glob("*.py") if f.name != "__init__.py")
    read = set()
    for f in modules + sorted(PERFBENCH.glob("*.py")):
        for n in ast.walk(ast.parse(f.read_text())):
            if isinstance(n, ast.Attribute) and not (
                    isinstance(n.value, ast.Name) and n.value.id == "self"):
                read.add(n.attr)
    unread = []
    for f in modules:
        for cls in ast.parse(f.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                unread += [f"{cls.name}.{item.name}" for item in cls.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_") and item.name not in read]
    assert unread == []


# Functions nested in a src/ function that call themselves, kept on purpose.
SELF_REFERENCING = {}


def self_referencing_closures(path):
    """Functions nested in a function of `path` whose body names the
    function itself, as "file:outer.inner".  Such a closure sits in a
    reference cycle, freed only by the cyclic garbage collector."""
    found = []
    stack = [(ast.parse(path.read_text()), "", False)]
    while stack:
        node, qual, in_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, qual, in_function))
                continue
            name = f"{qual}.{child.name}" if qual else child.name
            is_function = not isinstance(child, ast.ClassDef)
            if in_function and is_function and any(
                    isinstance(n, ast.Name) and n.id == child.name for n in ast.walk(child)):
                found.append(f"{path.name}:{name}")
            stack.append((child, name, in_function or is_function))
    return found


def test_no_nested_function_refers_to_itself():
    # A search is a module-level function with explicit inputs, not a
    # closure that calls itself.
    found = [c for f in sorted(SRC.glob("*.py")) for c in self_referencing_closures(f)]
    assert sorted(found) == sorted(SELF_REFERENCING)


def defaulted_parameters(path):
    """(function, parameter, positional slot or None) for every parameter
    with a default of a function in `path`.  A method's slot counts `self`
    out, as a call `obj.f(...)` passes it."""
    found = []
    stack = [(ast.parse(path.read_text()), False)]
    while stack:
        node, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            stack.append((child, isinstance(child, ast.ClassDef)))
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = child.args
            pos = (a.posonlyargs + a.args)[in_class:]
            found += [(child.name, p.arg, i) for i, p in enumerate(pos)
                      if i >= len(pos) - len(a.defaults)]
            found += [(child.name, p.arg, None)
                      for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def passes(call, param, slot):
    """Does `call` pass `param`, by keyword, by position or by unpacking?"""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return slot is not None and (
        len(call.args) > slot or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_optional_parameter_has_a_caller():
    # A defaulted parameter of a src/ function, public or private, is
    # passed by some src/ or perfbench/ call; a default that every caller
    # takes is a constant, and an option that only tests pass does not
    # belong in src/.
    modules = sorted(SRC.glob("*.py"))
    calls = {}
    for f in modules + sorted(PERFBENCH.glob("*.py")):
        for n in ast.walk(ast.parse(f.read_text())):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                calls.setdefault(name, []).append(n)
    unpassed = [f"{f.name}:{fn}.{param}" for f in modules
                for fn, param, slot in defaulted_parameters(f)
                if not any(passes(c, param, slot) for c in calls.get(fn, []))]
    assert unpassed == []


ALLOCATORS = {"zeros", "empty", "ones", "full"}


def is_cubed(shape):
    """Whether a shape expression is some x ** 3, (x, x, x), x * x * x or
    (x,) * 3."""
    if isinstance(shape, ast.BinOp) and isinstance(shape.op, ast.Pow):
        return isinstance(shape.right, ast.Constant) and shape.right.value == 3
    if isinstance(shape, ast.Tuple):
        return len(shape.elts) == 3 and len({ast.dump(e) for e in shape.elts}) == 1
    factors, stack = [], [shape]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            stack += [node.left, node.right]
        else:
            factors.append(ast.dump(node))
    if len(factors) == 2 and any(isinstance(x, ast.Tuple) for x in (shape.left, shape.right)):
        return ast.dump(ast.Constant(3)) in factors
    return any(factors.count(f) >= 3 for f in factors)


def dense_fusion_uses(path):
    """Reads of an attribute N, and array allocations with a cubed shape,
    as "file:line"."""
    found = []
    for n in ast.walk(ast.parse(path.read_text())):
        if isinstance(n, ast.Attribute) and n.attr == "N":
            found.append(f"{path.name}:{n.lineno} .N")
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr in ALLOCATORS and n.args and is_cubed(n.args[0])):
            found.append(f"{path.name}:{n.lineno} {n.func.attr}")
    return found


def test_no_dense_fusion_tensor_in_src():
    # A ring holds N by its nonzeros only: no src/ code reads a dense N
    # or allocates an m^3 array.
    assert all(is_cubed(ast.parse(e, mode="eval").body) for e in
               ("m ** 3", "(m, m, m)", "m * m * m", "(m,) * 3", "3 * (m,)", "(a * m) * m * m"))
    assert not any(is_cubed(ast.parse(e, mode="eval").body) for e in
                   ("(m, m)", "m * m", "min(w, m) * m * m", "(m,) * 2", "m ** 2"))
    found = [u for f in sorted(SRC.glob("*.py")) for u in dense_fusion_uses(f)]
    assert found == []
