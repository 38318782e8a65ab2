"""Every ritkit name that the bench reads exists.

`bench/run.py` drives ritkit through attribute chains, such as
`ritkit.hybrid.run_pipeline`, or `evaluate.run_experiment` after
`evaluate = ritkit.evaluate`. It also wraps ritkit functions by name, as in
`tracer.wrap(ritkit.client, "complete", ...)`. A change in `src/ritkit`
that drops one of these names would otherwise show only when the bench
runs. The bench is read as a syntax tree and never run.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import typing
from pathlib import Path

import ritkit

RUN = Path(__file__).parent.parent / "bench" / "run.py"


def _resolve(node: ast.expr, env: dict) -> object:
    """The module, class or function that `node` names when it is rooted in ritkit, else None.

    A call of a class stands for an instance of the class, and a call of a
    function for an instance of its return annotation.
    """
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, env)
        value = None if owner is None else getattr(owner, node.attr, None)
        return value if inspect.ismodule(value) or inspect.isclass(value) or inspect.isroutine(value) else None
    if isinstance(node, ast.Call):
        func = _resolve(node.func, env)
        if inspect.isclass(func):
            return func
        if inspect.isroutine(func):
            try:
                returned = typing.get_type_hints(func).get("return")
            except NameError:  # an annotation that names a type imported only for type checkers
                return None
            return returned if inspect.isclass(returned) else None
    return None


def _exists(owner: object, attr: str) -> bool:
    return hasattr(owner, attr)


def _bind(target: ast.expr, value: ast.expr, env: dict, constants: bool = False) -> None:
    """Record what `target = value` binds, for names bound to ritkit (or, with `constants`, to a string)."""
    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts):
        for sub_target, sub_value in zip(target.elts, value.elts):
            _bind(sub_target, sub_value, env, constants)
    elif isinstance(target, ast.Name):
        bound = value.value if constants and isinstance(value, ast.Constant) else _resolve(value, env)
        if bound is not None:
            env[target.id] = bound


def _is_hook(node: ast.AST) -> bool:
    """A `tracer.wrap(owner, attr, ...)` or `tracer.count(owner, attr, ...)` call."""
    func = getattr(node, "func", None)
    return isinstance(func, ast.Attribute) and func.attr in ("wrap", "count") and ast.unparse(func.value) == "tracer"


def _hook(call: ast.Call, env: dict) -> tuple[str, bool]:
    owner_node, attr_node = call.args[:2]
    owner = _resolve(owner_node, env)
    attr = attr_node.value if isinstance(attr_node, ast.Constant) else env.get(getattr(attr_node, "id", ""))
    text = f"tracer.{call.func.attr}({ast.unparse(owner_node)}, {attr!r})"
    return text, owner is not None and isinstance(attr, str) and _exists(owner, attr)


def _functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (member for member in node.body if isinstance(member, ast.FunctionDef))


def bench_reads() -> list[tuple[str, bool]]:
    """(source text, exists) for each ritkit import, attribute read and tracer hook of `bench/run.py`.

    Each top-level function or method is read with the names it binds
    (nested functions included), on top of `ritkit` itself. A hook inside a
    loop over a literal tuple is read once per element.
    """
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    reads = [
        (f"import {alias.name}", importlib.util.find_spec(alias.name) is not None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("ritkit.")
    ]
    for func in _functions(tree):
        env: dict = {"ritkit": ritkit}
        nodes = sorted((n for n in ast.walk(func) if hasattr(n, "lineno")), key=lambda n: (n.lineno, n.col_offset))
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                _bind(node.targets[0], node.value, env)
        looped = set()
        for loop in (n for n in nodes if isinstance(n, ast.For) and isinstance(n.iter, (ast.Tuple, ast.List))):
            hooks = [n for n in ast.walk(loop) if _is_hook(n)]
            looped.update(hooks)
            for item in loop.iter.elts:
                scope = dict(env)
                _bind(loop.target, item, scope, constants=True)
                reads += [_hook(hook, scope) for hook in hooks]
        for node in nodes:
            if isinstance(node, ast.Attribute):
                owner = _resolve(node.value, env)
                if owner is not None:
                    reads.append((ast.unparse(node), _exists(owner, node.attr)))
            elif _is_hook(node) and node not in looped:
                reads.append(_hook(node, env))
    return reads


def test_every_ritkit_name_the_bench_reads_exists():
    reads = bench_reads()
    assert [text for text, exists in reads if not exists] == []


def test_the_reader_sees_each_kind_of_read():
    texts = {text for text, _ in bench_reads()}
    assert "import ritkit.cli" in texts
    assert any(text.startswith("ritkit.") for text in texts)  # a chain from the package
    assert any(text.startswith(("evaluate.", "hybrid.", "mutate.")) for text in texts)  # through a local
    assert any(text.endswith(").backend") for text in texts)  # on a call's result
    assert any(text.startswith("tracer.count(stub, ") for text in texts)  # a hook on an instance
    assert any(text.startswith("tracer.wrap(owner, ") for text in texts)  # a hook in a loop
