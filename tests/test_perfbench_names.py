"""The frozen benchmark's view of the library still resolves.

``perfbench/`` reaches the library only through module attributes: it calls
them, wraps them by name (``WRAPPED``, ``AGGREGATED``) and fetches them with
``getattr``. A library change that moves or renames one of them would only
show up as a crashed benchmark run, so this reads the benchmark's source with
``ast`` and checks every such reference against the package.
"""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

import pytest

from jtvsampling import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = ("tracer.py", "workloads.py")


def _library_modules(tree):
    """Local name -> imported ``jtvsampling`` module, from the file's imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "jtvsampling":
            for alias in node.names:
                names[alias.asname or alias.name] = f"jtvsampling.{alias.name}"
    return names


def _references(tree, modules):
    """(module, attribute, call or None) for every library attribute the file
    reads, wraps by name or fetches with ``getattr``."""
    def module_of(node):
        return modules.get(node.id) if isinstance(node, ast.Name) else None

    refs = []
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and module_of(node.value):
            refs.append((module_of(node.value), node.attr, calls.get(id(node))))
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and module_of(node.elts[0]):
            # (module, "attribute", ...) entries of WRAPPED and AGGREGATED
            attr = node.elts[1]
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                refs.append((module_of(node.elts[0]), attr.value, None))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and module_of(node.args[0]) and isinstance(node.args[1], ast.Constant)):
            refs.append((module_of(node.args[0]), node.args[1].value, None))
    return refs


def _all_references():
    """(module, attribute) -> [(source file, call node or None), ...]."""
    refs = {}
    for name in SOURCES:
        tree = ast.parse((PERFBENCH / name).read_text(), filename=name)
        for module, attr, call in _references(tree, _library_modules(tree)):
            refs.setdefault((module, attr), []).append((name, call))
    return refs


REFERENCES = _all_references()


def test_references_found():
    # the scan itself must see the benchmark's known call sites and wraps
    assert ("jtvsampling.bandlimit", "restrict_bases") in REFERENCES
    assert ("jtvsampling.oracle", "elimination_rank") in REFERENCES
    assert ("jtvsampling.cli", "main") in REFERENCES


@pytest.mark.parametrize("module, attr", sorted(REFERENCES),
                         ids=[f"{m.rsplit('.', 1)[1]}.{a}" for m, a in sorted(REFERENCES)])
def test_reference_resolves(module, attr):
    obj = getattr(importlib.import_module(module), attr, None)
    sources = sorted({source for source, _ in REFERENCES[(module, attr)]})
    assert obj is not None, f"{', '.join(sources)} use {module}.{attr}, which does not exist"
    for source, call in REFERENCES[(module, attr)]:
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        # the call's positional count and keyword names must bind to the signature
        try:
            inspect.signature(obj).bind(*call.args, **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{source}:{call.lineno} calls {module}.{attr} with "
                        f"arguments its signature rejects: {exc}")


def _leaf_parsers(parser, words=()):
    """(command words, parser) of every ``jtv`` subcommand that takes no further one."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _leaf_parsers(child, (*words, name))


LEAVES = dict(_leaf_parsers(cli.build_parser()))


@pytest.mark.parametrize("command", sorted(LEAVES))
def test_command_dispatches_by_name(command):
    # the tracer times a command by rebinding cli.cmd_*, so the parser must
    # hold the function's name, which main resolves at call time, not the
    # function itself
    name = LEAVES[command].get_default("cmd")
    assert isinstance(name, str), f"jtv {command} dispatches to {name!r}, not a name"
    assert callable(getattr(cli, name, None)), f"jtv {command} dispatches to missing cli.{name}"


def test_traced_commands_are_dispatched():
    dispatched = {parser.get_default("cmd") for parser in LEAVES.values()}
    traced = {attr for module, attr in REFERENCES
              if module == "jtvsampling.cli" and attr.startswith("cmd_")}
    assert traced and traced <= dispatched
