import ast
import dataclasses
from pathlib import Path

import pytest

import jtvsampling
from code_lines import code_lines
from jtvsampling import Graph, SamplingPlan, SpectralSupport


def test_star_import_resolves_every_public_name():
    # a name pruned from its module but left in __all__ breaks the star import
    namespace = {}
    exec("from jtvsampling import *", namespace)
    names = jtvsampling.__all__
    assert len(set(names)) == len(names)
    assert all(namespace[name] is getattr(jtvsampling, name) for name in names)


@pytest.mark.parametrize("parsed, canonical", [
    (Graph(3, [[0, 2, 1.5], [2, 1, 1]]), Graph(3, ((0, 2, 1.5), (2, 1, 1.0)))),
    (SpectralSupport(4, 4, [[1, 2], [0, 3]]),
     SpectralSupport(4, 4, frozenset({(1, 2), (0, 3)}))),
    (SamplingPlan(4, 5, [[0, 4], [3, 1]]), SamplingPlan(4, 5, frozenset({(0, 4), (3, 1)}))),
])
def test_json_shaped_input_is_made_canonical(parsed, canonical):
    # lists of lists, as JSON parses them, need no conversion by the caller;
    # an unconverted list would make the object unhashable
    assert parsed == canonical
    assert hash(parsed) == hash(canonical)


@pytest.mark.parametrize("cls, attr, views", [
    (SpectralSupport, "pairs", ("sorted_pairs", "time_freqs", "graph_freqs")),
    (SamplingPlan, "samples", ("sorted_samples", "proj_t", "proj_g")),
])
def test_views_computed_once_from_the_fields(cls, attr, views):
    # the sorted pairs and both projections are computed once and kept beside
    # the fields: every read returns the same tuple, the dataclass methods
    # read the fields alone, and replace() builds the views anew
    obj = cls(4, 5, [[3, 1], [0, 4], [3, 0]])
    assert [getattr(obj, v) for v in views] == [((0, 4), (3, 0), (3, 1)), (0, 3), (0, 1, 4)]
    assert all(getattr(obj, v) is getattr(obj, v) for v in views)
    assert [f.name for f in dataclasses.fields(obj)] == ["t_dim", "g_dim", attr]
    assert dataclasses.asdict(obj) == {"t_dim": 4, "g_dim": 5, attr: getattr(obj, attr)}
    assert repr(obj) == f"{cls.__name__}(t_dim=4, g_dim=5, {attr}={getattr(obj, attr)!r})"
    assert hash(obj) == hash((4, 5, getattr(obj, attr)))
    assert obj == cls(4, 5, frozenset({(0, 4), (3, 0), (3, 1)}))
    other = dataclasses.replace(obj, **{attr: [(2, 2)]})
    assert [getattr(other, v) for v in views] == [((2, 2),), (2,), (2,)]
    assert [getattr(obj, v)[0] for v in views] == [(0, 4), 0, 0]


class TestOneOwner:
    """``Graph.__post_init__`` and ``bandlimit._check_index_pairs`` alone make
    graphs, supports and plans canonical; no caller converts what it passes."""

    CONSTRUCTORS = {"Graph", "SpectralSupport", "SamplingPlan"}
    WRAPPERS = {"tuple", "frozenset"}

    @staticmethod
    def _name(func):
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    @classmethod
    def violations(cls, source):
        """Constructor arguments that are a ``tuple(...)`` / ``frozenset(...)``
        call, a name bound to one, or a call of a module function returning one."""
        tree = ast.parse(source)
        bound, returned = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.FunctionDef):
                returned[node.name] = [r.value for r in ast.walk(node)
                                       if isinstance(r, ast.Return) and r.value]

        def wraps(expr, seen):
            if id(expr) in seen:
                return False
            seen.add(id(expr))
            if isinstance(expr, ast.Name):
                return any(wraps(v, seen) for v in bound.get(expr.id, ()))
            if not isinstance(expr, ast.Call):
                return False
            name = cls._name(expr.func)
            return name in cls.WRAPPERS or any(wraps(r, seen) for r in returned.get(name, ()))

        return [f"{cls._name(node.func)} on line {node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and cls._name(node.func) in cls.CONSTRUCTORS
                for arg in (*node.args, *(k.value for k in node.keywords))
                if wraps(arg, set())]

    @pytest.mark.parametrize("module", sorted(
        Path(jtvsampling.__file__).parent.glob("*.py")), ids=lambda p: p.name)
    def test_no_caller_converts_constructor_arguments(self, module):
        assert self.violations(module.read_text()) == []

    @pytest.mark.parametrize("source", [
        "g = Graph(n, tuple(edges))",
        "g = graphs.Graph(n, tuple(tuple(e) for e in edges))",
        "s = SpectralSupport(t_dim=t, g_dim=n, pairs=frozenset(pairs))",
        "samples = frozenset(picked)\np = SamplingPlan(t, n, samples=samples)",
        "def parse(text):\n    return frozenset(text)\ns = SpectralSupport(t, n, parse(x))",
    ])
    def test_guard_catches_each_breach(self, source):
        assert len(self.violations(source)) == 1

    @pytest.mark.parametrize("source", [
        "g = Graph(n, edges)",
        "p = SamplingPlan(t, n, samples=((a, b) for a in x for b in y))",
        "s = SpectralSupport(t, n, data['pairs'])\nkeys = frozenset(s.pairs)",
    ])
    def test_guard_passes_plain_arguments(self, source):
        assert self.violations(source) == []


class TestOneRaiseSite:
    """Each refusal message is raised from one place: no two ``raise X("...")``
    sites under ``src/jtvsampling`` share a message template."""

    @staticmethod
    def templates(source):
        """(template, line) of each ``raise X("...")`` / ``raise X(f"...")``,
        every f-string placeholder written as ``{}``."""
        found = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                msg = node.exc.args[0]
                if isinstance(msg, ast.JoinedStr):
                    found.append(("".join(v.value if isinstance(v, ast.Constant) else "{}"
                                          for v in msg.values), node.lineno))
                elif isinstance(msg, ast.Constant) and isinstance(msg.value, str):
                    found.append((msg.value, node.lineno))
        return found

    @classmethod
    def shared(cls, sources):
        """The ``file:line`` sites of every template raised from more than one
        place, over ``sources``, a dict of file name to source."""
        sites = {}
        for name, source in sources.items():
            for template, line in cls.templates(source):
                sites.setdefault(template, []).append(f"{name}:{line}")
        return sorted(where for where in sites.values() if len(where) > 1)

    def test_no_message_is_raised_from_two_places(self):
        package = Path(jtvsampling.__file__).parent
        assert self.shared({p.name: p.read_text() for p in sorted(package.glob("*.py"))}) == []

    def test_guard_catches_a_breach(self):
        source = ('def f(n):\n    raise ValueError(f"bad count {n}")\n'
                  'def g(m):\n    raise RuntimeError(f"bad count {m + 1!r}")\n')
        assert self.shared({"a.py": source, "b.py": 'raise ValueError("bad count {}")'}) == [
            ["a.py:2", "a.py:4", "b.py:1"]]

    def test_guard_passes_a_clean_source(self):
        source = ('def f(n):\n    raise ValueError(f"bad count {n}")\n'
                  'def g(m):\n    raise ValueError(f"bad size {m}")\n'
                  'def h(exc):\n    raise ValueError(exc) from exc\n')
        assert self.shared({"a.py": source}) == []


def test_code_lines_count_code_alone():
    # docstrings (lines 1-2 and 7), a blank and a comment-only line do not
    # count; the signature and the return statement are continued over two
    # lines each, and each of their lines counts
    source = ('"""Module docstring,\nover two lines."""\n\n# a comment\n'
              'def f(a,\n      b):\n    """Docstring."""\n    return a + \\\n'
              '        b  # trailing comment\n')
    assert source.count("\n") == 9
    assert code_lines(source) == 4
