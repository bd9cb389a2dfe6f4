import json

import numpy as np
import pytest

from jtvsampling import (
    Graph,
    SamplingPlan,
    SpectralSupport,
    cycle_graph,
    qualify,
    joint_columns_from_restricted,
)
from jtvsampling import fileio


def test_graph_round_trip(tmp_path):
    g = cycle_graph(5)
    path = tmp_path / "g.json"
    fileio.save_graph(g, path)
    assert fileio.load_graph(path) == g


def test_graph_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"edges": []}')
    with pytest.raises(ValueError, match="malformed"):
        fileio.load_graph(path)


def test_support_round_trip(tmp_path, ref):
    path = tmp_path / "s.json"
    fileio.save_support(ref.support, path)
    assert fileio.load_support(path) == ref.support


def test_support_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"T": 4}')
    with pytest.raises(ValueError, match="malformed"):
        fileio.load_support(path)


def test_signal_round_trip(tmp_path, ref):
    path = tmp_path / "x.csv"
    fileio.save_signal(ref.x, path)
    assert np.array_equal(fileio.load_signal(path), ref.x)


def test_signal_is_plain_csv_under_any_name(tmp_path, ref):
    # both ends open the file themselves; a writer that compressed by suffix,
    # as np.savetxt does, would write a file the loader cannot read
    path = tmp_path / "x.csv.gz"
    fileio.save_signal(ref.x, path)
    assert path.read_text().startswith(f"{ref.x[0, 0]:.17g},")
    assert np.array_equal(fileio.load_signal(path), ref.x)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_signal_non_finite_rejected(tmp_path, bad):
    path = tmp_path / "x.csv"
    path.write_text(f"1.0,2.0\n3.0,{bad}\n")
    with pytest.raises(ValueError, match="non-finite"):
        fileio.load_signal(path)


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_signal_empty_rejected(tmp_path, text):
    # numpy warns about an empty file; the suite turns that warning into an
    # error, so this also checks that none is issued
    path = tmp_path / "x.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="is empty"):
        fileio.load_signal(path)


def test_plan_round_trip(tmp_path, ref):
    uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
    plan = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0), (1, 2)}))
    report = qualify(plan, uj, ref.support)
    path = tmp_path / "plan.json"
    fileio.save_plan(plan, report, path)
    assert fileio.load_plan(path) == plan
    import json

    data = json.loads(path.read_text())
    assert data["critical"] is True
    assert data["samples"] == [[0, 0], [1, 0], [1, 2]]


def test_samples_round_trip(tmp_path):
    plan = SamplingPlan(3, 3, frozenset({(0, 1), (2, 2)}))
    values = np.array([1.5, -2.25])
    path = tmp_path / "samples.csv"
    fileio.save_samples(plan, values, path)
    points, loaded = fileio.load_samples(path)
    assert points == list(plan.sorted_samples)
    assert np.array_equal(loaded, values)


def test_samples_count_must_match_plan(tmp_path):
    plan = SamplingPlan(3, 3, frozenset({(0, 1), (2, 2)}))
    path = tmp_path / "samples.csv"
    with pytest.raises(ValueError, match="value count"):
        fileio.save_samples(plan, np.array([1.0, 2.0, 3.0]), path)
    assert not path.exists()


def test_samples_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n")
    with pytest.raises(ValueError, match="malformed"):
        fileio.load_samples(path)


def test_samples_integral_float_indices_load(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("0.0,0,1.5\n2,1.0,-2\n")
    points, values = fileio.load_samples(path)
    assert points == [(0, 0), (2, 1)]
    assert all(type(i) is int for point in points for i in point)
    assert np.array_equal(values, [1.5, -2.0])


@pytest.mark.parametrize("line, reason", [
    ("0.5,0,1.5", "sample index must be an integer, got 0.5"),
    ("1,x,2", "could not convert string to float: 'x'"),
    ("1,nan,2", "sample index must be an integer, got nan"),
    ("1,0,y", "could not convert string to float: 'y'"),
])
def test_samples_bad_line_named(tmp_path, line, reason):
    # the error names the file and the line, and why the line was refused
    path = tmp_path / "bad.csv"
    path.write_text(f"0,0,1.0\n\n{line}\n")
    with pytest.raises(ValueError) as err:
        fileio.load_samples(path)
    assert str(err.value) == f"malformed samples file {path}, line 3: {reason}"


def test_samples_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        fileio.load_samples(path)


def test_basis_pair_round_trip(tmp_path, ref):
    path = tmp_path / "basis.json"
    fileio.save_basis_pair(ref.ut_r, ref.ug_r, path)
    ut_r, ug_r = fileio.load_basis_pair(path)
    assert np.array_equal(ut_r, ref.ut_r)
    assert np.array_equal(ug_r, ref.ug_r)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("which", [0, 1])
def test_basis_pair_non_finite_rejected(tmp_path, ref, bad, which):
    # JSON's NaN / Infinity load as floats; a basis holding one must be refused
    path = tmp_path / "basis.json"
    fileio.save_basis_pair(ref.ut_r, ref.ug_r, path)
    data = json.loads(path.read_text())
    data[("U_T", "U_G")[which]][1][0] = bad
    path.write_text(json.dumps(data).replace(f'"{bad}"', bad))
    assert bad in path.read_text()
    with pytest.raises(ValueError, match="non-finite"):
        fileio.load_basis_pair(path)


def test_deterministic_bytes(tmp_path, ref):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    fileio.save_support(ref.support, a)
    fileio.save_support(ref.support, b)
    assert a.read_bytes() == b.read_bytes()


LOADERS = {
    "graph": fileio.load_graph,
    "support": fileio.load_support,
    "plan": fileio.load_plan,
    "basis": fileio.load_basis_pair,
}


@pytest.mark.parametrize("kind, text", [
    ("plan", '{"T": 4, "N": 4}'),
    ("basis", '{"U_T": [[1.0]]}'),
    *((kind, "[4, 4, [[0, 0]]]") for kind in LOADERS),
    *((kind, "{not json") for kind in LOADERS),
])
def test_malformed_json_rejected(tmp_path, kind, text):
    # a missing key, a JSON list where an object belongs, or no JSON at all;
    # a syntax error used to report only the parser's message, without the file
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"malformed {kind} file"):
        LOADERS[kind](path)


NON_INTEGRAL = [
    ("graph", {"n": 4.9, "edges": [[0, 1, 1.0]]}),
    ("graph", {"n": 4, "edges": [[0, 1.5, 1.0]]}),
    ("support", {"T": 4.5, "N": 4, "pairs": [[0, 1]]}),
    ("support", {"T": 4, "N": 4, "pairs": [[0, 1.5]]}),
    ("plan", {"T": 4, "N": 4.5, "samples": [[0, 1]]}),
    ("plan", {"T": 4, "N": 4, "samples": [[0, 1.5]]}),
    # JSON true would be read as the index 1
    ("graph", {"n": True, "edges": []}),
    ("support", {"T": True, "N": 4, "pairs": [[0, 1]]}),
    ("plan", {"T": 4, "N": 4, "samples": [[0, True]]}),
    # these used to raise TypeError from comparing the dims with 1
    ("support", {"T": None, "N": 4, "pairs": [[0, 1]]}),
    ("support", {"T": 4, "N": "4", "pairs": [[0, 1]]}),
]


@pytest.mark.parametrize("kind, data", NON_INTEGRAL,
                         ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(NON_INTEGRAL)])
def test_non_integral_indices_rejected(tmp_path, kind, data):
    # a truncating loader would read "n": 4.9 as a 4-vertex graph
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="must be an integer"):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind, data, reason", [
    ("graph", {"n": 4, "edges": [[0, 1]]}, "not enough values to unpack"),
    ("graph", {"n": 4, "edges": [[0, 0, 1.0]]}, "self-loop at vertex 0 not allowed"),
    ("basis", {"U_T": [[1.0], [1.0, 0.0]], "U_G": [[1.0]]}, "inhomogeneous shape"),
])
def test_value_errors_name_the_file(tmp_path, kind, data, reason):
    # these used to report only the reason, without the file
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as err:
        LOADERS[kind](path)
    assert str(err.value).startswith(f"malformed {kind} file {path}: ")
    assert reason in str(err.value)


@pytest.mark.parametrize("kind, data, want", [
    ("graph", {"n": 3.0, "edges": [[0.0, 2, 1.5]]}, Graph(3, ((0, 2, 1.5),))),
    ("support", {"T": 4.0, "N": 4, "pairs": [[1.0, 2]]},
     SpectralSupport(4, 4, frozenset({(1, 2)}))),
    ("plan", {"T": 4, "N": 4.0, "samples": [[0, 3.0]]}, SamplingPlan(4, 4, frozenset({(0, 3)}))),
])
def test_integral_floats_load(tmp_path, kind, data, want):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(data))
    assert LOADERS[kind](path) == want


@pytest.mark.parametrize("data", [
    {"U_T": [1.0, 0.0], "U_G": [[1.0]]},
    {"U_T": [[1.0]], "U_G": [[[1.0]]]},
    {"U_T": 1.0, "U_G": [[1.0]]},
])
def test_basis_pair_not_matrices_rejected(tmp_path, data):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="two matrices"):
        fileio.load_basis_pair(path)
