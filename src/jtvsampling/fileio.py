"""Flat-file formats: graph / support / plan JSON, signal and sample CSV.

All indices are 0-based. JSON is written with sorted keys and fixed layout so
identical inputs produce byte-identical files.
"""

import json
import warnings

import numpy as np

from .bandlimit import SpectralSupport
from .graphs import Graph, _as_index, _as_real
from .sampling import QualificationReport, SamplingPlan


def _dump_json(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load(path, kind, parse):
    """``parse(fh)`` of the text file ``path``, the one reader of every input
    file. An ``OSError`` passes through; a bad key, type or value that ``parse``
    meets, undecodable bytes among them, is a malformed ``kind`` file."""
    with open(path) as fh:
        try:
            return parse(fh)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed {kind} file {path}: {exc}") from exc


def _json(build):
    """The parse of a JSON file: ``build(data)`` of the data it holds."""
    return lambda fh: build(json.load(fh))


def _finite(values):
    """``values``, a float array, refused if an entry is NaN or infinite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("it contains non-finite values")
    return values


def _table(values):
    """The values of a signal or samples file, refused if there are none or
    one is not finite."""
    if not np.size(values):
        raise ValueError("it is empty")
    return _finite(values)


def save_graph(g: Graph, path):
    _dump_json({"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}, path)


def load_graph(path) -> Graph:
    return _load(path, "graph", _json(lambda data: Graph(data["n"], data["edges"])))


def save_support(s: SpectralSupport, path):
    _dump_json(
        {"T": s.t_dim, "N": s.g_dim, "pairs": [list(p) for p in s.sorted_pairs]},
        path,
    )


def load_support(path) -> SpectralSupport:
    return _load(path, "support", _json(lambda data: SpectralSupport(
        t_dim=data["T"],
        g_dim=data["N"],
        pairs=data["pairs"],
    )))


def save_signal(x_mat: np.ndarray, path):
    """N x T signal as CSV, row v = vertex v across time."""
    # opened here, as load_signal opens it, so a .gz or .bz2 name is no cue to
    # compress: the file is the CSV that load_signal reads
    with open(path, "w") as fh:
        np.savetxt(fh, np.asarray(x_mat, dtype=float), delimiter=",", fmt="%.17g")


def load_signal(path) -> np.ndarray:
    with warnings.catch_warnings():
        # numpy warns about an empty file, which _table refuses
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # opened by _load, not by loadtxt, so a missing file is refused with
        # open's message, as by every other loader
        return _load(path, "signal",
                     lambda fh: _table(np.loadtxt(fh, delimiter=",", ndmin=2)))


def _report_fields(report: QualificationReport) -> dict:
    """The qualification keys of a plan file and of ``jtv verify``'s report."""
    return {
        "K": report.k,
        "K_T": report.k_t,
        "K_G": report.k_g,
        "rank": report.rank,
        "qualified": report.qualified,
        "critical": report.critical,
    }


def save_plan(plan: SamplingPlan, report: QualificationReport, path):
    _dump_json(
        {
            "T": plan.t_dim,
            "N": plan.g_dim,
            "samples": [list(s) for s in plan.sorted_samples],
            "s_t": list(plan.proj_t),
            "s_g": list(plan.proj_g),
            **_report_fields(report),
        },
        path,
    )


def load_plan(path) -> SamplingPlan:
    return _load(path, "plan", _json(lambda data: SamplingPlan(
        t_dim=data["T"],
        g_dim=data["N"],
        samples=data["samples"],
    )))


def save_samples(plan: SamplingPlan, values: np.ndarray, path):
    """Sampled values as CSV rows (t, v, value) in plan order."""
    values = np.asarray(values, dtype=float)
    if values.shape != (plan.size,):
        raise ValueError("value count does not match plan size")
    with open(path, "w") as fh:
        for (t, v), val in zip(plan.sorted_samples, values):
            fh.write(f"{t},{v},{val:.17g}\n")


def _samples(fh):
    """The (t, v) points and the values of the non-blank lines of a samples
    file; a bad line is refused by its number."""
    points, values = [], []
    for line_no, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            t, v, value = line.split(",")
            points.append(tuple(_as_index(float(i), "sample index") for i in (t, v)))
            values.append(float(value))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from exc
    return points, _table(np.array(values))


def load_samples(path):
    """Returns (list of (t, v), value array) in file order; indices as in plan files."""
    return _load(path, "samples", _samples)


def save_basis_pair(ut_r: np.ndarray, ug_r: np.ndarray, path):
    """Restricted time / graph basis matrices as JSON."""
    _dump_json(
        {
            "U_T": np.asarray(ut_r, dtype=float).tolist(),
            "U_G": np.asarray(ug_r, dtype=float).tolist(),
        },
        path,
    )


def _entries(value):
    """``value`` with every entry of its nested lists through ``_as_real``, so
    a bool or a string entry is refused, not converted."""
    if isinstance(value, list):
        return [_entries(v) for v in value]
    return _as_real(value, "basis entry")


def _basis(data):
    """The two matrices of a basis file's data, each refused unless finite."""
    ut_r, ug_r = (np.array(_entries(data[key]), dtype=float) for key in ("U_T", "U_G"))
    if ut_r.ndim != 2 or ug_r.ndim != 2:
        raise ValueError("it must hold two matrices")
    return _finite(ut_r), _finite(ug_r)


def load_basis_pair(path):
    return _load(path, "basis", _json(_basis))
