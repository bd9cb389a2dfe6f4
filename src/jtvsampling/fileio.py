"""Flat-file formats: graph / support / plan JSON, signal and sample CSV.

All indices are 0-based. JSON is written with sorted keys and fixed layout so
identical inputs produce byte-identical files.
"""

import json
import warnings

import numpy as np

from .bandlimit import SpectralSupport
from .graphs import Graph, _as_index
from .sampling import QualificationReport, SamplingPlan


def _dump_json(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_json(path, kind, build):
    """``build(data)`` of the JSON in ``path``; invalid JSON or a bad key, type or
    value is a malformed file."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed {kind} file {path}: {exc}") from exc


def save_graph(g: Graph, path):
    _dump_json({"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}, path)


def load_graph(path) -> Graph:
    return _load_json(path, "graph", lambda data: Graph(data["n"], data["edges"]))


def save_support(s: SpectralSupport, path):
    _dump_json(
        {"T": s.t_dim, "N": s.g_dim, "pairs": [list(p) for p in s.sorted_pairs]},
        path,
    )


def load_support(path) -> SpectralSupport:
    return _load_json(path, "support", lambda data: SpectralSupport(
        t_dim=data["T"],
        g_dim=data["N"],
        pairs=data["pairs"],
    ))


def save_signal(x_mat: np.ndarray, path):
    """N x T signal as CSV, row v = vertex v across time."""
    np.savetxt(path, np.asarray(x_mat, dtype=float), delimiter=",", fmt="%.17g")


def load_signal(path) -> np.ndarray:
    with warnings.catch_warnings():
        # numpy warns about an empty file, which is refused below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        x = np.loadtxt(path, delimiter=",", ndmin=2)
    if not x.size:
        raise ValueError(f"signal file {path} is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"signal file {path} contains non-finite values")
    return x


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
    return _load_json(path, "plan", lambda data: SamplingPlan(
        t_dim=data["T"],
        g_dim=data["N"],
        samples=data["samples"],
    ))


def save_samples(plan: SamplingPlan, values: np.ndarray, path):
    """Sampled values as CSV rows (t, v, value) in plan order."""
    values = np.asarray(values, dtype=float)
    if values.shape != (plan.size,):
        raise ValueError("value count does not match plan size")
    with open(path, "w") as fh:
        for (t, v), val in zip(plan.sorted_samples, values):
            fh.write(f"{t},{v},{val:.17g}\n")


def load_samples(path):
    """Returns (list of (t, v), value array) in file order; indices as in plan files."""
    points, values = [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                t, v, value = line.split(",")
                points.append(tuple(_as_index(float(i), "sample index") for i in (t, v)))
                values.append(float(value))
            except ValueError as exc:
                raise ValueError(f"malformed samples file {path}, line {line_no}: {exc}") from exc
    if not points:
        raise ValueError(f"samples file {path} is empty")
    values = np.array(values)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"samples file {path} contains non-finite values")
    return points, values


def save_basis_pair(ut_r: np.ndarray, ug_r: np.ndarray, path):
    """Restricted time / graph basis matrices as JSON."""
    _dump_json(
        {
            "U_T": np.asarray(ut_r, dtype=float).tolist(),
            "U_G": np.asarray(ug_r, dtype=float).tolist(),
        },
        path,
    )


def load_basis_pair(path):
    ut_r, ug_r = _load_json(path, "basis", lambda data: (
        np.array(data["U_T"], dtype=float),
        np.array(data["U_G"], dtype=float),
    ))
    if ut_r.ndim != 2 or ug_r.ndim != 2:
        raise ValueError(f"basis file {path} must hold two matrices")
    if not (np.all(np.isfinite(ut_r)) and np.all(np.isfinite(ug_r))):
        raise ValueError(f"basis file {path} contains non-finite values")
    return ut_r, ug_r
