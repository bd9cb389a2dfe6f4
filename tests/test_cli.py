import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jtvsampling import cycle_graph, laplacian, star_graph
from jtvsampling import cli, fileio, oracle, spectral
from jtvsampling.cli import main


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture
def workspace(tmp_path, ref):
    """Graph, support, and basis files for the 4x4 worked instance."""
    paths = {
        "gt": tmp_path / "gt.json",
        "gg": tmp_path / "gg.json",
        "support": tmp_path / "support.json",
        "basis": tmp_path / "basis.json",
    }
    assert run("gen", "graph", "--type", "cycle", "--n", 4, "-o", paths["gt"]) == 0
    assert (
        run("gen", "graph", "--type", "star", "--n", 4, "--center", 1, "-o", paths["gg"])
        == 0
    )
    assert (
        run("gen", "support", "--t", 4, "--n", 4, "--pairs", "1,1;1,2;2,2",
            "-o", paths["support"])
        == 0
    )
    fileio.save_basis_pair(ref.ut_r, ref.ug_r, paths["basis"])
    return tmp_path, paths


class TestGen:
    def test_cycle_graph_file(self, workspace, ref):
        _, paths = workspace
        g = fileio.load_graph(paths["gt"])
        assert np.array_equal(laplacian(g), ref.l_time)
        assert g == cycle_graph(4)

    def test_star_graph_file(self, workspace, ref):
        _, paths = workspace
        g = fileio.load_graph(paths["gg"])
        assert np.array_equal(laplacian(g), ref.l_graph)
        assert g == star_graph(4, center=1)

    def test_support_file(self, workspace, ref):
        _, paths = workspace
        assert fileio.load_support(paths["support"]) == ref.support

    def test_er_graph_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "graph", "--type", "er", "--n", 6, "--seed", 5, "-o", a) == 0
        assert run("gen", "graph", "--type", "er", "--n", 6, "--seed", 5, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert fileio.load_graph(a).is_connected()

    def test_invalid_graph_type_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen", "graph", "--type", "nope", "--n", 4, "-o", tmp_path / "g.json")
        assert exc.value.code == 2

    def test_infinite_edge_weight_exit_2(self, workspace, tmp_path):
        # JSON's Infinity loads as a float; the graph must reject it, not let
        # the eigensolver return an all-NaN basis
        _, paths = workspace
        bad = tmp_path / "inf.json"
        bad.write_text(paths["gg"].read_text().replace("1.0", "Infinity", 1))
        assert "Infinity" in bad.read_text()
        assert run("plan", "--graph-t", paths["gt"], "--graph-g", bad,
                   "--support", paths["support"], "-o", tmp_path / "p.json") == 2

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", [
        ("plan",),
        ("verify", "--exhaustive"),
        ("gen", "signal", "--seed", 1),
    ])
    def test_non_finite_basis_file_exit_2(self, workspace, tmp_path, command, bad):
        # a NaN basis used to give exit 0 (plan, gen signal) or a false theory
        # violation (verify: the oracle ranked NaN matrices 0)
        _, paths = workspace
        data = json.loads(paths["basis"].read_text())
        data["U_G"][0][1] = bad
        basis = tmp_path / "bad_basis.json"
        basis.write_text(json.dumps(data).replace(f'"{bad}"', bad))
        out = tmp_path / "out.json"
        assert run(*command, "--support", paths["support"], "--basis-file", basis,
                   "-o", out) == 2
        assert not out.exists()

    def test_cycle_too_small_input_error(self, tmp_path):
        assert run("gen", "graph", "--type", "cycle", "--n", 2, "-o", tmp_path / "g.json") == 2

    def test_signal_builds_no_joint_basis(self, workspace, monkeypatch):
        # gen signal synthesizes from the restricted bases; only the oracle
        # (verify --exhaustive) and bench need the dense (T*N, K) joint basis
        tmp, paths = workspace

        def refuse(*args):
            raise AssertionError("gen signal built the joint basis")

        monkeypatch.setattr(spectral, "joint_columns_from_restricted", refuse)
        for bases in (["--basis-file", paths["basis"]],
                      ["--graph-t", paths["gt"], "--graph-g", paths["gg"]]):
            assert run("gen", "signal", "--support", paths["support"], *bases,
                       "-o", tmp / "x.csv") == 0


SHARED_FLAGS = ("--graph-t", "--graph-g", "--basis-file", "--seed")
BASIS_FLAGS = ("--graph-t", "--graph-g", "--basis-file")


class TestSharedInputs:
    @pytest.mark.parametrize("command, flags", [
        (("gen", "graph"), ("--seed",)),
        (("gen", "support"), ("--seed",)),
        (("gen", "signal"), BASIS_FLAGS + ("--seed",)),
        (("analyze",), ("--graph-t", "--graph-g")),
        (("plan",), BASIS_FLAGS),
        (("sample",), ()),
        (("reconstruct",), BASIS_FLAGS),
        (("verify",), BASIS_FLAGS),
        (("bench",), BASIS_FLAGS + ("--seed",)),
    ], ids=" ".join)
    def test_help_lists_shared_flags(self, capsys, command, flags):
        # a clash between shared option groups breaks every command's parser
        with pytest.raises(SystemExit) as exc:
            run(*command, "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert [f for f in SHARED_FLAGS if f in text] == list(flags)

    @staticmethod
    def basis_command(name, tmp, paths, basis):
        """Arguments of ``name`` reading ``basis``; a reconstruct gets a plan
        and samples made with the good basis first."""
        inputs = ["--support", paths["support"], "--basis-file", basis]
        if name == "reconstruct":
            good = ["--support", paths["support"], "--basis-file", paths["basis"]]
            signal, plan, samples = tmp / "x.csv", tmp / "plan.json", tmp / "samples.csv"
            assert run("gen", "signal", *good, "-o", signal) == 0
            assert run("plan", *good, "-o", plan) == 0
            assert run("sample", "--signal", signal, "--plan", plan, "-o", samples) == 0
            return ["reconstruct", *inputs, "--plan", plan, "--samples", samples]
        if name == "bench":
            return ["bench", *inputs, "--repeats", 1]
        return [*name.split(), *inputs]

    @pytest.mark.parametrize("name", ["gen signal", "plan", "reconstruct", "verify", "bench"])
    @pytest.mark.parametrize("axis", ["rows", "columns"])
    def test_wrong_shape_basis_file_exit_2(self, workspace, name, axis):
        # U_T loses its last row (T = 4), or U_G its last column (K_G = 2)
        tmp, paths = workspace
        data = json.loads(paths["basis"].read_text())
        if axis == "rows":
            data["U_T"] = data["U_T"][:-1]
        else:
            data["U_G"] = [row[:-1] for row in data["U_G"]]
        basis = tmp / "bad_basis.json"
        basis.write_text(json.dumps(data))
        out = tmp / "out.txt"
        assert run(*self.basis_command(name, tmp, paths, basis), "-o", out) == 2
        assert not out.exists()

    SEEDED = {
        "gen graph": lambda p: ["gen", "graph", "--type", "er", "--n", 6],
        "gen support": lambda p: ["gen", "support", "--t", 4, "--n", 4, "--kt", 2, "--kg", 2],
        "gen signal": lambda p: ["gen", "signal", "--support", p["support"],
                                 "--basis-file", p["basis"]],
    }

    @pytest.mark.parametrize("name", SEEDED)
    def test_seed_from_env(self, workspace, monkeypatch, name):
        tmp, paths = workspace
        argv = self.SEEDED[name](paths)
        monkeypatch.delenv("JTV_SEED", raising=False)
        assert run(*argv, "-o", tmp / "unset") == 0
        assert run(*argv, "--seed", 7, "-o", tmp / "flag") == 0
        monkeypatch.setenv("JTV_SEED", "7")
        assert run(*argv, "-o", tmp / "env") == 0
        assert (tmp / "env").read_bytes() == (tmp / "flag").read_bytes()
        assert (tmp / "env").read_bytes() != (tmp / "unset").read_bytes()

    @pytest.mark.parametrize("name", [*SEEDED, "bench", "verify"])
    def test_invalid_env_seed_exit_2(self, workspace, monkeypatch, name):
        tmp, paths = workspace
        argv = {
            "bench": lambda p: ["bench", "--sizes", 6, "--repeats", 1],
            "verify": lambda p: ["verify", "--support", p["support"],
                                 "--basis-file", p["basis"], "--exhaustive"],
            **self.SEEDED,
        }[name](paths)
        monkeypatch.setenv("JTV_SEED", "seven")
        out = tmp / "out.txt"
        assert run(*argv, "-o", out) == 2
        assert not out.exists()


class TestPlan:
    def test_with_basis_file(self, workspace):
        tmp, paths = workspace
        out = tmp / "plan.json"
        code = run("plan", "--support", paths["support"], "--basis-file", paths["basis"],
                   "--schedule", tmp / "sched.txt", "-o", out)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["samples"] == [[0, 0], [1, 0], [1, 2]]
        assert data["critical"] is True
        sched = (tmp / "sched.txt").read_text()
        assert "vertex 0: 0 1" in sched
        assert "vertex 2: 1" in sched

    def test_with_computed_basis(self, workspace):
        tmp, paths = workspace
        out = tmp / "plan.json"
        code = run("plan", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                   "--support", paths["support"], "-o", out)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["K"] == 3 and data["K_T"] == 2 and data["K_G"] == 2
        assert data["critical"] is True

    def test_full_support_plan(self, workspace):
        tmp, paths = workspace
        full = tmp / "full.json"
        pairs = ";".join(f"{jt},{jg}" for jt in range(4) for jg in range(4))
        assert run("gen", "support", "--t", 4, "--n", 4, "--pairs", pairs, "-o", full) == 0
        out = tmp / "plan.json"
        assert run("plan", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                   "--support", full, "-o", out) == 0
        data = json.loads(out.read_text())
        assert len(data["samples"]) == 16

    def test_dimension_mismatch_exit_2(self, workspace, tmp_path):
        tmp, paths = workspace
        small = tmp_path / "small.json"
        assert run("gen", "graph", "--type", "cycle", "--n", 3, "-o", small) == 0
        assert run("plan", "--graph-t", small, "--graph-g", paths["gg"],
                   "--support", paths["support"], "-o", tmp_path / "p.json") == 2

    def test_missing_inputs_exit_2(self, workspace, tmp_path):
        _, paths = workspace
        assert run("plan", "--support", paths["support"], "-o", tmp_path / "p.json") == 2


class TestRoundTrip:
    def test_printed_instance(self, workspace, ref):
        tmp, paths = workspace
        signal = tmp / "x.csv"
        fileio.save_signal(ref.x, signal)
        plan = tmp / "plan.json"
        assert run("plan", "--support", paths["support"], "--basis-file", paths["basis"],
                   "--schedule", tmp / "s.txt", "-o", plan) == 0
        samples = tmp / "samples.csv"
        assert run("sample", "--signal", signal, "--plan", plan, "-o", samples) == 0
        _, values = fileio.load_samples(samples)
        assert np.allclose(values, ref.sample_values)
        recon = tmp / "recon.csv"
        # printed-precision inputs: plain reconstruction, tolerance checked here
        assert run("reconstruct", "--support", paths["support"],
                   "--basis-file", paths["basis"], "--plan", plan,
                   "--samples", samples, "-o", recon) == 0
        x_rec = fileio.load_signal(recon)
        assert np.max(np.abs(x_rec - ref.x)) < 1e-3

    def test_synthesized_signal_round_trip(self, workspace):
        tmp, paths = workspace
        signal = tmp / "x.csv"
        assert run("gen", "signal", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                   "--support", paths["support"], "--seed", 9, "-o", signal) == 0
        plan = tmp / "plan.json"
        assert run("plan", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                   "--support", paths["support"], "--schedule", tmp / "s.txt",
                   "-o", plan) == 0
        samples = tmp / "samples.csv"
        assert run("sample", "--signal", signal, "--plan", plan, "-o", samples) == 0
        recon = tmp / "recon.csv"
        assert run("reconstruct", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                   "--support", paths["support"], "--plan", plan, "--samples", samples,
                   "--reference", signal, "-o", recon) == 0
        x = fileio.load_signal(signal)
        x_rec = fileio.load_signal(recon)
        assert np.max(np.abs(x - x_rec)) < 1e-8

    def test_analyze_detects_support(self, workspace):
        tmp, paths = workspace
        signal = tmp / "x.csv"
        assert run("gen", "signal", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                   "--support", paths["support"], "--seed", 2, "-o", signal) == 0
        detected = tmp / "detected.json"
        assert run("analyze", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                   "--signal", signal, "-o", detected) == 0
        assert fileio.load_support(detected) == fileio.load_support(paths["support"])

    def test_truncated_samples_exit_2(self, workspace, ref):
        tmp, paths = workspace
        plan = tmp / "plan.json"
        assert run("plan", "--support", paths["support"], "--basis-file", paths["basis"],
                   "--schedule", tmp / "s.txt", "-o", plan) == 0
        bad = tmp / "bad.csv"
        bad.write_text("0,0,0.5\n1,0\n")
        assert run("reconstruct", "--support", paths["support"],
                   "--basis-file", paths["basis"], "--plan", plan,
                   "--samples", bad, "-o", tmp / "r.csv") == 2

    def reconstruct_with_samples(self, workspace, edit, reference=True):
        """Exit code of ``reconstruct`` (with ``--reference`` unless told
        otherwise) after ``edit`` rewrote the value column of the samples file."""
        tmp, paths = workspace
        graphs = ["--graph-t", paths["gt"], "--graph-g", paths["gg"]]
        signal, plan, samples = tmp / "x.csv", tmp / "plan.json", tmp / "samples.csv"
        assert run("gen", "signal", *graphs, "--support", paths["support"],
                   "--seed", 9, "-o", signal) == 0
        assert run("plan", *graphs, "--support", paths["support"], "-o", plan) == 0
        assert run("sample", "--signal", signal, "--plan", plan, "-o", samples) == 0
        rows = [line.rsplit(",", 1) for line in samples.read_text().split()]
        values = edit([value for _, value in rows])
        samples.write_text("".join(f"{p},{v}\n" for (p, _), v in zip(rows, values)))
        check = ["--reference", signal] if reference else []
        return run("reconstruct", *graphs, "--support", paths["support"], "--plan", plan,
                   "--samples", samples, *check, "-o", tmp / "r.csv")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_samples_exit_2(self, workspace, bad):
        assert self.reconstruct_with_samples(workspace, lambda v: [bad] + v[1:]) == 2

    def test_nan_reconstruction_fails_reference_check(self, workspace):
        # finite samples near the float limit overflow inside the solve and
        # give a NaN signal, whose NaN error must not pass the tolerance
        huge = lambda v: ["1e308", "-1e308", "1e308"][: len(v)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert self.reconstruct_with_samples(workspace, huge) == 3

    def test_overflowing_samples_exit_3_without_reference(self, workspace):
        # the solve must refuse non-finite coefficients itself, so that no
        # inf / NaN signal is written when there is no reference to compare
        tmp, _ = workspace
        huge = lambda v: ["1e308", "-1e308", "1e308"][: len(v)]
        assert self.reconstruct_with_samples(workspace, huge, reference=False) == 3
        assert not (tmp / "r.csv").exists()

    def reconstruct_after(self, workspace, edit, reference=False):
        """Exit code of ``reconstruct`` (with ``--reference x.csv`` if asked)
        after ``edit`` changed the pipeline's files, and whether it wrote its
        output. ``edit`` gets the paths of ``x.csv``, ``plan.json`` and
        ``samples.csv``."""
        tmp, paths = workspace
        graphs = ["--graph-t", paths["gt"], "--graph-g", paths["gg"]]
        files = {name: tmp / name for name in ("x.csv", "plan.json", "samples.csv")}
        assert run("gen", "signal", *graphs, "--support", paths["support"],
                   "--seed", 9, "-o", files["x.csv"]) == 0
        assert run("plan", *graphs, "--support", paths["support"],
                   "-o", files["plan.json"]) == 0
        assert run("sample", "--signal", files["x.csv"], "--plan", files["plan.json"],
                   "-o", files["samples.csv"]) == 0
        edit(files)
        check = ["--reference", files["x.csv"]] if reference else []
        out = tmp / "r.csv"
        code = run("reconstruct", *graphs, "--support", paths["support"],
                   "--plan", files["plan.json"], "--samples", files["samples.csv"],
                   *check, "-o", out)
        return code, out.exists()

    @staticmethod
    def rewrite(path, old, new):
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))

    def test_plan_dims_differ_from_support_exit_2(self, workspace):
        # the plan's points indexed with N = 5 read other rows of the joint
        # basis: this used to exit 0 with a wrong signal (max-abs error 9.6e-4)
        edit = lambda f: self.rewrite(f["plan.json"], '"N": 4', '"N": 5')
        assert self.reconstruct_after(workspace, edit) == (2, False)

    def test_samples_points_differ_from_plan_exit_2(self, workspace):
        def edit(files):
            # move the first point in the file, whatever it is, off the plan
            plan = fileio.load_plan(files["plan.json"])
            t, v = next((t, v) for t in range(plan.t_dim) for v in range(plan.g_dim)
                        if (t, v) not in plan.samples)
            first, rest = files["samples.csv"].read_text().split("\n", 1)
            value = first.split(",")[2]
            files["samples.csv"].write_text(f"{t},{v},{value}\n{rest}")
        assert self.reconstruct_after(workspace, edit) == (2, False)

    def test_reference_of_wrong_shape_exit_2(self, workspace):
        def edit(files):
            x = fileio.load_signal(files["x.csv"])
            fileio.save_signal(x[:, :-1], files["x.csv"])
        # the output used to be written before the reference was checked
        assert self.reconstruct_after(workspace, edit, reference=True) == (2, False)

    def test_finite_reference_error_above_tolerance_exit_3(self, workspace, capsys):
        def edit(files):
            x = fileio.load_signal(files["x.csv"])
            x[0, 0] += 1e-3 * np.linalg.norm(x)
            fileio.save_signal(x, files["x.csv"])
        assert self.reconstruct_after(workspace, edit, reference=True) == (3, True)
        assert "above tolerance" in capsys.readouterr().err

    def test_cycle_er_instance_within_tolerance(self, tmp_path):
        # 32-cycle x 32-vertex ER graph, K = 54: a lowest-index step-3 scan
        # gave this plan cond 6.4e10 and a max-abs error of 7.6e-6, above the
        # 1e-6 * ||x||_F = 7.35e-6 that --reference allows
        p = lambda name: tmp_path / name
        seed = 2711932562
        graphs = ["--graph-t", p("gt.json"), "--graph-g", p("gg.json")]
        assert run("gen", "graph", "--type", "cycle", "--n", 32, "-o", p("gt.json")) == 0
        assert run("gen", "graph", "--type", "er", "--n", 32, "--seed", seed,
                   "-o", p("gg.json")) == 0
        assert run("gen", "support", "--t", 32, "--n", 32, "--kt", 8, "--kg", 8,
                   "--seed", seed, "-o", p("support.json")) == 0
        assert fileio.load_support(p("support.json")).k == 54
        assert run("gen", "signal", *graphs, "--support", p("support.json"),
                   "--seed", seed, "-o", p("x.csv")) == 0
        assert run("plan", *graphs, "--support", p("support.json"), "-o", p("plan.json")) == 0
        assert run("sample", "--signal", p("x.csv"), "--plan", p("plan.json"),
                   "-o", p("samples.csv")) == 0
        assert run("reconstruct", *graphs, "--support", p("support.json"),
                   "--plan", p("plan.json"), "--samples", p("samples.csv"),
                   "--reference", p("x.csv"), "-o", p("x_rec.csv")) == 0

    def test_byte_identical_outputs(self, workspace):
        tmp, paths = workspace
        a, b = tmp / "a.csv", tmp / "b.csv"
        for out in (a, b):
            assert run("gen", "signal", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                       "--support", paths["support"], "--seed", 3, "-o", out) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMalformedInputs:
    """Inputs that a truncating or late check would let through or misname:
    each exits 2 and names the problem."""

    def test_non_integral_plan_sample_exit_2(self, workspace, ref, capsys):
        # truncating 1.5 would silently sample the point (0, 1)
        tmp, _ = workspace
        signal, plan = tmp / "x.csv", tmp / "plan.json"
        fileio.save_signal(ref.x, signal)
        plan.write_text(json.dumps({"T": 4, "N": 4, "samples": [[0, 0], [0, 1.5]]}))
        out = tmp / "samples.csv"
        assert run("sample", "--signal", signal, "--plan", plan, "-o", out) == 2
        assert "must be an integer, got 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integral_vertex_count_exit_2(self, workspace, capsys):
        tmp, paths = workspace
        data = json.loads(paths["gg"].read_text())
        paths["gg"].write_text(json.dumps({**data, "n": 4.9}))
        code = run("plan", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                   "--support", paths["support"], "-o", tmp / "plan.json")
        assert code == 2
        assert "vertex count must be an integer, got 4.9" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_analyze_non_finite_eps_exit_2(self, workspace, ref, capsys, eps):
        tmp, paths = workspace
        signal = tmp / "x.csv"
        fileio.save_signal(ref.x, signal)
        code = run("analyze", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                   "--signal", signal, "--eps", eps)
        assert code == 2
        assert capsys.readouterr().err == f"error: threshold eps must be finite, got {eps}\n"

    def test_empty_signal_exit_2_without_warning(self, workspace, capsys):
        tmp, paths = workspace
        signal = tmp / "x.csv"
        signal.write_text("")
        code = run("analyze", "--graph-t", paths["gt"], "--graph-g", paths["gg"],
                   "--signal", signal)
        assert code == 2
        assert capsys.readouterr().err == f"error: signal file {signal} is empty\n"


class TestDenseFree:
    """``jtv`` holds the joint basis as its factors; only the oracle and the
    naive scan of ``bench`` build the dense (T*N, K) matrix."""

    def test_pipeline_builds_no_dense_joint_basis(self, workspace, monkeypatch):
        tmp, paths = workspace
        p = lambda name: tmp / name
        graphs = ["--graph-t", paths["gt"], "--graph-g", paths["gg"]]
        inputs = [*graphs, "--support", paths["support"]]

        def refuse(*args):
            raise AssertionError("the dense joint basis was built")

        monkeypatch.setattr(spectral, "joint_columns_from_restricted", refuse)
        assert run("gen", "signal", *inputs, "--seed", 9, "-o", p("x.csv")) == 0
        assert run("plan", *inputs, "-o", p("plan.json")) == 0
        assert run("sample", "--signal", p("x.csv"), "--plan", p("plan.json"),
                   "-o", p("samples.csv")) == 0
        assert run("reconstruct", *inputs, "--plan", p("plan.json"),
                   "--samples", p("samples.csv"), "--reference", p("x.csv"),
                   "-o", p("r.csv")) == 0
        assert run("verify", *inputs, "-o", p("report.json")) == 0
        monkeypatch.undo()
        assert run("verify", *inputs, "--exhaustive", "-o", p("report.json")) == 0
        assert run("bench", *inputs, "--repeats", 1, "-o", p("bench.csv")) == 0

    def test_plan_and_reconstruct_peak_below_dense_basis(self, tmp_path):
        # T = N = 64 with a full 16 x 16 rectangle: K = 256, and the dense
        # joint basis alone would take 4096 * 256 * 8 B = 8.4 MB
        p = lambda name: tmp_path / name
        inputs = ["--graph-t", p("gt.json"), "--graph-g", p("gg.json"),
                  "--support", p("support.json")]
        assert run("gen", "graph", "--type", "cycle", "--n", 64, "-o", p("gt.json")) == 0
        assert run("gen", "graph", "--type", "er", "--n", 64, "--seed", 3,
                   "-o", p("gg.json")) == 0
        assert run("gen", "support", "--t", 64, "--n", 64, "--kt", 16, "--kg", 16,
                   "--k", 256, "--seed", 3, "-o", p("support.json")) == 0
        assert run("gen", "signal", *inputs, "--seed", 3, "-o", p("x.csv")) == 0
        dense = 64 * 64 * 256 * 8

        def peak(*argv):
            tracemalloc.start()
            try:
                assert run(*argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak("plan", *inputs, "--schedule", p("schedule.txt"),
                    "-o", p("plan.json")) < dense
        assert run("sample", "--signal", p("x.csv"), "--plan", p("plan.json"),
                   "-o", p("samples.csv")) == 0
        assert peak("reconstruct", *inputs, "--plan", p("plan.json"),
                    "--samples", p("samples.csv"), "--reference", p("x.csv"),
                    "-o", p("r.csv")) < dense


@pytest.fixture
def fresh_parser():
    """No cached parser before or after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


class TestDispatch:
    def test_parser_not_built_at_import(self):
        src = Path(cli.__file__).resolve().parents[1]
        code = "import jtvsampling.cli as c; print(c._parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip() == "0"

    def test_parser_built_once(self, tmp_path, monkeypatch, fresh_parser):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        for n in (4, 5, 6):
            assert run("gen", "graph", "--type", "cycle", "--n", n,
                       "-o", tmp_path / f"g{n}.json") == 0
        assert run("gen", "support", "--t", 4, "--n", 4, "--pairs", "1,1",
                   "-o", tmp_path / "s.json") == 0
        assert len(builds) == 1

    def test_rebound_command_is_dispatched(self, tmp_path, monkeypatch):
        # the benchmark's tracer times each command by rebinding cli.cmd_*
        # after the parser exists
        argv = ("gen", "support", "--t", 4, "--n", 4, "--pairs", "1,1", "-o", tmp_path / "s.json")
        assert run(*argv) == 0
        (tmp_path / "s.json").unlink()
        seen = []
        monkeypatch.setattr(cli, "cmd_gen_support", lambda args: seen.append(args.t) or 7)
        assert run(*argv) == 7
        assert seen == [4] and not (tmp_path / "s.json").exists()

    def test_calls_do_not_share_values(self, monkeypatch, fresh_parser):
        seen = []
        for name in [n for n in vars(cli) if n.startswith("cmd_")]:
            monkeypatch.setattr(cli, name, lambda args: seen.append(dict(vars(args))) or 0)
        monkeypatch.delenv("JTV_SEED", raising=False)
        calls = [
            ("gen", "graph", "--type", "er", "--n", 6, "--seed", 5, "--p", 0.3, "-o", "a"),
            ("gen", "graph", "--type", "cycle", "--n", 4, "-o", "b"),
            ("verify", "--support", "s", "--exhaustive", "--max-size", 2, "--trials", 5),
            ("analyze", "--graph-t", "t", "--graph-g", "g", "--signal", "x"),
            ("verify", "--support", "s"),
        ]
        for argv in calls:
            assert run(*argv) == 0
        # every call sees what a parser of its own would give it
        for argv, got in zip(calls, seen):
            want = vars(cli.build_parser().parse_args([str(a) for a in argv]))
            if want.get("seed", 0) is None:
                want["seed"] = 0
            assert got == want
        er, cycle, _, analyze, verify = seen
        assert (er["seed"], er["p"], cycle["seed"], cycle["p"]) == (5, 0.3, 0, 0.5)
        assert (verify["exhaustive"], verify["max_size"], verify["trials"]) == (False, None, 200)
        assert "seed" not in analyze and "support" not in analyze


class TestVerify:
    def test_exhaustive_report(self, workspace):
        tmp, paths = workspace
        out = tmp / "report.json"
        code = run("verify", "--support", paths["support"], "--basis-file", paths["basis"],
                   "--exhaustive", "--trials", 100, "-o", out)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["critical"] is True
        assert data["exhaustive"]["min_qualified_size"] == 3
        assert data["exhaustive"]["violations"] == []
        assert data["exhaustive"]["exists_critical_set"] is True
        assert data["monotone"] is True

    @pytest.mark.parametrize("finding", ["violation", "wrong minimum", "rank drop"])
    def test_exhaustive_finding_exit_3(self, workspace, monkeypatch, finding):
        # the true oracle finds nothing on this instance, so its result is planted
        tmp, paths = workspace
        check, mono = oracle.exhaustive_check, oracle.check_monotonicity
        planted = {"violation": {"violations": ((0, 1, 2),)},
                   "wrong minimum": {"min_qualified_size": 4}}.get(finding, {})
        monkeypatch.setattr(oracle, "exhaustive_check",
                            lambda *a, **kw: dataclasses.replace(check(*a, **kw), **planted))
        monkeypatch.setattr(oracle, "check_monotonicity",
                            lambda *a, **kw: finding != "rank drop" and mono(*a, **kw))
        out = tmp / "report.json"
        code = run("verify", "--support", paths["support"], "--basis-file", paths["basis"],
                   "--exhaustive", "--trials", 10, "-o", out)
        assert code == 3
        data = json.loads(out.read_text())
        assert data["critical"] is True
        assert (data["exhaustive"]["violations"], data["exhaustive"]["min_qualified_size"],
                data["monotone"]) == {"violation": ([[0, 1, 2]], 3, True),
                                      "wrong minimum": ([], 4, True),
                                      "rank drop": ([], 3, False)}[finding]

    @staticmethod
    def sparse_instance(tmp_path):
        """3-cycle x 3-path files with the support pairs (0,0), (1,2)."""
        gt, gg = tmp_path / "gt.json", tmp_path / "gg.json"
        sup = tmp_path / "support.json"
        assert run("gen", "graph", "--type", "cycle", "--n", 3, "-o", gt) == 0
        assert run("gen", "graph", "--type", "path", "--n", 3, "-o", gg) == 0
        assert run("gen", "support", "--t", 3, "--n", 3, "--pairs", "0,0;1,2",
                   "-o", sup) == 0
        return ["--graph-t", gt, "--graph-g", gg, "--support", sup]

    def test_exhaustive_sparse_support_not_a_violation(self, tmp_path):
        # Two samples in one time slot qualify for pairs (0,0), (1,2): fewer
        # than K_T = 2 slots, but not below the projection floors, which are 1.
        out = tmp_path / "report.json"
        code = run("verify", *self.sparse_instance(tmp_path), "--exhaustive", "-o", out)
        assert code == 0
        ex = json.loads(out.read_text())["exhaustive"]
        assert ex["violations"] == []
        assert (ex["floor_t"], ex["floor_g"]) == (1, 1)
        assert ex["min_proj_t"] == 1

    def test_exhaustive_below_k_is_not_a_violation(self, tmp_path):
        # subsets of one sample cannot reach rank K = 2, so no minimum is found
        out = tmp_path / "report.json"
        code = run("verify", *self.sparse_instance(tmp_path), "--exhaustive",
                   "--max-size", 1, "-o", out)
        assert code == 0
        ex = json.loads(out.read_text())["exhaustive"]
        assert ex["min_qualified_size"] is None
        assert ex["violations"] == []

    @pytest.mark.parametrize("option", [("--max-size", 0), ("--trials", -5)])
    def test_exhaustive_rejects_empty_checks(self, tmp_path, option):
        code = run("verify", *self.sparse_instance(tmp_path), "--exhaustive", *option)
        assert code == 2


class TestBench:
    def test_small_sizes(self, workspace):
        tmp, _ = workspace
        out = tmp / "bench.csv"
        assert run("bench", "--sizes", "6,8", "--repeats", 1, "--seed", 0, "-o", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("T,N,")
        assert len(lines) == 3

    def test_explicit_instance_counts(self, workspace):
        tmp, paths = workspace
        out = tmp / "bench.csv"
        assert run("bench", "--support", paths["support"], "--basis-file", paths["basis"],
                   "--repeats", 1, "-o", out) == 0
        header, row = out.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["samples_critical"] == "3"
        assert cols["samples_separate"] == "4"
        assert float(cols["time_naive_early"]) > 0
