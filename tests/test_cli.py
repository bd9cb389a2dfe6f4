import argparse
import ast
import dataclasses
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jtvsampling import Graph, cycle_graph, laplacian, star_graph
from jtvsampling import bench, cli, fileio, oracle, sampling, spectral
from jtvsampling.cli import main


def run(*args):
    return main([str(a) for a in args])


def refused(capsys, code, message, *argv):
    """Run ``jtv argv`` and check that it refuses: exit ``code``, nothing on
    stdout, ``error: message`` alone on stderr, and each path after ``-o``,
    ``--out`` or ``--schedule`` as it was: absent, or holding the same bytes."""
    argv = [str(a) for a in argv]
    written = [path for flag, path in zip(argv, argv[1:]) if flag in ("-o", "--out", "--schedule")]

    # lexists, not Path.exists: Path("") is "."; a dangling link is present
    state = lambda: [Path(w).read_bytes() if os.path.isfile(w) else os.path.lexists(w)
                     for w in written]
    before = state()
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert state() == before


def instance(tmp, time, graph, support):
    """Write ``gt.json``, ``gg.json`` and ``support.json`` under ``tmp`` through
    ``jtv gen`` and return their ``--graph-t``, ``--graph-g`` and ``--support``
    argv. ``time`` and ``graph`` are ``(type, n, *flags)`` of ``gen graph``;
    ``support`` is the ``--pairs`` text, or the ``--kt`` / ``--kg`` / ``--k`` /
    ``--seed`` flags of a drawn support."""
    gt, gg, sup = (tmp / name for name in ("gt.json", "gg.json", "support.json"))
    for (kind, n, *flags), path in ((time, gt), (graph, gg)):
        assert run("gen", "graph", "--type", kind, "--n", n, *flags, "-o", path) == 0
    given = ["--pairs", support] if isinstance(support, str) else support
    assert run("gen", "support", "--t", time[1], "--n", graph[1], *given, "-o", sup) == 0
    return ["--graph-t", gt, "--graph-g", gg, "--support", sup]


def pipeline(tmp, inputs, seed=9):
    """Paths of ``x.csv``, ``plan.json`` and ``samples.csv`` under ``tmp``,
    written by ``gen signal --seed seed``, ``plan`` and ``sample`` on the
    instance argv ``inputs``."""
    x, plan, samples = (tmp / name for name in ("x.csv", "plan.json", "samples.csv"))
    assert run("gen", "signal", *inputs, "--seed", seed, "-o", x) == 0
    assert run("plan", *inputs, "-o", plan) == 0
    assert run("sample", "--signal", x, "--plan", plan, "-o", samples) == 0
    return x, plan, samples


@pytest.fixture
def workspace(tmp_path, ref):
    """Graph, support, and basis files for the 4x4 worked instance, with its
    instance argv (``instance``) and graph argv (``graphs``)."""
    inputs = instance(tmp_path, ("cycle", 4), ("star", 4, "--center", 1), "1,1;1,2;2,2")
    paths = {"gt": inputs[1], "gg": inputs[3], "support": inputs[5],
             "basis": tmp_path / "basis.json", "instance": inputs, "graphs": inputs[:4]}
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

    def test_infinite_edge_weight_exit_2(self, workspace, capsys, tmp_path):
        # JSON's Infinity loads as a float; the graph must reject it, not let
        # the eigensolver return an all-NaN basis
        _, paths = workspace
        bad = tmp_path / "inf.json"
        bad.write_text(paths["gg"].read_text().replace("1.0", "Infinity", 1))
        assert "Infinity" in bad.read_text()
        refused(capsys, 2, f"malformed graph file {bad}: edge (1, 0) has non-finite weight inf",
                "plan", "--graph-t", paths["gt"], "--graph-g", bad,
                "--support", paths["support"], "-o", tmp_path / "p.json")

    def test_cycle_too_small_input_error(self, tmp_path, capsys):
        refused(capsys, 2, "cycle graph needs at least 3 vertices (got 2): smaller sizes "
                "would create a multi-edge or self-loop",
                "gen", "graph", "--type", "cycle", "--n", 2, "-o", tmp_path / "g.json")

    @pytest.mark.parametrize("p, message", [
        ("0", "edge probability must be in (0, 1], got 0.0"),
        ("nan", "edge probability must be in (0, 1], got nan"),
        ("-0.5", "edge probability must be in (0, 1], got -0.5"),
        ("1.5", "edge probability must be in (0, 1], got 1.5"),
        ("1e-9", "no connected graph found in 1000 attempts (p=1e-09)"),
    ])
    def test_er_edge_probability_exit_2(self, tmp_path, capsys, p, message):
        # p = 0 used to die with a RuntimeError traceback, p = 1.5 acted as 1
        refused(capsys, 2, message,
                "gen", "graph", "--type", "er", "--n", 4, "--p", p, "-o", tmp_path / "g.json")

    @pytest.mark.parametrize("pairs, message", [
        ("1,2,3", "pair '1,2,3' is not of the form jt,jg"),
        ("1", "pair '1' is not of the form jt,jg"),
        ("0,0;a,1", "pair 'a,1' is not of the form jt,jg"),
        (";", "support must contain at least one frequency pair"),
        ("", "support must contain at least one frequency pair"),
        ("1,1; 2,2 ;2,2", "pair (2, 2) is given twice"),
    ])
    def test_malformed_pairs_exit_2(self, tmp_path, capsys, pairs, message):
        # "1,2,3" used to print "too many values to unpack (expected 2)",
        # "a,1" "invalid literal for int() with base 10: 'a'", "" wrote a
        # random support, and a repeated pair was folded into one
        refused(capsys, 2, message, "gen", "support", "--t", 4, "--n", 4, "--pairs", pairs,
                "-o", tmp_path / "s.json")

    @pytest.mark.parametrize("sizes, message", [
        (["--kt", 3], "--kt cannot be given with --pairs"),
        (["--kg", 1, "--k", 2], "--kg, --k cannot be given with --pairs"),
    ])
    def test_sizes_with_pairs_exit_2(self, tmp_path, capsys, sizes, message):
        # --kt 3 used to be ignored: the file held K_T = 2
        refused(capsys, 2, message, "gen", "support", "--t", 4, "--n", 4, "--pairs", "1,1;2,2",
                *sizes, "-o", tmp_path / "s.json")

    @pytest.mark.parametrize("argv, message", [
        (["graph", "--type", "cycle", "--n", 4, "--p", 0.3],
         "--p cannot be given with --type cycle"),
        (["graph", "--type", "er", "--n", 4, "--center", 2],
         "--center cannot be given with --type er"),
        (["graph", "--type", "path", "--n", 4, "--seed", 5],
         "--seed cannot be given with --type path"),
        (["graph", "--type", "star", "--n", 4, "--seed", 5, "--p", 0.3],
         "--p, --seed cannot be given with --type star"),
        (["support", "--t", 4, "--n", 4, "--pairs", "1,1", "--seed", 5],
         "--seed cannot be given with --pairs"),
    ], ids=["cycle p", "er center", "path seed", "star p seed", "pairs seed"])
    def test_unread_flag_exit_2(self, tmp_path, capsys, argv, message):
        # each flag used to be ignored: the file was written and the exit was 0
        refused(capsys, 2, message, "gen", *argv, "-o", tmp_path / "out.json")

    @pytest.mark.parametrize("argv, default", [
        (["--type", "star", "--n", 5], ["--center", 0]),
        (["--type", "er", "--n", 8, "--seed", 3], ["--p", 0.5]),
    ], ids=["star center", "er p"])
    def test_unset_flag_is_the_library_default(self, tmp_path, argv, default):
        unset, given = tmp_path / "unset.json", tmp_path / "given.json"
        assert run("gen", "graph", *argv, "-o", unset) == 0
        assert run("gen", "graph", *argv, *default, "-o", given) == 0
        assert unset.read_bytes() == given.read_bytes()

    def test_signal_builds_no_joint_basis(self, workspace, monkeypatch):
        # gen signal synthesizes from the restricted bases; only the oracle
        # (verify --exhaustive) and bench need the dense (T*N, K) joint basis
        tmp, paths = workspace

        def refuse(*args):
            raise AssertionError("gen signal built the joint basis")

        monkeypatch.setattr(spectral.JointBasis, "dense", refuse)
        for bases in (["--basis-file", paths["basis"]], paths["graphs"]):
            assert run("gen", "signal", "--support", paths["support"], *bases,
                       "-o", tmp / "x.csv") == 0


SHARED_FLAGS = ("--graph-t", "--graph-g", "--basis-file", "--seed")
BASIS_FLAGS = ("--graph-t", "--graph-g", "--basis-file")
# Each case of a refused basis file: the factors the file holds, from the
# worked ones (ut, ug), the graph files named beside it, relative to the
# workspace, and the message, one for every command, as all of them read the
# file through cli._load_restricted. The graph flags used to be ignored, even
# when the file they named did not exist; the scaled factors are finite, but
# their products, the joint basis's entries, reach 2**1040 or 1e-340: gen
# signal wrote infinities with exit 0, plan refused NaN entries the file does
# not hold or exited 3 with a rank-0 step 3; a non-finite entry (0, 1) of U_G
# gave exit 0 or a false theory violation (the oracle ranked NaN matrices 0).
SHAPES = ("restricted bases of shapes {} do not match the support's dims and bandwidths "
          "(4, 2), (4, 2)")
NON_FINITE = "malformed basis file case.json: it contains non-finite values"
BAD_BASIS = {
    "U_T a row short": (lambda ut, ug: (ut[:-1], ug), (), SHAPES.format("(3, 2), (4, 2)")),
    "U_G a column short": (lambda ut, ug: (ut, ug[:, :-1]), (), SHAPES.format("(4, 2), (4, 1)")),
    "graph-t given": (lambda *f: f, ("--graph-t", "missing.json"),
                      "--graph-t cannot be given with --basis-file"),
    "graph-g given": (lambda *f: f, ("--graph-g", "missing.json"),
                      "--graph-g cannot be given with --basis-file"),
    "both graphs given": (lambda *f: f, ("--graph-t", "gt.json", "--graph-g", "gg.json"),
                          "--graph-t, --graph-g cannot be given with --basis-file"),
    "x2**520": (lambda ut, ug: (np.ldexp(ut, 520), np.ldexp(ug, 520)), (),
                "joint basis entries overflow the float range"),
    "x1e-170": (lambda ut, ug: (ut * 1e-170, ug * 1e-170), (),
                "joint basis entries underflow the float range"),
    **{bad: (lambda ut, ug, v=float(bad): (ut, np.vstack([(ug[0, 0], v), ug[1:]])), (),
             NON_FINITE) for bad in ("NaN", "Infinity", "-Infinity")},
}


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
            _, plan, samples = pipeline(tmp, good, seed=0)
            return ["reconstruct", *inputs, "--plan", plan, "--samples", samples]
        if name == "verify":
            return ["verify", *inputs, "--exhaustive"]
        if name == "bench":
            return ["bench", *inputs, "--repeats", 1]
        return [*name.split(), *inputs]

    @pytest.mark.parametrize("case", BAD_BASIS)
    @pytest.mark.parametrize("name", ["gen signal", "plan", "reconstruct", "verify", "bench"])
    def test_bad_basis_file_exit_2(self, workspace, ref, monkeypatch, capsys, name, case):
        tmp, paths = workspace
        edit, graphs, message = BAD_BASIS[case]
        monkeypatch.chdir(tmp)
        fileio.save_basis_pair(*edit(ref.ut_r, ref.ug_r), "case.json")
        argv = self.basis_command(name, tmp, paths, "case.json")
        refused(capsys, 2, message, *argv, *graphs, "-o", "out.txt")

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

    @pytest.mark.parametrize("argv", [
        ["gen", "graph", "--type", "cycle", "--n", 4],
        ["gen", "support", "--t", 4, "--n", 4, "--pairs", "1,1"],
        ["bench", "--repeats", 1],
    ], ids=["gen graph cycle", "gen support pairs", "bench support"])
    def test_env_seed_unread_where_nothing_is_drawn(self, workspace, monkeypatch, argv):
        # $JTV_SEED is read only where a generator is seeded; a malformed
        # value used to fail these commands with exit 2
        tmp, paths = workspace
        if argv[0] == "bench":
            argv = [*argv, "--support", paths["support"], "--basis-file", paths["basis"]]
        monkeypatch.setenv("JTV_SEED", "seven")
        out = tmp / "out.txt"
        assert run(*argv, "-o", out) == 0
        assert out.exists()

    @pytest.mark.parametrize("name", [*SEEDED, "bench", "verify"])
    def test_invalid_env_seed_exit_2(self, workspace, monkeypatch, capsys, name):
        # $JTV_SEED, and --seed where the command has it (verify has not):
        # used to be int()'s or numpy's message, which name no source
        tmp, paths = workspace
        argv = {
            "bench": lambda p: ["bench", "--sizes", 6, "--repeats", 1],
            "verify": lambda p: ["verify", "--support", p["support"],
                                 "--basis-file", p["basis"], "--exhaustive"],
            **self.SEEDED,
        }[name](paths)
        for env, flag, message in [("seven", [], "$JTV_SEED value 'seven' is not an integer"),
                                   ("-3", [], "$JTV_SEED value -3 is negative"),
                                   ("0", ["--seed", -1], "--seed value -1 is negative")]:
            monkeypatch.setenv("JTV_SEED", env)
            if name != "verify" or not flag:
                refused(capsys, 2, message, *argv, *flag, "-o", tmp / "out.txt")


INSTANCE = ["--graph-t", "gt.json", "--graph-g", "gg.json", "--support", "support.json"]
# one valid command line per leaf command, each with --out and --support where
# it takes them
LEAF_ARGV = {
    "gen graph": ["gen", "graph", "--type", "cycle", "--n", "4", "-o", "gt.json"],
    "gen support": ["gen", "support", "--t", "4", "--n", "4", "--kt", "2", "--kg", "2",
                    "-o", "support.json"],
    "gen signal": ["gen", "signal", *INSTANCE, "-o", "x.csv"],
    "analyze": ["analyze", "--graph-t", "gt.json", "--graph-g", "gg.json",
                "--signal", "x.csv", "-o", "found.json"],
    "plan": ["plan", *INSTANCE, "-o", "plan.json"],
    "sample": ["sample", "--signal", "x.csv", "--plan", "plan.json", "-o", "samples.csv"],
    "reconstruct": ["reconstruct", *INSTANCE, "--plan", "plan.json",
                    "--samples", "samples.csv", "-o", "r.csv"],
    "verify": ["verify", *INSTANCE, "-o", "report.json"],
    "bench": ["bench", "--support", "support.json", "--repeats", "1", "-o", "bench.csv"],
}
WRITERS = ("gen graph", "gen support", "gen signal", "plan", "sample", "reconstruct", "bench")


class TestRequiredFlags:
    @pytest.mark.parametrize("name, flag, required", [
        *[pytest.param(name, "-o", True, id=f"{name} without -o") for name in WRITERS],
        *[pytest.param(name, "--support", True, id=f"{name} without --support")
          for name in ("gen signal", "plan", "reconstruct", "verify")],
        pytest.param("analyze", "-o", False, id="analyze without -o"),
        pytest.param("verify", "-o", False, id="verify without -o"),
        pytest.param("bench", "--support", False, id="bench without --support"),
    ])
    def test_missing_flag(self, capsys, name, flag, required):
        # every writer needs --out and every instance command --support, while
        # analyze and verify may print only and bench may run its --sizes sweep
        argv = LEAF_ARGV[name]
        at = argv.index(flag)
        dropped = argv[:at] + argv[at + 2:]
        parser = cli.build_parser()
        full = vars(parser.parse_args(argv))  # the whole line parses
        if required:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(dropped)
            assert exc.value.code == 2
            assert "the following arguments are required" in capsys.readouterr().err
        else:
            dest = {"-o": "out", "--support": "support"}[flag]
            assert vars(parser.parse_args(dropped)) == {**full, dest: None}


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
        code = run("plan", *paths["instance"], "-o", out)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["K"] == 3 and data["K_T"] == 2 and data["K_G"] == 2
        assert data["critical"] is True

    def test_full_support_plan(self, tmp_path):
        pairs = ";".join(f"{jt},{jg}" for jt in range(4) for jg in range(4))
        inputs = instance(tmp_path, ("cycle", 4), ("star", 4, "--center", 1), pairs)
        out = tmp_path / "plan.json"
        assert run("plan", *inputs, "-o", out) == 0
        data = json.loads(out.read_text())
        assert len(data["samples"]) == 16

    def test_dimension_mismatch_exit_2(self, workspace, capsys, tmp_path):
        tmp, paths = workspace
        small = tmp_path / "small.json"
        assert run("gen", "graph", "--type", "cycle", "--n", 3, "-o", small) == 0
        refused(capsys, 2, "support of dims (4, 4) is out of range for bases of dimensions (3, 4)",
                "plan", "--graph-t", small, "--graph-g", paths["gg"],
                "--support", paths["support"], "-o", tmp_path / "p.json")

    def test_missing_inputs_exit_2(self, workspace, capsys, tmp_path):
        _, paths = workspace
        refused(capsys, 2, "need --graph-t and --graph-g, or --basis-file",
                "plan", "--support", paths["support"], "-o", tmp_path / "p.json")

    @pytest.mark.parametrize("eps, code", [(1e-6, 3), (1e-3, 0)])
    def test_product_rank_refusal(self, tmp_path, capsys, eps, code):
        # both factors [[1, 0], [1, eps]] on the full 2 x 2 support: step 1
        # keeps both rows of each; at eps = 1e-6 the 4th product residual is
        # 1e-12, under the cut RANK_TOL * max|entry| = 1e-10, so step 3 falls
        # short of K = 4 and nothing is written; at eps = 1e-3 the 4-sample
        # plan is built
        support, basis, out = tmp_path / "s.json", tmp_path / "b.json", tmp_path / "p.json"
        assert run("gen", "support", "--t", 2, "--n", 2, "--pairs", "0,0;0,1;1,0;1,1",
                   "-o", support) == 0
        factor = np.array([[1.0, 0.0], [1.0, eps]])
        fileio.save_basis_pair(factor, factor, basis)
        argv = ["plan", "--support", support, "--basis-file", basis, "-o", out]
        if code:
            refused(capsys, code, "step 3: product rows have rank 3 < 4", *argv)
        else:
            assert run(*argv) == 0
            assert len(json.loads(out.read_text())["samples"]) == 4

    @pytest.mark.parametrize("time_row, code", [((0.0, 5e-10), 0), ((1e-8, 5e-17), 3)])
    def test_step_1_ranks_at_the_joint_basis_cut(self, tmp_path, capsys, time_row, code):
        # 2 slots x 1 vertex, time basis [[1, 0], time_row]: step 1 ranks it at
        # RANK_TOL times its max |entry|, the cut reconstruct ranks at. A 5e-10
        # row gives the full plan, qualified and critical; a 5e-17 residual is
        # refused before a plan that reconstruct would refuse is written
        support, basis, out = tmp_path / "s.json", tmp_path / "b.json", tmp_path / "p.json"
        assert run("gen", "support", "--t", 2, "--n", 1, "--pairs", "0,0;1,0",
                   "-o", support) == 0
        fileio.save_basis_pair(np.array([[1.0, 0.0], time_row]), np.array([[1.0]]), basis)
        argv = ["plan", "--support", support, "--basis-file", basis, "-o", out]
        if code:
            refused(capsys, code, "step 1: time basis has rank 1 < 2", *argv)
        else:
            assert run(*argv) == 0
            data = json.loads(out.read_text())
            assert data["samples"] == [[0, 0], [1, 0]]
            assert (data["rank"], data["qualified"], data["critical"]) == (2, True, True)


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
        signal, plan, samples = pipeline(tmp, paths["instance"])
        recon = tmp / "recon.csv"
        assert run("reconstruct", *paths["instance"], "--plan", plan, "--samples", samples,
                   "--reference", signal, "-o", recon) == 0
        x = fileio.load_signal(signal)
        x_rec = fileio.load_signal(recon)
        assert np.max(np.abs(x - x_rec)) < 1e-8

    @pytest.mark.parametrize("exp", [-300, 300])
    def test_scaled_basis_file_round_trip(self, workspace, ref, exp):
        # each factor times 2**exp: the plan is the unscaled basis file's, and
        # the signal it synthesizes reconstructs; at 2**-300 plan used to exit
        # 3 (step 3: product rows have rank 0 < 3), at 2**300 it warned of
        # overflow and wrote another plan
        tmp, paths = workspace
        assert run("plan", "--support", paths["support"], "--basis-file", paths["basis"],
                   "-o", tmp / "unscaled.json") == 0
        basis = tmp / "scaled_basis.json"
        fileio.save_basis_pair(np.ldexp(ref.ut_r, exp), np.ldexp(ref.ug_r, exp), basis)
        inputs = ["--support", paths["support"], "--basis-file", basis]
        x, plan, samples = pipeline(tmp, inputs)
        assert (json.loads(plan.read_text())["samples"]
                == json.loads((tmp / "unscaled.json").read_text())["samples"])
        assert run("reconstruct", *inputs, "--plan", plan, "--samples", samples,
                   "--reference", x, "-o", tmp / "r.csv") == 0

    def test_analyze_detects_support(self, workspace):
        tmp, paths = workspace
        signal = tmp / "x.csv"
        assert run("gen", "signal", *paths["instance"], "--seed", 2, "-o", signal) == 0
        detected = tmp / "detected.json"
        assert run("analyze", *paths["graphs"], "--signal", signal, "-o", detected) == 0
        assert fileio.load_support(detected) == fileio.load_support(paths["support"])

    def test_analyze_signal_near_float_max(self, workspace, capsys):
        # the walkthrough signal scaled to max|entry| 1.7e308 is finite, but its
        # transform used to overflow with a matmul warning and keep no pair
        tmp, paths = workspace
        signal, big = tmp / "x.csv", tmp / "big.csv"
        assert run("gen", "signal", *paths["instance"], "--seed", 9, "-o", signal) == 0
        x = fileio.load_signal(signal)
        fileio.save_signal(x * (1.7e308 / np.max(np.abs(x))), big)

        def analyze(path):
            out = path.with_suffix(".json")
            capsys.readouterr()
            assert run("analyze", *paths["graphs"], "--signal", path, "-o", out) == 0
            stdout, stderr = capsys.readouterr()
            assert stderr == ""
            return stdout.splitlines()[0], out.read_bytes()

        assert analyze(big) == analyze(signal)

    @staticmethod
    def reconstruct_after(workspace, edit, reference=False):
        """Arguments of ``reconstruct`` (with ``--reference x.csv`` if asked),
        writing ``r.csv``, after ``edit`` changed the pipeline's files. ``edit``
        gets the paths of ``x.csv``, ``plan.json`` and ``samples.csv``, keyed
        by name."""
        tmp, paths = workspace
        names = ("x.csv", "plan.json", "samples.csv")
        files = dict(zip(names, pipeline(tmp, paths["instance"])))
        edit(files)
        check = ["--reference", files["x.csv"]] if reference else []
        return ["reconstruct", *paths["instance"], "--plan", files["plan.json"],
                "--samples", files["samples.csv"], *check, "-o", tmp / "r.csv"]

    @staticmethod
    def verdict(argv):
        """Exit code of ``argv`` and whether it wrote its output, the last argument."""
        return run(*argv), os.path.exists(argv[-1])

    @staticmethod
    def values(edit):
        """An edit of the pipeline's files: ``edit`` rewrites the value column
        of the samples file."""
        def rewrite(files):
            samples = files["samples.csv"]
            rows = [line.rsplit(",", 1) for line in samples.read_text().split()]
            values = edit([value for _, value in rows])
            samples.write_text("".join(f"{p},{v}\n" for (p, _), v in zip(rows, values)))
        return rewrite

    def test_truncated_samples_exit_2(self, workspace, capsys):
        edit = lambda f: f["samples.csv"].write_text("0,0,0.5\n1,0\n")
        refused(capsys, 2, f"malformed samples file {workspace[0] / 'samples.csv'}: line 2: "
                "not enough values to unpack (expected 3, got 2)",
                *self.reconstruct_after(workspace, edit))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_samples_exit_2(self, workspace, capsys, bad):
        edit = self.values(lambda v: [bad] + v[1:])
        refused(capsys, 2, f"malformed samples file {workspace[0] / 'samples.csv'}: it contains "
                "non-finite values", *self.reconstruct_after(workspace, edit, reference=True))

    def test_huge_reconstruction_error_fails_reference_check(self, workspace):
        # these samples reconstruct to a finite signal of size about 1e308, so
        # the max-abs error against x.csv is a finite 1e308 or so, far above
        # the tolerance, and --reference must refuse it
        huge = lambda v: ["1e308", "-1e308", "1e308"][: len(v)]
        argv = self.reconstruct_after(workspace, self.values(huge), reference=True)
        assert self.verdict(argv) == (3, True)

    def test_exact_zero_reconstruction_passes_reference_check(self, workspace, capsys):
        # error 0 against an all-zero reference of norm 0 used to fail the
        # check "not err < 1e-6 * scale" and exit 3
        tmp, paths = workspace
        basis = ["--support", paths["support"], "--basis-file", paths["basis"]]
        signal, plan, samples = tmp / "x.csv", tmp / "plan.json", tmp / "samples.csv"
        fileio.save_signal(np.zeros((4, 4)), signal)
        assert run("plan", *basis, "-o", plan) == 0
        assert run("sample", "--signal", signal, "--plan", plan, "-o", samples) == 0
        capsys.readouterr()
        assert run("reconstruct", *basis, "--plan", plan, "--samples", samples,
                   "--reference", signal, "-o", tmp / "r.csv") == 0
        captured = capsys.readouterr()
        assert "max-abs-error 0.000e+00" in captured.out and captured.err == ""
        assert np.array_equal(fileio.load_signal(tmp / "r.csv"), np.zeros((4, 4)))

    def test_overflowing_samples_exit_3_without_reference(self, workspace, capsys):
        # the solve must refuse non-finite coefficients itself, so that no
        # inf / NaN signal is written when there is no reference to compare
        huge = lambda v: ["1.7e308", "-1.7e308", "1.7e308"][: len(v)]
        refused(capsys, 3, "sample values overflow the solve",
                *self.reconstruct_after(workspace, self.values(huge)))

    def test_huge_representable_samples_reconstruct(self, workspace):
        # the solve scales the samples before it divides, so samples near the
        # float limit whose solution is representable reconstruct and re-sample
        # to themselves, through the library and through jtv reconstruct. The
        # samples are +-s on whatever plan jtv plan writes, that is block @ c
        # for c = s * block^-1 (1, -1, 1): s is 1e308, or less if c or the
        # signal it synthesizes would come within 1% of the float limit
        tmp, paths = workspace
        inputs = paths["instance"]
        plan_path, samples, out = tmp / "plan.json", tmp / "samples.csv", tmp / "r.csv"
        assert run("plan", *inputs, "-o", plan_path) == 0
        plan = fileio.load_plan(plan_path)
        support = fileio.load_support(paths["support"])
        bases = [spectral.eig_sym(laplacian(fileio.load_graph(paths[g]))) for g in ("gt", "gg")]
        basis = spectral.JointBasis(*spectral.restrict_bases(*bases, support), support)
        signs = (-1.0) ** np.arange(plan.size)
        c = np.linalg.solve(basis.rows(plan.linear_indices()), signs)
        peak = max(np.abs(c).max(), np.abs(basis.synth(c)).max())
        s = min(1e308, 0.99 * np.finfo(float).max / peak)
        assert s > 1e307
        fileio.save_samples(plan, s * signs, samples)
        assert run("reconstruct", *inputs, "--plan", plan_path, "--samples", samples,
                   "-o", out) == 0
        _, values = fileio.load_samples(samples)
        assert np.array_equal(values, s * signs)
        for x_rec in (fileio.load_signal(out),
                      sampling.reconstruct(values, plan, basis, support)):
            assert np.allclose(sampling.sample(x_rec, plan), values, rtol=1e-12, atol=0)

    @staticmethod
    def rewrite(path, old, new):
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))

    def test_plan_dims_differ_from_support_exit_2(self, workspace, capsys):
        # the plan's points indexed with N = 5 read other rows of the joint
        # basis: this used to exit 0 with a wrong signal (max-abs error 9.6e-4)
        edit = lambda f: self.rewrite(f["plan.json"], '"N": 4', '"N": 5')
        refused(capsys, 2, "plan and support dimensions disagree",
                *self.reconstruct_after(workspace, edit))

    def test_samples_points_differ_from_plan_exit_2(self, workspace, capsys):
        def edit(files):
            # move the first point in the file, whatever it is, off the plan
            plan = fileio.load_plan(files["plan.json"])
            t, v = next((t, v) for t in range(plan.t_dim) for v in range(plan.g_dim)
                        if (t, v) not in plan.samples)
            first, rest = files["samples.csv"].read_text().split("\n", 1)
            value = first.split(",")[2]
            files["samples.csv"].write_text(f"{t},{v},{value}\n{rest}")
        refused(capsys, 2, "samples file does not match the plan's sample points",
                *self.reconstruct_after(workspace, edit))

    @pytest.mark.parametrize("spelling, want", [
        ("{}.0", (0, None)),
        ("{}.5", (2, "sample index must be an integer, got {}")),
        ("x{}", (2, "could not convert string to float: '{}'")),
    ])
    def test_samples_index_spelling(self, workspace, capsys, spelling, want):
        # the first point's time slot is respelled; an integral float reads
        # as the slot, as it does in a plan file
        def edit(files):
            first, rest = files["samples.csv"].read_text().split("\n", 1)
            t, tail = first.split(",", 1)
            files["samples.csv"].write_text(f"{spelling.format(t)},{tail}\n{rest}")
        argv = self.reconstruct_after(workspace, edit, reference=True)
        samples = workspace[0] / "samples.csv"
        code, message = want
        if code:
            index = samples.read_text().split(",", 1)[0]
            refused(capsys, code, f"malformed samples file {samples}: line 1: "
                    f"{message.format(index)}", *argv)
        else:
            assert self.verdict(argv) == (0, True)

    def test_reference_with_overflowing_norm_exit_3(self, workspace, capsys):
        # the reference x.csv times 1e200 has a Frobenius norm past the float
        # range; the tolerance used to be +inf then, so the check passed
        def edit(files):
            fileio.save_signal(fileio.load_signal(files["x.csv"]) * 1e200, files["x.csv"])
        assert self.verdict(self.reconstruct_after(workspace, edit, reference=True)) == (3, True)
        captured = capsys.readouterr()
        assert "above tolerance" in captured.err and "overflow" not in captured.err

    def test_huge_signal_passes_its_own_reference(self, workspace, capsys):
        # x.csv times 1e300 is sampled and reconstructed to within round-off of
        # itself; its check must pass on the error, not on an infinite tolerance
        def edit(files):
            x = fileio.load_signal(files["x.csv"]) * 1e300
            fileio.save_signal(x, files["x.csv"])
            plan = fileio.load_plan(files["plan.json"])
            fileio.save_samples(plan, sampling.sample(x, plan), files["samples.csv"])
        assert self.verdict(self.reconstruct_after(workspace, edit, reference=True)) == (0, True)
        assert capsys.readouterr().err == ""

    def test_reference_of_wrong_shape_exit_2(self, workspace, capsys):
        def edit(files):
            x = fileio.load_signal(files["x.csv"])
            fileio.save_signal(x[:, :-1], files["x.csv"])
        # the output used to be written before the reference was checked
        refused(capsys, 2, "reference signal shape does not match",
                *self.reconstruct_after(workspace, edit, reference=True))

    def test_finite_reference_error_above_tolerance_exit_3(self, workspace, capsys):
        def edit(files):
            x = fileio.load_signal(files["x.csv"])
            x[0, 0] += 1e-3 * np.linalg.norm(x)
            fileio.save_signal(x, files["x.csv"])
        assert self.verdict(self.reconstruct_after(workspace, edit, reference=True)) == (3, True)
        assert "above tolerance" in capsys.readouterr().err

    def test_cycle_er_instance_within_tolerance(self, tmp_path):
        # 32-cycle x 32-vertex ER graph, K = 54: a lowest-index step-3 scan
        # gave this plan cond 6.4e10 and a max-abs error of 7.6e-6, above the
        # 1e-6 * ||x||_F = 7.35e-6 that --reference allows
        seed = 2711932562
        inputs = instance(tmp_path, ("cycle", 32), ("er", 32, "--seed", seed),
                          ("--kt", 8, "--kg", 8, "--seed", seed))
        assert fileio.load_support(inputs[5]).k == 54
        x, plan, samples = pipeline(tmp_path, inputs, seed=seed)
        assert run("reconstruct", *inputs, "--plan", plan, "--samples", samples,
                   "--reference", x, "-o", tmp_path / "x_rec.csv") == 0

    def test_byte_identical_outputs(self, workspace):
        tmp, paths = workspace
        a, b = tmp / "a.csv", tmp / "b.csv"
        for out in (a, b):
            assert run("gen", "signal", *paths["instance"], "--seed", 3, "-o", out) == 0
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
        refused(capsys, 2, f"malformed plan file {plan}: sample index must be an integer, got 1.5",
                "sample", "--signal", signal, "--plan", plan, "-o", tmp / "samples.csv")

    def test_repeated_support_pair_exit_2(self, workspace, capsys):
        # the repeat used to be merged: a plan for K = 2, not 3, and exit 0
        tmp, paths = workspace
        paths["support"].write_text(json.dumps({"T": 4, "N": 4,
                                                 "pairs": [[1, 1], [2, 2], [1, 1]]}))
        refused(capsys, 2, f"malformed support file {paths['support']}: pair (1, 1) is given "
                "twice", "plan", *paths["instance"], "-o", tmp / "plan.json")

    def test_repeated_plan_sample_exit_2(self, workspace, ref, capsys):
        # the repeat used to be merged: two samples written, not three, and exit 0
        tmp, _ = workspace
        signal, plan = tmp / "x.csv", tmp / "plan.json"
        fileio.save_signal(ref.x, signal)
        plan.write_text(json.dumps({"T": 4, "N": 4, "samples": [[0, 0], [1, 2], [0, 0]]}))
        refused(capsys, 2, f"malformed plan file {plan}: sample (0, 0) is given twice",
                "sample", "--signal", signal, "--plan", plan, "-o", tmp / "samples.csv")

    def test_schedule_in_missing_directory_leaves_no_plan(self, workspace, capsys):
        # the plan used to be written before its schedule was opened
        tmp, paths = workspace
        schedule = tmp / "missing" / "s.txt"
        refused(capsys, 2, f"[Errno 2] No such file or directory: '{schedule}'",
                "plan", *paths["instance"], "--schedule", schedule, "-o", tmp / "plan.json")

    @pytest.mark.parametrize("before", [None, "kept\n"], ids=["new", "existing"])
    def test_plan_in_missing_directory_leaves_schedule_as_it_was(self, workspace, capsys,
                                                                  before):
        # the schedule used to be opened, and so made or emptied, before the
        # plan file failed
        tmp, paths = workspace
        out, schedule = tmp / "missing" / "plan.json", tmp / "s.txt"
        if before is not None:
            schedule.write_text(before)
        refused(capsys, 2, f"[Errno 2] No such file or directory: '{out}'",
                "plan", *paths["instance"], "--schedule", schedule, "-o", out)

    @pytest.mark.parametrize("before", [None, "kept\n"], ids=["new", "existing"])
    @pytest.mark.parametrize("link", [False, True], ids=["same path", "symlink"])
    def test_schedule_and_plan_in_one_file_exit_2(self, workspace, capsys, link, before):
        # exit 0 used to leave the file holding the schedule, not the plan
        tmp, paths = workspace
        out = tmp / "plan.json"
        schedule = tmp / "link.json" if link else out
        if link:
            schedule.symlink_to(out)
        if before is not None:
            out.write_text(before)
        refused(capsys, 2, "--schedule and -o name one file",
                "plan", *paths["instance"], "--schedule", schedule, "-o", out)
        assert schedule.is_symlink() == link

    def test_analyze_bad_out_reports_nothing(self, workspace, ref, capsys):
        # the detected support used to be printed before --out failed
        tmp, paths = workspace
        signal, out = tmp / "x.csv", tmp / "missing" / "found.json"
        fileio.save_signal(ref.x, signal)
        refused(capsys, 2, f"[Errno 2] No such file or directory: '{out}'",
                "analyze", *paths["graphs"], "--signal", signal, "--out", out)

    def test_non_integral_vertex_count_exit_2(self, workspace, capsys):
        tmp, paths = workspace
        data = json.loads(paths["gg"].read_text())
        paths["gg"].write_text(json.dumps({**data, "n": 4.9}))
        refused(capsys, 2, f"malformed graph file {paths['gg']}: vertex count must be an "
                "integer, got 4.9", "plan", *paths["instance"], "-o", tmp / "plan.json")

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_analyze_non_finite_eps_exit_2(self, workspace, ref, capsys, eps):
        tmp, paths = workspace
        signal = tmp / "x.csv"
        fileio.save_signal(ref.x, signal)
        refused(capsys, 2, f"threshold eps must be finite, got {eps}",
                "analyze", *paths["graphs"], "--signal", signal, "--eps", eps)

    @pytest.mark.parametrize("key, field, kind, what", [
        ("gg", "n", "graph", "vertex count"),
        ("support", "T", "support", "dimension"),
    ])
    def test_boolean_index_exit_2(self, workspace, capsys, key, field, kind, what):
        # JSON true used to load as 1: a 1-vertex graph, or a support with T = 1
        tmp, paths = workspace
        data = json.loads(paths[key].read_text())
        paths[key].write_text(json.dumps({**data, field: True}))
        refused(capsys, 2, f"malformed {kind} file {paths[key]}: {what} must be an integer, "
                "got True", "plan", *paths["instance"], "-o", tmp / "plan.json")

    def test_json_syntax_error_names_the_file_exit_2(self, workspace, capsys):
        tmp, paths = workspace
        paths["gg"].write_text("{not json")
        refused(capsys, 2, f"malformed graph file {paths['gg']}: Expecting property name "
                "enclosed in double quotes: line 1 column 2 (char 1)",
                "plan", *paths["instance"], "-o", tmp / "plan.json")

    def test_empty_signal_exit_2_without_warning(self, workspace, capsys):
        tmp, paths = workspace
        signal = tmp / "x.csv"
        signal.write_text("")
        refused(capsys, 2, f"malformed signal file {signal}: it is empty",
                "analyze", *paths["graphs"], "--signal", signal)

    @pytest.mark.parametrize("name", ["gen signal", "analyze", "plan", "reconstruct"])
    @pytest.mark.parametrize("graph, message", [
        (Graph(4, [(v, v + 1, 8e307) for v in range(3)]), "eigenvalues overflow the float range"),
        (Graph(4, [(0, v, 1e308) for v in (1, 2, 3)]), "vertex degrees overflow the float range"),
    ], ids=["4-path eigenvalues", "4-star degrees"])
    def test_graph_past_the_float_range_exit_2(self, workspace, monkeypatch, capsys, graph,
                                               message, name):
        # finite weights whose Laplacian's top eigenvalue (3.4 * 8e307) or
        # centre degree (3e308) is not: eig_sym used to warn of overflow and
        # return NaN eigenvalues, laplacian to warn and hand on an infinite
        # degree, refused as a matrix with non-finite entries
        tmp, paths = workspace
        pipeline(tmp, paths["instance"])
        fileio.save_graph(graph, paths["gg"])
        monkeypatch.chdir(tmp)
        refused(capsys, 2, message, *LEAF_ARGV[name])

    EMPTY_PATH = {
        "plan --basis-file": lambda p: ["plan", "--support", p["support"], "--basis-file", "",
                                        "-o", p["out"]],
        "plan --graph-t": lambda p: ["plan", "--graph-t", "", "--graph-g", p["gg"],
                                     "--support", p["support"], "-o", p["out"]],
        "plan --schedule": lambda p: ["plan", *p["instance"], "--schedule", "", "-o", p["out"]],
        "reconstruct --reference": lambda p: ["reconstruct", *p["instance"], "--plan", p["plan"],
                                              "--samples", p["samples"], "--reference", "",
                                              "-o", p["out"]],
        "analyze --out": lambda p: ["analyze", *p["graphs"], "--signal", p["x"], "--out", ""],
        "verify --out": lambda p: ["verify", *p["instance"], "--out", ""],
        "sample --signal": lambda p: ["sample", "--signal", "", "--plan", p["plan"],
                                      "-o", p["out"]],
    }

    @pytest.mark.parametrize("name", EMPTY_PATH)
    def test_empty_path_exit_2(self, workspace, capsys, name):
        # an empty path is a path, refused like a missing file; it used to count
        # as no flag (a skipped check or file, exit 0, or a message naming the
        # flags as missing), and sample --signal "" printed "error:  not found."
        # No command writes its output: plan claims its schedule before the plan
        tmp, paths = workspace
        x, plan, samples = pipeline(tmp, paths["instance"], seed=0)
        p = {**paths, "x": x, "plan": plan, "samples": samples, "out": tmp / "out.txt"}
        refused(capsys, 2, "[Errno 2] No such file or directory: ''", *self.EMPTY_PATH[name](p))


class TestDenseFree:
    """``jtv`` holds the joint basis as its factors; only the oracle and the
    naive scan of ``bench`` build the dense (T*N, K) matrix."""

    def test_pipeline_builds_no_dense_joint_basis(self, workspace, monkeypatch):
        tmp, paths = workspace
        inputs = paths["instance"]

        def refuse(*args):
            raise AssertionError("the dense joint basis was built")

        monkeypatch.setattr(spectral.JointBasis, "dense", refuse)
        x, plan, samples = pipeline(tmp, inputs)
        assert run("reconstruct", *inputs, "--plan", plan, "--samples", samples,
                   "--reference", x, "-o", tmp / "r.csv") == 0
        assert run("verify", *inputs, "-o", tmp / "report.json") == 0
        monkeypatch.undo()
        assert run("verify", *inputs, "--exhaustive", "-o", tmp / "report.json") == 0
        assert run("bench", *inputs, "--repeats", 1, "-o", tmp / "bench.csv") == 0

    def test_bench_plans_from_the_joint_basis(self, workspace, monkeypatch):
        # bench builds the dense matrix for its naive scans alone: the planner
        # it times is handed the JointBasis, as jtv plan hands it
        tmp, paths = workspace

        class Refuse:
            def __init__(self, *args):
                raise AssertionError("bench handed the planner a dense uj")

        monkeypatch.setattr(spectral, "_DenseJoint", Refuse)
        assert len(bench.benchmark([8, 12], repeats=1)) == 2
        assert run("bench", "--support", paths["support"], "--basis-file", paths["basis"],
                   "--repeats", 1, "-o", tmp / "bench.csv") == 0

    def test_plan_and_reconstruct_peak_below_dense_basis(self, tmp_path):
        # T = N = 64 with a full 16 x 16 rectangle: K = 256, and the dense
        # joint basis alone would take 4096 * 256 * 8 B = 8.4 MB
        p = lambda name: tmp_path / name
        inputs = instance(tmp_path, ("cycle", 64), ("er", 64, "--seed", 3),
                          ("--kt", 16, "--kg", 16, "--k", 256, "--seed", 3))
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

    def test_runs_as_module(self, tmp_path):
        # python -m jtvsampling.cli hands main's exit code to the shell
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        module = [sys.executable, "-m", "jtvsampling.cli"]
        out = subprocess.run([*module, "--help"], capture_output=True, text=True, env=env)
        assert out.returncode == 0 and out.stdout.startswith("usage: jtv")
        missing = tmp_path / "missing.json"
        out = subprocess.run([*module, "plan", "--support", missing, "--graph-t", missing,
                              "--graph-g", missing, "-o", tmp_path / "p.json"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 2 and out.stderr.startswith("error: ")
        assert not (tmp_path / "p.json").exists()

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
            ("verify", "--support", "s", "--exhaustive", "--trials", 5),
            ("analyze", "--graph-t", "t", "--graph-g", "g", "--signal", "x"),
            ("verify", "--support", "s"),
        ]
        for argv in calls:
            assert run(*argv) == 0
        # every call sees what a parser of its own would give it
        for argv, got in zip(calls, seen):
            want = vars(cli.build_parser().parse_args([str(a) for a in argv]))
            assert got == want
        er, cycle, _, analyze, verify = seen
        # main fills in nothing: a flag not given stays None for the command
        assert (er["seed"], er["p"], cycle["seed"], cycle["p"]) == (5, 0.3, None, None)
        assert (verify["exhaustive"], verify["trials"]) == (False, None)
        assert "seed" not in analyze and "support" not in analyze


class TestOneFlagRule:
    """``is not None`` alone tells whether an optional string flag was given,
    so an empty path is a path: ``cli`` reads no such flag as a truth value."""

    @staticmethod
    def string_flags():
        """Dests of the leaf parsers' optional flags that take a string: no
        ``type``, not ``store_true``, default ``None``."""
        dests, parsers = set(), [cli.build_parser()]
        while parsers:
            for action in parsers.pop()._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                elif (isinstance(action, argparse._StoreAction) and not action.required
                      and action.type is None and action.default is None):
                    dests.add(action.dest)
        return dests

    @staticmethod
    def violations(source, dests):
        """``args.<dest>`` as the test of an ``if`` or a conditional expression,
        the operand of ``not`` or an operand of ``and`` / ``or``, by line."""
        tested = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.If, ast.IfExp)):
                tested.append(node.test)
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                tested.append(node.operand)
            elif isinstance(node, ast.BoolOp):
                tested.extend(node.values)
        return sorted((e.lineno, f"args.{e.attr}") for e in tested
                      if isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name)
                      and e.value.id == "args" and e.attr in dests)

    def test_string_flags(self):
        # store_true, typed and defaulted flags are read by value, not by presence
        assert self.string_flags() == {"basis_file", "graph_g", "graph_t", "out", "pairs",
                                       "reference", "schedule", "support"}

    def test_cli_reads_no_string_flag_as_a_truth_value(self):
        assert self.violations(Path(cli.__file__).read_text(), self.string_flags()) == []

    @pytest.mark.parametrize("source", [
        "if args.out:\n    pass",
        "x = load(args.reference) if args.reference else None",
        "given = not args.schedule",
        "both = args.graph_t and args.graph_g is not None",
        "either = args.basis_file is not None or args.support",
    ])
    def test_guard_catches_each_breach(self, source):
        assert len(self.violations(source, self.string_flags())) == 1

    @pytest.mark.parametrize("source", [
        "if args.out is not None:\n    pass",
        "x = load(args.reference) if args.reference is not None else None",
        "if not args.exhaustive and args.trials is not None:\n    pass",
        "if args.type == 'er' or args.pairs is None:\n    pass",
    ])
    def test_guard_passes_presence_tests(self, source):
        assert self.violations(source, self.string_flags()) == []


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
        return instance(tmp_path, ("cycle", 3), ("path", 3), "0,0;1,2")

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

    def test_exhaustive_skips_round_off_basis_entries(self, tmp_path):
        # pair (1, 0) on 5-path x 4-path: the 5-path's second eigenvector is
        # exactly zero at its middle vertex, computed as round-off, so 16 of
        # the 20 joint basis entries qualify alone. Ranked against its own
        # scale, each round-off entry qualified too.
        out = tmp_path / "report.json"
        inputs = instance(tmp_path, ("path", 5), ("path", 4), "1,0")
        assert run("verify", *inputs, "--exhaustive", "--trials", 10, "-o", out) == 0
        ex = json.loads(out.read_text())["exhaustive"]
        assert (ex["count_qualified_at_k"], ex["min_qualified_size"]) == (16, 1)

    def test_reconstruct_refuses_round_off_plan(self, tmp_path, capsys):
        # the same instance: the plan {(2, 0)} reads one round-off entry of
        # the basis (1.8e-16). Ranked against its own scale it qualified, and
        # a 0.01 sample reconstructed to entries near 1.7e13 with exit 0
        plan, samples = tmp_path / "plan.json", tmp_path / "samples.csv"
        inputs = instance(tmp_path, ("path", 5), ("path", 4), "1,0")
        plan.write_text(json.dumps({"T": 5, "N": 4, "samples": [[2, 0]]}))
        samples.write_text("2,0,0.01\n")
        out = tmp_path / "recon.csv"
        refused(capsys, 3, "plan is not qualified: rank 0 < bandwidth 1",
                "reconstruct", *inputs, "--plan", plan, "--samples", samples, "-o", out)
        # the plan jtv writes for this instance samples no round-off entry (the
        # whole middle slot t = 2 is round-off) and reconstructs. With K = 1 it
        # takes a largest |entry|, so the signal re-samples to 0.01 and no
        # entry exceeds it beyond round-off
        assert run("plan", *inputs, "-o", plan) == 0
        data = json.loads(plan.read_text())
        (t, v), = data["samples"]
        assert t != 2 and data["qualified"]
        samples.write_text(f"{t},{v},0.01\n")
        assert run("reconstruct", *inputs, "--plan", plan, "--samples", samples,
                   "-o", out) == 0
        x = fileio.load_signal(out)
        assert x[v, t] == pytest.approx(0.01, rel=1e-12)
        assert np.max(np.abs(x)) <= 0.01 * (1 + 1e-12)

    def test_non_critical_plan_exit_3(self, tmp_path, capsys):
        # ROADMAP item 6's known greedy miss (see test_sampling's
        # test_known_greedy_miss_on_path_grid): plan writes a qualified plan of
        # K = 3 samples on 2 of K_T = 3 time slots and exits 0, and verify exits
        # 3 on it although the oracle finds a critical set and no fault. The
        # cells are not pinned: a tie rule that only moves the plan (item 2)
        # need not edit this test, a coverage fix that makes it critical
        # (item 14) must.
        inputs = instance(tmp_path, ("path", 4), ("path", 4), "1,1;2,2;3,3")
        capsys.readouterr()
        assert run("plan", *inputs, "-o", tmp_path / "plan.json") == 0
        assert "|S|=3 |S_T|=2 |S_G|=3 critical=False" in capsys.readouterr().out
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert (len(plan["samples"]), len(plan["s_t"]), len(plan["s_g"])) == (3, 2, 3)
        assert (plan["K"], plan["K_T"], plan["rank"]) == (3, 3, 3)
        assert (plan["qualified"], plan["critical"]) == (True, False)
        out = tmp_path / "report.json"
        assert run("verify", *inputs, "--exhaustive", "--trials", 10, "-o", out) == 3
        data = json.loads(out.read_text())
        assert (data["qualified"], data["critical"]) == (True, False)
        ex = data["exhaustive"]
        assert (ex["exists_critical_set"], ex["violations"], ex["min_qualified_size"],
                data["monotone"]) == (True, [], 3, True)

    def test_trials_without_exhaustive_exit_2(self, tmp_path, capsys):
        # no monotonicity trial runs without --exhaustive: --trials used to be
        # ignored with exit 0
        refused(capsys, 2, "--trials cannot be given without --exhaustive",
                "verify", *self.sparse_instance(tmp_path), "--trials", 5,
                "-o", tmp_path / "report.json")

    @pytest.mark.parametrize("option, trials", [((), 200), (("--trials", 7), 7)])
    def test_exhaustive_trials(self, tmp_path, monkeypatch, option, trials):
        seen = []
        mono = oracle.check_monotonicity
        monkeypatch.setattr(oracle, "check_monotonicity",
                            lambda uj, n, rng: seen.append(n) or mono(uj, n, rng=rng))
        assert run("verify", *self.sparse_instance(tmp_path), "--exhaustive", *option) == 0
        assert seen == [trials]

    @pytest.mark.parametrize("option", [("--trials", 0), ("--trials", -5)])
    def test_exhaustive_rejects_empty_checks(self, tmp_path, monkeypatch, capsys, option):
        # refused before the enumeration, which used to run first
        def enumerate_subsets(*args):
            raise AssertionError("the subsets were enumerated")

        monkeypatch.setattr(oracle, "exhaustive_check", enumerate_subsets)
        refused(capsys, 2, f"monotonicity needs at least 1 trial, got {option[1]}",
                "verify", *self.sparse_instance(tmp_path), "--exhaustive", *option)

    def test_max_size_is_a_usage_error(self, tmp_path):
        # the oracle ranks exactly the K-subsets, so there is no size to choose
        with pytest.raises(SystemExit) as exc:
            run("verify", *self.sparse_instance(tmp_path), "--exhaustive", "--max-size", 2)
        assert exc.value.code == 2


class TestBench:
    def test_small_sizes(self, workspace):
        tmp, _ = workspace
        out = tmp / "bench.csv"
        assert run("bench", "--sizes", "6,8", "--repeats", 1, "--seed", 0, "-o", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("T,N,")
        assert len(lines) == 3

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_repeats_below_one_exit_2(self, workspace, capsys, repeats):
        # used to write the row 8,8,2,2,3,3,4,inf,inf,inf,nan and exit 0
        tmp, _ = workspace
        refused(capsys, 2, f"repeats must be at least 1, got {repeats}",
                "bench", "--sizes", 8, "--repeats", repeats, "-o", tmp / "bench.csv")

    def test_no_sizes_exit_2(self, tmp_path, capsys):
        refused(capsys, 2, "no sizes given", "bench", "--sizes", ",", "-o", tmp_path / "b.csv")

    def test_non_integer_size_exit_2(self, tmp_path, capsys):
        # used to be int()'s message, which names no source
        refused(capsys, 2, "--sizes value 'x' is not an integer",
                "bench", "--sizes", "8,x", "-o", tmp_path / "bench.csv")

    def test_prints_each_rows_t_and_n(self, tmp_path, capsys):
        # a 4-cycle x 5-path instance used to print T=N=4 beside the CSV row 4,5,...
        inputs = instance(tmp_path, ("cycle", 4), ("path", 5), "1,1;1,2;2,2")
        out = tmp_path / "bench.csv"
        capsys.readouterr()
        assert run("bench", *inputs, "--repeats", 1, "-o", out) == 0
        assert capsys.readouterr().out.startswith("T=4 N=5 K=3 samples 3 vs ")
        assert out.read_text().splitlines()[1].startswith("4,5,")

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

    @pytest.mark.parametrize("flag", ["--graph-t", "--graph-g", "--basis-file"])
    def test_basis_flag_without_support_exit_2(self, tmp_path, capsys, flag):
        # the --sizes sweep builds its own instances; it used to run and
        # ignore the flag, even when the file it named did not exist
        refused(capsys, 2, f"{flag} cannot be given without --support",
                "bench", "--sizes", 8, flag, tmp_path / "missing.json", "--repeats", 1,
                "-o", tmp_path / "bench.csv")

    def test_support_with_seed_exit_2(self, workspace, capsys):
        # the instance is given, so nothing is drawn: --seed used to be
        # ignored with exit 0
        tmp, paths = workspace
        refused(capsys, 2, "--seed cannot be given with --support",
                "bench", "--support", paths["support"], "--basis-file", paths["basis"],
                "--seed", 5, "--repeats", 1, "-o", tmp / "bench.csv")

    def test_empty_support_path_exit_2(self, tmp_path, capsys):
        # --support "" used to count as no --support: the default sweep ran,
        # wrote the table and exited 0, where plan --support "" exits 2
        refused(capsys, 2, "[Errno 2] No such file or directory: ''",
                "bench", "--support", "", "--repeats", 1, "-o", tmp_path / "bench.csv")

    def test_support_with_sizes_is_a_usage_error(self, workspace):
        # used to bench the --support instance and drop the sweep without a word
        tmp, paths = workspace
        out = tmp / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            run("bench", "--support", paths["support"], "--basis-file", paths["basis"],
                "--sizes", "64,128", "--repeats", 1, "-o", out)
        assert exc.value.code == 2
        assert not out.exists()

    def test_planner_runs_once_per_repeat(self, monkeypatch):
        # samples_critical is K, so no untimed extra plan is built to read it
        calls = []
        planner = bench.critical_sampling_set

        def counted(*args):
            calls.append(1)
            return planner(*args)

        monkeypatch.setattr(bench, "critical_sampling_set", counted)
        row = bench.benchmark_case(bench.prepare_case(8, seed=0), repeats=3)
        assert len(calls) == 3
        assert row.samples_critical == row.k


class TestReadme:
    def test_walkthrough_runs(self, tmp_path, monkeypatch):
        # every jtv line of the walkthrough's sh block, continued lines joined;
        # its reconstruct --reference also checks the reconstruction error
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("jtv ")]
        assert len(commands) == 10
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv) == 0, argv
