"""The benchmark's workloads.

Each workload builds every input it needs from the seed in ``setup`` and then
serves one op at a time (closed loop, one client). ``op`` is the timed call
into the library; ``check`` verifies its output afterwards, untimed, and
returns the reason it failed (or ``None``) with the exact counts it saw.

The library is reached only through module attributes (``spectral.eig_sym``,
``cli.main``, ...) so that the tracer's wrappers see every call.
"""

import contextlib
import io
import math
import os
import shutil
import tempfile
from time import perf_counter

import numpy as np

from jtvsampling import bandlimit, cli, fileio, generate, graphs, oracle, sampling, spectral

from baseline import naive_select


WARMUP_OP = 10**9  # op index of warm-up calls, never reached by a timed op
WARMUP_SEED = 1  # cli-pipeline warms up on one instance for every seed, so
                 # its set-up time does not depend on the seed


def derive_seed(*keys):
    """A 32-bit seed fixed by the workload seed and an op index."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _bases(n, rng):
    """Cycle time graph and connected Erdos-Renyi vertex graph of size n."""
    basis_t = spectral.eig_sym(graphs.laplacian(graphs.cycle_graph(n)))
    basis_g = spectral.eig_sym(graphs.laplacian(generate.random_connected_graph(n, rng)))
    return basis_t, basis_g


def _cond(uj, plan):
    return float(np.linalg.cond(uj[plan.linear_indices()]))


def _relerr(x_rec, x_ref):
    return float(np.linalg.norm(x_rec - x_ref) / np.linalg.norm(x_ref))


class Workload:
    """Interface of a workload: ``name``, ``tail_pct`` (the percentile reported
    as ``op_tail_s``), ``sizes``, ``setup``, ``op``, ``check`` and ``teardown``."""

    def teardown(self, state):
        """Release what ``setup`` made outside memory."""


class CliPipeline(Workload):
    """Every op is a fresh T = N instance taken through the jtv commands."""

    name = "cli-pipeline"
    tail_pct = 80

    def __init__(self, n=32, k_t=8, k_g=8):
        self.n, self.k_t, self.k_g = n, k_t, k_g

    @property
    def sizes(self):
        return {"T": self.n, "N": self.n, "K_T": self.k_t, "K_G": self.k_g,
                "K": f"random_support in [{max(self.k_t, self.k_g)}, {self.k_t * self.k_g}]",
                "time_graph": "cycle", "vertex_graph": "er"}

    def setup(self, seed, workdir):
        state = {"seed": seed, "dir": tempfile.mkdtemp(prefix="cli-", dir=workdir)}
        self._pipeline(state["dir"], WARMUP_SEED)
        return state

    def teardown(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)

    def _commands(self, workdir, inst):
        n, p = str(self.n), lambda f: os.path.join(workdir, f)
        graph_args = ["--graph-t", p("gt.json"), "--graph-g", p("gg.json")]
        return [
            ["gen", "graph", "--type", "cycle", "--n", n, "--out", p("gt.json")],
            ["gen", "graph", "--type", "er", "--n", n, "--seed", inst, "--out", p("gg.json")],
            ["gen", "support", "--t", n, "--n", n, "--kt", str(self.k_t),
             "--kg", str(self.k_g), "--seed", inst, "--out", p("support.json")],
            ["gen", "signal", *graph_args, "--support", p("support.json"),
             "--seed", inst, "--out", p("x.csv")],
            ["analyze", *graph_args, "--signal", p("x.csv"), "--out", p("detected.json")],
            ["plan", *graph_args, "--support", p("support.json"), "--out", p("plan.json")],
            ["sample", "--signal", p("x.csv"), "--plan", p("plan.json"), "--out", p("samples.csv")],
            ["reconstruct", *graph_args, "--support", p("support.json"), "--plan", p("plan.json"),
             "--samples", p("samples.csv"), "--reference", p("x.csv"), "--out", p("x_rec.csv")],
        ]

    def op(self, state, i):
        return self._pipeline(state["dir"], derive_seed(state["seed"], i))

    def _pipeline(self, workdir, inst):
        out, err = io.StringIO(), io.StringIO()
        codes = []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in self._commands(workdir, str(inst)):
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        return codes, err.getvalue()

    def check(self, state, i, result, detail):
        codes, err = result
        if codes != [0] * 8:
            return f"exit codes {codes}: {err.strip()}", {}
        p = lambda f: os.path.join(state["dir"], f)
        support = fileio.load_support(p("support.json"))
        if fileio.load_support(p("detected.json")) != support:
            return "analyze did not recover the generated support", {}
        counts = {"K": support.k, "candidate_rows": support.k_t * support.k_g}
        if detail:
            x_ref, x_rec = fileio.load_signal(p("x.csv")), fileio.load_signal(p("x_rec.csv"))
            basis_t = spectral.eig_sym(graphs.laplacian(fileio.load_graph(p("gt.json"))))
            basis_g = spectral.eig_sym(graphs.laplacian(fileio.load_graph(p("gg.json"))))
            uj = spectral.joint_basis_columns(basis_t, basis_g, support)
            counts["cond"] = _cond(uj, fileio.load_plan(p("plan.json")))
            counts["relerr"] = _relerr(x_rec, x_ref)
        return None, counts


class PlanScale(Workload):
    """Plan construction at T = N = 128 for supports drawn in set-up; the
    eigensolver runs in set-up only."""

    name = "plan-scale"
    tail_pct = 50
    pool = 25

    def __init__(self, n=128, k_t=32, k_g=32):
        self.n, self.k_t, self.k_g = n, k_t, k_g

    @property
    def sizes(self):
        return {"T": self.n, "N": self.n, "K_T": self.k_t, "K_G": self.k_g,
                "K": f"random_support in [{max(self.k_t, self.k_g)}, {self.k_t * self.k_g}]",
                "supports": self.pool}

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        basis_t, basis_g = _bases(self.n, rng)
        supports = [generate.random_support(self.n, self.n, rng, k_t=self.k_t, k_g=self.k_g)
                    for _ in range(self.pool)]
        state = {"basis_t": basis_t, "basis_g": basis_g, "supports": supports}
        # warm up on the largest support so peak memory is reached in set-up
        largest = max(range(self.pool), key=lambda j: supports[j].k)
        self.op(state, largest)
        return state

    def op(self, state, i):
        support = state["supports"][i % self.pool]
        ut_r, ug_r = bandlimit.restrict_bases(state["basis_t"], state["basis_g"], support)
        uj = spectral.joint_columns_from_restricted(ut_r, ug_r, support)
        plan, _ = sampling.critical_sampling_set(ut_r, ug_r, uj, support)
        report = sampling.qualify(plan, uj, support)
        return support, plan, report, uj

    def check(self, state, i, result, detail):
        support, plan, report, uj = result
        counts = {"K": support.k, "candidate_rows": support.k_t * support.k_g}
        if detail:
            start = perf_counter()
            try:
                counts["naive_rows_scanned"] = naive_select(uj).rows_scanned
                counts["naive_s"] = perf_counter() - start
            except RuntimeError as exc:  # the reference fell short of rank K
                counts["naive_error"] = str(exc)
            counts["cond"] = _cond(uj, plan)
        if not report.qualified or plan.size != support.k:
            return (f"plan |S|={plan.size} rank {report.rank} for K={support.k}: "
                    "not qualified with |S| = K"), counts
        return None, counts


class ReconStream(Workload):
    """One plan built in set-up; each op samples and reconstructs one of many
    signals synthesized for it."""

    name = "recon-stream"
    tail_pct = 95
    pool = 257
    tolerance = 1e-6  # of ||x||_F, the CLI's --reference tolerance

    def __init__(self, n=64, k_t=16, k_g=16, k=136):
        self.n, self.k_t, self.k_g, self.k = n, k_t, k_g, k

    @property
    def sizes(self):
        return {"T": self.n, "N": self.n, "K_T": self.k_t, "K_G": self.k_g, "K": self.k,
                "signals": self.pool}

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        basis_t, basis_g = _bases(self.n, rng)
        support = generate.random_support(self.n, self.n, rng,
                                          k_t=self.k_t, k_g=self.k_g, k=self.k)
        ut_r, ug_r = bandlimit.restrict_bases(basis_t, basis_g, support)
        uj = spectral.joint_columns_from_restricted(ut_r, ug_r, support)
        plan, report = sampling.critical_sampling_set(ut_r, ug_r, uj, support)
        if not report.qualified or plan.size != support.k:
            raise RuntimeError(f"set-up plan is not qualified with |S| = K: {report}")
        signals = [bandlimit.synth_from_restricted(ut_r, ug_r, support,
                                                   generate.random_coeffs(support, rng))
                   for _ in range(self.pool)]
        state = {"support": support, "uj": uj, "plan": plan, "signals": signals,
                 "norms": [float(np.linalg.norm(x)) for x in signals],
                 "cond": _cond(uj, plan)}
        for j in range(8):  # warm-up
            self.op(state, j)
        return state

    def op(self, state, i):
        x = state["signals"][i % self.pool]
        values = sampling.sample(x, state["plan"])
        return sampling.reconstruct(values, state["plan"], state["uj"], state["support"])

    def check(self, state, i, result, detail):
        j = i % self.pool
        x = state["signals"][j]
        err = float(np.max(np.abs(result - x)))
        counts = {"K": self.k, "candidate_rows": self.k_t * self.k_g}
        if detail:
            counts["cond"] = state["cond"]
            counts["relerr"] = _relerr(result, x)
        if not err < self.tolerance * state["norms"][j]:
            return f"max-abs error {err:.3e} above {self.tolerance:g}*||x||_F", counts
        return None, counts


class OracleTiny(Workload):
    """Exhaustive enumeration and the monotonicity check on instances at the
    oracle's size limit, generated in set-up."""

    name = "oracle-tiny"
    tail_pct = 65
    pool = 97
    trials = 200

    def __init__(self, t=4, n=5, k_t=2, k_g=3, k=5):
        self.t, self.n, self.k_t, self.k_g, self.k = t, n, k_t, k_g, k

    @property
    def sizes(self):
        return {"T": self.t, "N": self.n, "K_T": self.k_t, "K_G": self.k_g, "K": self.k,
                "monotonicity_trials": self.trials, "instances": self.pool}

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        instances = []
        for _ in range(self.pool):
            basis_t = spectral.eig_sym(graphs.laplacian(graphs.cycle_graph(self.t)))
            basis_g = spectral.eig_sym(
                graphs.laplacian(generate.random_connected_graph(self.n, rng)))
            support = generate.random_support(self.t, self.n, rng,
                                              k_t=self.k_t, k_g=self.k_g, k=self.k)
            ut_r, ug_r = bandlimit.restrict_bases(basis_t, basis_g, support)
            instances.append((support, spectral.joint_columns_from_restricted(ut_r, ug_r, support)))
        state = {"seed": seed, "instances": instances}
        self.op(state, WARMUP_OP)  # warm-up
        return state

    def op(self, state, i):
        support, uj = state["instances"][i % self.pool]
        report = oracle.exhaustive_check(uj, support)
        rng = np.random.default_rng(derive_seed(state["seed"], i))
        return report, oracle.check_monotonicity(uj, self.trials, rng=rng)

    def check(self, state, i, result, detail):
        report, monotone = result
        counts = {"K": self.k, "candidate_rows": self.k_t * self.k_g,
                  "qualified_at_k": report.count_qualified_at_k,
                  "size_k_subsets": math.comb(self.t * self.n, self.k),
                  "violations": len(report.violations)}
        if report.min_qualified_size != self.k:
            return f"min qualified size {report.min_qualified_size} != K={self.k}", counts
        if not monotone:
            return "rank dropped when a sample set grew", counts
        if not report.exists_critical_set:
            return "no critical set of size K found", counts
        return None, counts


WORKLOADS = {w.name: w for w in (CliPipeline, PlanScale, ReconStream, OracleTiny)}
