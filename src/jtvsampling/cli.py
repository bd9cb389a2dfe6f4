"""Command-line interface.

Exit codes: 0 success, 2 input / usage error, 3 theory violation (unqualified
plan, rank deficiency, reconstruction failure).
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import bandlimit, bench, fileio, generate, graphs, oracle, sampling, spectral

SEED_ENV = "JTV_SEED"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_THEORY = 3


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, b = chunk.split(",")
        pairs.append((int(a), int(b)))
    if not pairs:
        raise ValueError("no pairs given")
    return frozenset(pairs)


def _load_bases(args):
    """Time and graph eigenbases of the ``--graph-t`` / ``--graph-g`` files."""
    return tuple(
        spectral.eig_sym(graphs.laplacian(fileio.load_graph(path)))
        for path in (args.graph_t, args.graph_g)
    )


def _load_restricted(args):
    """The joint basis of the ``--support`` file, held as its restricted bases,
    computed from the two graphs or injected from a basis file."""
    support = fileio.load_support(args.support)
    if args.basis_file:
        ut_r, ug_r = fileio.load_basis_pair(args.basis_file)
    elif args.graph_t and args.graph_g:
        ut_r, ug_r = bandlimit.restrict_bases(*_load_bases(args), support)
    else:
        raise ValueError("need --graph-t and --graph-g, or --basis-file")
    return spectral.JointBasis(ut_r, ug_r, support)


def cmd_gen_graph(args):
    if args.type == "cycle":
        g = graphs.cycle_graph(args.n)
    elif args.type == "star":
        g = graphs.star_graph(args.n, center=args.center)
    elif args.type == "path":
        g = graphs.path_graph(args.n)
    else:
        g = generate.random_connected_graph(
            args.n, np.random.default_rng(args.seed), p=args.p
        )
    fileio.save_graph(g, args.out)
    print(f"wrote graph with {g.n} vertices, {len(g.edges)} edges to {args.out}")
    return EXIT_OK


def cmd_gen_support(args):
    if args.pairs:
        support = bandlimit.SpectralSupport(
            t_dim=args.t, g_dim=args.n, pairs=_parse_pairs(args.pairs)
        )
    else:
        support = generate.random_support(
            args.t, args.n, np.random.default_rng(args.seed),
            k_t=args.kt, k_g=args.kg, k=args.k,
        )
    fileio.save_support(support, args.out)
    print(
        f"wrote support K={support.k} K_T={support.k_t} K_G={support.k_g} "
        f"to {args.out}"
    )
    return EXIT_OK


def cmd_gen_signal(args):
    basis = _load_restricted(args)
    coeffs = generate.random_coeffs(basis.support, np.random.default_rng(args.seed))
    x_mat = bandlimit.synth_from_restricted(basis.ut_r, basis.ug_r, basis.support, coeffs)
    fileio.save_signal(x_mat, args.out)
    print(f"wrote {x_mat.shape[0]}x{x_mat.shape[1]} signal to {args.out}")
    return EXIT_OK


def cmd_analyze(args):
    x_mat = fileio.load_signal(args.signal)
    xf = spectral.jft(*_load_bases(args), x_mat)
    support = bandlimit.detect_support(xf, eps=args.eps)
    print(
        f"K={support.k} K_T={support.k_t} K_G={support.k_g} "
        f"sbl={support.is_sbl()}"
    )
    if args.out:
        fileio.save_support(support, args.out)
        print(f"wrote support to {args.out}")
    return EXIT_OK


def cmd_plan(args):
    basis = _load_restricted(args)
    plan, report = sampling.critical_sampling_set(basis.ut_r, basis.ug_r, basis,
                                                  basis.support)
    fileio.save_plan(plan, report, args.out)
    lines = [
        f"vertex {v}: " + " ".join(str(t) for t in ts)
        for v, ts in sorted(plan.schedule().items())
    ]
    if args.schedule:
        with open(args.schedule, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    print(
        f"wrote plan |S|={plan.size} |S_T|={len(plan.proj_t)} "
        f"|S_G|={len(plan.proj_g)} critical={report.critical} to {args.out}"
    )
    return EXIT_OK


def cmd_sample(args):
    x_mat = fileio.load_signal(args.signal)
    plan = fileio.load_plan(args.plan)
    values = sampling.sample(x_mat, plan)
    fileio.save_samples(plan, values, args.out)
    print(f"wrote {len(values)} samples to {args.out}")
    return EXIT_OK


def cmd_reconstruct(args):
    plan = fileio.load_plan(args.plan)
    points, values = fileio.load_samples(args.samples)
    if points != list(plan.sorted_samples):
        raise ValueError("samples file does not match the plan's sample points")
    basis = _load_restricted(args)
    x_rec = sampling.reconstruct(values, plan, basis, basis.support)
    # a bad reference is an input error: refuse it before writing anything
    x_ref = fileio.load_signal(args.reference) if args.reference else None
    if x_ref is not None and x_ref.shape != x_rec.shape:
        raise ValueError("reference signal shape does not match")
    fileio.save_signal(x_rec, args.out)
    print(f"wrote reconstruction to {args.out}")
    if x_ref is not None:
        err = float(np.max(np.abs(x_rec - x_ref)))
        scale = float(np.linalg.norm(x_ref))
        print(f"max-abs-error {err:.3e}")
        # written so that a NaN error fails too
        if not err < 1e-6 * scale:
            print("reconstruction error above tolerance", file=sys.stderr)
            return EXIT_THEORY
    return EXIT_OK


def cmd_verify(args):
    basis = _load_restricted(args)
    ut_r, ug_r, support = basis.ut_r, basis.ug_r, basis.support
    plan, report = sampling.critical_sampling_set(ut_r, ug_r, basis, support)
    out = fileio._report_fields(report)
    code = EXIT_OK if report.critical else EXIT_THEORY
    if args.exhaustive:
        # the oracle ranks the dense basis, built apart from the fast path
        uj = spectral.joint_columns_from_restricted(ut_r, ug_r, support)
        max_size = args.max_size if args.max_size is not None else support.k
        ex = oracle.exhaustive_check(uj, support, max_size=max_size)
        out["exhaustive"] = {**dataclasses.asdict(ex),
                             "floor_t": support.floor_t, "floor_g": support.floor_g}
        mono = oracle.check_monotonicity(
            uj, args.trials, rng=np.random.default_rng(args.seed)
        )
        out["monotone"] = mono
        # no subset below K reaches rank K: the minimum is checked once enumerated
        wrong_min = max_size >= support.k and ex.min_qualified_size != support.k
        if ex.violations or wrong_min or not mono:
            code = EXIT_THEORY
    if args.out:
        fileio._dump_json(out, args.out)
    print(json.dumps(out, sort_keys=True, indent=2))
    return code


def cmd_bench(args):
    if args.support:
        basis = _load_restricted(args)
        ut_r, ug_r, support = basis.ut_r, basis.ug_r, basis.support
        uj = spectral.joint_columns_from_restricted(ut_r, ug_r, support)
        rows = [bench.benchmark_case(ut_r, ug_r, uj, support, repeats=args.repeats)]
    else:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        if not sizes:
            raise ValueError("no sizes given")
        rows = bench.benchmark(sizes, seed=args.seed, repeats=args.repeats)
    bench.write_bench_csv(rows, args.out)
    for r in rows:
        print(
            f"T=N={r.t_dim} K={r.k} samples {r.samples_critical} vs "
            f"{r.samples_separate} factored {r.time_factored:.4f}s "
            f"naive {r.time_naive:.4f}s early-stop {r.time_naive_early:.4f}s "
            f"ratio {r.ratio:.3f}"
        )
    print(f"wrote benchmark table to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jtv",
        description="Sampling and exact reconstruction of bandlimited "
        "time-vertex graph signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # shared inputs: the bases from two graph files or one basis file, and
    # the random seed, which main falls back to $JTV_SEED for
    bases = argparse.ArgumentParser(add_help=False)
    bases.add_argument("--graph-t")
    bases.add_argument("--graph-g")
    bases.add_argument("--basis-file", default=None)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None)

    gen = sub.add_parser("gen", help="generate graphs, supports, and signals")
    gen_sub = gen.add_subparsers(dest="what", required=True)

    gg = gen_sub.add_parser("graph", parents=[seeded], help="write a graph JSON file")
    gg.add_argument("--type", choices=["cycle", "star", "path", "er"], required=True)
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--center", type=int, default=0, help="star center (0-based)")
    gg.add_argument("--p", type=float, default=0.5, help="edge probability for er")
    gg.add_argument("--out", "-o", required=True)
    gg.set_defaults(cmd="cmd_gen_graph")

    gs = gen_sub.add_parser("support", parents=[seeded],
                            help="write a spectral support JSON file")
    gs.add_argument("--t", type=int, required=True, help="time length T")
    gs.add_argument("--n", type=int, required=True, help="vertex count N")
    gs.add_argument("--pairs", help='explicit pairs "jt,jg;jt,jg;..." (0-based)')
    gs.add_argument("--kt", type=int, default=None)
    gs.add_argument("--kg", type=int, default=None)
    gs.add_argument("--k", type=int, default=None)
    gs.add_argument("--out", "-o", required=True)
    gs.set_defaults(cmd="cmd_gen_support")

    gx = gen_sub.add_parser("signal", parents=[bases, seeded],
                            help="synthesize a bandlimited signal CSV")
    gx.add_argument("--support", required=True)
    gx.add_argument("--out", "-o", required=True)
    gx.set_defaults(cmd="cmd_gen_signal")

    an = sub.add_parser("analyze", help="detect the spectral support of a signal")
    an.add_argument("--graph-t", required=True)
    an.add_argument("--graph-g", required=True)
    an.add_argument("--signal", required=True)
    an.add_argument("--eps", type=float, default=1e-8)
    an.add_argument("--out", "-o", default=None)
    an.set_defaults(cmd="cmd_analyze")

    pl = sub.add_parser("plan", parents=[bases], help="construct a critical sampling plan")
    pl.add_argument("--support", required=True)
    pl.add_argument("--schedule", default=None, help="write per-vertex schedule here")
    pl.add_argument("--out", "-o", required=True)
    pl.set_defaults(cmd="cmd_plan")

    sm = sub.add_parser("sample", help="sample a signal at a plan's points")
    sm.add_argument("--signal", required=True)
    sm.add_argument("--plan", required=True)
    sm.add_argument("--out", "-o", required=True)
    sm.set_defaults(cmd="cmd_sample")

    rc = sub.add_parser("reconstruct", parents=[bases], help="recover a signal from samples")
    rc.add_argument("--support", required=True)
    rc.add_argument("--plan", required=True)
    rc.add_argument("--samples", required=True)
    rc.add_argument("--reference", default=None, help="original signal for error check")
    rc.add_argument("--out", "-o", required=True)
    rc.set_defaults(cmd="cmd_reconstruct")

    vf = sub.add_parser("verify", parents=[bases],
                        help="check plan qualification, optionally by enumeration")
    vf.add_argument("--support", required=True)
    vf.add_argument("--exhaustive", action="store_true")
    vf.add_argument("--max-size", type=int, default=None)
    vf.add_argument("--trials", type=int, default=200, help="monotonicity trials")
    vf.add_argument("--out", "-o", default=None)
    # no --seed flag: the monotonicity trials always draw from $JTV_SEED
    vf.set_defaults(cmd="cmd_verify", seed=None)

    bn = sub.add_parser("bench", parents=[bases, seeded],
                        help="time factored vs naive row selection")
    bn.add_argument("--sizes", default="16,24,32", help="comma-separated n with T=N=n")
    bn.add_argument("--support", default=None, help="bench one explicit instance")
    bn.add_argument("--repeats", type=int, default=3)
    bn.add_argument("--out", "-o", required=True)
    bn.set_defaults(cmd="cmd_bench")

    return parser


@functools.cache
def _parser():
    """The parser every :func:`main` call of the process shares."""
    return build_parser()


def main(argv=None):
    """Run one ``jtv`` command and return its exit code; may be called
    repeatedly in one process."""
    args = _parser().parse_args(argv)
    try:
        if "seed" in args and args.seed is None:
            args.seed = int(os.environ.get(SEED_ENV, "0"))
        # looked up at call time, so a rebound cmd_* attribute is the one run
        return globals()[args.cmd](args)
    except (sampling.UnqualifiedPlanError, sampling.IllConditionedError,
            sampling.RankDeficiencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THEORY
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
