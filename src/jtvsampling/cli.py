"""Command-line interface.

Exit codes: 0 success, 2 input / usage error, 3 theory violation (unqualified
plan, rank deficiency, reconstruction failure).
"""

import argparse
import contextlib
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
    """The ``jt,jg`` pairs of ``--pairs`` in listed order, blank chunks skipped;
    ``SpectralSupport`` refuses no pairs and a repeated one."""
    pairs = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        try:
            jt, jg = map(int, chunk.split(","))
        except ValueError:  # not two values, or not integers
            raise ValueError(f"pair {chunk!r} is not of the form jt,jg") from None
        pairs.append((jt, jg))
    return pairs


def _int(text, source):
    """``text`` as an int; anything else is refused naming ``source``, the flag
    or variable it came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{source} value {text!r} is not an integer") from None


def _load_bases(args):
    """Time and graph eigenbases of the ``--graph-t`` / ``--graph-g`` files."""
    return tuple(
        spectral.eig_sym(graphs.laplacian(fileio.load_graph(path)))
        for path in (args.graph_t, args.graph_g)
    )


def _refuse(args, dests, context):
    """Refuse (``ValueError``, exit 2) the flags of ``dests`` that the command
    line set: the command does not read them ``context`` ("with --pairs", ...)."""
    given = [f"--{d.replace('_', '-')}" for d in dests if getattr(args, d) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} cannot be given {context}")


def _seed(args):
    """``--seed``, else ``$JTV_SEED``, else 0; read only where a generator is
    seeded, so a command that draws nothing ignores ``$JTV_SEED``. A negative
    seed is refused naming its source."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        source = f"${SEED_ENV}"
        seed = _int(os.environ.get(SEED_ENV, "0"), source)
    if seed < 0:
        raise ValueError(f"{source} value {seed} is negative")
    return seed


def _load_restricted(args):
    """The joint basis of the ``--support`` file, held as its restricted bases,
    computed from the two graphs or injected from a basis file, not both."""
    support = fileio.load_support(args.support)
    if args.basis_file is not None:
        _refuse(args, ("graph_t", "graph_g"), "with --basis-file")
        ut_r, ug_r = fileio.load_basis_pair(args.basis_file)
    elif args.graph_t is not None and args.graph_g is not None:
        ut_r, ug_r = bandlimit.restrict_bases(*_load_bases(args), support)
    else:
        raise ValueError("need --graph-t and --graph-g, or --basis-file")
    return spectral.JointBasis(ut_r, ug_r, support)


def cmd_gen_graph(args):
    # star alone reads --center, er alone --p and --seed
    _refuse(args, [d for d, t in (("center", "star"), ("p", "er"), ("seed", "er"))
                   if t != args.type], f"with --type {args.type}")
    # only this type's keyword can be left; unset, the library default applies
    given = {d: getattr(args, d) for d in ("center", "p") if getattr(args, d) is not None}
    if args.type == "cycle":
        g = graphs.cycle_graph(args.n)
    elif args.type == "star":
        g = graphs.star_graph(args.n, **given)
    elif args.type == "path":
        g = graphs.path_graph(args.n)
    else:
        rng = np.random.default_rng(_seed(args))
        try:
            g = generate.random_connected_graph(args.n, rng, **given)
        except RuntimeError as exc:  # no connected draw: --p too small for --n
            raise ValueError(exc) from exc
    fileio.save_graph(g, args.out)
    print(f"wrote graph with {g.n} vertices, {len(g.edges)} edges to {args.out}")
    return EXIT_OK


def cmd_gen_support(args):
    if args.pairs is not None:  # the support is given, nothing is drawn
        _refuse(args, ("kt", "kg", "k", "seed"), "with --pairs")
        support = bandlimit.SpectralSupport(
            t_dim=args.t, g_dim=args.n, pairs=_parse_pairs(args.pairs)
        )
    else:
        support = generate.random_support(
            args.t, args.n, np.random.default_rng(_seed(args)),
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
    coeffs = generate.random_coeffs(basis.support, np.random.default_rng(_seed(args)))
    x_mat = bandlimit.synth_from_restricted(basis.ut_r, basis.ug_r, basis.support, coeffs)
    fileio.save_signal(x_mat, args.out)
    print(f"wrote {x_mat.shape[0]}x{x_mat.shape[1]} signal to {args.out}")
    return EXIT_OK


def cmd_analyze(args):
    x_mat = fileio.load_signal(args.signal)
    # detection is relative to the peak, so the signal is scaled by a power
    # of two, exactly, to a peak in [0.5, 1): a finite signal cannot overflow
    # the transform
    x_mat = np.ldexp(x_mat, -np.frexp(np.max(np.abs(x_mat)))[1])
    xf = spectral.jft(*_load_bases(args), x_mat)
    support = bandlimit.detect_support(xf, eps=args.eps)
    # written first, so a bad --out reports no result
    if args.out is not None:
        fileio.save_support(support, args.out)
    print(
        f"K={support.k} K_T={support.k_t} K_G={support.k_g} "
        f"sbl={support.is_sbl()}"
    )
    if args.out is not None:
        print(f"wrote support to {args.out}")
    return EXIT_OK


def _claim(schedule, out):
    """Open both paths for appending, which truncates nothing, and close them
    again, before either is written. A path that cannot be written raises its
    ``OSError``, and two paths that name one file, the same path or through a
    link, are a ``ValueError``; either way the files made here are removed, so
    each path is left as it was."""
    made = []
    try:
        for path in (schedule, out):
            existed = os.path.exists(path)  # a dangling link's target is made here
            open(path, "a").close()
            if not existed:
                made.append(os.path.realpath(path))
        if os.path.samefile(schedule, out):
            raise ValueError("--schedule and -o name one file")
    except (OSError, ValueError):
        for path in made:
            os.remove(path)
        raise


def cmd_plan(args):
    basis = _load_restricted(args)
    plan, report = sampling.critical_sampling_set(basis.ut_r, basis.ug_r, basis,
                                                  basis.support)
    # both paths are claimed first, so one that cannot be written leaves the
    # other as it was
    if args.schedule is not None:
        _claim(args.schedule, args.out)
    fileio.save_plan(plan, report, args.out)
    with (open(args.schedule, "w") if args.schedule is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write("".join(f"vertex {v}: " + " ".join(map(str, ts)) + "\n"
                         for v, ts in sorted(plan.schedule().items())))
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
    x_ref = fileio.load_signal(args.reference) if args.reference is not None else None
    if x_ref is not None and x_ref.shape != x_rec.shape:
        raise ValueError("reference signal shape does not match")
    fileio.save_signal(x_rec, args.out)
    print(f"wrote reconstruction to {args.out}")
    if x_ref is not None:
        # err is finite, or +inf past the float range, which fails (reconstruct and
        # load_signal refuse non-finite values); the norm is taken in units of
        # m = max|x_ref|, where it cannot overflow; with m = 0 only err = 0 passes
        m = np.max(np.abs(x_ref))
        with np.errstate(over="ignore"):
            err = np.max(np.abs(x_rec - x_ref))
            above = err > 0 if m == 0 else err / m > 1e-6 * np.linalg.norm(x_ref / m)
        print(f"max-abs-error {err:.3e}")
        if above:
            print("reconstruction error above tolerance", file=sys.stderr)
            return EXIT_THEORY
    return EXIT_OK


def cmd_verify(args):
    if not args.exhaustive:
        _refuse(args, ("trials",), "without --exhaustive")
    basis = _load_restricted(args)
    ut_r, ug_r, support = basis.ut_r, basis.ug_r, basis.support
    plan, report = sampling.critical_sampling_set(ut_r, ug_r, basis, support)
    out = fileio._report_fields(report)
    code = EXIT_OK if report.critical else EXIT_THEORY
    if args.exhaustive:
        # the oracle ranks the dense basis, built apart from the fast path
        uj = basis.dense()
        # the trials run first, so a --trials below 1 is refused before the
        # enumeration; the generator feeds only them
        mono = oracle.check_monotonicity(
            uj, 200 if args.trials is None else args.trials,
            rng=np.random.default_rng(_seed(args)),
        )
        ex = oracle.exhaustive_check(uj, support)
        out["exhaustive"] = {**dataclasses.asdict(ex),
                             "floor_t": support.floor_t, "floor_g": support.floor_g}
        out["monotone"] = mono
        if ex.violations or ex.min_qualified_size != support.k or not mono:
            code = EXIT_THEORY
    if args.out is not None:
        fileio._dump_json(out, args.out)
    print(json.dumps(out, sort_keys=True, indent=2))
    return code


def cmd_bench(args):
    if args.support is not None:
        _refuse(args, ("seed",), "with --support")  # the instance is given, nothing is drawn
        rows = [bench.benchmark_case(_load_restricted(args), repeats=args.repeats)]
    else:
        # the sweep builds its own instances
        _refuse(args, ("graph_t", "graph_g", "basis_file"), "without --support")
        sizes = [_int(s, "--sizes") for s in args.sizes.split(",") if s.strip()]
        if not sizes:
            raise ValueError("no sizes given")
        rows = bench.benchmark(sizes, seed=_seed(args), repeats=args.repeats)
    bench.write_bench_csv(rows, args.out)
    for r in rows:
        print(
            f"T={r.t_dim} N={r.g_dim} K={r.k} samples {r.samples_critical} vs "
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
    # shared inputs: the bases (two graph files or one basis file), the instance
    # (bases and --support), the seed (where a generator is seeded, $JTV_SEED
    # stands in for a missing --seed) and --out
    bases = argparse.ArgumentParser(add_help=False)
    bases.add_argument("--graph-t")
    bases.add_argument("--graph-g")
    bases.add_argument("--basis-file", default=None)
    instance = argparse.ArgumentParser(add_help=False, parents=[bases])
    instance.add_argument("--support", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None)
    written = argparse.ArgumentParser(add_help=False)
    written.add_argument("--out", "-o", required=True)

    gen = sub.add_parser("gen", help="generate graphs, supports, and signals")
    gen_sub = gen.add_subparsers(dest="what", required=True)

    gg = gen_sub.add_parser("graph", parents=[seeded, written], help="write a graph JSON file")
    gg.add_argument("--type", choices=["cycle", "star", "path", "er"], required=True)
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--center", type=int, help="star center, 0-based (default 0)")
    gg.add_argument("--p", type=float, help="er edge probability (default 0.5)")
    gg.set_defaults(cmd="cmd_gen_graph")

    gs = gen_sub.add_parser("support", parents=[seeded, written],
                            help="write a spectral support JSON file")
    gs.add_argument("--t", type=int, required=True, help="time length T")
    gs.add_argument("--n", type=int, required=True, help="vertex count N")
    gs.add_argument("--pairs", help='explicit pairs "jt,jg;jt,jg;..." (0-based, each '
                    'once); not with --kt, --kg, --k or --seed')
    gs.add_argument("--kt", type=int, default=None)
    gs.add_argument("--kg", type=int, default=None)
    gs.add_argument("--k", type=int, default=None)
    gs.set_defaults(cmd="cmd_gen_support")

    gx = gen_sub.add_parser("signal", parents=[instance, seeded, written],
                            help="synthesize a bandlimited signal CSV")
    gx.set_defaults(cmd="cmd_gen_signal")

    an = sub.add_parser("analyze", help="detect the spectral support of a signal")
    an.add_argument("--graph-t", required=True)
    an.add_argument("--graph-g", required=True)
    an.add_argument("--signal", required=True)
    an.add_argument("--eps", type=float, default=1e-8)
    an.add_argument("--out", "-o", default=None)
    an.set_defaults(cmd="cmd_analyze")

    pl = sub.add_parser("plan", parents=[instance, written],
                        help="construct a critical sampling plan")
    pl.add_argument("--schedule", default=None, help="write per-vertex schedule here")
    pl.set_defaults(cmd="cmd_plan")

    sm = sub.add_parser("sample", parents=[written], help="sample a signal at a plan's points")
    sm.add_argument("--signal", required=True)
    sm.add_argument("--plan", required=True)
    sm.set_defaults(cmd="cmd_sample")

    rc = sub.add_parser("reconstruct", parents=[instance, written],
                        help="recover a signal from samples")
    rc.add_argument("--plan", required=True)
    rc.add_argument("--samples", required=True)
    rc.add_argument("--reference", default=None, help="original signal for error check")
    rc.set_defaults(cmd="cmd_reconstruct")

    vf = sub.add_parser("verify", parents=[instance],
                        help="check plan qualification, optionally by enumeration")
    vf.add_argument("--exhaustive", action="store_true")
    vf.add_argument("--trials", type=int, default=None,
                    help="monotonicity trials, only with --exhaustive (default 200)")
    vf.add_argument("--out", "-o", default=None)
    # no --seed flag: the monotonicity trials draw from $JTV_SEED, else seed 0
    vf.set_defaults(cmd="cmd_verify", seed=None)

    bn = sub.add_parser("bench", parents=[bases, seeded, written],
                        help="time factored vs naive row selection")
    cases = bn.add_mutually_exclusive_group()
    cases.add_argument("--sizes", default="16,24,32", help="comma-separated n with T=N=n")
    cases.add_argument("--support", help="bench one explicit instance, not a "
                       "--sizes sweep; not with --seed")
    bn.add_argument("--repeats", type=int, default=3)
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
        # looked up at call time, so a rebound cmd_* attribute is the one run
        return globals()[args.cmd](args)
    except (sampling.UnqualifiedPlanError, sampling.IllConditionedError,
            sampling.RankDeficiencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THEORY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
