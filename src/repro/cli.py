"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``      matrix statistics (size, nnz, symmetry, bandwidth)
``partition`` multilevel k-way partition quality report
``factor``    parallel ILUT/ILUT* factorization summary
``solve``     end-to-end preconditioned GMRES solve report
``generate``  write a generator matrix to a MatrixMarket file
``lint``      static SPMD-collective / determinism / flop-charge /
              transport-portability analysis (see :mod:`repro.lint`);
              ``--verify-transport/-costs`` print the two
              certification tables; any finding or uncertified row
              exits 1, which makes it a CI gate
``check``     replay a factorization under the race detector and run the
              structural invariant checkers (``--inject`` seeds a defect
              to prove the checkers catch it).  The structural modes
              (``zero-diag``, ``unsorted-row``, ``race``) exit 1 by
              design — the checkers must *report* the defect; the fault
              modes (``message-drop``, ``rank-crash``, ``nan-corrupt``)
              exit 0 when the resilience layer *recovers* from the
              injection (region retry / retransmission / fallback
              chain) and 1 when it fails to.

Matrices are specified either as a generator spec (``g0:64`` for a
64x64 grid, ``torso:2000`` for a 2000-node thorax, ``cd:40`` for
convection-diffusion) or as a path to a MatrixMarket file.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

__all__ = ["main", "load_matrix"]


def load_matrix(spec: str):
    """Resolve a matrix spec: ``name:size`` generator or a file path."""
    from .matrices import convection_diffusion2d, poisson2d, poisson3d, torso_like
    from .sparse import read_matrix_market

    if ":" in spec:
        name, _, arg = spec.partition(":")
        size = int(arg)
        generators = {
            "g0": lambda: poisson2d(size),
            "poisson2d": lambda: poisson2d(size),
            "poisson3d": lambda: poisson3d(size),
            "torso": lambda: torso_like(size),
            "cd": lambda: convection_diffusion2d(size),
        }
        if name not in generators:
            raise SystemExit(
                f"unknown generator {name!r}; choose from {sorted(generators)}"
            )
        return generators[name]()
    return read_matrix_market(spec)


def _cmd_info(args: argparse.Namespace) -> int:
    from .graph import bandwidth

    A = load_matrix(args.matrix)
    sym_err = (A - A.transpose()).frobenius_norm()
    print(f"matrix:     {args.matrix}")
    print(f"shape:      {A.shape[0]} x {A.shape[1]}")
    print(f"nnz:        {A.nnz} ({A.nnz / max(A.shape[0], 1):.1f} per row)")
    print(f"symmetric:  {'yes' if sym_err < 1e-12 else f'no (|A-A^T|_F = {sym_err:.2e})'}")
    print(f"bandwidth:  {bandwidth(A)}")
    d = A.diagonal()
    print(f"diagonal:   min |d| = {np.abs(d).min():.3e}, zero entries = {(d == 0).sum()}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from .decomp import decompose

    A = load_matrix(args.matrix)
    d = decompose(A, args.procs, method=args.method, seed=args.seed)
    print(d.summary())
    plan = d.halo_plan()
    words = sum(v.size for v in plan.values())
    print(f"halo exchange: {len(plan)} rank pairs, {words} values per matvec")
    return 0


def _label(args: argparse.Namespace) -> str:
    """The printed name of the factorization ``-m``/``-t``/``-k`` ask for."""
    if args.k is None:
        return f"ILUT({args.m},{args.t:g})"
    return f"ILUT*({args.m},{args.t:g},{args.k})"


def _cmd_factor(args: argparse.Namespace) -> int:
    from .ilu import ILUTParams, parallel_ilut

    A = load_matrix(args.matrix)
    params = ILUTParams(fill=args.m, threshold=args.t, k=args.k)
    t0 = time.perf_counter()
    res = parallel_ilut(A, params, args.procs, seed=args.seed, transport=args.transport)
    wall = time.perf_counter() - t0
    print(f"factorization: {_label(args)} on p={args.procs} (transport={res.transport})")
    print(res.decomp.summary())
    print(f"fill:          nnz(L)={res.factors.L.nnz} nnz(U)={res.factors.U.nnz} "
          f"(factor {res.factors.fill_factor(A):.2f}x)")
    print(f"levels:        q={res.num_levels} independent sets")
    if res.modeled_time is not None:
        print(f"modelled time: {res.modeled_time:.6f} s "
              f"({res.comm.messages} messages, {res.comm.barriers} barriers)")
    print(f"wall time:     {wall:.6f} s")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .solvers import parallel_solve

    A = load_matrix(args.matrix)
    b = A @ np.ones(A.shape[0])
    t0 = time.perf_counter()
    rep = parallel_solve(
        A, b, args.procs,
        m=args.m, t=args.t, k=args.k,
        restart=args.restart, tol=args.tol, seed=args.seed,
        transport=args.transport,
    )
    wall = time.perf_counter() - t0
    print(f"GMRES({args.restart}) on p={args.procs} (transport={rep.transport}): "
          f"{'converged' if rep.converged else 'NOT converged'} "
          f"after {rep.num_matvec} matvecs")
    print(f"levels q={rep.num_levels}")
    if rep.transport != "none":
        print(f"modelled factor time: {rep.factor_time:.6f} s")
        print(f"modelled solve time:  {rep.solve_time:.6f} s")
        print(f"modelled total:       {rep.total_time:.6f} s")
    print(f"wall time:            {wall:.6f} s")
    err = float(np.max(np.abs(rep.x - 1.0)))
    print(f"max |x - 1|:          {err:.3e}")
    return 0 if rep.converged else 1


_FAULT_MODES = (
    "message-drop", "rank-crash", "rank-stall", "corrupt-result", "nan-corrupt"
)


def _check_report_stub(args: argparse.Namespace, *, mode: str) -> dict:
    """Common header of the ``check --json`` document."""
    return {
        "command": "check",
        "mode": mode,
        "matrix": args.matrix,
        "procs": args.procs,
        "params": {"m": args.m, "t": args.t, "k": args.k},
        "inject": args.inject,
        "seed": args.seed,
    }


def _finish_check(doc: dict, emit_json: bool) -> int:
    """Stamp the exit code into the document, emit it, return the code."""
    code = 0 if doc.get("ok") else 1
    doc["exit"] = code
    if emit_json:
        import json

        print(json.dumps(doc, indent=2))
    return code


def _factors_identical(fa, fb) -> bool:
    """Bit-identical L/U (values, structure) and permutation."""
    return all(
        np.array_equal(x, y)
        for x, y in (
            (fa.L.data, fb.L.data),
            (fa.L.indices, fb.L.indices),
            (fa.L.indptr, fb.L.indptr),
            (fa.U.data, fb.U.data),
            (fa.U.indices, fb.U.indices),
            (fa.U.indptr, fb.U.indptr),
            (fa.perm, fb.perm),
        )
    )


def _cmd_check_fault(args: argparse.Namespace) -> int:
    """Injection modes that must be *survived*, not merely reported.

    Returns 0 when the resilience layer recovered (bit-identical factors
    after a rank crash/stall, message drop or corrupted result;
    fallback-chain detection and convergence after a NaN corruption) and
    1 otherwise.  ``--transport threads|processes`` runs the portable
    modes against real workers; on every transport a crash or a corrupt
    result is recovered by the region retry of DESIGN.md §14, and the
    baseline it must match bit-for-bit runs on the same transport.
    ``message-drop`` has no reading off the simulator and is refused
    there (exit 1).
    """
    from .faults import FaultPlan, MessageFault, RankFault
    from .ilu import ILUTParams, parallel_ilut
    from .resilience import RobustPreconditioner
    from .solvers import (
        DiagonalPreconditioner,
        ILU0Preconditioner,
        ILUPreconditioner,
        gmres,
    )

    emit_json = getattr(args, "json", False)
    doc = _check_report_stub(args, mode="fault")
    transport = getattr(args, "transport", "simulator")
    doc["transport"] = transport

    def say(msg: str) -> None:
        if not emit_json:
            print(msg)

    if args.inject == "message-drop" and transport != "simulator":
        say("message-drop is not portable: a real transport cannot lose a "
            "region result in a recoverable way; run it on the simulator "
            "or pick rank-crash / rank-stall / corrupt-result")
        doc.update({"ok": False, "error": "unportable fault mode"})
        return _finish_check(doc, emit_json)

    A = load_matrix(args.matrix)
    params = ILUTParams(fill=args.m, threshold=args.t, k=args.k)
    baseline = parallel_ilut(A, params, args.procs, seed=args.seed, transport=transport)

    if args.inject in ("message-drop", "rank-crash", "rank-stall", "corrupt-result"):
        supervision = None
        rank = max(1, args.procs // 2)
        if args.inject == "message-drop":
            plan = FaultPlan(message_faults=[MessageFault("drop", tag="urow")])
            say("injected: dropped one interface-row exchange message")
        elif args.inject == "rank-crash":
            plan = FaultPlan(rank_faults=[RankFault("crash", rank=rank, superstep=3)])
            say(f"injected: crashed rank {rank} at superstep 3")
        elif args.inject == "rank-stall":
            if transport == "simulator":
                stall = 1.0  # virtual seconds on the modelled clock
            else:
                # wall-clock: stall well past a short supervision deadline
                # so the hang is detected (and the worker replaced) fast
                from .machine import SupervisionPolicy

                stall = 2.0
                supervision = SupervisionPolicy(deadline=0.5, poll_interval=0.01)
            plan = FaultPlan(
                rank_faults=[RankFault("stall", rank=rank, superstep=3, stall=stall)]
            )
            say(f"injected: stalled rank {rank} for {stall:g}s at superstep 3")
        else:  # corrupt-result
            plan = FaultPlan(message_faults=[MessageFault("corrupt", tag="urow")])
            say("injected: corrupted one rank's region result")
        res = parallel_ilut(
            A, params, args.procs, seed=args.seed, faults=plan,
            transport=transport, supervision=supervision,
        )
        journal = res.fault_journal
        if journal is not None:
            say(journal.summary())
        say(f"recoveries:    {res.recoveries} region retr(ies)")
        injected = bool(journal is not None and len(journal.events))
        if args.inject == "message-drop":
            # exchange re-posts the lost message: no region fails
            recovered = journal.counts().get("retransmit", 0) >= 1
        elif args.inject == "rank-stall" and transport == "simulator":
            recovered = True  # a virtual stall costs modelled time only
        else:
            recovered = res.recoveries >= 1
        identical = _factors_identical(res.factors, baseline.factors)
        say(f"factors vs uninjected run: {'bit-identical' if identical else 'DIVERGED'}")
        ok = injected and recovered and identical
        doc.update(
            {
                "injected": injected,
                "recoveries": res.recoveries,
                "journal_events": len(journal.events) if journal is not None else 0,
                "factors_bit_identical": identical,
                "ok": ok,
            }
        )
        if ok:
            say("fault check OK: injection recovered")
        elif not injected:
            say("fault check FAILED: no fault fired")
        elif not recovered:
            say("fault check FAILED: no recovery was performed")
        else:
            say("fault check FAILED: factors diverged")
        return _finish_check(doc, emit_json)

    # nan-corrupt: messages are accounting only, so a corrupted
    # *message* cannot reach the numerics — instead poison the
    # finished factors and require the fallback chain's probe to catch
    # it at the apply boundary and degrade to a healthy candidate.
    factors = baseline.factors
    pos = int(factors.U.indptr[factors.n // 2])
    factors.U.data[pos] = float("nan")
    say(f"injected: NaN into U at row {factors.n // 2}")
    M = RobustPreconditioner(
        [
            ILUPreconditioner(factors),
            ILU0Preconditioner(),
            DiagonalPreconditioner(),
        ]
    )
    b = A @ np.ones(A.shape[0])
    res_solve = gmres(A, b, restart=20, M=M)
    report = res_solve.failure_report
    detected = report is not None and any(
        rec.error_type == "NonFiniteError" for rec in report.records
    )
    finite = bool(np.all(np.isfinite(res_solve.x)))
    say(f"fallback:      active = {M.active_name}")
    say(f"report:        {report.summary() if report is not None else 'none'}")
    say(f"solve:         {'converged' if res_solve.converged else 'NOT converged'}, "
        f"x finite = {finite}")
    ok = detected and res_solve.converged and finite
    doc.update(
        {
            "injected": True,
            "detected": detected,
            "active_preconditioner": M.active_name,
            "converged": bool(res_solve.converged),
            "x_finite": finite,
            "ok": ok,
        }
    )
    if ok:
        say("fault check OK: corruption detected and solved around")
    else:
        say("fault check FAILED: "
            + ("corruption not detected" if not detected else "solve did not recover"))
    return _finish_check(doc, emit_json)


def _cmd_check(args: argparse.Namespace) -> int:
    from .ilu import ILUTParams, parallel_ilut
    from .ilu.triangular import parallel_triangular_solve
    from .machine import CRAY_T3D, Simulator
    from .solvers import parallel_matvec
    from .verify import (
        check_csr,
        check_decomposition,
        check_lu_factors,
        find_races,
        racy_toy_driver,
    )

    if args.inject in _FAULT_MODES:
        return _cmd_check_fault(args)

    emit_json = getattr(args, "json", False)
    doc = _check_report_stub(args, mode="structural")

    def say(msg: str) -> None:
        if not emit_json:
            print(msg)

    A = load_matrix(args.matrix)
    problems: list[str] = []
    races = []

    # 1. replay the factorization (and the kernels that consume it)
    #    under the happens-before detector — before any injection, so the
    #    traced runs are numerically healthy.
    params = ILUTParams(fill=args.m, threshold=args.t, k=args.k)
    res = parallel_ilut(A, params, args.procs, seed=args.seed, trace=True)
    races += find_races(res.trace)
    say(f"race detector: {_label(args)} on p={args.procs}: {res.trace}")

    b = A @ np.ones(A.shape[0])
    ts = parallel_triangular_solve(res.factors, b, trace=True)
    races += find_races(ts.trace)
    mv = parallel_matvec(A, res.decomp, b, trace=True)
    races += find_races(mv.trace)

    # 2. optionally corrupt the factors to prove the checkers catch it
    factors = res.factors
    if args.inject == "zero-diag":
        row = factors.n // 2
        factors.U.data[factors.U.indptr[row]] = 0.0
        say(f"injected: zeroed U diagonal of row {row}")
    elif args.inject == "unsorted-row":
        U = factors.U
        for i in range(factors.n):
            s, e = int(U.indptr[i]), int(U.indptr[i + 1])
            if e - s >= 3:  # swap two *tail* columns, keeping diag first
                U.indices[s + 1], U.indices[s + 2] = U.indices[s + 2], U.indices[s + 1]
                say(f"injected: swapped columns in U row {i}")
                break

    # 3. structural invariants
    problems += check_csr(A, name="A")
    problems += check_decomposition(res.decomp)
    problems += check_lu_factors(factors, m=args.m)

    # 4. the adversarial self-test: a deliberately racy toy driver
    if args.inject == "race":
        sim = Simulator(max(2, args.procs), CRAY_T3D, trace=True)
        racy_toy_driver(sim)
        races += find_races(sim.tracer)
        say("injected: unsynchronised two-rank interface-row write")

    for r in races:
        say(f"RACE: {r.describe()}")
    for p in problems:
        say(f"INVARIANT: {p}")
    ok = not races and not problems
    doc.update(
        {
            "races": [r.describe() for r in races],
            "invariant_violations": list(problems),
            "levels": res.num_levels,
            "ok": ok,
        }
    )
    if ok:
        say(f"check OK: 0 races, 0 invariant violations (q={res.num_levels} levels)")
    else:
        say(f"check FAILED: {len(races)} race(s), {len(problems)} violation(s)")
    return _finish_check(doc, emit_json)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .sparse import write_matrix_market

    A = load_matrix(args.matrix)
    write_matrix_market(A, args.output)
    print(f"wrote {A.shape[0]}x{A.shape[1]} matrix ({A.nnz} nnz) to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel threshold-based ILU factorization (SC'97 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix(p):
        p.add_argument("matrix", help="generator spec (g0:64, torso:2000, cd:40) or .mtx path")

    p_info = sub.add_parser("info", help="matrix statistics")
    add_matrix(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_part = sub.add_parser("partition", help="domain-decomposition report")
    add_matrix(p_part)
    p_part.add_argument("-p", "--procs", type=int, default=16)
    p_part.add_argument("--method", choices=("multilevel", "block", "random"), default="multilevel")
    p_part.add_argument("--seed", type=int, default=0)
    p_part.set_defaults(func=_cmd_partition)

    p_fact = sub.add_parser("factor", help="parallel ILUT/ILUT* factorization")
    add_matrix(p_fact)
    p_fact.add_argument("-p", "--procs", type=int, default=16)
    p_fact.add_argument("-m", type=int, default=10, help="max kept per L/U row")
    p_fact.add_argument("-t", type=float, default=1e-4, help="relative drop tolerance")
    p_fact.add_argument(
        "-k", type=int, default=None,
        help="ILUT* reduced-row cap factor (omit for plain ILUT)",
    )
    p_fact.add_argument("--seed", type=int, default=0)
    p_fact.add_argument(
        "--transport",
        choices=("simulator", "threads", "processes", "none"),
        default="simulator",
        help="execution backend for the parallel regions (factors are "
        "bit-identical across all of them)",
    )
    p_fact.set_defaults(func=_cmd_factor)

    p_solve = sub.add_parser("solve", help="preconditioned GMRES solve (b = A e)")
    add_matrix(p_solve)
    p_solve.add_argument("-p", "--procs", type=int, default=16)
    p_solve.add_argument("-m", type=int, default=10)
    p_solve.add_argument("-t", type=float, default=1e-4)
    p_solve.add_argument("-k", type=int, default=2)
    p_solve.add_argument("--restart", type=int, default=20)
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument(
        "--transport",
        choices=("simulator", "threads", "processes", "none"),
        default="simulator",
        help="execution backend for every stage of the pipeline",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser(
        "check", help="race-detect a factorization replay + structural invariants"
    )
    p_check.add_argument(
        "matrix", nargs="?", default="g0:12",
        help="generator spec or .mtx path (default: g0:12)",
    )
    p_check.add_argument("-p", "--procs", type=int, default=4)
    p_check.add_argument("-m", type=int, default=5)
    p_check.add_argument("-t", type=float, default=1e-4)
    p_check.add_argument("-k", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--inject",
        choices=("zero-diag", "unsorted-row", "race") + _FAULT_MODES,
        default=None,
        help="seed a defect: structural modes verify the checkers report "
        "it (exit 1); fault modes verify the resilience layer recovers "
        "from it (exit 0)",
    )
    p_check.add_argument(
        "--transport",
        choices=("simulator", "threads", "processes"),
        default="simulator",
        help="execution backend for the fault modes: every transport "
        "recovers a crash or a corrupt result by region retry "
        "(DESIGN.md §14), message-drop runs on the simulator only; "
        "structural modes always replay on the simulator",
    )
    p_check.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document on stdout instead of the text report",
    )
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("generate", help="write a generator matrix to .mtx")
    add_matrix(p_gen)
    p_gen.add_argument("output", help="output MatrixMarket path")
    p_gen.set_defaults(func=_cmd_generate)

    from .lint.cli import add_lint_parser

    add_lint_parser(sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``) and run the command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
