"""Command-line front end.

One subcommand per computation.  Structured output (--json) follows the
schema in `report`; identical invocations produce identical records apart
from the wall times in `stats.elapsed_ms` and, for `verify`, in each
check's `elapsed_ms`.  Exit codes: 0 success, 1 domain error
(printed with its machine-readable code), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .catalog import CatalogEntry, catalog_lookup
from .coset import (DEFAULT_MAX_COSETS, CosetTally, EnumerationBudget,
                    budget_scope)
from .errors import NotAbelian, NtlError, Undecided
from .groups import RealizedGroup, Subgroup, closure, section_invariants
from .homotopy import (THEOREM_C_PROPERTIES, bound_pushout_pi3,
                       bound_theorem_A, bound_theorem_B,
                       burnside_exponent_check, finiteness_report,
                       known_order, pi3_suspension_K, pushout_EM,
                       resolve_subject, schur_multiplier, stable_pi2_K,
                       theoremC_report, three_connected_check, wedge_pi3)
from .parsing import parse_file, parse_words_text
from .report import (group_result, invariants_result, render_text,
                     serialize_report)
from .tensor import (EtaRealization, _check_cap, build_direct, build_eta,
                     build_nu, conjugation_pair, delta, delta_tilde,
                     tensor_set, trivial_pair, validate_compatibility)
from .verification import run_catalog_suite, run_file_suite
from .words import Presentation


class _UsageError(Exception):
    pass


def _stats_block(spent: CosetTally, t0: float) -> dict:
    """The `stats` block of every report: the cosets defined by the
    command's enumerations and its wall time since t0."""
    return {"cosets_defined": spent.cosets_defined,
            "elapsed_ms": int((time.monotonic() - t0) * 1000)}


def _budget_from(args: argparse.Namespace) -> EnumerationBudget:
    """The budget the flags ask for, the default where a command has
    none (`bound`)."""
    return EnumerationBudget(
        max_cosets=getattr(args, "max_cosets", DEFAULT_MAX_COSETS),
        max_time_ms=getattr(args, "budget_ms", None))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntl",
        description="Finite-group engine for non-abelian tensor products "
                    "and homotopy-group invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true",
                           help="emit the machine-readable report")
    common = argparse.ArgumentParser(add_help=False, parents=[json_flag])
    common.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS,
                        help="cosets each enumeration may define "
                             "(default %(default)s)")
    common.add_argument("--budget-ms", type=int, default=None,
                        help="wall-clock budget per command")

    group_only = argparse.ArgumentParser(add_help=False)
    group_only.add_argument("--group", required=True,
                            help="catalog name or presentation file")
    two_groups = argparse.ArgumentParser(add_help=False, parents=[group_only])
    two_groups.add_argument("--other", default=None,
                            help="second group (defaults to --group)")
    pair_flags = argparse.ArgumentParser(add_help=False, parents=[two_groups])
    pair_flags.add_argument("--trivial-actions", action="store_true",
                            help="both actions trivial")
    pair_flags.add_argument("--conjugation", action="store_true",
                            help="both actions by conjugation "
                                 "(groups must coincide)")
    pair_flags.add_argument("--action", default=None, metavar="FILE",
                            help="file holding both action blocks")

    sub.add_parser("tensor", parents=[common, pair_flags],
                   help="non-abelian tensor product of two groups")
    sub.add_parser("eta", parents=[common, pair_flags],
                   help="the commutator pairing group of two groups")
    sub.add_parser("nu", parents=[common, group_only],
                   help="the conjugation pairing group of one group")
    sub.add_parser("tensors", parents=[common, pair_flags],
                   help="the set of tensors and its cardinality")

    p_inv = sub.add_parser("invariant", parents=[common, group_only],
                           help="derived invariants of the tensor square")
    p_inv.add_argument("kind", choices=["j2", "delta", "delta-tilde",
                                        "schur", "stable-pi2", "pi4-s2"])

    p_triad = sub.add_parser("triad", parents=[common, pair_flags],
                             help="triad group in dimension p+q+1")
    p_triad.add_argument("-p", type=int, default=1)
    p_triad.add_argument("-q", type=int, default=1)

    sub.add_parser("wedge", parents=[common, two_groups],
                   help="pi_3 of a wedge of two K(-,2) spaces")

    p_push = sub.add_parser("pushout", parents=[common, group_only],
                            help="pi_2 and pi_3 of a homotopy pushout")
    p_push.add_argument("--m", required=True, metavar="WORDS",
                        help="generators of the first normal subgroup")
    p_push.add_argument("--n", required=True, metavar="WORDS",
                        help="generators of the second normal subgroup")
    p_3c = sub.add_parser("three-connected", parents=[common, group_only],
                          help="3-connectivity verdict for a pushout")
    p_3c.add_argument("--m", required=True, metavar="WORDS")
    p_3c.add_argument("--n", required=True, metavar="WORDS")

    sub.add_parser("thmc", parents=[common, group_only],
                   help="the seven equivalent finiteness properties")
    sub.add_parser("finiteness", parents=[common, group_only],
                   help="orders of the abelianization, derived subgroup, "
                        "tensor set and tensor square")

    p_bound = sub.add_parser("bound", help="order-bound arithmetic")
    bsub = p_bound.add_subparsers(dest="which", required=True)
    b_a = bsub.add_parser("thma", parents=[json_flag])
    b_a.add_argument("values", type=int, nargs=4, metavar="N")
    b_b = bsub.add_parser("thmb", parents=[json_flag])
    b_b.add_argument("values", type=int, nargs=2, metavar="N")
    b_p = bsub.add_parser("pushout", parents=[json_flag])
    b_p.add_argument("values", type=int, nargs=3, metavar="N")

    sub.add_parser("exponent-check", parents=[common, group_only],
                   help="small-exponent criterion on the tensor square")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the acceptance battery")
    p_verify.add_argument("file", nargs="?", default=None,
                          help="presentation file (default: catalog scope)")
    p_verify.add_argument("--fault-skip-eta-relators", action="store_true",
                          help="test-only fault: drop the pairing relators "
                               "to prove the suite notices")
    return parser


# -- input resolution ----------------------------------------------------------


def _parse(path: str):
    """The groups and the actions of a file, with `from:`/`to:` names
    outside it looked up in the catalog."""
    return parse_file(Path(path).read_text(encoding="utf-8"),
                      resolver=lambda n: catalog_lookup(n).presentation)


def _lookup(value: str) -> CatalogEntry | Presentation:
    """The group `value` names: its catalog entry, or the one group the
    file `value` defines.  Nothing is realized."""
    if not os.path.isfile(value):
        return catalog_lookup(value)
    groups, _ = _parse(value)
    if len(groups) != 1:
        raise _UsageError(
            f"{value} defines {len(groups)} groups; exactly one needed")
    return next(iter(groups.values()))


def _lookup_pair(args: argparse.Namespace):
    """`--group` and `--other` (which defaults to `--group`) looked up, as
    one object twice when they are equal: two spellings of one catalog
    name, or two files defining one group."""
    g_in = _lookup(args.group)
    h_in = g_in if args.other is None else _lookup(args.other)
    return g_in, g_in if h_in == g_in else h_in


def _check_known_pair(g_in, h_in):
    """Refuse a pair too large to tensor by the orders known before either
    group is resolved (`known_order`), so that it costs no enumeration.  A
    pair with an input of unknown order is resolved first, as any other."""
    ng = known_order(g_in)
    if ng is None:
        return
    nh = ng if h_in is g_in else known_order(h_in)
    if nh is not None:
        _check_cap(ng, nh)


def _square_subject(args: argparse.Namespace):
    """`--group` resolved, once the pair it makes with itself passed
    `_check_known_pair`."""
    g_in = _lookup(args.group)
    _check_known_pair(g_in, g_in)
    return resolve_subject(g_in)


def _pair_inputs(args: argparse.Namespace, check=None):
    """The pair of `--group` and `--other` under the actions the flags
    choose, with the query naming them.  The flags are checked, and the
    one block per direction of the `--action` file is found by the
    looked-up names of both groups, the known orders are checked
    (`_check_known_pair`) and `check`, if given, is called with the two
    looked-up inputs, before either group is resolved, so those errors
    cost no enumeration."""
    chosen = [bool(args.trivial_actions), bool(args.conjugation),
              args.action is not None]
    if sum(chosen) > 1:
        raise _UsageError("choose one of --trivial-actions, --conjugation, "
                          "--action FILE")
    g_in, h_in = _lookup_pair(args)
    # conjugation is the default for a square pair
    if not args.trivial_actions and args.action is None and h_in is not g_in:
        raise _UsageError("--conjugation (the default) needs --other to "
                          "coincide with --group; use --trivial-actions "
                          "or --action for distinct groups")
    if args.action is not None:
        _, actions = _parse(args.action)
        # one block per direction; a square pair's two are the same block
        ways = [f"{g_in.name}->{h_in.name}", f"{h_in.name}->{g_in.name}"]
        fwd, bwd = ([a for a in actions if f"{a.actor}->{a.target}" == way]
                    for way in ways)
        if len(fwd) != 1 or len(bwd) != 1:
            raise _UsageError(f"{args.action} must define exactly one action "
                              + " and one ".join(dict.fromkeys(ways)))
        (fwd,), (bwd,) = fwd, bwd
    _check_known_pair(g_in, h_in)
    if check is not None:
        check((g_in, h_in))
    g = resolve_subject(g_in).realized()
    h = g if h_in is g_in else resolve_subject(h_in).realized()
    if args.trivial_actions:
        pair, action_kind = trivial_pair(g, h), "trivial"
    elif args.action is not None:
        pair, action_kind = validate_compatibility(g, h, fwd, bwd), "file"
    else:
        pair, action_kind = conjugation_pair(g), "conjugation"
    query = {"group": g.name, "other": h.name, "actions": action_kind}
    return pair, query


def _subgroup_from_words(g: RealizedGroup, text: str):
    words = parse_words_text(text, g.source_presentation)
    return closure(g, [g.evaluate(w) for w in words])


def _pushout_input(args: argparse.Namespace) -> tuple[Subgroup, Subgroup]:
    """The `--m` and `--n` subgroups of `--group`."""
    g = resolve_subject(_lookup(args.group)).realized()
    return _subgroup_from_words(g, args.m), _subgroup_from_words(g, args.n)


def _tensor_input(args: argparse.Namespace):
    """The tensor product of `--group` and `--other` under the chosen
    actions, and the query naming them."""
    pair, query = _pair_inputs(args)
    return build_direct(pair), query


def _square_input(args: argparse.Namespace):
    """`--group` realized, with its tensor square."""
    g = _square_subject(args).realized()
    return g, build_direct(conjugation_pair(g))


# -- handlers -------------------------------------------------------------------


def _cmd_tensor(args: argparse.Namespace) -> dict:
    r, query = _tensor_input(args)
    return {"query": query,
            "result": group_result(r.group,
                                   tensor_count_m=len(tensor_set(r)))}


def _eta_record(e: EtaRealization, query: dict) -> dict:
    """The record of `eta` and `nu`: eta with its decomposition."""
    return {"query": query,
            "result": group_result(e.eta, tensor_count_m=e.tensor_count_m),
            "chain": [f"decomposition: {e.eta.order} = "
                      f"{e.tensor_cosets.size} * "
                      f"{e.pair.g.order} * {e.pair.h.order}"]}


def _cmd_eta(args: argparse.Namespace) -> dict:
    pair, query = _pair_inputs(args)
    return _eta_record(build_eta(pair), query)


def _cmd_nu(args: argparse.Namespace) -> dict:
    g = _square_subject(args).realized()
    return _eta_record(build_nu(g), {"group": g.name,
                                     "actions": "conjugation"})


def _cmd_tensors(args: argparse.Namespace) -> dict:
    r, query = _tensor_input(args)
    ts = tensor_set(r)
    m = len(ts)
    chain = [f"tensor subgroup order {r.group.order}; {m} distinct tensors"]
    g, h = r.pair.g, r.pair.h
    shown = 0
    for a, b in ts.values():
        if shown == 10:
            chain.append(f"... and {m - shown} more")
            break
        chain.append(f"[{g.element_str(a)}, {h.element_str(b)}~]")
        shown += 1
    return {"query": query,
            "result": group_result(r.group, tensor_count_m=m),
            "chain": chain}


def _cmd_invariant(args: argparse.Namespace) -> dict:
    g, r = _square_input(args)
    kind = args.kind
    if kind == "j2":
        inv = pi3_suspension_K(r)
        chain = ["kernel of the derived map inside the tensor square"]
    elif kind == "delta":
        inv = section_invariants(delta(r), closure(r.group, ()))
        chain = ["subgroup generated by the square tensors"]
    elif kind == "delta-tilde":
        inv = section_invariants(delta_tilde(r), closure(r.group, ()))
        chain = ["subgroup generated by the symmetrized tensors"]
    elif kind == "schur":
        inv = schur_multiplier(r)
        chain = ["second homology: derived-map kernel over the diagonal"]
    else:  # stable-pi2 | pi4-s2
        inv = stable_pi2_K(r)
        chain = ["derived-map kernel over the symmetrized diagonal"]
    return {"query": {"group": g.name, "invariant": kind},
            "result": invariants_result(inv), "chain": chain}


def _not_abelian(name: str, what: str) -> NotAbelian:
    return NotAbelian(f"{name!r} is not abelian; {what} must be")


def _refuse_non_abelian(x, what: str):
    """Refuse an input that `what`, an abelian group, cannot stand for: a
    catalog entry by its recorded fact, before it is resolved, which costs
    no realization, and a realized group by its generators.  Any other
    input waits for its realization."""
    if isinstance(x, CatalogEntry):
        abelian = x.abelian is not False
    else:
        abelian = not isinstance(x, RealizedGroup) or x.is_abelian()
    if not abelian:
        raise _not_abelian(x.name, what)


def _check_triad_degrees(groups, p: int, q: int):
    """The relative groups pi_{p+1}(A, C) and pi_{q+1}(B, C) stand for
    `--group` and `--other`; one of degree p+1 >= 3 (or q+1) is abelian, so
    a non-abelian group cannot be it (`_refuse_non_abelian`)."""
    for degree, g in zip((p, q), groups):
        if degree >= 2:
            _refuse_non_abelian(
                g, f"a relative homotopy group of degree {degree + 1}")


def _cmd_triad(args: argparse.Namespace) -> dict:
    if min(args.p, args.q) < 1:  # before anything is built
        raise _UsageError("connectivity degrees must be >= 1")

    def check(groups):
        _check_triad_degrees(groups, args.p, args.q)

    # the triad group is the tensor product of the two relative groups
    pair, query = _pair_inputs(args, check)
    check((pair.g, pair.h))  # before T is built
    r = build_direct(pair)
    query = dict(query, p=args.p, q=args.q)
    return {"query": query, "result": group_result(r.group),
            "chain": [f"triad group lives in dimension p+q+1 = "
                      f"{args.p + args.q + 1}"]}


def _cmd_wedge(args: argparse.Namespace) -> dict:
    what = "a second homotopy group"
    g_in, h_in = _lookup_pair(args)
    for x in (g_in, h_in):
        _refuse_non_abelian(x, what)
    subjects = [resolve_subject(g_in)]
    subjects.append(subjects[0] if h_in is g_in else resolve_subject(h_in))
    invs = []
    for s in subjects:
        if s.invariants is None:
            g = s.realized()
            if not g.is_abelian():
                raise _not_abelian(s.name, what)
            invs.append(g.abelianization())
        else:
            invs.append(s.invariants)
    out = wedge_pi3(invs[0], invs[1])
    return {"query": {"group": subjects[0].name, "other": subjects[1].name},
            "result": invariants_result(out)}


def _cmd_pushout(args: argparse.Namespace) -> dict:
    m, n = _pushout_input(args)
    res = pushout_EM(m, n)
    chain = [
        f"pi2 = (M cap N)/[M,N]: order {res.pi2.order()}, invariants "
        f"{list(res.pi2.factors)}",
        f"pi3 = kernel of the derived map: order {res.pi3.order()}, "
        f"invariants {list(res.pi3.factors)}",
    ]
    return {"query": {"group": m.parent.name, "m": args.m, "n": args.n},
            "result": invariants_result(res.pi3), "chain": chain}


def _cmd_three_connected(args: argparse.Namespace) -> dict:
    m, n = _pushout_input(args)
    rep = three_connected_check(m, n)
    chain = [
        "pi1 trivial: true",  # G = MN kills pi_1 by amalgamation
        f"pi2 order: {rep.result.pi2.order()}",
        f"pi3 order: {rep.result.pi3.order()}",
        f"verdict: {rep.verdict}",
    ]
    return {"query": {"group": m.parent.name, "m": args.m, "n": args.n},
            "result": invariants_result(rep.result.pi3), "chain": chain}


def _cmd_thmc(args: argparse.Namespace) -> dict:
    s = _square_subject(args)
    if s.group is not None:
        r = build_direct(conjugation_pair(s.group))
        rep, witness = theoremC_report(r), ""
        result = group_result(s.group,
                              tensor_count_m=rep.evidence["tensor_count_m"])
    elif s.invariants is not None:  # G = G^ab is infinite, so is G(x)G
        rep, witness = s.theoremC, s.witness
        result = {"order": "infinite"}
    else:
        raise Undecided(f"budget exhausted with no finiteness certificate "
                        f"({s.unrealized})") from s.unrealized
    chain = [f"({k}) {label}: {str(rep.properties[k]).lower()}"
             for k, label in THEOREM_C_PROPERTIES.items()]
    chain.append(f"unanimous: {str(rep.unanimous).lower()}")
    if witness:
        chain.append(f"witness: {witness}")
    return {"query": {"group": s.name}, "result": result, "chain": chain}


def _cmd_finiteness(args: argparse.Namespace) -> dict:
    s = _square_subject(args)
    query = {"group": s.name}
    if s.invariants is not None:
        inv = s.invariants
        return {"query": query, "result": invariants_result(inv),
                "chain": [f"abelian fast path; tensor square "
                          f"{inv.tensor(inv)} is infinite"]}
    if s.group is None:
        return {"query": query, "result": {"order": "undetermined"},
                "chain": [f"undetermined - consistent with infinite "
                          f"({s.unrealized})"]}
    rep = finiteness_report(build_direct(conjugation_pair(s.group)))
    chain = [
        f"|G^ab| = {rep.gab_invariants.order()} with invariants "
        f"{list(rep.gab_invariants.factors)}",
        f"|G'| = {rep.gprime_order}",
        f"tensor count m = {rep.tensor_count_m}",
        f"tensor square order = {rep.tensor_order}",
        f"G^ab divides into the diagonal subgroup "
        f"{list(rep.delta_invariants.factors)}: "
        f"{str(rep.embedding_holds).lower()}",
    ]
    return {"query": query,
            "result": group_result(s.group,
                                   tensor_count_m=rep.tensor_count_m),
            "chain": chain}


def _cmd_bound(args: argparse.Namespace) -> dict:
    which = args.which
    values = args.values
    if which == "thma":
        rep = bound_theorem_A(*values)
    elif which == "thmb":
        rep = bound_theorem_B(*values)
    else:
        rep = bound_pushout_pi3(*values)
    return {"query": {"bound": which, "orders": rep.exact_orders},
            "result": {"order": rep.bound}, "chain": list(rep.chain)}


def _cmd_exponent_check(args: argparse.Namespace) -> dict:
    g, r = _square_input(args)
    rep = burnside_exponent_check(r)
    chain = [
        f"tensor square exponent: {rep.tensor_exponent}",
        f"small-exponent criterion applies: "
        f"{str(rep.applicable).lower()}",
    ]
    if rep.applicable:
        chain.append(f"group order {g.order} is finite: consistent")
    return {"query": {"group": g.name},
            "result": {"order": g.order, "abelian": g.is_abelian(),
                       "abelian_invariants": list(
                           g.abelianization().factors),
                       "exponent": rep.tensor_exponent},
            "chain": chain}


def _cmd_verify(args: argparse.Namespace, spent: CosetTally,
                t0: float) -> int:
    """Run the battery, or the checks of the groups in `args.file`, and
    print them; returns the exit code."""
    if args.file is not None:
        if args.fault_skip_eta_relators:  # else ignored: a silent pass
            raise _UsageError("--fault-skip-eta-relators runs in catalog "
                              "scope only")
        results = run_file_suite(Path(args.file).read_text(encoding="utf-8"))
        if not results:
            raise _UsageError(f"{args.file} defines no group")
    else:
        results = run_catalog_suite(fault=bool(args.fault_skip_eta_relators))
    ok = all(r.passed for r in results)
    stats = _stats_block(spent, t0)
    if args.json:
        record = {"checks": [{"name": r.name, "passed": r.passed,
                              "detail": r.detail,
                              "elapsed_ms": r.elapsed_ms}
                             for r in results],
                  "passed": ok, "stats": stats}
        sys.stdout.write(serialize_report(record))
    else:
        for r in results:
            print(r.line())
        print(f"{'all checks passed' if ok else 'CHECKS FAILED'} "
              f"({sum(r.passed for r in results)}/{len(results)})")
        print(f"stats: {stats['cosets_defined']} cosets defined, "
              f"{stats['elapsed_ms']} ms")
    return 0 if ok else 1


_HANDLERS = {
    "tensor": _cmd_tensor,
    "eta": _cmd_eta,
    "nu": _cmd_nu,
    "tensors": _cmd_tensors,
    "invariant": _cmd_invariant,
    "triad": _cmd_triad,
    "wedge": _cmd_wedge,
    "pushout": _cmd_pushout,
    "three-connected": _cmd_three_connected,
    "thmc": _cmd_thmc,
    "finiteness": _cmd_finiteness,
    "bound": _cmd_bound,
    "exponent-check": _cmd_exponent_check,
}


def dispatch(args: argparse.Namespace) -> int:
    """Run one command under the budget its flags ask for, counting its
    cosets; returns the process exit code."""
    t0 = time.monotonic()
    with budget_scope(_budget_from(args)), CosetTally() as spent:
        if args.command == "verify":
            return _cmd_verify(args, spent, t0)
        record = _HANDLERS[args.command](args)
    record.setdefault("query", {})["command"] = args.command
    record["stats"] = _stats_block(spent, t0)
    if args.json:
        sys.stdout.write(serialize_report(record))
    else:
        sys.stdout.write(render_text(record))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return dispatch(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NtlError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
