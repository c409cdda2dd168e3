"""Command-line front end.

One subcommand per computation.  Structured output (--json) follows the
schema in `report`; identical invocations produce identical records apart
from the elapsed-time field.  Exit codes: 0 success, 1 domain error
(printed with its machine-readable code), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import CatalogEntry, catalog_lookup, realize_entry
from .coset import EnumerationBudget, default_budget, realize_presentation
from .errors import NtlError
from .groups import (RealizedGroup, abelian_structure, closure,
                     subgroup_as_group)
from .homotopy import (PushoutInput, TriadInput, bound_pushout_pi3,
                       bound_theorem_A, bound_theorem_B,
                       burnside_exponent_check, finiteness_report,
                       pi3_suspension_K, pushout_EM, resolve_subject,
                       schur_multiplier, stable_pi2_K, theoremC_report,
                       three_connected_check, triad_group, wedge_pi3)
from .parsing import parse_file, parse_words_text
from .report import (group_result, invariants_result, render_text,
                     serialize_report)
from .tensor import (build_eta, build_nu, conjugation_pair, delta,
                     delta_tilde, tensor_set, trivial_pair,
                     validate_compatibility)
from .verification import run_catalog_suite, run_file_suite


class _UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    args: argparse.Namespace
    budget: EnumerationBudget | None
    json_out: bool
    stats: list = field(default_factory=list)

    def track(self, *stats) -> None:
        self.stats.extend(s for s in stats if s is not None)


def _budget_from(args: argparse.Namespace) -> EnumerationBudget | None:
    """The budget the flags ask for; None without flags, so that every
    enumeration falls back to `default_budget()`."""
    max_cosets = getattr(args, "max_cosets", None)
    budget_ms = getattr(args, "budget_ms", None)
    if max_cosets is None and budget_ms is None:
        return None
    if max_cosets is None:
        max_cosets = default_budget().max_cosets
    return EnumerationBudget(max_cosets=max_cosets, max_time_ms=budget_ms)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntl",
        description="Finite-group engine for non-abelian tensor products "
                    "and homotopy-group invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    common.add_argument("--max-cosets", type=int, default=None,
                        help="coset budget (overrides NTL_MAX_COSETS)")
    common.add_argument("--budget-ms", type=int, default=None,
                        help="wall-clock budget per enumeration")

    pair_flags = argparse.ArgumentParser(add_help=False)
    pair_flags.add_argument("--group", required=True,
                            help="catalog name or presentation file")
    pair_flags.add_argument("--other", default=None,
                            help="second group (defaults to --group)")
    pair_flags.add_argument("--trivial-actions", action="store_true",
                            help="both actions trivial")
    pair_flags.add_argument("--conjugation", action="store_true",
                            help="both actions by conjugation "
                                 "(groups must coincide)")
    pair_flags.add_argument("--action", default=None, metavar="FILE",
                            help="file holding both action blocks")

    group_only = argparse.ArgumentParser(add_help=False)
    group_only.add_argument("--group", required=True,
                            help="catalog name or presentation file")

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

    sub.add_parser("wedge", parents=[common, pair_flags],
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
    b_a = bsub.add_parser("thma", parents=[common])
    b_a.add_argument("values", type=int, nargs=4, metavar="N")
    b_b = bsub.add_parser("thmb", parents=[common])
    b_b.add_argument("values", type=int, nargs=2, metavar="N")
    b_p = bsub.add_parser("pushout", parents=[common])
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


def _load_entry(value: str) -> CatalogEntry:
    if os.path.isfile(value):
        text = Path(value).read_text(encoding="utf-8")
        groups, _ = parse_file(
            text, resolver=lambda n: catalog_lookup(n).presentation)
        if len(groups) != 1:
            raise _UsageError(
                f"{value} defines {len(groups)} groups; exactly one needed")
        pres = next(iter(groups.values()))
        return CatalogEntry(pres.name, pres, {})
    return catalog_lookup(value)


def _realize(entry: CatalogEntry, cfg: RunConfig) -> RealizedGroup:
    if entry.known_facts:
        return realize_entry(entry, cfg.budget)
    grp, stats = realize_presentation(entry.presentation, cfg.budget)
    cfg.track(stats)
    return grp


def _resolve_actions(cfg: RunConfig, g: RealizedGroup, h: RealizedGroup):
    args = cfg.args
    chosen = [bool(args.trivial_actions), bool(args.conjugation),
              args.action is not None]
    if sum(chosen) > 1:
        raise _UsageError("choose one of --trivial-actions, --conjugation, "
                          "--action FILE")
    if args.trivial_actions:
        return trivial_pair(g, h), "trivial"
    if args.action is not None:
        text = Path(args.action).read_text(encoding="utf-8")
        _, actions = parse_file(
            text, resolver=lambda n: catalog_lookup(n).presentation)
        fwd = [a for a in actions
               if a.actor == g.name and a.target == h.name]
        bwd = [a for a in actions
               if a.actor == h.name and a.target == g.name]
        if not fwd or not bwd:
            raise _UsageError(
                f"{args.action} must define actions {g.name}->{h.name} "
                f"and {h.name}->{g.name}")
        return validate_compatibility(g, h, fwd[0], bwd[0]), "file"
    # conjugation is the default for a square pair
    if g is not h:
        raise _UsageError("--conjugation (the default) needs --other to "
                          "coincide with --group; use --trivial-actions "
                          "or --action for distinct groups")
    return conjugation_pair(g), "conjugation"


def _pair_inputs(cfg: RunConfig):
    args = cfg.args
    g_entry = _load_entry(args.group)
    other = args.other if args.other is not None else args.group
    if other == args.group:
        g = _realize(g_entry, cfg)
        h = g
    else:
        g = _realize(g_entry, cfg)
        h = _realize(_load_entry(other), cfg)
    pair, action_kind = _resolve_actions(cfg, g, h)
    query = {"group": g.name, "other": h.name, "actions": action_kind}
    return pair, query


def _subgroup_from_words(g: RealizedGroup, text: str):
    words = parse_words_text(text, g.source_presentation)
    return closure(g, [g.evaluate(w) for w in words])


# -- handlers -------------------------------------------------------------------


def _cmd_tensor(cfg: RunConfig) -> dict:
    pair, query = _pair_inputs(cfg)
    r = build_eta(pair, cfg.budget)
    cfg.track(r.stats)
    return {"query": query,
            "result": group_result(r.group, tensor_count_m=tensor_set(r).m)}


def _cmd_eta(cfg: RunConfig) -> dict:
    pair, query = _pair_inputs(cfg)
    r = build_eta(pair, cfg.budget)
    cfg.track(r.stats)
    chain = [f"decomposition: {r.eta.order} = {r.group.order} * "
             f"{pair.g.order} * {pair.h.order}"]
    return {"query": query,
            "result": group_result(r.eta, tensor_count_m=tensor_set(r).m),
            "chain": chain}


def _cmd_nu(cfg: RunConfig) -> dict:
    entry = _load_entry(cfg.args.group)
    g = _realize(entry, cfg)
    r = build_nu(g, cfg.budget)
    cfg.track(r.stats)
    chain = [f"decomposition: {r.eta.order} = {r.group.order} * "
             f"{g.order} * {g.order}"]
    return {"query": {"group": g.name, "actions": "conjugation"},
            "result": group_result(r.eta, tensor_count_m=tensor_set(r).m),
            "chain": chain}


def _cmd_tensors(cfg: RunConfig) -> dict:
    pair, query = _pair_inputs(cfg)
    r = build_eta(pair, cfg.budget)
    cfg.track(r.stats)
    ts = tensor_set(r)
    chain = [f"tensor subgroup order {r.group.order}; "
             f"{ts.m} distinct tensors"]
    g, h = pair.g, pair.h
    shown = 0
    for elt in ts.elements:
        if shown == 10:
            chain.append(f"... and {ts.m - shown} more")
            break
        a, b = ts.witness[elt]
        chain.append(f"[{g.element_str(a)}, {h.element_str(b)}~]")
        shown += 1
    return {"query": query,
            "result": group_result(r.group, tensor_count_m=ts.m),
            "chain": chain}


def _cmd_invariant(cfg: RunConfig) -> dict:
    entry = _load_entry(cfg.args.group)
    g = _realize(entry, cfg)
    r = build_nu(g, cfg.budget)
    cfg.track(r.stats)
    kind = cfg.args.kind
    if kind == "j2":
        grp = pi3_suspension_K(r)
        chain = ["kernel of the derived map inside the tensor square"]
    elif kind == "delta":
        grp, _ = subgroup_as_group(delta(r))
        chain = ["subgroup generated by the square tensors"]
    elif kind == "delta-tilde":
        grp, _ = subgroup_as_group(delta_tilde(r))
        chain = ["subgroup generated by the symmetrized tensors"]
    elif kind == "schur":
        grp = schur_multiplier(r)
        chain = ["second homology: derived-map kernel over the diagonal"]
    else:  # stable-pi2 | pi4-s2
        grp = stable_pi2_K(r)
        chain = ["derived-map kernel over the symmetrized diagonal"]
    return {"query": {"group": g.name, "invariant": kind},
            "result": group_result(grp), "chain": chain}


def _cmd_triad(cfg: RunConfig) -> dict:
    pair, query = _pair_inputs(cfg)
    args = cfg.args
    t = TriadInput(pair.g, pair.h, pair, args.p, args.q)
    grp, dim = triad_group(t, cfg.budget)
    query = dict(query, p=args.p, q=args.q)
    return {"query": query, "result": group_result(grp),
            "chain": [f"triad group lives in dimension p+q+1 = {dim}"]}


def _cmd_wedge(cfg: RunConfig) -> dict:
    args = cfg.args
    entries = [_load_entry(args.group),
               _load_entry(args.other if args.other else args.group)]
    invs = []
    for entry in entries:
        resolved = resolve_subject(entry if entry.known_facts
                                   else entry.presentation, cfg.budget)
        cfg.track(resolved.stats)
        if resolved.group is not None:
            if not resolved.group.is_abelian():
                from .errors import NotAbelian
                raise NotAbelian(
                    f"{resolved.name!r} is not abelian; a second homotopy "
                    "group must be")
            invs.append(abelian_structure(resolved.group))
        else:
            invs.append(resolved.invariants)
    out = wedge_pi3(invs[0], invs[1])
    return {"query": {"group": entries[0].name, "other": entries[1].name},
            "result": invariants_result(out)}


def _cmd_pushout(cfg: RunConfig) -> dict:
    entry = _load_entry(cfg.args.group)
    g = _realize(entry, cfg)
    m = _subgroup_from_words(g, cfg.args.m)
    n = _subgroup_from_words(g, cfg.args.n)
    res = pushout_EM(PushoutInput(g, m, n), cfg.budget)
    cfg.track(res.build.stats)
    chain = [
        f"pi2 = (M cap N)/[M,N]: order {res.pi2.order}, invariants "
        f"{list(abelian_structure(res.pi2).factors)}",
        f"pi3 = kernel of the derived map: order {res.pi3.order}, "
        f"invariants {list(res.pi3.abelianization().factors)}",
    ]
    return {"query": {"group": g.name, "m": cfg.args.m, "n": cfg.args.n},
            "result": group_result(res.pi3), "chain": chain}


def _cmd_three_connected(cfg: RunConfig) -> dict:
    entry = _load_entry(cfg.args.group)
    g = _realize(entry, cfg)
    m = _subgroup_from_words(g, cfg.args.m)
    n = _subgroup_from_words(g, cfg.args.n)
    rep = three_connected_check(PushoutInput(g, m, n), cfg.budget)
    cfg.track(rep.result.build.stats)
    chain = [
        f"pi1 trivial: {str(rep.pi1_trivial).lower()}",
        f"pi2 order: {rep.pi2_order}",
        f"pi3 order: {rep.pi3_order}",
        f"verdict: {rep.verdict}",
    ]
    return {"query": {"group": g.name, "m": cfg.args.m, "n": cfg.args.n},
            "result": group_result(rep.result.pi3), "chain": chain}


def _cmd_thmc(cfg: RunConfig) -> dict:
    entry = _load_entry(cfg.args.group)
    subject = entry if entry.known_facts else entry.presentation
    rep = theoremC_report(subject, cfg.budget)
    cfg.track(rep.group_stats, rep.stats)
    labels = {
        "a": "the group is finite",
        "b": "the set of tensors is finite",
        "c": "the tensor product subgroup is finite",
        "d": "derived subgroup locally finite, derived-map kernel periodic",
        "e": "derived subgroup locally finite, diagonal periodic",
        "f": "derived subgroup locally finite, symmetrized diagonal periodic",
        "g": "the tensor square is locally finite",
    }
    chain = [f"({k}) {labels[k]}: {str(v).lower()}"
             for k, v in sorted(rep.properties.items())]
    chain.append(f"unanimous: {str(rep.unanimous).lower()}")
    if rep.witness:
        chain.append(f"witness: {rep.witness}")
    if rep.finite:
        result = group_result(rep.group,
                              tensor_count_m=rep.evidence["tensor_count_m"])
    else:
        result = {"order": "infinite"}
    return {"query": {"group": rep.name}, "result": result, "chain": chain}


def _cmd_finiteness(cfg: RunConfig) -> dict:
    entry = _load_entry(cfg.args.group)
    subject = entry if entry.known_facts else entry.presentation
    rep = finiteness_report(subject, cfg.budget)
    cfg.track(rep.group_stats, rep.stats)
    if not rep.determined:
        return {"query": {"group": rep.name},
                "result": {"order": "undetermined"},
                "chain": [rep.note]}
    if rep.finite:
        chain = [
            f"|G^ab| = {rep.gab_order} with invariants "
            f"{list(rep.gab_invariants.factors)}",
            f"|G'| = {rep.gprime_order}",
            f"tensor count m = {rep.tensor_count_m}",
            f"tensor square order = {rep.tensor_order}",
            f"G^ab divides into the diagonal subgroup "
            f"{list(rep.delta_invariants.factors)}: "
            f"{str(rep.embedding_holds).lower()}",
        ]
        return {"query": {"group": rep.name},
                "result": group_result(rep.group,
                                       tensor_count_m=rep.tensor_count_m),
                "chain": chain}
    return {"query": {"group": rep.name},
            "result": invariants_result(rep.gab_invariants),
            "chain": [rep.note]}


def _cmd_bound(cfg: RunConfig) -> dict:
    which = cfg.args.which
    values = cfg.args.values
    if which == "thma":
        rep = bound_theorem_A(*values)
    elif which == "thmb":
        rep = bound_theorem_B(*values)
    else:
        rep = bound_pushout_pi3(*values)
    return {"query": {"bound": which, "orders": rep.exact_orders},
            "result": {"order": rep.bound}, "chain": list(rep.chain)}


def _cmd_exponent_check(cfg: RunConfig) -> dict:
    entry = _load_entry(cfg.args.group)
    g = _realize(entry, cfg)
    r = build_nu(g, cfg.budget)
    cfg.track(r.stats)
    rep = burnside_exponent_check(r)
    chain = [
        f"tensor square exponent: {rep.tensor_exponent}",
        f"small-exponent criterion applies: "
        f"{str(rep.applicable).lower()}",
    ]
    if rep.applicable:
        chain.append(f"group order {rep.group_order} is finite: consistent")
    return {"query": {"group": g.name},
            "result": {"order": rep.group_order, "abelian": g.is_abelian(),
                       "abelian_invariants": list(
                           g.abelianization().factors),
                       "exponent": rep.tensor_exponent},
            "chain": chain}


def _cmd_verify(cfg: RunConfig) -> int:
    args = cfg.args
    if args.file is not None:
        text = Path(args.file).read_text(encoding="utf-8")
        results = run_file_suite(text, cfg.budget)
    else:
        results = run_catalog_suite(
            budget=cfg.budget, fault=bool(args.fault_skip_eta_relators))
    ok = all(r.passed for r in results)
    if cfg.json_out:
        record = {"checks": [{"name": r.name, "passed": r.passed,
                              "detail": r.detail,
                              "elapsed_ms": r.elapsed_ms}
                             for r in results],
                  "passed": ok}
        sys.stdout.write(serialize_report(record))
    else:
        for r in results:
            print(r.line())
        print(f"{'all checks passed' if ok else 'CHECKS FAILED'} "
              f"({sum(r.passed for r in results)}/{len(results)})")
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


def dispatch(cfg: RunConfig) -> int:
    """Run one command; returns the process exit code."""
    if cfg.command == "verify":
        return _cmd_verify(cfg)
    t0 = time.monotonic()
    record = _HANDLERS[cfg.command](cfg)
    record.setdefault("query", {})["command"] = cfg.command
    record["stats"] = {
        "cosets_defined": sum(s.cosets_defined for s in cfg.stats),
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    if cfg.json_out:
        sys.stdout.write(serialize_report(record))
    else:
        sys.stdout.write(render_text(record))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(command=args.command, args=args,
                    budget=_budget_from(args),
                    json_out=bool(getattr(args, "json", False)))
    try:
        return dispatch(cfg)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NtlError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
