"""Deterministic report records shared by the CLI and the tests."""

from __future__ import annotations

import json

from .abelian import AbelianInvariants
from .groups import RealizedGroup


def serialize_report(record: dict) -> str:
    """Canonical machine-readable form: sorted keys, two-space indent.
    Identical records serialize to identical bytes."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def group_result(g: RealizedGroup, tensor_count_m: int | None = None) -> dict:
    """Result block for a realized group; the invariants are those of its
    abelianization, which is the group itself when it is abelian."""
    out = {
        "order": g.order,
        "abelian": g.is_abelian(),
        "abelian_invariants": list(g.abelianization().factors),
        "exponent": g.exponent(),
    }
    if tensor_count_m is not None:
        out["tensor_count_m"] = tensor_count_m
    return out


def invariants_result(inv: AbelianInvariants) -> dict:
    order = inv.order()
    exponent = inv.exponent()
    return {
        "order": order if order is not None else "infinite",
        "abelian": True,
        "abelian_invariants": list(inv.factors),
        "exponent": exponent if exponent is not None else "infinite",
    }


def render_text(record: dict) -> str:
    """Human-readable rendering of a command's report record: the result
    in one fixed key order, then the chain and the stats."""
    result, stats = record["result"], record["stats"]
    lines = [f"{key}: {_plain(result[key])}"
             for key in ("order", "abelian", "abelian_invariants",
                         "exponent", "tensor_count_m") if key in result]
    lines += [f"  {step}" for step in record.get("chain", ())]
    lines.append(f"stats: {stats['cosets_defined']} cosets defined, "
                 f"{stats['elapsed_ms']} ms")
    return "\n".join(lines) + "\n"


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)
