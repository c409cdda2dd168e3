"""Deterministic report records shared by the CLI and the tests."""

from __future__ import annotations

import json

from .abelian import AbelianInvariants
from .groups import RealizedGroup, abelian_structure


def serialize_report(record: dict) -> str:
    """Canonical machine-readable form: sorted keys, two-space indent.
    Identical records serialize to identical bytes."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def group_result(g: RealizedGroup, tensor_count_m: int | None = None) -> dict:
    """Result block for a realized group; invariants describe the
    abelianization when the group is not abelian."""
    abelian = g.is_abelian()
    inv = abelian_structure(g) if abelian else g.abelianization()
    out = {
        "order": g.order,
        "abelian": abelian,
        "abelian_invariants": list(inv.factors),
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
    """Human-readable rendering of a report record."""
    lines: list[str] = []
    result = record.get("result")
    if result:
        for key in ("order", "abelian", "abelian_invariants", "exponent",
                    "tensor_count_m"):
            if key in result:
                lines.append(f"{key}: {_plain(result[key])}")
        for key in sorted(result):
            if key not in ("order", "abelian", "abelian_invariants",
                           "exponent", "tensor_count_m"):
                lines.append(f"{key}: {_plain(result[key])}")
    for step in record.get("chain", ()):
        lines.append(f"  {step}")
    stats = record.get("stats")
    if stats:
        lines.append(f"stats: {stats['cosets_defined']} cosets defined, "
                     f"{stats['elapsed_ms']} ms")
    return "\n".join(lines) + "\n"


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)
