"""Regenerate perfbench/expected/square_queries.json.

    python3 perfbench/make_expected.py

Runs every `square_queries` query once and records its `result` block.  A
record is written only after it agrees with a route independent of the one
the query takes:

- `nu G`: the order is |G|^2 times the order of the tensor square built by
  the biadditivity presentation (`tensor_direct`), and `tensor_count_m` is
  the number of distinct symbols a(x)b in that group.  The abelianization
  is G^ab x G^ab, from sympy's Smith form of G's presentation: nu(G) maps
  onto G x G with kernel [G, G^phi], which lies in the derived subgroup.
- `thmc --group G`: the order and commutativity are the catalog's known
  facts, the invariants come from sympy's Smith form of the presentation's
  exponent matrix, the exponent from element orders in the multiplication
  table, and `tensor_count_m` again from `tensor_direct`.

The script exits nonzero, writing nothing, if any record disagrees.
"""

from __future__ import annotations

import json
import sys
from math import lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _direct(g):
    from ntl.tensor import conjugation_pair, tensor_direct
    t = tensor_direct(conjugation_pair(g))
    return t.order, len(set(t.generator_images))


def _smith_invariants(presentation) -> list[int]:
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    n = presentation.ngens
    rows = [w.exponent_row(n) for w in presentation.relators]
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    diag += [0] * (n - len(diag))
    return sorted(d for d in diag if d != 1)


def _exponent(g) -> int:
    exp = 1
    for x in range(g.order):
        k, y = 1, x
        while y != 0:
            y = int(g.table[y, x])
            k += 1
        exp = lcm(exp, k)
    return exp


def oracle_mismatches(kind: str, entry, result: dict) -> list[str]:
    from ntl.catalog import realize_entry
    g = realize_entry(entry)
    bad = []

    def want(field, value):
        if result.get(field) != value:
            bad.append(f"{field}: got {result.get(field)!r}, want {value!r}")

    if kind == "nu":
        t_order, m = _direct(g)
        want("order", t_order * g.order ** 2)
        want("abelian_invariants",
             sorted(_smith_invariants(entry.presentation) * 2))
        want("tensor_count_m", m)
    else:  # thmc
        _, m = _direct(g)
        want("order", entry.known_facts["order"])
        want("abelian", entry.known_facts["abelian"])
        want("abelian_invariants", _smith_invariants(entry.presentation))
        want("exponent", _exponent(g))
        want("tensor_count_m", m)
    return bad


def main() -> int:
    from ntl.catalog import catalog_lookup
    run.prepare_engine()
    records, failures = {}, []
    for argv in run.square_argvs():
        rc, out, _ = run.call_cli(argv)
        key = run.query_key(argv)
        if rc != 0:
            failures.append(f"{key}: exit {rc}")
            continue
        result = json.loads(out)["result"]
        bad = oracle_mismatches(argv[0], catalog_lookup(argv[2]), result)
        failures += [f"{key}: {b}" for b in bad]
        records[key] = result
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    run.EXPECTED.parent.mkdir(exist_ok=True)
    run.EXPECTED.write_text(json.dumps(records, sort_keys=True, indent=1)
                            + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
