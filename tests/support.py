"""Helpers the tests share: catalog groups by name, and the commutator
read off a group's table one product at a time."""

from ntl.catalog import catalog_lookup, realize_entry


def realize_name(name: str):
    """The catalog group `name`, realized as every command realizes it."""
    return realize_entry(catalog_lookup(name))


def comm(g, x: int, y: int) -> int:
    """[x, y] = x^-1 y^-1 x y in the realized group g."""
    t, inv = g.table, g.inverse
    return int(t[t[inv[x], inv[y]], t[x, y]])
