"""The traced run leaves no wrapped function reachable unwrapped."""

import importlib
import inspect
import random
import statistics

import run
import spans
from spans import Tracer


def _reachable(module):
    """Module attributes, and the values of module-level dicts, lists and
    tuples (such as the CLI's handler table)."""
    for value in list(vars(module).values()):
        yield value
        if isinstance(value, dict):
            yield from value.values()
        elif isinstance(value, (list, tuple)):
            yield from value


def test_every_binding_of_every_wrapped_function_is_replaced():
    tracer = Tracer()
    tracer.install()
    try:
        originals = set(tracer.wrapped)
        wrappers = set(tracer.wrapped.values())
        for module in Tracer.engine_modules():
            leaks = [v for v in _reachable(module)
                     if inspect.isfunction(v) and v in originals]
            assert not leaks, (module.__name__, leaks)
        for layer in spans.LAYERS:
            module = importlib.import_module(f"ntl.{layer}")
            for name, value in vars(module).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == module.__name__
                        and f"{layer}.{name}" not in spans.UNWRAPPED):
                    assert value in wrappers, f"{module.__name__}.{name}"
        from ntl.coset import _Enumerator
        from ntl.groups import Homomorphism, RealizedGroup
        for owner, attr in ((RealizedGroup, "__init__"),
                            (Homomorphism, "__init__"), (_Enumerator, "run")):
            assert getattr(owner, attr) in wrappers
    finally:
        tracer.uninstall()
    assert not any(inspect.isfunction(v) and v in tracer.wrapped.values()
                   for m in Tracer.engine_modules() for v in _reachable(m))


def test_tracing_overhead_is_reported(capsys):
    """Traced minus untraced time of the same passes, alternated so that
    drift in machine speed falls on both sides."""
    run.prepare_engine()
    queries = [q for q in run.square_queries()
               if q.argv[2] in ("C2", "C3", "C4", "C5", "C6", "S3")]
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(3):
        plain.append(run.run_pass(queries, random.Random(0)))
        tracer.install()
        try:
            traced.append(run.run_pass(queries, random.Random(0), tracer))
        finally:
            tracer.uninstall()
    assert not any(p.failed for p in plain + traced)
    untraced_s = statistics.median(p.wall_s for p in plain)
    traced_s = statistics.median(p.wall_s for p in traced)
    with capsys.disabled():
        print(f"\ntracing overhead on {len(queries)} square_queries queries: "
              f"{traced_s - untraced_s:+.3f} s per pass ({traced_s:.3f} s "
              f"traced, {untraced_s:.3f} s untraced, medians of 3)")
