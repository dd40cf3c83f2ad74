"""Self-time arithmetic and wrapper installation of the span tracer, and
the clock-only wrapper of untraced runs."""

import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from tracing import Span, Target, Tracer, covered, self_times  # noqa: E402
from workloads import unit_clock  # noqa: E402


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("a.x", 1.5, 2.0, 1, None),
        Span("a.y", 3.0, 5.0, 1, None),  # runs past its parent: clipped
        Span("b", 6.0, 9.0, 0, None),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 3.0, 3.0 - 0.5 - 1.0, 0.5, 2.0, 3.0]


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3)], 1.5, 2.5) == 1
    assert covered([], 0, 1) == 0


def _modules():
    lib = types.ModuleType("fake_lib")

    def inner(x):
        return x + 1

    def outer(x):
        return lib.inner(x) * 2

    class Store:
        @classmethod
        def build(cls, x):
            return cls, x

    lib.inner, lib.outer, lib.Store = inner, outer, Store
    user = types.ModuleType("fake_user")
    user.outer = outer  # imported by name, like ``from .lib import outer``
    sys.modules.update(fake_lib=lib, fake_user=user)
    return lib, user


def test_wraps_every_lookup_site_and_restores():
    lib, user = _modules()
    raw_inner, raw_outer, raw_build = lib.inner, lib.outer, lib.Store.__dict__["build"]
    tracer = Tracer()
    tracer.install([
        Target("fake_lib", "inner", "inner", info=lambda x: x),
        Target("fake_lib", "outer", "outer"),
        Target("fake_user", "outer", "outer"),
        Target("fake_lib:Store", "build", "build"),
        Target("fake_lib", "deleted_later", "gone"),
        Target("no_such_module", "f", "gone_module"),
    ])
    assert user.outer(1) == 4
    assert lib.Store.build(7) == (lib.Store, 7)
    tracer.uninstall()
    assert (lib.inner, lib.outer, lib.Store.__dict__["build"]) == \
        (raw_inner, raw_outer, raw_build)
    assert user.outer is raw_outer
    spans = tracer.finish()
    assert [(s.name, s.parent, s.info) for s in spans] == \
        [("outer", -1, None), ("inner", 0, 1), ("build", -1, None)]
    assert all(s.end >= s.start for s in spans)
    assert tracer.absent == {"gone", "gone_module"}


def test_info_hook_that_no_longer_fits_the_signature():
    lib, _ = _modules()
    tracer = Tracer()
    tracer.install([Target("fake_lib", "inner", "inner", info=lambda a, b: a)])
    assert lib.inner(1) == 2
    tracer.uninstall()
    (span,) = tracer.finish()
    assert span.info is None


def test_info_hook_time_is_hidden():
    lib, _ = _modules()
    tracer = Tracer()

    def slow_info(x):
        sum(range(200_000))

    tracer.install([Target("fake_lib", "inner", "inner", info=slow_info)])
    with tracer.span("outside"):
        lib.inner(1)
    tracer.uninstall()
    outside, inner = tracer.finish()
    assert inner.parent == 0
    # the hook ran inside "outside" but its time is not counted
    assert (outside.end - outside.start) - (inner.end - inner.start) < 1e-3


def test_unit_clock_times_each_unit_and_restores():
    mod = types.SimpleNamespace(first=lambda x: x, last=lambda x: x + 1)
    originals = (mod.first, mod.last)

    def call():
        for i in range(3):
            mod.last(mod.first(i))

    with unit_clock(mod, "first", "last") as samples:
        call()
    assert len(samples) == 3 and all(ms >= 0 for ms in samples)
    assert (mod.first, mod.last) == originals
    with unit_clock(mod, "last", "last") as samples:
        call()
    assert len(samples) == 3


def test_unit_clock_with_a_missing_function_stays_empty():
    mod = types.SimpleNamespace(first=lambda x: x)
    with unit_clock(mod, "first", "gone") as samples:
        mod.first(1)
    assert samples == [] and not hasattr(mod, "gone")
