"""Every name the benchmark tracer wraps is still called by the solvers.

A wrapped name that stays importable but is never called records no span, so
its per-layer metric reads zero without any other test failing.
"""

from conebench import trace
from conebench.families import flat_image, narrow_kernel, planted_partition
from conebench.workloads import WORKLOADS

# The four small instances conebench/tests/test_trace.py traces.
INSTANCES = (
    ("image_flat", flat_image(8, 40, 1e-2, 0)[:1]),
    ("kernel_narrow", (narrow_kernel(4, 30, 0.05, 0.9, 0),)),
    ("oracle_flat", flat_image(8, 40, 1e-2, 0)[:1]),
    ("partition_degenerate", planted_partition(6, 40, 20, 0)),
)


def test_every_wrap_point_is_called(monkeypatch):
    calls = {}
    for module_name, attr, _ in trace.WRAP_POINTS:
        owner, last = trace._resolve(module_name, attr)
        key = (module_name, attr)
        calls[key] = 0

        def counted(*args, _fn=owner.__dict__[last], _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, last, counted)
    for name, inst in INSTANCES:
        WORKLOADS[name].solve(inst)
    assert len(calls) == len(trace.WRAP_POINTS)
    assert [key for key, count in calls.items() if count == 0] == []
