import numpy as np
import pytest

from conebench import trace
from conebench.families import flat_image, narrow_kernel, planted_partition
from conebench.harness import attempt
from conebench.workloads import WORKLOADS


def _span(start, end, parent=-1, layer="x", name="f"):
    return [0, layer, name, start, end, parent]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 3.0, parent=0),
        _span(2.0, 4.0, parent=0),  # overlaps the previous child
        _span(9.0, 12.0, parent=0),  # overhangs the parent
        _span(1.5, 2.0, parent=1),
    ]
    own = trace.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(0.5)


def test_aggregate_sums_by_layer_and_name():
    spans = [_span(0.0, 4.0, layer="a", name="f"), _span(1.0, 2.0, parent=0, layer="b", name="g")]
    agg = trace.aggregate(spans)
    assert agg[("a", "f")] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert agg[("b", "g")]["self_s"] == 1.0


def _current():
    out = {}
    for module_name, attr, _ in trace.WRAP_POINTS:
        owner, last = trace._resolve(module_name, attr)
        out[(module_name, attr)] = owner.__dict__[last]
    return out


def test_traced_run_restores_every_wrapped_name():
    before = _current()
    tracer = trace.Tracer()
    tracer.install()
    during = _current()
    assert all(during[k] is not before[k] for k in before)
    tracer.uninstall()
    after = _current()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize(
    "name, inst, layers",
    [
        ("image_flat", flat_image(8, 40, 1e-2, 0)[:1], {"image", "firstorder", "linalg"}),
        ("kernel_narrow", (narrow_kernel(4, 30, 0.05, 0.9, 0),), {"kernel", "linalg"}),
        ("oracle_flat", flat_image(8, 40, 1e-2, 0)[:1], {"oracle", "linalg"}),
        ("partition_degenerate", planted_partition(6, 40, 20, 0), {"image", "kernel", "conditioning", "linalg"}),
    ],
)
def test_traced_attempt_records_layers_and_restores(name, inst, layers):
    before = _current()
    tracer = trace.Tracer()
    _, out, verdict, message = attempt(WORKLOADS[name], inst, tracer)
    assert verdict == "ok", message
    assert _current() == before
    assert layers | {"certify"} <= {span[trace.LAYER] for span in tracer.spans}
    assert all(span[trace.END] >= span[trace.START] for span in tracer.spans)


def test_attempt_restores_names_when_the_solver_raises():
    before = _current()
    tracer = trace.Tracer()
    bad = (np.zeros((3, 4)),)  # zero columns: the image solver rejects them
    _, out, verdict, _ = attempt(WORKLOADS["image_flat"], bad, tracer)
    assert out is None and verdict == "raised"
    assert _current() == before
