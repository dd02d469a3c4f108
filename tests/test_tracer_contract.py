"""The benchmark's tracer contract, guarded where tier-1 can see it.

``benchmarks/e2e/tracer.py`` (outside tier-1, outside ``src/``) times each
layer by replacing ``vars(owner)[attr]`` on the classes it names, so a
method that a refactor turns into an *inherited* one kills every
``--trace 1`` run with a ``KeyError`` — silently, as far as this suite is
concerned.  These tests pin what the tracer needs of ``src/``.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.fastcore.engine import FastEngine
from repro.fastcore.explorer import FastTransitionSystem
from repro.fastcore.packed import PackedCodec
from repro.mp.diners_mp import DinersMpProcess, build_diners
from repro.mp.engine import MpEngine
from repro.sim import from_spec
from repro.sim.engine import Engine

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracer.py"


@pytest.mark.parametrize(
    "owner, attr",
    [
        (Engine, "step"),
        (FastEngine, "step"),
        (MpEngine, "step"),
        (PackedCodec, "key"),
        (FastTransitionSystem, "successors_packed"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_traced_methods_live_in_their_own_class_dict(owner, attr):
    assert callable(vars(owner)[attr])


def test_a_packed_step_and_an_object_step_are_patched_apart():
    # One function, two class dicts: patching FastEngine.step must not wrap
    # Engine.step (one call would be timed twice, under both names), and the
    # step a FastEngine runs must be the one its own class dict holds.
    assert vars(FastEngine)["step"] is vars(Engine)["step"]
    assert FastEngine.run is Engine.run  # ... which looks ``self.step`` up


def test_every_mp_step_and_every_diner_call_goes_through_the_class_dict(
    monkeypatch,
):
    # The tracer times mp_crash by wrapping these three class-dict entries:
    # a run loop that fused the step would leave the step wrapper counting
    # nothing, and every tick and delivery must reach the diner through them.
    calls = {"step": 0, "on_tick": 0, "on_message": 0}

    def counting(owner, attr):
        fn = vars(owner)[attr]

        def counted(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    counting(MpEngine, "step")
    counting(DinersMpProcess, "on_tick")
    counting(DinersMpProcess, "on_message")
    topology = from_spec("ring:8")
    engine = MpEngine(
        topology, build_diners(topology, eat_ticks=2, repair=True), seed=3
    )
    assert engine.run(500) == 500
    assert calls["step"] == 500
    assert engine.ticks + engine.delivered == 500
    assert calls["on_tick"] == engine.ticks > 0
    assert calls["on_message"] == engine.delivered > 0


@pytest.mark.skipif(not TRACER.exists(), reason="benchmark harness not in this checkout")
def test_every_class_the_tracer_patches_owns_the_attribute():
    spec = importlib.util.spec_from_file_location("_e2e_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, owner, attr, _req_of in tracer.targets():
        if isinstance(owner, type):
            assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is inherited"
        else:
            assert callable(getattr(owner, attr)), name
