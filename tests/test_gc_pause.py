"""The functions that build a log pause the cyclic garbage collector while they run,
and hand what they built to its oldest generation when they return.

A pause is safe only because what they build holds no reference cycle, which
``test_paused_functions_leave_no_reference_cycle`` checks with the collector off.
With the collector on and nothing frozen, a builder that returns leaves its
records in the oldest generation, where no young or middle pass walks them, and
the caller's young cyclic garbage is collected on entry rather than promoted
with them. Objects another caller froze stay frozen. With the collector off, or
when the builder raises, nothing is promoted.
"""

import gc
import weakref
from contextlib import nullcontext
from dataclasses import replace
from importlib import resources

import pytest

from careflow import analytics, csvio, simulate as simulate_module, xesio
from careflow.analytics import dotted_chart
from careflow.covas import covas_model
from careflow.csvio import parse_csv, roundtrip_mapping, write_csv
from careflow.errors import ConfigError, CsvFormatError, XesFormatError
from careflow.simulate import DelaySpec, inject_noise, parse_config, simulate
from careflow.xesio import parse_xes, write_xes

HEADER = '<log xes.version="1.0">'


@pytest.fixture(scope="module")
def inputs():
    text = (resources.files("careflow") / "data" / "covas_desk.config").read_text(encoding="utf-8")
    config, noise = parse_config(text)
    config = replace(config, case_count=20)
    net = covas_model()
    log = simulate(config, net)
    return {"config": config, "noise": noise, "net": net, "log": log,
            "xes": write_xes(log), "csv": write_csv(log), "types": roundtrip_mapping(log)}


# name -> (a call of the function, and the module and name of a helper it calls while it runs)
PAUSED = {
    "parse_xes": (lambda i: parse_xes(i["xes"]), xesio, "_read_canonical"),
    # a comment takes the document out of the canonical layout, to the fallback reader
    "parse_xes-fallback": (lambda i: parse_xes(i["xes"].replace(HEADER, HEADER + "<!-- -->")),
                           xesio, "_collect"),
    "parse_csv": (lambda i: parse_csv(i["csv"], i["types"]), csvio, "_lines"),
    "simulate": (lambda i: simulate(i["config"], i["net"]), simulate_module, "_case_plan"),
    "inject_noise": (lambda i: inject_noise(i["log"], i["noise"]), simulate_module, "Stream"),
    "dotted_chart": (lambda i: dotted_chart(i["log"]), analytics, "_color_value"),
}

# a config that leaves every activity after Start without a delay
ONLY_START_DELAY = {"Start": DelaySpec("fixed", (0.0,))}
# name -> (a call of the function that raises, the error)
FAILURES = {
    "parse_xes": (lambda i: parse_xes(i["xes"].replace(HEADER, HEADER + "<x:y/>")),
                  XesFormatError),
    "parse_csv": (lambda i: parse_csv("case_id,activity,timestamp\nc1,A,never\n"),
                  CsvFormatError),
    "simulate": (lambda i: simulate(replace(i["config"], delays=ONLY_START_DELAY), i["net"]),
                 ConfigError),
    "dotted_chart": (lambda i: dotted_chart(i["log"], sort="sideways"), ValueError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("name", PAUSED)
def test_paused_functions_pause_the_collector_and_restore_it(name, enabled, inputs, monkeypatch):
    build, module, helper = PAUSED[name]
    original = getattr(module, helper)
    seen = []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, helper, spy)
    if not enabled:
        gc.disable()
    try:
        build(inputs)
        assert seen and not any(seen)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("name", FAILURES)
def test_failing_paused_functions_restore_the_collector(name, enabled, inputs):
    build, error = FAILURES[name]
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(error):
            build(inputs)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("name", PAUSED)
def test_paused_functions_leave_no_reference_cycle(name, inputs):
    # a cycle would outlive the pause, and the records it holds, until a later collection
    build = PAUSED[name][0]
    gc.collect()
    gc.disable()
    try:
        build(inputs)
        if name == "parse_xes-fallback":
            with pytest.raises(XesFormatError):
                FAILURES["parse_xes"][0](inputs)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", PAUSED)
def test_paused_functions_promote_what_they_build_to_the_oldest_generation(name, inputs):
    if gc.get_freeze_count():
        pytest.skip("objects are frozen at start (CPython 3.12.1), so nothing is promoted")
    built = PAUSED[name][0](inputs)
    oldest = {id(obj) for obj in gc.get_objects(generation=2)}
    records = built.rows if name == "dotted_chart" else built.traces
    assert records and all(id(record) in oldest for record in records)


class _Cycle:
    def __init__(self):
        self.me = self


def test_the_callers_young_cycles_are_collected_not_promoted(inputs):
    # promoted with the records, each cycle would wait for a full pass
    one_case = write_xes(replace(inputs["log"], traces=inputs["log"].traces[:1]))
    finalizers = []
    try:
        for _ in range(2000):
            finalizers.append(weakref.finalize(_Cycle(), lambda: None))
            parse_xes(one_case)
        assert sum(f.alive for f in finalizers) < gc.get_threshold()[0]
    finally:
        gc.collect()


@pytest.mark.parametrize("name", PAUSED)
def test_objects_a_caller_froze_stay_frozen(name, inputs):
    frozen_at_start = gc.get_freeze_count()  # 375 tuples on CPython 3.12.1
    if not frozen_at_start:
        gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen
        PAUSED[name][0](inputs)
        assert gc.get_freeze_count() == frozen
    finally:
        if not frozen_at_start:
            gc.unfreeze()


def _spy_on_collect_and_freeze(monkeypatch):
    calls = []

    def spy(name):
        original = getattr(gc, name)

        def call(*args):
            calls.append((name, args))
            return original(*args)
        return call

    for name in ("collect", "freeze", "unfreeze"):
        monkeypatch.setattr(gc, name, spy(name))
    return calls


# name -> (a call of a paused function, the error it raises or None)
CALLS = {**{name: (build, None) for name, (build, _, _) in PAUSED.items()},
         **{f"{name}-raising": failure for name, failure in FAILURES.items()}}


@pytest.mark.parametrize("name", CALLS)
def test_nothing_is_collected_or_promoted_with_the_collector_off(name, inputs, monkeypatch):
    build, error = CALLS[name]
    calls = _spy_on_collect_and_freeze(monkeypatch)
    gc.disable()
    try:
        with pytest.raises(error) if error else nullcontext():
            build(inputs)
        assert calls == []
    finally:
        gc.enable()


@pytest.mark.parametrize("name", FAILURES)
def test_nothing_is_promoted_when_a_paused_function_raises(name, inputs, monkeypatch):
    build, error = FAILURES[name]
    calls = _spy_on_collect_and_freeze(monkeypatch)
    with pytest.raises(error):
        build(inputs)
    assert calls == [("collect", (1,))]  # the entry pass alone
