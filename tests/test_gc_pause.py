"""The functions that build a log pause the cyclic garbage collector while they run.

A pause is safe only because what they build holds no reference cycle, which
``test_paused_functions_leave_no_reference_cycle`` checks with the collector off.
"""

import gc
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
    # a comment takes the document out of the canonical layout, to the expat reader
    "parse_xes-expat": (lambda i: parse_xes(i["xes"].replace(HEADER, HEADER + "<!-- -->")),
                        xesio, "_Reader"),
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
        if name == "parse_xes-expat":
            with pytest.raises(XesFormatError):
                FAILURES["parse_xes"][0](inputs)
        assert gc.collect() == 0
    finally:
        gc.enable()
