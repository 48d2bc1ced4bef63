"""Every function the benchmark traces by name exists and is callable.

``perfbench/spans.py`` looks its targets up with ``getattr``; a renamed or
deleted target would only surface when the benchmark runs.
"""
import importlib

import pytest


@pytest.fixture
def spans(import_perfbench):
    return import_perfbench("spans")


def test_traced_functions_exist(spans):
    for module, name, _ in spans.TRACED:
        target = getattr(importlib.import_module(f"sqgbounds.{module}"), name,
                         None)
        assert callable(target), f"sqgbounds.{module}.{name}"


def test_verify_families_exist(spans):
    inequalities = importlib.import_module("sqgbounds.inequalities")
    assert spans.FAMILIES
    for family in spans.FAMILIES:
        assert callable(getattr(inequalities, f"verify_{family}", None)), family
