"""The package's public surface: exports, docstrings, version."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = ("repro.core", "repro.baselines", "repro.phy", "repro.link",
               "repro.lighting", "repro.sim", "repro.des", "repro.net",
               "repro.resilience", "repro.obs", "repro.serve",
               "repro.scenarios", "repro.experiments")


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_symbols_present(self):
        # The README quickstart must keep working.
        assert callable(repro.AmppmScheme)
        assert callable(repro.SystemConfig)
        assert callable(repro.standard_schemes)


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", SUBPACKAGES[:-1])
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_des_surface_is_the_kernel_and_the_journal(self):
        des = importlib.import_module("repro.des")
        assert sorted(des.__all__) == ["EventJournal", "EventScheduler",
                                       "JournalEntry", "write_journal_jsonl"]

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_classes_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


class TestPublicMethodDocstrings:
    @pytest.mark.parametrize("cls_path", [
        "repro.core.Adapter",
        "repro.core.AmppmDesign",
        "repro.core.AmppmDesigner",
        "repro.core.SuperSymbol",
        "repro.core.SymbolPattern",
        "repro.link.Receiver",
        "repro.link.Transmitter",
        "repro.link.StopAndWaitMac",
        "repro.lighting.SmartLightingController",
        "repro.net.FeedbackPlane",
        "repro.net.LuminaireIndex",
        "repro.net.MulticellSimulation",
        "repro.des.EventScheduler",
        "repro.des.EventJournal",
        "repro.link.LinkSupervisor",
        "repro.link.BackoffPolicy",
        "repro.resilience.ChaosScenario",
        "repro.resilience.FaultSchedule",
        "repro.resilience.ResilienceReport",
    ])
    def test_every_public_method_documented(self, cls_path):
        module_name, cls_name = cls_path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), cls_name)
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member) or isinstance(member, property):
                doc = (member.fget.__doc__ if isinstance(member, property)
                       else member.__doc__)
                assert doc, f"{cls_path}.{name} lacks a docstring"
