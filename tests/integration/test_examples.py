"""Smoke tests: every example runs end-to-end at reduced scale."""

import importlib
import sys

import pytest


@pytest.fixture(scope="module")
def examples_path():
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
    path = os.path.abspath(path)
    sys.path.insert(0, path)
    yield path
    sys.path.remove(path)


def _run(module_name, examples_path, *args, **kwargs):
    mod = importlib.import_module(module_name)
    mod.main(*args, **kwargs)


def test_quickstart(examples_path, capsys):
    _run("quickstart", examples_path, nx=20, nranks=4)
    out = capsys.readouterr().out
    assert "converged=True" in out


def test_torso_ecg(examples_path, capsys):
    _run("torso_ecg", examples_path, 500)
    out = capsys.readouterr().out
    assert "ILUT*" in out and "yes" in out


def test_machine_scaling(examples_path, capsys):
    _run("machine_scaling", examples_path, nx=16, procs=(2, 4))
    out = capsys.readouterr().out
    assert "cray-t3d" in out and "workstation-cluster" in out


def test_preconditioner_tour(examples_path, capsys):
    _run("preconditioner_tour", examples_path, nx=14)
    out = capsys.readouterr().out
    assert "ILUT(10,1e-4)" in out

def test_orderings(examples_path, capsys):
    _run("orderings", examples_path, nx=12)
    out = capsys.readouterr().out
    assert "two-phase MIS (parallel ILUT)" in out


def test_paper_figures(examples_path, capsys):
    _run("paper_figures", examples_path, nx=10)
    out = capsys.readouterr().out
    assert "Figure 1" in out and "Figure 3" in out
