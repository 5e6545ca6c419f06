"""The package's lazy exports: every name in ``qbernstein.__all__`` reads as
the defining module's own object, through attribute access, ``import *`` and
``dir``, and importing the package loads no module until a name is read."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qbernstein

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name", qbernstein.__all__)
def test_each_name_is_the_defining_modules_own_object(name):
    value = getattr(qbernstein, name)
    module = value.__module__
    assert module.startswith("qbernstein.")
    assert getattr(sys.modules[module], name) is value


def test_import_star_binds_every_name():
    namespace = {}
    exec("from qbernstein import *", namespace)
    for name in qbernstein.__all__:
        assert namespace[name] is getattr(qbernstein, name), name


def test_dir_lists_every_name():
    listed = dir(qbernstein)
    assert [name for name in qbernstein.__all__ if name not in listed] == []
    assert len(set(qbernstein.__all__)) == len(qbernstein.__all__)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        qbernstein.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from qbernstein import no_such_name", {})


def test_a_name_loads_only_its_own_module():
    """In a fresh interpreter, importing the package loads no submodule, and
    reading ``prob_qbernstein`` loads ``families`` and what it imports, but
    neither ``padic`` nor ``audit``."""
    check = (
        "import sys\n"
        "import qbernstein\n"
        "print(sorted(m for m in sys.modules if m.startswith('qbernstein.')))\n"
        "qbernstein.prob_qbernstein\n"
        "print(sorted(m for m in sys.modules if m.startswith('qbernstein.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", check],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert before == "[]"
    assert after == str(sorted(
        f"qbernstein.{m}" for m in ("distributions", "families", "qcalc", "rings", "series")
    ))


def test_no_closure_holds_an_exported_function():
    """No closure reachable from a package module's namespace or from an
    audit registry entry holds a function named in ``__all__``, so a name
    replaced in every namespace that holds it (as a tracer wraps a function)
    is replaced for every caller."""
    from qbernstein import audit, cli  # noqa: F401 (cli: to scan its closures too)

    todo = [f for case in audit.REGISTRY for f in (case.draw, case.evaluate)]
    todo += [value for name, module in list(sys.modules.items())
             if name.split(".")[0] == "qbernstein" for value in vars(module).values()]
    seen = set()
    while todo:
        held = todo.pop()
        for cell in getattr(held, "__closure__", None) or ():
            value = cell.cell_contents
            assert not (isinstance(value, types.FunctionType)
                        and value.__name__ in qbernstein.__all__), (held, value)
            if id(value) not in seen:
                seen.add(id(value))
                todo.append(value)
