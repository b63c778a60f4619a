"""Every name the package and its modules export resolves."""
import importlib
import pkgutil

import stc


def test_package_exports_resolve():
    missing = [name for name in stc.__all__ if not hasattr(stc, name)]
    assert missing == []


def test_module_exports_resolve():
    modules = [f"stc.{info.name}" for info in pkgutil.iter_modules(stc.__path__)]
    assert "stc.charpoly" in modules and "stc.worstcase" in modules
    for module in modules:
        mod = importlib.import_module(module)
        assert hasattr(mod, "__all__"), f"{module} declares no __all__"
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], f"{module}.__all__ names missing {missing}"


def test_core_surface_is_exported():
    for name in ("negative_root", "NegativeRoot", "BracketSignError", "rejection_probability"):
        assert name in stc.__all__
    assert "p_tilde" in importlib.import_module("stc.worstcase").__all__
