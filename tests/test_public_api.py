"""Every name the package and its modules export resolves."""
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np

import stc
import stc.rejection
import stc.worstcase


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
    assert "p_max" in importlib.import_module("stc.worstcase").__all__


def test_worst_case_kernel_calls_go_through_the_module_seam(monkeypatch):
    # tracers wrap stc.worstcase._tails_for_gamma_rows from outside the
    # package: every tail evaluation of a p_max must pass through that name,
    # with a 2-d row batch first and the quadrature settings third
    seam, quadrature = stc.worstcase._tails_for_gamma_rows, stc.rejection._tail_quadrature
    seen, evaluations = [], []

    def record(*args, **kwargs):
        seen.append(args)
        return seam(*args, **kwargs)

    def count(*args, **kwargs):
        evaluations.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(stc.worstcase, "_tails_for_gamma_rows", record)
    monkeypatch.setattr(stc.rejection, "_tail_quadrature", count)
    res = stc.worstcase.p_max(6, 2.5, stc.HeterogeneitySpec(m=6, k=2, rho=1.0))
    assert res.diagnostics.complete
    assert len(seen) == len(evaluations) > 1
    for args in seen:
        assert np.ndim(args[0]) == 2
        assert isinstance(args[2], stc.QuadratureSettings)


def test_cli_calls_go_through_the_module_seams(monkeypatch, tmp_path, capsys):
    # tracers also wrap these stc.cli names: each panel command must call its
    # reader, extractor and inference entry through them, once each
    import stc.cli

    path = tmp_path / "panel.csv"
    path.write_text("cluster,time,outcome\n"
                    "a,1,0\na,2,1\nb,1,0\nb,2,2\nc,1,0\nc,2,3\nt,1,0\nt,2,5\n")
    calls = []

    def counted(name):
        original = getattr(stc.cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("read_panel_csv", "extract", "run_test", "rho_frontier"):
        monkeypatch.setattr(stc.cli, name, counted(name))
    data = ["--data", str(path), "--design", "did", "--treated", "t",
            "--post-start", "2", "--output", "json"]
    assert stc.cli.main(["test", *data, "--rho", "1"]) == 0
    assert calls == ["read_panel_csv", "extract", "run_test"]
    calls.clear()
    assert stc.cli.main(["rho-frontier", *data]) == 0
    assert calls == ["read_panel_csv", "extract", "rho_frontier"]
    assert capsys.readouterr().err == ""


def test_inversion_p_max_calls_go_through_the_module_seams(monkeypatch):
    # tracers count a critical value's p_max calls on stc.critical_values.p_max
    # and a frontier's on stc.inference.p_max
    import stc.critical_values
    import stc.inference

    def counted(module, calls):
        original = module.p_max

        def wrapper(m, c, spec, stop_above=None):
            calls.append((c, stop_above))
            return original(m, c, spec, stop_above=stop_above)
        monkeypatch.setattr(module, "p_max", wrapper)

    cv_calls, frontier_calls = [], []
    counted(stc.critical_values, cv_calls)
    counted(stc.inference, frontier_calls)
    res = stc.critical_value(5, 0.05, stc.HeterogeneitySpec(m=5, k=2, rho=1.0))
    # the lowest threshold, the certificate at the upper end, the check at
    # the lower end (iterations), and the final complete call at the cv
    assert res.method == "Optimized" and res.iterations == 1
    assert len(cv_calls) == 3 + res.iterations == sum(res.p_max_calls)
    assert cv_calls[-1] == (res.cv, None)
    assert all(stop == 0.05 for _, stop in cv_calls[:-1])
    assert frontier_calls == []

    cv_calls.clear()
    est = stc.ClusterEstimates(np.array([0.1, -0.2, 0.15, -0.05]), 2.4)
    frontier = stc.rho_frontier(est, 0.05)
    assert cv_calls == [] and len(frontier_calls) >= 2 * len(frontier.bounds)
    assert all(stop == 0.05 for _, stop in frontier_calls)


def test_import_loads_neither_scipy_nor_the_process_pool():
    # every stc invocation pays for what `import stc` loads, and
    # scipy.special was most of it; the pools load only when they run
    code = ("import sys, stc, stc.cli; "
            "stc.critical_value(10, 0.05, stc.HeterogeneitySpec(10, 1, 1.0)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('concurrent.futures')))")
    src = str(pathlib.Path(stc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
