"""The package surface and what each entry point imports.

`import modecap`, `import modecap.cli` and the CSV forms of `compute` and
`sweep` need only the standard library, `errors` and `dofcore`; NumPy loads
when a JSON report, the mode table, `simulate` or `verify` first needs it.  The
numeric layers (`sampling`, `specfun`, `wavefield`) load when `simulate`,
`verify` or a lazily exported name first needs them, and no module imports
SciPy, which is a test-only oracle.  The import checks run in fresh
interpreters, because this process has long since imported everything.
Every integer argument of the numeric layers passes one check, and every
name a module imports is used in it.
"""
from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import modecap
from modecap import cli, dofcore, errors, sampling, specfun, wavefield

_HEAVY_LAYERS = ("modecap.sampling", "modecap.specfun", "modecap.wavefield")
_LAYERS = ("dofcore", "sampling", "specfun", "wavefield")

_COMPUTE = {"normalized": {"a": 1.0, "b": 0.5, "d": 1.0, "rho": 1.0}}
_SWEEP = {"sweep": {"a": [0.5, 2.0], "b": [0.25, 1.0], "d": [1.0], "rho": [3.0, 50.0]}}
_SIMULATE = {
    "normalized": {"a": 0.5, "b": 0.25, "d": 120.0, "rho": 100.0},
    "simulation": {"sources": 2, "freq_points": 17, "trials": 4, "seed": 3},
}


def _fresh(tmp_path: Path, statement: str, config: dict | None = None) -> dict:
    """Run `statement` in a new interpreter; return the exit code it leaves
    in `code` (if any), the numeric layers and SciPy modules it loaded, and
    whether it loaded NumPy."""
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
    script = "\n".join([
        "import json, sys",
        "code = None",
        statement.format(cfg=str(cfg), out=str(tmp_path / "report")),
        "heavy = sorted(m for m in sys.modules",
        f"               if m.split('.')[0] == 'scipy' or m in {_HEAVY_LAYERS!r})",
        "numpy = 'numpy' in sys.modules",
        "print(json.dumps({'code': code, 'heavy': heavy, 'numpy': numpy}))",
    ])
    src = str(Path(modecap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _main(*argv: str) -> str:
    """A statement running cli.main on `argv` plus --out; `{cfg}` in argv
    stands for the config path."""
    return f"from modecap import cli\ncode = cli.main({[*argv, '--out', '{out}']!r})"


# Each closed-form entry point, and whether it needs NumPy: only the JSON
# reports do, to write their row tables.
@pytest.mark.parametrize(("statement", "config", "numpy"), [
    ("import modecap", None, False),
    ("import modecap.cli", None, False),
    (_main("compute", "--config", "{cfg}"), _COMPUTE, True),
    (_main("compute", "--config", "{cfg}", "--format", "csv"), _COMPUTE, False),
    (_main("sweep", "--config", "{cfg}", "--format", "csv"), _SWEEP, False),
    (_main("sweep", "--config", "{cfg}", "--format", "json"), _SWEEP, True),
], ids=["import-modecap", "import-cli", "compute-json", "compute-csv",
        "sweep-csv", "sweep-json"])
def test_closed_form_paths_load_no_scipy(tmp_path: Path, statement: str,
                                         config: dict | None, numpy: bool) -> None:
    result = _fresh(tmp_path, statement, config)
    assert result["heavy"] == []
    assert result["numpy"] is numpy
    if config is not None:
        assert result["code"] == 0
        assert (tmp_path / "report").stat().st_size > 0


@pytest.mark.parametrize("statement", [
    _main("simulate", "--config", "{cfg}"),
    _main("verify"),
], ids=["simulate", "verify"])
def test_simulate_and_verify_load_their_layers_on_first_use(
        tmp_path: Path, statement: str) -> None:
    result = _fresh(tmp_path, statement, _SIMULATE)
    assert result["code"] == 0
    assert result["numpy"] is True
    assert sorted(result["heavy"]) == sorted(_HEAVY_LAYERS)


def test_wavefield_does_not_load_the_cli(tmp_path: Path) -> None:
    # simulate is a library call; the command line front end depends on it,
    # never the other way round.
    statement = ("import modecap.wavefield\n"
                 "code = sorted(m for m in sys.modules if m.startswith('modecap'))")
    result = _fresh(tmp_path, statement)
    assert "modecap.wavefield" in result["code"]
    assert "modecap.cli" not in result["code"]


def _defining_modules() -> dict[str, object]:
    owners: dict[str, object] = {"__version__": modecap}
    for name, value in vars(errors).items():
        if isinstance(value, type) and value.__module__ == errors.__name__:
            owners[name] = errors
    for layer in _LAYERS:
        module = importlib.import_module(f"modecap.{layer}")
        for name in module.__all__:
            assert name not in owners, f"{name} is exported by two modules"
            owners[name] = module
    return owners


def test_every_exported_name_is_the_defining_module_object() -> None:
    owners = _defining_modules()
    assert set(modecap.__all__) == set(owners)
    assert len(modecap.__all__) == len(set(modecap.__all__))
    for name in modecap.__all__:
        assert getattr(modecap, name) is getattr(owners[name], name), name
    assert set(modecap.__all__) <= set(dir(modecap))


def test_star_import_binds_every_exported_name() -> None:
    namespace: dict[str, object] = {}
    exec("from modecap import *", namespace)
    assert set(modecap.__all__) <= set(namespace)
    assert namespace["harmonic_matrix"] is specfun.harmonic_matrix


def test_unknown_name_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        modecap.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from modecap import no_such_name", {})


def test_lazy_names_follow_the_module_binding(monkeypatch) -> None:
    original = specfun.harmonic_matrix

    def replacement(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(specfun, "harmonic_matrix", replacement)
    assert modecap.harmonic_matrix is replacement
    monkeypatch.undo()
    assert modecap.harmonic_matrix is original
    # Nothing was cached in the package namespace.
    assert "harmonic_matrix" not in vars(modecap)


_SCENARIO = dofcore.NormalizedParams(a=1.0, b=0.5, d=1.0, rho=10.0).to_scenario()
_FREQS = np.linspace(0.5, 1.5, 5)
_SOURCES = [wavefield.PlaneWaveSource(theta=1.1, phi=0.4, amplitude=1.0)]
_RULE = specfun.make_quadrature(8)
_FIELD = wavefield.synthesize_field(_SOURCES, _RULE, 1.0, _FREQS, wave_speed_c=1.0)
_SNR = np.abs(wavefield.theoretical_modes(
    _SOURCES, 1.0, _FREQS, 4, wave_speed_c=1.0).coeffs) ** 2 * 100.0

# Each numeric entry point with one integer argument k (a degree, order,
# mode index or seed), called at k = 3.
_INTEGER_ARGUMENTS = {
    "make_quadrature": lambda k: specfun.make_quadrature(k),
    "harmonic_matrix": lambda k: specfun.harmonic_matrix(k, [0.3, 2.0], [0.1, 5.0]),
    "sph_bessel_j": lambda k: specfun.sph_bessel_j(k, [1e-4, 0.5, 7.0]),
    "sph_bessel_j_bound": lambda k: specfun.sph_bessel_j_bound(k, [0.0, 0.5, 7.0]),
    "legendre_p": lambda k: specfun.legendre_p(k, [-1.0, 0.2, 1.0]),
    "critical_frequency": lambda k: dofcore.critical_frequency(_SCENARIO, k),
    "theoretical_modes": lambda k: wavefield.theoretical_modes(
        _SOURCES, 1.0, _FREQS, k, wave_speed_c=1.0),
    "analyze_modes": lambda k: wavefield.analyze_modes(_FIELD, _RULE, k),
    "empirical_critical_frequency": lambda k: wavefield.empirical_critical_frequency(
        _SNR, _FREQS, 1.0, k),
    "legendre_support_check": lambda k: sampling.legendre_support_check(
        lambda x: np.ones_like(x), 1e-3, 0.3, k, 3e8),
    "NoiseModel": lambda k: wavefield.NoiseModel(sigma0_sq=1.0, seed=k),
}


def _same(x, y) -> bool:
    """x and y are equal values of the same type, arrays and dataclass
    fields compared element by element."""
    if type(x) is not type(y):
        return False
    if dataclasses.is_dataclass(x):
        return all(_same(getattr(x, f.name), getattr(y, f.name))
                   for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    return x == y


@pytest.mark.parametrize("call", _INTEGER_ARGUMENTS.values(),
                         ids=_INTEGER_ARGUMENTS.keys())
def test_integer_arguments_take_numpy_integers_and_reject_bool(call) -> None:
    assert _same(call(np.int64(3)), call(3))
    with pytest.raises(errors.DomainError, match="must be an integer"):
        call(True)
    with pytest.raises(errors.DomainError, match="must be an integer"):
        call(-1)


def _imported_names(tree: ast.Module) -> set[str]:
    """The names the import statements of `tree`, at any depth, bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_every_imported_name_is_used() -> None:
    # A name imported but never read is a leftover of deleted code.  The
    # package __init__ imports names to re-export them, so it is exempt.
    unused = {}
    for path in sorted(Path(modecap.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names = sorted(_imported_names(tree) - read)
        if names:
            unused[path.name] = names
    assert unused == {}


def test_cli_reaches_the_numeric_layers_only_through_wavefield() -> None:
    # The arithmetic lives in the library; the command line front end parses
    # configs, calls simulate or verify_invariants and writes reports.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    owner = {node: func.name for func in tree.body
             if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module or ''}.{a.name}" for a in node.names]
        else:
            continue
        found.update((owner.get(node), layer) for module in modules
                     for layer in module.split(".")
                     if layer in ("sampling", "specfun", "wavefield"))
    assert found == {("cmd_simulate", "wavefield"), ("cmd_verify", "wavefield")}


@pytest.mark.parametrize("module", [cli, dofcore, errors, sampling, specfun, wavefield])
def test_every_annotation_resolves(module) -> None:
    # Annotations are strings under `from __future__ import annotations`;
    # a name they use that the module binds only inside its functions, as
    # NumPy is in dofcore, would make get_type_hints raise NameError.
    defined = [obj for obj in vars(module).values()
               if (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == module.__name__]
    assert defined
    for obj in defined:
        typing.get_type_hints(obj)


def test_no_module_reads_the_environment() -> None:
    # Every setting comes from a config file or a flag, where it is checked
    # and documented; an environment variable would be a hidden one.
    names = {"environ", "environb", "getenv", "getenvb"}
    readers = {}
    for path in sorted(Path(modecap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and n.attr in names}
        found |= {a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) and n.module == "os"
                  for a in n.names if a.name in names}
        if found:
            readers[path.name] = sorted(found)
    assert readers == {}


def test_no_module_imports_scipy() -> None:
    # The runtime needs NumPy and the standard library only; SciPy is a
    # test-only oracle (the `test` extra).
    importers = {}
    for path in sorted(Path(modecap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                   for a in n.names}
        modules |= {n.module for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) and n.module}
        found = sorted(m for m in modules if m.split(".")[0] == "scipy")
        if found:
            importers[path.name] = found
    assert importers == {}
