"""The package import and the `prodretrieve` command's BLAS thread policy."""
import json
import os
import subprocess
import sys

import pytest

import prodretrieve
from prodretrieve import __main__ as entry
from prodretrieve import blas, cli

SRC = os.path.dirname(os.path.dirname(prodretrieve.__file__))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def python(script, **env_vars):
    """Run `script` in a fresh interpreter with none of BLAS_VARS set but
    `env_vars`; return its last stdout line as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_numpy_and_keeps_environment():
    out = python(
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import prodretrieve\n"
        "report = {'numpy': 'numpy' in sys.modules, 'env': dict(os.environ) == before,\n"
        "          'dir': sorted(set(prodretrieve.__all__) - set(dir(prodretrieve)))}\n"
        "report['resolved'] = sorted(n for n in prodretrieve.__all__\n"
        "                            if getattr(prodretrieve, n) is not None)\n"
        "print(json.dumps(report))\n"
    )
    assert out == {"numpy": False, "env": True, "dir": [],
                   "resolved": sorted(prodretrieve.__all__)}


def test_every_export_is_its_submodule_object():
    from prodretrieve import embed_store, ensemble, evalbench, pseudolabel, rerank, search

    modules = (embed_store, ensemble, evalbench, pseudolabel, rerank, search)
    for name in prodretrieve.__all__:
        assert any(getattr(m, name, None) is getattr(prodretrieve, name) for m in modules)
    with pytest.raises(AttributeError):
        prodretrieve.no_such_name


# the command's BLAS thread counts, printed at exit (argparse's --help exit included)
COMMAND_COUNTS = (
    "import atexit, json, sys\n"
    "def report():\n"
    "    from prodretrieve import blas\n"
    "    print(json.dumps([get() for get, _ in blas.controls()]))\n"
    "atexit.register(report)\n"
    "sys.argv = ['prodretrieve', 'search', '--help']\n"
    "from prodretrieve.__main__ import main\n"
    "main()\n"
)

needs_control = pytest.mark.skipif(not blas.controls(), reason="no BLAS thread control found")


@needs_control
def test_command_starts_blas_on_one_thread():
    counts = python(COMMAND_COUNTS)
    assert counts and set(counts) == {1}


@needs_control
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its count at the cores")
def test_command_keeps_the_users_count():
    counts = python(COMMAND_COUNTS, OPENBLAS_NUM_THREADS="2")
    assert counts and set(counts) == {2}


@pytest.mark.parametrize("preset", [None, *BLAS_VARS])
def test_command_sets_the_count_only_when_no_variable_is(monkeypatch, preset):
    for name in BLAS_VARS:
        monkeypatch.setenv(name, "")  # so that the one main sets is undone too
        monkeypatch.delenv(name)
    if preset:
        monkeypatch.setenv(preset, "3")
    seen = {}
    monkeypatch.setattr(cli, "run", lambda: seen.update(os.environ) or 3)
    with pytest.raises(SystemExit) as exc:
        entry.main()
    assert exc.value.code == 3  # the command exits with run's code
    expected = {preset: "3"} if preset else {"OPENBLAS_NUM_THREADS": "1"}
    assert {k: seen[k] for k in BLAS_VARS if k in seen} == expected
