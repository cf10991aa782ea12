"""The package's import surface, its command-line entry point and the README's examples.

Each start-up check runs in a fresh interpreter, with ``OPENBLAS_NUM_THREADS``
removed from its environment unless the test sets it.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gap_gauge

SRC = Path(gap_gauge.__file__).resolve().parent.parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: ``gap_gauge.__all__``: every public name, in order.
PUBLIC = [
    "__version__",
    "FullJoint", "SliceParams", "ReducedModel", "SliceMarginals", "GapReport",
    "reduce", "expand", "consistent_marginals", "compute_gaps",
    "StructureParams", "BoundReport", "IndependenceDiagnostics",
    "structure_params", "classifier_structure_params", "bound_report",
    "bound_report_from_params", "independence_diagnostics",
    "SamplerConfig", "Histogram", "SimulationResult", "SweepPoint",
    "derive_trial_stream", "derive_point_seed", "sample_unconstrained",
    "sample_constrained", "percentile", "config_bounds", "run_monte_carlo", "sweep",
    "RecordDataset", "EstimateReport", "BootstrapResult", "parse_records",
    "read_records_csv", "sample_dataset", "filter_ystar", "fit_joint",
    "estimate", "bootstrap", "estimate_with_bootstrap",
    "GapGaugeError", "ValidationError", "ZeroMassCondition", "InconsistentMarginals",
    "MissingCell", "MissingColumn", "MalformedRow", "MixedSchema", "EmptyInput",
    "EmptySample", "RejectionBudgetExhausted", "AllReplicatesDegenerate",
]


def python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` importing this checkout's package."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [environ.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args], env={**environ, **env},
        capture_output=True, text=True, timeout=60,
    )


def child(code: str, **env: str) -> str:
    """Standard output of ``python -c code``, which must succeed."""
    done = python("-c", code, **env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_entry_point(argv: list[str]) -> str:
    """Output of ``gap_gauge.__main__.main(argv)`` in a child, then its exit code and
    whether it loaded ``gap_gauge.empirical``."""
    return child(
        "import sys\n"
        "from gap_gauge.__main__ import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'gap_gauge.empirical' in sys.modules)\n"
    )


class TestImport:
    def test_loads_no_numpy_and_leaves_the_environment(self):
        out = child(
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import gap_gauge\n"
            "print('numpy' in sys.modules, dict(os.environ) == before)\n"
        )
        assert out == "False True\n"

    def test_threaded_bootstrap_loads_no_executor(self):
        out = child(
            "import sys, threading\n"
            "import gap_gauge\n"
            "from gap_gauge import empirical\n"
            "empirical._cpus = lambda: 2\n"
            "fill, idents = empirical._fill_counts, set()\n"
            "def recording(*args):\n"
            "    idents.add(threading.get_ident())\n"
            "    fill(*args)\n"
            "empirical._fill_counts = recording\n"
            "bits = [[i >> k & 1 for i in range(16)] for k in range(4)]\n"
            "data = gap_gauge.RecordDataset(l=bits[3], v=bits[2], vhat=bits[1], y=bits[0])\n"
            "gap_gauge.bootstrap(data, 10, seed=1, workers=2)\n"
            "print(len(idents), 'concurrent.futures' in sys.modules)\n"
        )
        assert out == "2 False\n"

    def test_public_names_are_unchanged(self):
        assert gap_gauge.__all__ == PUBLIC

    def test_each_name_is_its_defining_modules_object(self):
        for name in PUBLIC[1:]:
            value = getattr(gap_gauge, name)
            assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert set(PUBLIC) <= set(dir(gap_gauge))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            gap_gauge.nonexistent


def readme_python_blocks() -> list[str]:
    """The code of each ``python`` fenced block of README.md, in order."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]


def test_readme_python_blocks_run():
    blocks = readme_python_blocks()
    assert blocks
    for code in blocks:
        child(code)


class TestEntryPoint:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_starts_no_blas_thread(self):
        out = child(
            "import gap_gauge.__main__, numpy, os\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        assert out == "1 1\n"

    def test_user_setting_is_kept(self):
        out = child(
            "import gap_gauge.__main__, os\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n",
            OPENBLAS_NUM_THREADS="2",
        )
        assert out == "2\n"

    def test_freezes_the_imported_heap(self):
        # the import runs with the collector paused: no generation-0 pass
        out = child(
            "import gc\n"
            "before = gc.get_stats()[0]['collections']\n"
            "import gap_gauge.__main__\n"
            "print(gc.get_stats()[0]['collections'] - before, gc.isenabled(),"
            " gc.get_freeze_count() > 0)\n"
        )
        assert out == "0 True True\n"

    def test_collector_is_back_when_the_import_fails(self):
        out = child(
            "import gc, sys\n"
            "sys.modules['gap_gauge.cli'] = None\n"
            "try:\n"
            "    import gap_gauge.__main__\n"
            "except ImportError:\n"
            "    print(gc.isenabled())\n"
        )
        assert out == "True\n"

    def test_library_import_freezes_nothing(self):
        out = child("import gap_gauge.cli, gc\nprint(gc.get_freeze_count())\n")
        assert out == "0\n"

    def test_imports_leave_no_garbage_to_freeze(self):
        out = child("import gap_gauge.cli, gc\nprint(gc.collect())\n")
        assert out == "0\n"

    @pytest.mark.parametrize("command", ["simulate", "sweep", "analyze"])
    def test_only_estimate_loads_empirical(self, tmp_path, command):
        model = tmp_path / "joint.json"
        model.write_text('{"joint": {"cells": [%s]}}' % ", ".join(["0.0625"] * 16))
        argv = {
            "simulate": ["simulate", str(CONFIGS / "graphA_classifier.json"), "--trials", "100"],
            "sweep": ["sweep", str(CONFIGS / "graph3_base.json"), "--varied", "eps_b2",
                      "--grid", "0:1:0.5", "--trials", "100"],
            "analyze": ["analyze", str(model)],
        }[command]
        assert run_entry_point([*argv, "--out", str(tmp_path / "out")]) == "0 False\n"

    def test_estimate_loads_empirical_and_reports_as_before(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("l,v,vhat,y\n" + "".join(
            f"{i & 1},{i >> 1 & 1},{i >> 2 & 1},{i >> 3 & 1}\n" for i in range(40)
        ))
        argv = ["estimate", str(records), "--bootstrap", "20"]
        out = run_entry_point(argv)
        from gap_gauge.cli import main

        assert main(argv) == 0
        assert out == capsys.readouterr().out + "0 True\n"

    def test_cli_module_is_not_an_entry_point(self):
        # numpy is loaded before cli.py's body runs, too late for the BLAS default
        done = python("-m", "gap_gauge.cli", "--version")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert "python -m gap_gauge`" in done.stderr
