"""Byte identity of what ``simulate`` and ``sweep`` write, pinned as one SHA-256 per family.

Each family runs ``cli.main`` in-process on a seeded corpus of inputs and hashes
what every run leaves: its exit status, its stderr, the names of the files it
writes and their bytes. Manifests are named but not read, since they hold
durations. ``golden.json`` pins the digests, so a failure names the family whose
bytes moved. A change that moves bytes on purpose re-pins the families it moves
with ``PYTHONPATH=src python tests/test_golden.py`` and says which ones.

The families are ``simulate`` in each mode, ``sweep`` along each budget, and the
runs of both commands that exit 4 on an exhausted rejection budget. Sweeps span
the engine's blocks, and every run outside the exhausted family succeeds, so the
digests cover result rows, not only messages.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from gap_gauge.cli import main

PINS = Path(__file__).with_name("golden.json")

CLASSIFIER = {"p0": 0.05, "r0": 0.1, "p1": 0.07, "r1": 0.09}
RATES = tuple(CLASSIFIER)


def _rates(rng: random.Random, kind: str) -> dict:
    if kind == "near0":
        return {name: rng.choice((0.0, 5e-324, 1e-12, 1e-6)) for name in RATES}
    if kind == "p=r":
        x, y = rng.random(), rng.random()
        return {"p0": x, "r0": x, "p1": y, "r1": y}
    if kind == "ones":
        return dict.fromkeys(RATES, 1.0)
    return {name: rng.random() for name in RATES}


def _seed(rng: random.Random) -> int:
    return rng.choice((0, 2**64 - 1, rng.getrandbits(64)))


def _simulate(config: dict, trials: int, seed: int, bins: int | None = None):
    argv = ["simulate", "--trials", str(trials), "--seed", str(seed)]
    return config, argv + ([] if bins is None else ["--bins", str(bins)])


def _sweep(config: dict, varied: str, grid: str, trials: int, seed: int):
    return config, ["sweep", "--varied", varied, "--grid", grid,
                    "--trials", str(trials), "--seed", str(seed)]


def _constrained(eps_b1, eps_b2, max_rejections=None, rates=CLASSIFIER) -> dict:
    config = {**rates, "mode": "constrained", "eps_b1": eps_b1, "eps_b2": eps_b2}
    if max_rejections is not None:
        config["max_rejections"] = max_rejections
    return config


def corpus() -> dict[str, list]:
    """Each family's runs, as (sampler config, argv without the config path and --out)."""
    rng = random.Random(2021)
    families = {}

    runs = []
    for kind in ("random", "random", "near0", "near0", "p=r", "p=r", "ones", "random"):
        config = {**_rates(rng, kind), "mode": "unconstrained"}
        runs.append(_simulate(config, rng.randint(1, 600), _seed(rng), rng.choice((None, 1, 7, 50))))
    # more than one engine block, and a run whose errors exceed 1
    runs.append(_simulate({**CLASSIFIER, "mode": "unconstrained"}, 4113, 43))
    runs.append(_simulate({**_rates(rng, "ones"), "mode": "unconstrained"}, 900, 11, 10))
    families["simulate_unconstrained"] = runs

    runs = []
    budgets = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1e-9, 1e-9), (0.2, 0.2)]
    budgets += [(rng.random(), rng.random()) for _ in range(4)]
    for eps_b1, eps_b2 in budgets:
        rates = _rates(rng, rng.choice(("random", "near0", "p=r")))
        config = _constrained(eps_b1, eps_b2, rates=rates)
        runs.append(_simulate(config, rng.randint(1, 600), _seed(rng), rng.choice((None, 3, 50))))
    # small budgets of attempts that every trial still meets
    runs.append(_simulate(_constrained(0.0, 0.0, 1), 500, 1))
    runs.append(_simulate(_constrained(1e-9, 1e-9, 1), 500, 2))
    runs.append(_simulate(_constrained(0.2, 0.2, 40), 2000, 42))
    runs.append(_simulate(_constrained(1.0, 1.0, 300), 300, 7))
    # past the first engine block, pending trials carried across passes
    runs.append(_simulate(_constrained(0.2, 0.2), 8209, 43))
    runs.append(_simulate(_constrained(1.0, 1.0), 4113, 2**64 - 1))
    families["simulate_constrained"] = runs

    for varied in ("eps_b1", "eps_b2"):
        families[f"sweep_{varied}"] = [
            # 3,001 trials a point: every block but the first holds two points
            _sweep(_constrained(0.2, 0.2), varied, "0:1:0.1", 3001, 42),
            _sweep(_constrained(0.2, 0.2, rates=_rates(rng, "random")), varied,
                   "0.05:0.95:0.3", 4113, _seed(rng)),
            # short points, many to a block
            _sweep(_constrained(0.1, 0.3, rates=_rates(rng, "p=r")), varied, "0:1:0.01", 50, 9),
            _sweep(_constrained(0.5, 0.5, 500), varied, "0.3:0.3:0.1", 1, 3),
        ]

    families["exhausted"] = [
        _simulate(_constrained(0.2, 1.0, 5), 200, 42),
        # the first one-attempt failure lies past the first block
        _simulate(_constrained(5e-5, 5e-5, 1), 4 * 4096, 2),
        _simulate(_constrained(1.0, 1.0, 1), 2000, 42),
        _sweep(_constrained(0.2, 0.2, 5), "eps_b2", "0:1:1", 200, 42),
        # in one block: point 0 at its trial 439; then point 1 at its trial 30
        _sweep(_constrained(0.2, 0.2, 5), "eps_b2", "0:1:1", 3000, 42),
        _sweep(_constrained(0.2, 0.2, 20), "eps_b2", "0:1:1", 3000, 2),
        # points that meet their budget before the one that does not
        _sweep(_constrained(0.2, 0.2, 30), "eps_b1", "0:1:0.1", 3001, 5),
        _sweep(_constrained(0.2, 0.2, 30), "eps_b2", "0:1:0.1", 3001, 5),
    ]
    return families


def family_digest(name: str, root: Path) -> str:
    """SHA-256 over every run of family ``name``, run in fresh directories under ``root``."""
    expected_code = 4 if name == "exhausted" else 0
    digest = hashlib.sha256()
    for i, (config, argv) in enumerate(corpus()[name]):
        run = root / f"{name}-{i}"
        run.mkdir()
        config_path = root / f"{name}-{i}.json"
        config_path.write_text(json.dumps(config))
        argv = [argv[0], str(config_path), *argv[1:], "--out", str(run / "out")]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code == expected_code, (name, i, code, stderr.getvalue())
        outputs = sorted(path.name for path in run.iterdir())
        assert bool(outputs) == (code == 0), (name, i, outputs)
        digest.update(f"{i} {code} {stderr.getvalue()!r} {outputs}\n".encode())
        for output in outputs:
            if not output.endswith(".manifest.json"):
                digest.update(hashlib.sha256((run / output).read_bytes()).digest())
    return digest.hexdigest()


def load_pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", sorted(corpus()))
def test_family_bytes_are_pinned(name, tmp_path):
    pins = load_pins()
    assert family_digest(name, tmp_path) == pins["families"][name], (
        f"the bytes of family {name!r} moved (pinned under numpy {pins['numpy']}, "
        f"running numpy {np.__version__})"
    )


def test_every_family_is_pinned():
    assert sorted(load_pins()["families"]) == sorted(corpus())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        families = {}
        for name in sorted(corpus()):
            (Path(tmp) / name).mkdir()
            families[name] = family_digest(name, Path(tmp) / name)
    PINS.write_text(json.dumps({"numpy": np.__version__, "families": families}, indent=2) + "\n")
    print(f"pinned {len(families)} families in {PINS}", file=sys.stderr)
