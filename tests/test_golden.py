"""Byte identity of what every command writes, pinned as one SHA-256 per family.

Each family runs ``cli.main`` in-process on a seeded corpus of inputs and hashes
what every run leaves: its exit status, its stderr (with the corpus directory,
which some messages name, replaced by a fixed token), its stdout, the names of
the files it writes and their bytes. Manifests are named but not read, since
they hold durations. ``golden.json`` pins the digests, so a failure names the
family whose bytes moved. A change that moves bytes on purpose re-pins the
families it moves with ``PYTHONPATH=src python tests/test_golden.py`` and says
which ones.

The families are ``simulate`` in each mode, ``sweep`` along each budget,
``estimate`` with and without v, ``analyze``, and the runs that exit 2, 3 and 4,
one for each distinct message. Sweeps span the engine's blocks, and every run
outside the exit families succeeds, so the digests cover result rows, not only
messages. Bootstrap bytes depend on numpy's ``integers`` algorithm and sampled
records on its ``choice``, so ``golden.json`` records the numpy version.
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
from gap_gauge.empirical import sample_dataset
from gap_gauge.model import FullJoint

PINS = Path(__file__).with_name("golden.json")

#: Where a run's ``--out`` path goes in its argv.
OUT = object()

#: Each family's exit status; the others exit 0.
EXIT_CODES = {"exhausted": 4, "exit_2": 2, "exit_3": 3}

#: What stands for the corpus directory in a hashed stderr.
ROOT_TOKEN = "<root>"

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
    argv = ["simulate", "--trials", str(trials), "--seed", str(seed), "--out", OUT]
    return config, argv + ([] if bins is None else ["--bins", str(bins)])


def _sweep(config: dict, varied: str, grid: str, trials: int, seed: int):
    return config, ["sweep", "--varied", varied, "--grid", grid,
                    "--trials", str(trials), "--seed", str(seed), "--out", OUT]


def _joint(rng: random.Random, empty: tuple[int, ...] = ()) -> list[float]:
    """16 random cell probabilities, each over 1/70 of the mass but the ``empty`` cells,
    which are 0."""
    cells = [0.0 if i in empty else 0.3 + rng.random() for i in range(16)]
    return [cell / sum(cells) for cell in cells]


def _records(codes, v: bool = True, ystar=None, eol: str = "\n", ended: bool = True,
             bom: bool = False, quoted: bool = False) -> bytes:
    """A records CSV of cell codes ``8*l + 4*v + 2*vhat + y``: without ``v`` its cells are
    empty, ``ystar`` adds that column, and the first row's l may be a quoted cell."""
    rows = []
    for i, code in enumerate(codes.tolist()):
        cells = [str(code >> 3 & 1), str(code >> 2 & 1) if v else "",
                 str(code >> 1 & 1), str(code & 1)]
        if ystar is not None:
            cells.append(str(ystar[i]))
        if quoted and not i:
            cells[0] = f'"{cells[0]}"'
        rows.append(",".join(cells))
    header = "l,v,vhat,y" + (",ystar" if ystar is not None else "")
    text = eol.join([header, *rows]) + (eol if ended else "")
    return ("\ufeff" if bom else "").encode() + text.encode()


def _estimate(data: bytes, *options: str, out: bool = True):
    return data, ["estimate", *options, *(["--out", OUT] if out else [])]


def _analyze(model: dict, *options: str, out: bool = True):
    return model, ["analyze", *options, *(["--out", OUT] if out else [])]


def _estimate_family(rng: random.Random, v: bool) -> list:
    """Records with or without v, in every layout the readers take, under each option."""
    # empty cells: a's y=1 cell; d's event and b's y=1 cell in slice 1; three scattered
    # cells. None is a whole event that an estimate conditions on.
    joints = [_joint(rng), _joint(rng), _joint(rng, (7,)), _joint(rng, (0, 1, 13)),
              _joint(rng, (4, 10, 15))]
    layouts = [{}, {"eol": "\r\n"}, {"ended": False}, {"bom": True}, {"quoted": True},
               {"eol": "\r\n", "ended": False, "bom": True}]
    runs = []
    for i, cells in enumerate(joints):
        codes = sample_dataset(FullJoint(np.array(cells)), rng.randint(300, 900), _seed(rng)).codes
        # the first dataset in every layout, each other one in half of them
        for layout in layouts[i % 2::2] if i else layouts:
            data = _records(codes, v, **layout)
            smoothing = rng.choice(("0", "0.1", "0.5"))
            runs.append(_estimate(data, "--smoothing", smoothing, "--seed", str(_seed(rng))))
        data = _records(codes, v)
        for smoothing in ("0", "0.1", "0.5"):
            runs.append(_estimate(data, "--smoothing", smoothing, "--format", "csv", out=False))
        for workers in ("1", "2"):
            runs.append(_estimate(data, "--bootstrap", "20", "--workers", workers,
                                  "--smoothing", rng.choice(("0", "0.1", "0.5")), "--seed", "7"))
    codes = sample_dataset(FullJoint(np.array(joints[0])), 600, 5).codes
    ystar = [rng.randint(0, 1) for _ in codes]
    data = _records(codes, v, ystar=ystar)
    runs.append(_estimate(data, "--condition-ystar", "--bootstrap", "20", "--level", "0.9"))
    runs.append(_estimate(data, "--bootstrap", "20", "--level", "0.9", "--format", "csv"))
    runs.append(_estimate(_records(codes, v, ystar=ystar, quoted=True), "--condition-ystar",
                          "--smoothing", "0.1", "--format", "csv", out=False))
    return runs


def _analyze_family(rng: random.Random) -> list:
    """Reduced models with and without d, and joints with and without empty cells."""
    runs = []
    for with_d in (True, False, True, False):
        slices = [{key: rng.random() for key in "prabc" + "d" * with_d} for _ in range(2)]
        model = {"reduced": {"slice0": slices[0], "slice1": slices[1]}}
        runs.append(_analyze(model, "--format", rng.choice(("json", "csv"))))
    # (0, 1, 8, 9) empties v=0, vhat=0 in both slices: independence is null, and so is d
    for empty in ((), (), (0, 1, 8, 9), (7, 12), (1, 9)):
        model = {"joint": {"cells": _joint(rng, empty)}}
        for fmt, tol in (("json", None), ("csv", "0.25")):
            runs.append(_analyze(model, "--format", fmt, *(["--tol", tol] if tol else [])))
    runs.append(_analyze({"joint": {"cells": [1 / 16] * 16}}, "--tol", "0", out=False))
    runs.append(_analyze({"joint": {"cells": [1 / 16] * 16}}, "--format", "csv", out=False))
    return runs


def _constrained(eps_b1, eps_b2, max_rejections=None, rates=CLASSIFIER) -> dict:
    config = {**rates, "mode": "constrained", "eps_b1": eps_b1, "eps_b2": eps_b2}
    if max_rejections is not None:
        config["max_rejections"] = max_rejections
    return config


def corpus() -> dict[str, list]:
    """Each family's runs, as (input, argv without the input path), ``OUT`` in the argv
    standing for the output path."""
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

    rng = random.Random(2022)
    families["estimate_v"] = _estimate_family(rng, v=True)
    families["estimate_no_v"] = _estimate_family(rng, v=False)
    families["analyze"] = _analyze_family(rng)

    records = _records(sample_dataset(FullJoint(np.array(_joint(rng))), 50, 1).codes)
    reduced = {"reduced": {"slice0": dict(zip("prabc", (0.05, 0.1, 0.5, 0.4, 0.6))),
                           "slice1": dict(zip("prabc", (0.07, 0.09, 0.7, 0.6, 0.8)))}}
    families["exit_2"] = [
        (dict(CLASSIFIER, mode="unconstrained", x=1), ["simulate", "--out", OUT]),
        (dict(CLASSIFIER), ["simulate", "--out", OUT]),
        (dict(CLASSIFIER, mode="unconstrained", p0="x"), ["simulate", "--out", OUT]),
        (dict(CLASSIFIER, mode="unconstrained", p0=1.5), ["simulate", "--out", OUT]),
        (b"{bad", ["simulate", "--out", OUT]),
        (dict(CLASSIFIER, mode="unconstrained"), ["simulate", "--trials", "0", "--out", OUT]),
        (dict(CLASSIFIER, mode="unconstrained"), ["simulate", "--seed", "-1", "--out", OUT]),
        _sweep(_constrained(0.2, 0.2), "eps_b1", "0:1", 10, 1),
        _sweep(_constrained(0.2, 0.2), "eps_b1", "0:2:0.5", 10, 1),
        _sweep(dict(CLASSIFIER, mode="unconstrained"), "eps_b1", "0:1:0.5", 10, 1),
        _analyze({"reduced": reduced["reduced"], "joint": {"cells": [1 / 16] * 16}}),
        _analyze({"joint": {"cells": [1 / 8] * 8}}),
        _analyze(reduced, "--tol", "2"),
        _analyze({"reduced": {**reduced["reduced"], "slice1": {"p": 0.1}}}),
        _estimate(b"l,v,vhat,y\n0,1,1,1\n\xff,1,1,1\n"),
        _estimate(b"l,v,vhat\n0,1,1\n"),
        _estimate(b"l,v,vhat,y\n0,1,1,1\n0,1,2,1\n"),
        _estimate(b"l,v,vhat,y\n0,1,1,1\n0,1,1\n"),
        _estimate(b"l,v,vhat,y\n0,1,1,1\n0,,1,1\n"),
        _estimate(records, "--level", "2"),
        _estimate(records, "--smoothing", "-1"),
        _estimate(records, "--bootstrap", "-1"),
        _estimate(records, "--condition-ystar"),
        _estimate(b"l,v,vhat,y\n0,1,1,1\n", "--bootstrap", "5", "--smoothing", "1"),
        _estimate(records, "--workers", "0", out=False),
    ]
    families["exit_3"] = [
        _estimate(b""),
        _estimate(b"l,v,vhat,y\n"),
        _estimate(b"l,v,vhat,y,ystar\n0,1,1,1,0\n1,0,1,0,0\n", "--condition-ystar"),
        _estimate(_records(np.array([2, 3, 4, 5, 6, 7, 10, 11, 14, 15]))),
        _estimate(_records(np.array([0, 1, 8, 9, 10, 11]), v=False)),
        # one row in each event of a, b and c: every replicate of six rows empties one
        _estimate(_records(np.array([6, 4, 2, 14, 12, 10])), "--bootstrap", "10", "--seed", "1"),
        _analyze({"joint": {"cells": _joint(rng, (6, 7))}}),
        _analyze({"joint": {"cells": _joint(rng, (12, 13, 14, 15))}}, out=False),
    ]
    return families


def family_digest(name: str, root: Path) -> str:
    """SHA-256 over every run of family ``name``, run in fresh directories under ``root``.

    A run's input, a JSON value or bytes, is written to a file whose path follows the
    command in its argv; ``OUT`` stands for a path in the run's own directory.
    """
    expected_code = EXIT_CODES.get(name, 0)
    digest = hashlib.sha256()
    for i, (data, argv) in enumerate(corpus()[name]):
        run = root / f"{name}-{i}"
        run.mkdir()
        if isinstance(data, bytes):
            input_path = root / f"{name}-{i}.csv"
            input_path.write_bytes(data)
        else:
            input_path = root / f"{name}-{i}.json"
            input_path.write_text(json.dumps(data))
        out = str(run / "out")
        argv = [argv[0], str(input_path), *(out if arg is OUT else arg for arg in argv[1:])]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        errors = stderr.getvalue().replace(str(root), ROOT_TOKEN)
        assert code == expected_code, (name, i, code, errors)
        assert (code == 0) == (errors == ""), (name, i, errors)
        outputs = sorted(path.name for path in run.iterdir())
        assert bool(outputs) == (code == 0 and out in argv), (name, i, outputs)
        assert bool(stdout.getvalue()) == (code == 0 and out not in argv), (name, i)
        digest.update(f"{i} {code} {errors!r} {outputs}\n".encode())
        if stdout.getvalue():
            digest.update(hashlib.sha256(stdout.getvalue().encode()).digest())
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
