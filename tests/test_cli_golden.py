"""Every subcommand's stdout, stderr and exit code, pinned byte for byte.

The commands below cover each subcommand in each output format, the four
designs on one seeded panel, grids with several alphas and with repeated
axis values, and the exit-2 and exit-4 paths.  ``tests/cli_golden.json``
holds what they printed; the temporary directory reads as ``<tmp>`` there.
Rewrite it with ``PYTHONPATH=src python tests/test_cli_golden.py`` only when
an output change is intended.
"""
import json
import os
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import numpy as np

from stc.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
FORMATS = ("text", "json", "csv")
PANEL = "--data {tmp}/panel.csv --treated tr --post-start 2 --rho 1"


def _write_panels(tmp: pathlib.Path) -> None:
    """Five control clusters and a treated one: two units (c = 0, 1), three periods."""
    rng = np.random.default_rng(20260)
    rows = ["cluster,unit,time,outcome,c"]
    for cluster in ("c1", "c2", "c3", "c4", "c5", "tr"):
        for c in (0, 1):
            for time in (1, 2, 3):
                effect = 3.0 if cluster == "tr" and c == 1 and time >= 2 else 0.0
                y = effect + 0.5 * time + 0.5 * float(rng.normal())
                rows.append(f"{cluster},u{c},{time},{y:.3f},{c}")
    (tmp / "panel.csv").write_text("\n".join(rows) + "\n")
    no_c = [row.rsplit(",", 1)[0] for row in rows]
    (tmp / "no_c.csv").write_text("\n".join(no_c) + "\n")
    (tmp / "bad.csv").write_text("cluster,time,outcome\na,1,0.5\na,2,x\n")


def _commands() -> list[str]:
    every_format = [
        "cv --m 5 --alpha 0.05 --rho 1",
        "cv --m 5 --alpha 0.05 --k 2 --rho 0.5",
        "max-alpha --ms 4,5,4 --rhos 0.5,1,0.5",
        f"pvalue --design did {PANEL}",
        f"test --design did {PANEL}",
        f"test --design mean {PANEL}",
        f"test --design twfe {PANEL}",
        f"test --design tripled {PANEL}",
        f"ci --design did {PANEL} --alpha 0.1",
        f"rho-frontier --design did {PANEL.replace(' --rho 1', '')} --alpha-list 0.05,0.1",
        "table --alphas 0.05,0.1 --ms 4,5 --rhos 0.5:1:0.5",
        "table --alphas 0.05,0.05 --ms 5,5 --rhos 1,1 --k 2",
        "simulate --design normal --dgp 1 --m 5 --reps 2000 --seed 7",
    ]
    once = [
        "cv --m 6 --alpha 0.05 --rho 1 --one-sided",
        f"pvalue --design mean {PANEL} --k 2 --one-sided greater",
        f"pvalue --design tripled {PANEL} --one-sided less --output json",
        f"test --design twfe {PANEL} --k 3 --alpha 0.1 --one-sided greater",
        f"ci --design mean {PANEL} --k 2 --output csv",
        "table --alphas 0.05 --ms 5 --rhos 1 --output-path {tmp}/table.csv",
        "simulate --design twfe --dgp 4 --m 5 --reps 2000 --seed 3 --sigma 1.5 --output json",
        # exit 2: bad parameters and usage
        "cv --m 5 --alpha 0.7 --rho 1",
        "cv --m 5 --rho 1 --k 6",
        "cv --m 5",
        "max-alpha --ms 3 --rhos 1",
        "table --alphas 0.05 --ms 4,x --rhos 1",
        "simulate --design normal --dgp 9 --m 5 --reps 10 --seed 1",
        # exit 4: data and file errors
        f"test --design did {PANEL.replace('panel.csv', 'missing.csv')}",
        f"test --design did {PANEL.replace('panel.csv', 'bad.csv')}",
        f"pvalue --design tripled {PANEL.replace('panel.csv', 'no_c.csv')}",
        f"ci --design did {PANEL.replace('tr ', 'nobody ')}",
        f"pvalue --design did {PANEL.replace(' --post-start 2', '')}",
        "cv --m 5 --rho 1 --output-path {tmp}",
    ]
    return [f"{cmd} --output {fmt}" for cmd in every_format for fmt in FORMATS] + once


def _run(command: str, tmp: pathlib.Path) -> dict:
    argv = command.format(tmp=tmp).split()
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    run = {"command": command, "exit": code,
           "stdout": out.getvalue().replace(str(tmp), "<tmp>"),
           "stderr": err.getvalue().replace(str(tmp), "<tmp>")}
    if "--output-path {tmp}/" in command:
        run["file"] = pathlib.Path(argv[argv.index("--output-path") + 1]).read_text()
    return run


def _run_all() -> list[dict]:
    # argparse wraps its usage lines to the terminal width
    with mock.patch.dict(os.environ, COLUMNS="80"), tempfile.TemporaryDirectory() as name:
        tmp = pathlib.Path(name)
        _write_panels(tmp)
        return [_run(command, tmp) for command in _commands()]


def test_cli_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    runs = _run_all()
    assert [run["command"] for run in runs] == [run["command"] for run in golden]
    for run, expected in zip(runs, golden):
        assert run == expected, run["command"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_run_all(), indent=1) + "\n")
