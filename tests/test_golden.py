"""The fixed desk check against committed expectations in tests/golden/.

One CLI call evaluates all eight variants, cevt-iqpt first, on the desk
preset at seed 7 with 3 epochs and lr_decay = 0.1.  Its results.csv and the
sha256 of model.bin, model_split.bin, calibration.json, dataset.bin and
trace.npz are compared with tests/golden/results.csv and
tests/golden/expected.json.

Two comparison levels:

- In the environment recorded in expected.json (numpy version, OpenBLAS
  build and run-time kernel core, numpy's enabled SIMD dispatch targets,
  CPU architecture), results.csv and every hash must match byte for byte.
- Elsewhere, OpenBLAS and numpy pick other kernels and the last bits move.
  Measured on the recording machine by forcing OPENBLAS_CORETYPE to
  Sandybridge, to Nehalem, and to Sandybridge with NPY_DISABLE_CPU_FEATURES
  = "X86_V4 AVX512_ICL AVX512_SPR": the model and calibration bytes changed
  under all three and trace.npz and dataset.bin under the last;
  percentile_met and cov_prob stayed equal; mean_overhead moved by at most
  6.2e-6, 3.5e-6 and 6.2e-6 and cov_width by at most 2.5e-6, 2.1e-6 and
  2.5e-6, relative.  The model trains in float32, whose unit roundoff is
  6e-8 against float64's 1.1e-16, so another kernel's rounding moves the
  trained weights and what follows from them that much further.  So
  there percentile_met and cov_prob must be equal and mean_overhead and
  cov_width agree within RTOL = 1e-5, the largest measured move rounded up
  to the next decade.

At both levels split training equals centralized training bit for bit:
both run the same kernels and form each batch loss by one function, so
model.bin == model_split.bin and model_loss.csv == model_split_loss.csv.

Regeneration rule: only a change that declares a numerics change may
regenerate the golden (``python tests/test_golden.py``, in the recorded
environment), and it lists the old and new results.csv rows in CHANGES.md.
"""

import csv
import ctypes
import hashlib
import json
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from subnetpred.cli import EXIT_OK, main
from subnetpred.config import ExperimentSpec

GOLDEN = Path(__file__).resolve().parent / "golden"
VARIANTS = ["cevt-iqpt"] + [v for v in ExperimentSpec.VARIANTS if v != "cevt-iqpt"]
HASHED = ("model.bin", "model_split.bin", "calibration.json", "dataset.bin",
          "trace.npz")
EXACT = ("percentile_met", "cov_prob")
RELATIVE = ("mean_overhead", "cov_width")
RTOL = 1e-5


def _openblas_core():
    """The kernel core OpenBLAS chose at run time (numpy.show_config names
    only the build's default target), or None if it cannot be read."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(str(path)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def environment():
    try:
        from numpy._core import _multiarray_umath as umath
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (ImportError, TypeError, KeyError):      # numpy < 2
        return None
    return {
        "numpy": np.__version__,
        "blas_config": blas.get("openblas configuration"),
        "blas_core": _openblas_core(),
        "dispatch": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
        "machine": platform.machine(),
    }


def run_fixed_check(work):
    cfg = work / "fixed.cfg"
    cfg.write_text("train.epochs = 3\ntrain.lr_decay = 0.1\n")
    out = work / "run"
    argv = ["evaluate", "--preset", "desk", "--seed", "7", "--config", str(cfg),
            "--out", str(out)]
    for variant in VARIANTS:
        argv += ["--variant", variant]
    assert main(argv) == EXIT_OK
    return out


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_fixed_desk_check_matches_golden(tmp_path):
    out = run_fixed_check(tmp_path)
    expected = json.loads((GOLDEN / "expected.json").read_text())
    assert (out / "model.bin").read_bytes() == (out / "model_split.bin").read_bytes()
    assert ((out / "model_loss.csv").read_bytes()
            == (out / "model_split_loss.csv").read_bytes())

    if environment() == expected["env"]:
        assert ((out / "results.csv").read_text()
                == (GOLDEN / "results.csv").read_text())
        assert {name: sha256(out / name) for name in HASHED} == expected["sha256"]
        return
    got, want = rows(out / "results.csv"), rows(GOLDEN / "results.csv")
    assert ([(r["predictor"], r["eps_target"]) for r in got]
            == [(r["predictor"], r["eps_target"]) for r in want])
    for g, w in zip(got, want):
        for col in EXACT:
            assert float(g[col]) == float(w[col]), (g["predictor"], col)
        for col in RELATIVE:
            assert float(g[col]) == pytest.approx(float(w[col]), rel=RTOL, abs=0), \
                (g["predictor"], col)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        out = run_fixed_check(Path(work))
        GOLDEN.mkdir(exist_ok=True)
        shutil.copyfile(out / "results.csv", GOLDEN / "results.csv")
        (GOLDEN / "expected.json").write_text(json.dumps(
            {"env": environment(),
             "sha256": {name: sha256(out / name) for name in HASHED}}, indent=2) + "\n")
