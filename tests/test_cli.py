from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import blochdecay
from blochdecay import LatticeParams, band_energies, cli, stepmodel
from blochdecay.cli import main


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in body[1:]]
    return comments, header, np.array(rows) if rows else np.empty((0, len(header)))


def package_env(**extra) -> dict:
    """This process's environment for a child that imports this blochdecay, plus extra."""
    src = str(Path(blochdecay.__file__).parents[1])
    env = {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("BLOCHDECAY_OUTDIR", None)
    return env


def test_bands_free_parabolas(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bands", "--v0", "0", "--grid", "32", "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    assert comments[0].startswith("# runspec {")
    assert header == ["k", "E1", "E2", "E3"]
    assert np.allclose(rows[:, 1], rows[:, 0] ** 2, atol=1e-12)


def test_bands_csv_matches_band_table(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bands", "--v0", "1", "--n-bands", "2", "--grid", "16",
                 "--cutoff", "8", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    table = band_energies(LatticeParams(1.0, 1.0), n_bands=2, grid_size=16, cutoff=8)
    assert header == ["k", "E1", "E2"]
    assert np.array_equal(rows[:, 0], table.k_grid)
    assert np.array_equal(rows[:, 1:], table.energies)  # 17g digits round-trip


def test_bands_zone_edge_gap(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bands", "--v0", "1", "--grid", "64", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    i = np.argmin(np.abs(rows[:, 0] + 1.0))
    assert abs((rows[i, 2] - rows[i, 1]) - 0.5) < 0.025


def test_bands_three_band_gaps_positive(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bands", "--v0", "4", "--n-bands", "3", "--grid", "32",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["k", "E1", "E2", "E3"]
    assert np.all(rows[:, 2] > rows[:, 1])
    assert np.all(rows[:, 3] > rows[:, 2])


def test_run_artifacts_and_z_sign(tmp_path):
    prefix = tmp_path / "demo"
    assert main(["run", "--v0", "1", "--f0", "0.383", "--cycles", "6",
                 "--fit-window", "5:6", "--out-prefix", str(prefix)]) == 0
    fit = json.loads((tmp_path / "demo_fit.json").read_text())
    assert fit["full_fit"]["z"] < 1.0
    assert fit["effective"]["z"] < 1.0
    _, header, steps = read_csv(tmp_path / "demo_steps.csv")
    assert header == ["n", "t", "P"]
    # first step of the effective model: band-1 survival of the edge crossing
    assert steps[1, 2] == pytest.approx(1.0 - 0.4469593780413833, rel=1e-9)
    # one row per step n = 0..N, at the plateau ends t = T_B (n + 1/2)
    assert np.array_equal(steps[:, 0], np.arange(7))
    assert np.array_equal(steps[:, 1], 2.0 * math.pi / 0.383 * (np.arange(7) + 0.5))
    _, header, comp = read_csv(tmp_path / "demo_compare.csv")
    assert header == ["n", "P_full", "P_eff", "rel_dev"]
    assert comp[:, 3].max() < 0.15
    _, header, trace = read_csv(tmp_path / "demo_trace.csv")
    assert header == ["tau", "P1", "P2", "Prest", "norm"]
    assert np.allclose(trace[:, 4], 1.0, atol=1e-8)


def test_runspec_records_versions(tmp_path):
    prefix = tmp_path / "v"
    assert main(["run", "--v0", "1", "--f0", "0.383", "--cycles", "6", "--fit-window", "5:6",
                 "--out-prefix", str(prefix)]) == 0
    versions = {"blochdecay": blochdecay.__version__, "numpy": np.__version__}
    for name in ("v_trace.csv", "v_steps.csv", "v_compare.csv"):
        comments, _, _ = read_csv(tmp_path / name)
        assert json.loads(comments[0][len("# runspec "):])["versions"] == versions
    assert json.loads((tmp_path / "v_fit.json").read_text())["runspec"]["versions"] == versions


def test_compare_p_full_is_trace_p1_bit_for_bit(tmp_path):
    # the plateaus are the trace's own P1, from one projection at --band-cutoff
    prefix = tmp_path / "same"
    assert main(["run", "--v0", "1", "--f0", "0.383", "--cycles", "6", "--fit-window", "5:6",
                 "--band-cutoff", "8", "--out-prefix", str(prefix)]) == 0
    _, _, trace = read_csv(tmp_path / "same_trace.csv")
    _, _, comp = read_csv(tmp_path / "same_compare.csv")
    t_bloch = 2.0 * math.pi / 0.383
    nearest = [int(np.argmin(np.abs(trace[:, 0] - n * t_bloch))) for n in comp[:, 0]]
    assert np.array_equal(comp[:, 1], trace[nearest, 1])


def test_fit_window_clamps_only_hi(tmp_path):
    prefix = tmp_path / "w"
    assert main(["run", "--v0", "1", "--f0", "0.383", "--cycles", "6", "--fit-window", "4:9",
                 "--out-prefix", str(prefix)]) == 0
    assert json.loads((tmp_path / "w_fit.json").read_text())["full_fit"]["window"] == [4, 6]


def test_summary_line_shows_the_fit_residual(tmp_path, capsys):
    # at v0 = 40, f0 = 30 the exact plateaus oscillate instead of decaying: the fit's
    # residual, 0.13, is on the summary line next to z and gamma, as in fit.json
    prefix = tmp_path / "strong"
    assert main(["run", "--v0", "40", "--f0", "30", "--cycles", "6", "--fit-window", "1:5",
                 "--out-prefix", str(prefix)]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    residual = float(re.search(r" residual=(\S+)$", summary)[1])
    assert residual > 0.1
    fit = json.loads((tmp_path / "strong_fit.json").read_text())["full_fit"]
    assert residual == float(f"{fit['residual']:.3g}")


def test_fit_json_is_strict_json_when_a_deviation_is_infinite(tmp_path):
    # at v0 = 1e-200 the step model's P_eff reaches 0 while P_full does not, so the
    # largest relative deviation is inf: it is written as null, like nan
    prefix = tmp_path / "inf"
    assert main(["run", "--v0", "1e-200", "--f0", "0.383", "--cycles", "6",
                 "--fit-window", "1:5", "--out-prefix", str(prefix)]) == 0
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    fit = json.loads((tmp_path / "inf_fit.json").read_text(), parse_constant=refuse)
    assert fit["comparison_max_rel_dev"] is None


def test_run_iterates_step_model_once(tmp_path, monkeypatch):
    calls = []
    evolve_steps = stepmodel.evolve_steps

    def counting(*args, **kwargs):
        calls.append(args)
        return evolve_steps(*args, **kwargs)

    monkeypatch.setattr(stepmodel, "evolve_steps", counting)
    monkeypatch.setattr(cli, "evolve_steps", counting)
    assert main(["run", "--v0", "1", "--f0", "0.383", "--cycles", "6",
                 "--fit-window", "5:6", "--out-prefix", str(tmp_path / "once")]) == 0
    assert len(calls) == 1


def test_run_and_bands_files_byte_identical(tmp_path, monkeypatch):
    for outdir in ("a", "b"):
        monkeypatch.setenv("BLOCHDECAY_OUTDIR", str(tmp_path / outdir))
        assert main(["run", "--v0", "1", "--f0", "0.383", "--cycles", "6",
                     "--fit-window", "5:6", "--out-prefix", "r"]) == 0
        assert main(["bands", "--v0", "1", "--grid", "64", "--out", "b.csv"]) == 0
    for name in ("r_trace.csv", "r_steps.csv", "r_compare.csv", "r_fit.json", "b.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_files_byte_identical_across_blas_threads(tmp_path):
    # the wide gemms of the exact solver may run on two BLAS threads; the artifacts
    # must not depend on it
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        done = subprocess.run([sys.executable, "-m", "blochdecay.cli", "run", "--v0", "1",
                               "--f0", "0.383", "--cycles", "6", "--fit-window", "5:6"],
                              cwd=tmp_path / threads, env=package_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    for name in ("run_trace.csv", "run_steps.csv", "run_compare.csv", "run_fit.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(tmp_path, *args, **env):
    """Run python with args in a fresh process whose BLAS thread variables are env's only."""
    child_env = package_env(**env)
    for var in set(_BLAS_THREAD_VARS) - set(env):
        child_env.pop(var, None)
    done = subprocess.run([sys.executable, *args], cwd=tmp_path, env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def test_package_import_loads_no_numpy(tmp_path):
    # the exports resolve on first use, so the CLI's thread defaults precede numpy
    run_python(tmp_path, "-c", "import sys, blochdecay\n"
               "assert 'numpy' not in sys.modules, sorted(sys.modules)")


def test_cli_pins_blas_to_one_thread_unless_the_caller_sets_it(tmp_path):
    script = "import os, blochdecay.cli; print(*(os.environ[v] for v in {}))".format(
        _BLAS_THREAD_VARS)
    assert run_python(tmp_path, "-c", script).stdout.split() == ["1", "1", "1"]
    done = run_python(tmp_path, "-c", script, OPENBLAS_NUM_THREADS="3")
    assert done.stdout.split() == ["3", "1", "1"]


def test_cli_freezes_its_import_heap_and_a_library_caller_keeps_its_gc(tmp_path):
    # the freeze comes after numpy and the package load: more objects frozen than left
    done = run_python(tmp_path, "-c", "import gc, blochdecay.cli\n"
                      "print(gc.get_freeze_count(), len(gc.get_objects()))")
    frozen, tracked = map(int, done.stdout.split())
    assert frozen > tracked > 0, (frozen, tracked)
    done = run_python(tmp_path, "-c", "import gc, blochdecay\n"
                      "blochdecay.mean_band_gap(blochdecay.LatticeParams(1.0, 1.0))\n"
                      "print(gc.get_freeze_count())")
    assert done.stdout.split() == ["0"]


def test_every_export_resolves_and_the_cli_module_runs_without_warnings(tmp_path):
    script = """if True:
        import blochdecay
        assert blochdecay.__all__ and all(getattr(blochdecay, name) is not None
                                          for name in blochdecay.__all__)
        names = {}
        exec("from blochdecay import *", names)
        assert set(blochdecay.__all__) <= set(names)
        assert blochdecay.dynamics.evolve_lattice is blochdecay.evolve_lattice
        """
    run_python(tmp_path, "-c", script)
    done = run_python(tmp_path, "-W", "default", "-m", "blochdecay.cli", "bands", "--v0", "1",
                      "--grid", "16")
    assert "Warning" not in done.stderr, done.stderr


def test_run_free_lattice_trace_collapses(tmp_path):
    prefix = tmp_path / "free"
    assert main(["run", "--v0", "0", "--f0", "0.383", "--cycles", "3",
                 "--fit-window", "2:3", "--out-prefix", str(prefix)]) == 0
    _, _, trace = read_csv(tmp_path / "free_trace.csv")
    t_half = 0.5 * 2 * np.pi / 0.383
    late = trace[trace[:, 0] > t_half + 0.5]
    assert np.all(late[:, 1] < 1e-10)


def test_scaling_sweep_and_determinism(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["scaling", "--v0", "1", "--f0-min", "0.9", "--f0-max", "2.4",
            "--n-points", "40", "--grid", "128"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a = out1.read_text().split("\n", 1)[1]
    b = out2.read_text().split("\n", 1)[1]
    assert a == b  # identical runspec -> byte-identical rows
    _, header, rows = read_csv(out1)
    assert header == ["v0", "f0", "phi", "Z_minus_1"]
    assert len(rows) == 40
    # Z - 1 changes sign within the swept window
    assert rows[:, 3].min() < 0 < rows[:, 3].max()


def test_ret_resonance_report(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["ret", "--v0", "1", "--f0-min", "0.8", "--f0-max", "2.6",
                 "--n-points", "14", "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    assert header == ["f0", "gamma", "local_max"]
    assert any("within_one_step=True" in c and "j=1" in c for c in comments)
    assert any("within_one_step=True" in c and "j=2" in c for c in comments)
    assert rows[:, 2].sum() >= 2


def test_ret_empty_range(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["ret", "--v0", "1", "--n-points", "0", "--grid", "64",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["f0", "gamma", "local_max"]
    assert len(rows) == 0


def rowwise_csv(runspec, header, rows, comments=()):
    """Reference: every value of every row by the per-value rule, %.17g for a float."""
    def fmt(x):
        return f"{x:.17g}" if isinstance(x, float) else str(x)
    lines = [f"# runspec {runspec}", *(f"# {line}" for line in comments), header]
    return "".join(line + "\n" for line in lines + [",".join(map(fmt, row)) for row in rows])


@pytest.mark.parametrize("n_rows", [0, 1, 7, 2 * cli._CSV_CHUNK_VALUES // 5 + 3])
def test_column_writer_matches_rowwise_rule(tmp_path, n_rows):
    # columns of special floats, Python ints, int64 (ret's local_max) and ready text;
    # 2 * 3276 + 3 rows of 5 columns cross two chunk boundaries
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-310, 1e300, 0.1, 1.0,
                -2.5e-17, 0.30000000000000004]
    floats = np.resize(np.array(specials), n_rows)
    ints = [(-1) ** i * i for i in range(n_rows)]
    int64 = np.arange(n_rows, dtype=np.int64) % 2
    text = ["v" + str(i % 5) for i in range(n_rows)]
    columns = [floats, ints, int64, text, floats[::-1].copy()]
    path = cli._write_csv(str(tmp_path / "c.csv"), "{}", "a,b,c,d,e", columns,
                          comments=["one", "two"])
    want = rowwise_csv("{}", "a,b,c,d,e", zip(*columns), ["one", "two"])
    assert path.read_text() == want
    assert len(want.splitlines()) == 4 + n_rows
    # a column of Python floats, and a 2-D array given as its transposed rows, as run
    # passes its trace
    columns = [floats[::-1].tolist(), ints, text]
    path = cli._write_csv(str(tmp_path / "l.csv"), "{}", "a,b,c", columns)
    assert path.read_text() == rowwise_csv("{}", "a,b,c", zip(*columns))
    table = np.column_stack([floats, floats[::-1], np.arange(n_rows) / 7.0])
    path = cli._write_csv(str(tmp_path / "t.csv"), "{}", "a,b,c", table.T)
    assert path.read_text() == rowwise_csv("{}", "a,b,c", table.tolist())


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCHDECAY_OUTDIR", str(tmp_path))
    assert main(["bands", "--v0", "0", "--grid", "32", "--out", "sub/b.csv"]) == 0
    assert (tmp_path / "sub" / "b.csv").exists()


def test_config_file_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("grid = 32\nn_bands 2\n# comment\n")
    out = tmp_path / "b.csv"
    assert main(["bands", "--v0", "0", "--config", str(cfg),
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["k", "E1", "E2"]
    assert len(rows) == 32
    # explicit flag beats the config value
    assert main(["bands", "--v0", "0", "--config", str(cfg), "--grid", "48",
                 "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 48
    # each line is one --key=value flag for argparse: an unknown key, another command's
    # key and an abbreviated one are refused by name, as is an abbreviated flag
    capsys.readouterr()
    refused = tmp_path / "refused.csv"
    for line, flag in (("no-such-key = 3", "--no-such-key=3"), ("f0 = 1", "--f0=1"),
                       ("cut = 5", "--cut=5")):
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["bands", "--v0", "1", "--config", str(cfg), "--out", str(refused)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag}\n" in err and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--v0", "1", "--cut", "5", "--out", str(refused)])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --cut 5" in capsys.readouterr().err
    # a config file cannot name another: its --config flag would lose to the command
    # line's, and the line would be silently ignored
    cfg.write_text("config = nonexistent\ngrid = 32\n")
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--v0", "1", "--config", str(cfg), "--out", str(refused)])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "Traceback" not in err
    assert "error: config: " in err and "'config = nonexistent'" in err
    assert not refused.exists()
    # a config-driven run writes what the same flags write, the runspec aside
    cfg.write_text("cycles = 6\nfit-window = 5:6\n")
    base = ["run", "--v0", "1", "--f0", "0.383", "--out-prefix"]
    assert main(base + [str(tmp_path / "cfg"), "--config", str(cfg)]) == 0
    assert main(base + [str(tmp_path / "flag"), "--cycles", "6", "--fit-window", "5:6"]) == 0
    for name in ("trace.csv", "steps.csv", "compare.csv"):
        cfg_lines, flag_lines = ((tmp_path / f"{run}_{name}").read_text().splitlines()
                                 for run in ("cfg", "flag"))
        assert cfg_lines[1:] == flag_lines[1:] and len(flag_lines) > 8, name
    fits = [json.loads((tmp_path / f"{run}_fit.json").read_text()) for run in ("cfg", "flag")]
    for fit in fits:
        assert fit.pop("runspec")["fit_window"] == "5:6"
    assert fits[0] == fits[1]


def test_invalid_arguments_exit_two(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--v0", "1"])  # missing --f0
    assert exc.value.code == 2
    cfg = tmp_path / "conf"
    cfg.write_text("no-such-key = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--v0", "0", "--config", str(cfg)])
    assert exc.value.code == 2
    # malformed config files are invalid arguments too, not crashes
    for content in (b"grid\n", b"grid = \n", b"grid = 32\n\xff\xfe\n"):
        cfg.write_bytes(content)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["bands", "--v0", "0", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: config:" in err and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["run", "--v0", "1", "--f0", "0.4", "--k0", "0"])  # the flag is gone
    assert exc.value.code == 2
    capsys.readouterr()
    for window in ("junk", "5:2", "-1:3", "3:3"):
        assert main(["run", "--v0", "1", "--f0", "0.4", f"--fit-window={window}"]) == 2
        assert f"error: parameters: bad --fit-window {window!r}" in capsys.readouterr().err
    # semantic parameter errors also count as invalid arguments
    assert main(["run", "--v0", "-1", "--f0", "0.4",
                 "--out-prefix", str(tmp_path / "x")]) == 2
    assert main(["scaling", "--v0", "1", "--f0-min", "-2",
                 "--out", str(tmp_path / "s.csv")]) == 2
    capsys.readouterr()
    for argv in (["scaling", "--v0", "-1"], ["scaling", "--v0", "1,nan"],
                 ["ret", "--j-max", "0"], ["scaling", "--v0", "1", "--f0-min", "1e-310"],
                 # refused before the mean gap, which does not converge at v0 = 200
                 ["ret", "--j-max", "0", "--v0", "200"],
                 ["ret", "--v0", "1", "--f0-min", "1e-310"]):
        assert main(argv + ["--grid", "32", "--out", str(tmp_path / "s.csv")]) == 2
        assert "error: parameters:" in capsys.readouterr().err
    # an empty depth entry is refused, not dropped
    for depths in ("", "1,,2"):
        assert main(["scaling", "--v0", depths, "--out", str(tmp_path / "e.csv")]) == 2
        assert f"error: parameters: bad depth list {depths!r}" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()
    for argv in (["run", "--v0", "1", "--f0", "0.4", "--cycles", "2"],
                 ["run", "--v0", "1", "--f0", "0.4", "--cycles", "4", "--fit-window", "4:9"],
                 ["ret", "--v0", "1", "--n-points", "0", "--f0-min", "-1"],
                 ["run", "--v0", "1", "--f0", "0.4", "--grid", "8"],
                 ["bands", "--v0", "1", "--n-bands", "40"],
                 ["bands", "--v0", "1", "--cutoff", "3", "--n-bands", "2"],
                 ["run", "--v0", "1", "--f0", "0.4", "--band-cutoff", "3"],
                 ["scaling", "--v0", "1", "--cutoff", "3"],
                 ["ret", "--cutoff", "3"]):
        out = ["--out-prefix" if argv[0] == "run" else "--out", str(tmp_path / "p")]
        assert main(argv + out) == 2
        assert "error: parameters:" in capsys.readouterr().err
    # a dt above T_B / 64 and a strong force run on the 64-step grid, one step a sample
    for argv in (["run", "--v0", "1", "--f0", "0.4", "--dt", "1", "--cycles", "6",
                  "--fit-window", "1:5"], ["run", "--v0", "1", "--f0", "50"]):
        assert main(argv + ["--out-prefix", str(tmp_path / "coarse")]) == 0, argv
    capsys.readouterr()
    # from f0 ~ 4.2e154 the fit's squared plateau times (n T_B)^2 underflow: refused before
    # any work, with no warning and nothing on stdout, where the fit's LAPACK call prints
    for f0 in ("1e200", "1.7e308"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--v0", "1", "--f0", f0,
                         "--out-prefix", str(tmp_path / "fast")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: parameters: f0=" in err and not caught, (f0, caught)
    assert not list(tmp_path.glob("fast*"))
    # runs whose half cycle would take ~18 s or more (m = 820,288 at --dt 1e-5, forces of
    # 1e-300 and 1e-303) or whose solver would hold gigabytes (64e7 samples, 4 GB of
    # segment maps) are refused before any of it is allocated, and without a numpy
    # overflow warning
    budget = re.compile(r"error: parameters: .* need ~\S+ bytes / ~\S+ s \(limit "
                        r"268435456 bytes / 3 s\); reduce ")
    solver = "the cutoff, the cycles and the steps per cycle"
    tracemalloc.start()
    try:
        for flags in (["--f0", "0.383", "--dt", "1e-5"], ["--f0", "1e-300"], ["--f0", "5e-324"],
                      ["--f0", "0.4", "--dt", "5e-324"], ["--f0", "0.4", "--cycles", "10000000"],
                      ["--f0", "0.4", "--cutoff", "1000"],
                      ["--f0", "1e-303"]):  # m dim^3 would overflow a numpy float
            argv = ["run", "--v0", "1", *flags, "--out-prefix", str(tmp_path / "big")]
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert budget.search(err) and solver in err, argv
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    assert not list(tmp_path.glob("big*"))
    # a half-cycle build of ~11 s (cutoff 160) is refused before any work; the solver is
    # never reached
    monkeypatch.setattr(cli, "evolve_lattice", None)
    assert main(["run", "--v0", "1", "--f0", "0.383", "--cycles", "3", "--cutoff", "160",
                 "--out-prefix", str(tmp_path / "slow")]) == 2
    err = capsys.readouterr().err
    assert budget.search(err) and solver in err
    assert not list(tmp_path.glob("slow*"))
    # a --grid, --cutoff, --n-points or --j-max whose band table, mean gap, sweep or
    # resonance list would hold gigabytes or take minutes is refused before any
    # allocation; no band or step-model computation is reached
    for name in ("band_energies", "mean_band_gap", "step_operator", "spectral_decompose",
                 "ret_resonances"):
        monkeypatch.setattr(cli, name, None)
    huge = "1" + "0" * 400
    band = "the grid, the cutoff and the depths"
    sweep = "--n-points and the depths"
    refusals = [
        (["bands", "--v0", "1", "--grid", "10000000"], band),
        (["bands", "--v0", "1", "--grid", huge], band),
        (["bands", "--v0", "1", "--cutoff", "1000"], band),
        (["bands", "--v0", "1", "--cutoff", huge, "--n-bands", "2"], band),
        # 540,000 rows of 5 values: the eigensolves are priced at ~2.42 s and the rows at
        # ~2.7 s; unpriced, the rows took 1.9-2.1 s and the command 4.2-4.8 s
        (["bands", "--v0", "1", "--cutoff", "4", "--n-bands", "4", "--grid", "540000"], band),
        (["bands", "--v0", "1", "--cutoff", "4", "--n-bands", "4", "--grid", "316256"], band),
        (["scaling", "--grid", "10000000"], band),
        (["scaling", "--cutoff", "1000"], band),
        (["scaling", "--n-points", "100000000"], sweep),
        (["scaling", "--v0", "1", "--n-points", "500001"], sweep),
        (["scaling", "--n-points", huge], sweep),
        # 10^5 forces pass at one depth, not at 64
        (["scaling", "--v0", ",".join(["1"] * 64), "--n-points", "100000"], sweep),
        (["ret", "--grid", "10000000"], band),
        (["ret", "--cutoff", "1000"], band),
        (["ret", "--n-points", "100000000"], sweep),
        # one comment line per resonance, written twice: 10^7 of them are priced at ~80 s,
        # and 401 digits are counted as 1e300, not passed to numpy
        (["ret", "--j-max", "10000000"], "--j-max"),
        (["ret", "--j-max", huge], "--j-max"),
        (["ret", "--j-max", "375001"], "--j-max"),
        (["run", "--v0", "1", "--f0", "0.4", "--grid", "10000000"], band),
        (["run", "--v0", "1", "--f0", "0.4", "--band-cutoff", "1000"], band),
        # a cutoff or cycle count beyond a float is counted as 1e300, not converted
        (["run", "--v0", "1", "--f0", "0.4", "--cutoff", huge], solver),
        (["run", "--v0", "1", "--f0", "0.4", "--cycles", huge], solver),
        # 24,544 wide steps at cutoff 6, only 4.1e10 flops: priced at ~6.8 s, it ran 8.4 s
        (["run", "--v0", "1", "--f0", "0.4", "--cycles", "4", "--cutoff", "6", "--dt", "1e-5",
          "--fit-window", "1:3"], solver),
        # 896,001 trace samples at an adiabatic point, each priced as projected and written:
        # unpriced, it ran 7.9 s to a 1 GB peak and a 94 MB run_trace.csv
        (["run", "--v0", "40", "--f0", "0.5", "--cycles", "14000", "--cutoff", "8",
          "--fit-window", "1:5"], solver),
        (["run", "--v0", "40", "--f0", "0.5", "--cycles", "9356", "--cutoff", "8",
          "--fit-window", "1:5"], solver),
        # each depth is a mean gap, priced at 5.2 ms at the default grid and cutoff
        (["scaling", "--v0", ",".join(["1"] * 576)], band),
    ]
    tracemalloc.start()
    try:
        for argv, what in refusals:
            out = ["--out-prefix" if argv[0] == "run" else "--out", str(tmp_path / "huge")]
            assert main(argv + out) == 2, argv
            err = capsys.readouterr().err
            assert budget.search(err) and what in err, (argv, err)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    assert not list(tmp_path.glob("huge*"))
    # the last that pass; a command the budget admits reaches its mean gap, here None
    cli.check_band_grid(2, cli.DEFAULT_GRID_SIZE, cli.DEFAULT_CUTOFF, 575)
    cli.check_band_grid(4, 316255, 4, rows=316255)
    for argv in (["run", "--v0", "40", "--f0", "0.5", "--cycles", "9355", "--cutoff", "8",
                  "--fit-window", "1:5"],
                 ["scaling", "--v0", "1", "--n-points", "500000"],
                 ["ret", "--j-max", "375000"]):
        out = ["--out-prefix" if argv[0] == "run" else "--out", str(tmp_path / "last")]
        assert main(argv + out) == 3, argv
        assert "error: band-structure:" in capsys.readouterr().err, argv


# Every documented command: the README quickstart, the scipy-free CI step, the CLI calls
# of test_acceptance.py and perfbench's workloads at seed 0 (exact-run, z-scaling and
# depth-scan's 16-depth scaling and ret).
_DOCUMENTED = [
    "bands --v0 1", "run --v0 1 --f0 0.383 --cycles 10",
    "scaling --v0 1,2,3,4 --f0-min 0.5 --f0-max 4 --n-points 200",
    "ret --v0 1 --f0-min 0.8 --f0-max 2.6 --n-points 200",
    "run --v0 1 --f0 0.383 --cycles 6 --fit-window 5:6", "scaling --n-points 50",
    "scaling --v0 0,1 --n-points 50", "ret --n-points 20",
    "run --v0 1 --f0 0.383 --cycles 6 --cutoff 32 --fit-window 5:6",
    "ret --v0 1 --f0-min 0.8 --f0-max 2.6 --n-points 14 --j-max 2",
    "run --v0 1 --f0 0.383 --cycles 20 --cutoff 32", "scaling --v0 1,2,3,4 --n-points 5000",
    "scaling --v0 " + ",".join(f"{0.5 * i:g}" for i in range(1, 17)) + " --n-points 200",
    "ret --v0 1",
]


def test_work_budget_admits_every_documented_input(tmp_path, capsys, monkeypatch):
    # every estimator of a command runs before its first band computation, which here
    # only raises: reaching it means the budget admitted the input, and no work ran
    def heavy(*args, **kwargs):
        raise RuntimeError("admitted")
    monkeypatch.setattr(cli, "band_energies", heavy)
    monkeypatch.setattr(cli, "mean_band_gap", heavy)
    for command in _DOCUMENTED:
        argv = command.split()
        out = ["--out-prefix" if argv[0] == "run" else "--out", str(tmp_path / "doc")]
        assert main(argv + out) == 3, command
        assert "error: band-structure: admitted" in capsys.readouterr().err, command

# Each command starts from cheap valid flags; a case overrides some of them with
# values from these pools, valid and invalid alike.  The huge values (f0 1e-300,
# cycles 10000000, dt 1e-5, grid 10000000, cutoff and band-cutoff 1000, n-points
# 100000000, j-max 10000000 and 10^400) are refused in the parameters stage before any
# work.
_BASE_FLAGS = {
    "bands": {"v0": "1", "grid": "16", "cutoff": "4"},
    "run": {"v0": "1", "f0": "0.4", "cycles": "4", "cutoff": "6", "dt": "0.05",
            "grid": "16", "band-cutoff": "4", "fit-window": "1:3"},
    "scaling": {"v0": "1", "n-points": "5", "grid": "16"},
    "ret": {"n-points": "5", "grid": "16"},
}
_FLAG_POOLS = {
    "v0": ["0", "0.5", "2", "200", "-1", "nan", "x"], "f0": ["0.7", "1.3", "0", "-1", "nan", "50", "1e-300"],
    "n-bands": ["2", "4", "0", "9"], "grid": ["32", "24", "8", "-4", "x", "10000000"],
    "cutoff": ["4", "5", "8", "3", "-1", "1000"], "cycles": ["3", "5", "2", "0", "10000000"],
    "dt": ["0.02", "0.1", "1", "0", "-0.01", "inf", "1e-5"],
    "band-cutoff": ["6", "8", "3", "1000"],
    "fit-window": ["2:9", "0:2", "3:3", "5:2", "-1:2", "x", "6:14"],
    "f0-min": ["0.9", "1e-310", "-1", "3", "nan"], "f0-max": ["2.5", "6", "inf", "0.4"],
    "n-points": ["0", "1", "12", "-1", "100000000"],
    "j-max": ["0", "1", "3", "10000000", "1" + "0" * 400],
}
_SCALING_DEPTHS = ["1,2", "0.5,4", "200", "1,nan", "", "a"]
_CONFIGS = ["# only a comment\n", "grid = 32\n", "cutoff 5\n", "grid\n", "grid = \n",
            b"\xff\xfe\n", "no-such-key = 1\n", "grid = x\n", "config = other\n", "missing",
            "directory"]


def test_cli_contract_holds_over_the_flag_space(tmp_path, capsys):
    # every pool value once for each command that takes its flag, every config once for
    # each command, then 60 seeded draws of up to two overrides and a config file
    rng = np.random.default_rng(2024)
    (tmp_path / "directory").mkdir()
    stage = re.compile(r"error: ([a-z-]+|argument --[a-z0-9-]+|unrecognized arguments): ")
    def pool(command, name):
        return _SCALING_DEPTHS if (command, name) == ("scaling", "v0") else _FLAG_POOLS[name]
    def names(command):
        return [name for name, *_ in cli._SPECS[command] if name in _FLAG_POOLS]
    cases = [(command, {name: value}, None) for command in sorted(_BASE_FLAGS)
             for name in names(command) for value in pool(command, name)]
    cases += [(command, {}, config) for command in sorted(_BASE_FLAGS) for config in _CONFIGS]
    for _ in range(60):
        command = str(rng.choice(sorted(_BASE_FLAGS)))
        overrides = {name: str(rng.choice(pool(command, name)))
                     for name in rng.choice(names(command), size=rng.integers(0, 3),
                                            replace=False)}
        config = _CONFIGS[rng.integers(len(_CONFIGS))] if rng.random() < 0.3 else None
        cases.append((command, overrides, config))
    seen = set()
    for case, (command, overrides, config) in enumerate(cases):
        flags = {**_BASE_FLAGS[command], **overrides}
        if config is not None:
            path = tmp_path / (config if config in ("missing", "directory") else f"c{case}")
            if config not in ("missing", "directory"):
                (path.write_bytes if isinstance(config, bytes) else path.write_text)(config)
            flags["config"] = str(path)
        flags["out-prefix" if command == "run" else "out"] = str(tmp_path / f"o{case}")
        argv = [command] + [f"--{k}={v}" for k, v in flags.items()]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err, argv
        if code:
            assert stage.search(err), (argv, err)
        seen.add(code)
    assert seen == {0, 2, 3}  # the cases reach every outcome


def test_numerical_failure_exits_three(tmp_path, capsys):
    # a cutoff too small to hold the escaping population triggers the norm monitor
    code = main(["run", "--v0", "1", "--f0", "0.383", "--cycles", "20",
                 "--cutoff", "8", "--out-prefix", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert "full-solver" in err
    assert "increase the cutoff" in err and "reduce dt" not in err
    # an effective-model failure other than a degenerate spectrum is not taken for one
    def fail(*args):
        raise ValueError("not degenerate")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "renorm_fit", fail)
        code = main(["run", "--v0", "1", "--f0", "0.383", "--cycles", "6",
                     "--fit-window", "1:5", "--out-prefix", str(tmp_path / "eff")])
    assert code == 3
    assert "error: effective-model: not degenerate" in capsys.readouterr().err
    assert not list(tmp_path.glob("eff*"))


# Each package function a command calls through blochdecay.cli, or _write_csv, with a
# command that reaches it and the stage that runs the call.
_STAGED_CALLS = {
    "LatticeParams": ("bands", "parameters"), "check_band_grid": ("bands", "parameters"),
    "band_energies": ("bands", "band-structure"), "_write_csv": ("bands", "write"),
    "check_work": ("ret", "parameters"), "ret_resonances": ("ret", "parameters"),
    "gamma_asymptotic": ("ret", "sweep"), "spectral_decompose": ("scaling", "sweep"),
    "z_exact": ("scaling", "sweep"), "mean_band_gap": ("run", "band-structure"),
    "SolverConfig": ("run", "parameters"), "step_grid": ("run", "parameters"),
    "StepIngredients.from_lattice": ("run", "step-ingredients"),
    "step_operator": ("run", "step-ingredients"), "evolve_steps": ("run", "effective-model"),
    "renorm_fit": ("run", "effective-model"), "z_first_order": ("run", "effective-model"),
    "evolve_lattice": ("run", "full-solver"), "extract_plateaus": ("run", "plateau-extraction"),
    "trace_rows": ("run", "plateau-extraction"), "fit_exponential": ("run", "fit"),
    "compare_models": ("run", "comparison"),
}


def test_every_call_fails_inside_its_stage(tmp_path, capsys):
    # whatever a call raises leaves main as `error: <stage>: <message>`, exit 2 from
    # parameters and 3 from any other stage; nothing escapes main
    imported = {name for name, obj in vars(cli).items()
                if callable(obj) and getattr(obj, "__module__", "").startswith("blochdecay.")
                and obj.__module__ != cli.__name__
                and not (isinstance(obj, type) and issubclass(obj, Exception))}
    assert imported == {name.split(".")[0] for name in _STAGED_CALLS} - {"_write_csv"}
    def injected(*args, **kwargs):
        raise RuntimeError("injected")
    for name, (command, stage) in _STAGED_CALLS.items():
        argv = [command] + [f"--{k}={v}" for k, v in _BASE_FLAGS[command].items()]
        argv += ["--out-prefix" if command == "run" else "--out", str(tmp_path / name)]
        with pytest.MonkeyPatch.context() as mp:
            owner, _, attr = name.rpartition(".")
            mp.setattr(getattr(cli, owner) if owner else cli, attr, injected)
            code = main(argv)
        assert capsys.readouterr().err == f"error: {stage}: injected\n", name
        assert code == (2 if stage == "parameters" else 3), name


def test_gap_check_exits_three_naming_stage_and_cutoff(tmp_path, capsys):
    out = ["--n-points", "5", "--out", str(tmp_path / "s.csv")]
    # at v0 = 1e308 the mean gap's sum overflows: not finite is not converged either
    for depth in ("200", "1e308"):
        assert main(["scaling", "--v0", depth] + out) == 3
        err = capsys.readouterr().err
        assert "band-structure" in err and "cutoff 10" in err and "nan" not in err
    # the overflow is in the depth, not the basis: the advice names the depth
    assert "increase the cutoff" not in err and "v0=1e+308" in err
    assert main(["scaling", "--v0", "100"] + out) == 0


def test_runtime_needs_no_scipy(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    script = """if True:
        import sys
        sys.modules["scipy"] = None
        from blochdecay.cli import main
        assert main(["run", "--v0", "1", "--f0", "0.383", "--cycles", "6",
                     "--fit-window", "5:6"]) == 0
        assert main(["scaling", "--n-points", "20"]) == 0
        """
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
