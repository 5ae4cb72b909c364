import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ktops.cli import (
    SUBCOMMANDS,
    ConfigError,
    RunConfig,
    _keys_read,
    _write_table,
    config_from_manifest_text,
    config_from_mapping,
    config_lines,
    main,
    parse_config_text,
    run,
)
from ktops.husimi import husimi_field
from test_golden import CASES as GOLDEN_CASES

ROOT = Path(__file__).resolve().parents[1]


def read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[0][2:].split("\t")
    data = np.array([[float(tok) for tok in line.split("\t")] for line in lines[1:]])
    return header, data


def test_import_leaves_scipy_linalg_unloaded():
    # importing scipy.linalg adds 0.10-0.13 s to every CLI start-up, and
    # scipy.special (Si/Ci, needed only by the closed-form S_R law) 0.25 s
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, ktops.cli\n"
        "for name in ('scipy.linalg', 'scipy.special'):\n"
        "    assert name not in sys.modules, name"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestConfigParsing:
    def test_basic_file(self):
        text = """
        # comment line
        j = 12
        k = 3.0      # trailing comment
        eps = 1e-3

        snapshots = 0, 5, 10
        """
        mapping = parse_config_text(text)
        assert mapping == {"j": 12, "k": 3.0, "eps": 1e-3, "snapshots": (0, 5, 10)}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("nope = 1")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("j = banana")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_defaults_reproduce_standard_setup(self):
        cfg = RunConfig(kind="evolve")
        assert (cfg.j, cfg.k, cfg.eps, cfg.steps) == (80, 6.0, 1e-2, 1000)
        assert (cfg.theta0, cfg.phi0) == (0.89, 0.63)

    def test_kick_pair_defaults(self):
        assert RunConfig(kind="evolve", k=3.0).kick_pair() == (3.0, 3.0)
        assert RunConfig(kind="rmt-compare").kick_pair() == (6.0, 6.1)
        assert RunConfig(kind="evolve", k1=1.0, k2=2.0).kick_pair() == (1.0, 2.0)

    def test_invalid_kind(self):
        with pytest.raises(ConfigError):
            RunConfig(kind="dance")

    def test_mapping_rejects_unknown(self):
        with pytest.raises(ConfigError):
            config_from_mapping("evolve", {"zzz": 1})


# the keys of a coupled run but k and k1, each at a small non-default value
COUPLED = dict(j=4, k2=3.0, eps=1e-3, steps=3, theta0=0.5, phi0=0.1, theta0_2=1.0,
               phi0_2=-0.2)
FIRST_TOP = dict(j=4, k=2.5, steps=3, theta0=0.5, phi0=0.1)

# (subcommand, a value of each key it reads but out, the keys of its row left
# unset); k is unread beside k1, eps beside eps_list, and a state-mode stats
# run reads the first top's keys alone
ROUND_TRIPS = [
    ("evolve", dict(COUPLED, k1=2.0, stride=2), ("k",)),
    ("portrait", dict(k=2.5, portrait_grid=2, portrait_iters=3), ()),
    ("husimi", dict(COUPLED, k=2.5, snapshots=(1, 3), n_theta=3, n_phi=4), ("k1",)),
    ("deltaneff", dict(FIRST_TOP, stride=2), ()),
    ("rmt-compare", dict(j=4, k1=2.0, k2=3.0, eps=1e-3, steps=3, ic_grid=1),
     ("k", "eps_list")),
    ("rmt-compare", dict(j=4, k=2.5, k2=3.0, eps_list=(1e-3, 1e-2), steps=3, ic_grid=1),
     ("k1", "eps")),
    ("stats", dict(COUPLED, k1=2.0, snapshots=(2,), stats_mode="rdm", pool="top"), ("k",)),
    ("stats", dict(FIRST_TOP, snapshots=(2,), stats_mode="state"),
     ("k1", "k2", "eps", "theta0_2", "phi0_2", "pool")),
]


class TestManifest:
    def test_round_trip(self, tmp_path):
        # the manifest echoes kind and exactly the keys the run reads, and
        # rebuilds the config
        for i, (kind, values, unset) in enumerate(ROUND_TRIPS):
            default = RunConfig(kind=kind)
            assert all(val != getattr(default, key) for key, val in values.items()
                       if (key, val) != ("stats_mode", "state"))
            cfg = RunConfig(kind=kind, out=str(tmp_path / str(i)), **values)
            run(cfg)
            text = (tmp_path / str(i) / f"{kind.replace('-', '_')}_manifest.txt").read_text()
            keys = [line.split(" = ")[0] for line in text.splitlines()[1:]
                    if not line.startswith(("artifact_version", "duration_seconds",
                                            "output_rows."))]
            read = [key for key in SUBCOMMANDS[kind][1] if key not in unset]
            assert keys == ["kind", *read]
            assert set(read) == set(values) | {"out"}
            cfg2 = config_from_manifest_text(text)
            assert cfg2 == cfg
            assert config_lines(cfg2) == config_lines(cfg)

    def test_manifest_counts_rows(self, tmp_path):
        cfg = RunConfig(kind="deltaneff", j=4, k=6.0, steps=7, out=str(tmp_path))
        manifest = run(cfg)
        header, data = read_table(tmp_path / "deltaneff_single.tsv")
        assert len(data) == manifest.files["deltaneff_single.tsv"] == 7


class TestWriteTable:
    @staticmethod
    def joined(header, rows):
        # the oracle: one str(n) or f"{x:.12e}" per value, joined per row
        lines = [header] + ["\t".join(str(v) if isinstance(v, int) else f"{v:.12e}"
                                      for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    def test_floats_match_per_value_format(self, tmp_path):
        values = np.array([-0.0, 5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0])
        table = np.column_stack([values, values[::-1]])
        path = tmp_path / "floats.tsv"
        assert _write_table(path, "# a\tb", table) == len(values)
        assert path.read_bytes() == self.joined("# a\tb", table.tolist()).encode()

    def test_integer_column_with_floats(self, tmp_path):
        n = np.array([0, 10**6])
        x = np.array([0.1, -0.0])
        path = tmp_path / "mixed.tsv"
        assert _write_table(path, "# n\tx\ty", n, x, np.column_stack([x])) == 2
        rows = [(0, 0.1, 0.1), (10**6, -0.0, -0.0)]
        assert path.read_bytes() == self.joined("# n\tx\ty", rows).encode()

    def test_zero_rows_write_the_header_only(self, tmp_path):
        path = tmp_path / "empty.tsv"
        assert _write_table(path, "# n\tx", np.arange(0), np.zeros(0)) == 0
        assert path.read_bytes() == b"# n\tx\n"


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        rc = main(["evolve", "--j", "4", "--steps", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert "evolve_entropy.tsv" in capsys.readouterr().out

    def test_config_error_missing_file(self, capsys):
        rc = main(["evolve", "--config", "/definitely/not/here.cfg"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_config_error_bad_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("wibble = 3\n")
        assert main(["evolve", "--config", str(cfg)]) == 1

    def test_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(["evolve", "--j", "4", "--steps", "2", "--out", str(blocker / "sub")])
        assert rc == 2
        assert "i/o error" in capsys.readouterr().err

    def test_bad_flag(self):
        assert main(["evolve", "--j", "not-an-int"]) == 1

    def test_numeric_range_error(self, tmp_path, capsys):
        # m2_pure overflows at j = 320: exit 1 with one message, and no output
        rc = main(["deltaneff", "--j", "320", "--steps", "1", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_m2_weight_overflow_is_numeric_range_error(self, tmp_path, capsys):
        # the binomials of the M2 weights leave the float range at j = 600
        rc = main(["deltaneff", "--j", "600", "--steps", "1", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric range error")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["rmt-compare", "--j", "510", "--steps", "2", "--ic_grid", "1", "--eps_list", "0.01"],
        ["husimi", "--j", "510", "--steps", "1", "--snapshots", "1",
         "--n_theta", "2", "--n_phi", "2"],
    ])
    def test_j_510_runs_write_finite_rows(self, tmp_path, argv):
        # the Wigner d(pi/2) of j = 510 stays finite, so both runs succeed
        assert main(argv + ["--out", str(tmp_path)]) == 0
        tables = sorted(tmp_path.glob("*.tsv"))
        assert tables
        for path in tables:
            data = np.loadtxt(path, ndmin=2)
            assert data.size and np.isfinite(data).all()

    @pytest.mark.parametrize("argv", [
        ["husimi", "--eps", "1e308"],
        ["evolve", "--eps", "1e308"],
        ["evolve", "--k", "1e308"],
        ["rmt-compare", "--eps_list", "1e308"],
        ["rmt-compare", "--eps_list", "0.01,1e308"],
        ["rmt-compare", "--ic_grid", "1", "--eps_list", "1e200"],
        ["rmt-compare", "--ic_grid", "1", "--eps_list", "1e307"],
        ["deltaneff", "--k", "1e308"],
    ], ids=" ".join)
    def test_phase_overflow_is_numeric_range_error(self, tmp_path, capsys, argv):
        # finite but huge kick or coupling: non-finite phases, no NaN row, and
        # no file from an eps computed before the failing one; an eps whose
        # closed-form bracket leaves the float range (1e200, 1e307) fails the
        # same way
        kind, *flags = argv
        assert main([kind, "--j", "4", "--steps", "3", *flags, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric range error")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("eps", ["1e-300", "1e-315", "5e-324"])
    def test_tiny_eps_writes_finite_rows(self, tmp_path, eps):
        # the closed-form bracket is summed as a series for small 2 N eps,
        # and p(eps) stays finite for a subnormal eps
        argv = ["rmt-compare", "--j", "4", "--steps", "3", "--ic_grid", "1",
                "--eps_list", eps, "--out", str(tmp_path)]
        assert main(argv) == 0
        (path,) = tmp_path.glob("*.tsv")
        data = np.loadtxt(path, ndmin=2)
        assert data.shape == (3, 4) and np.isfinite(data).all()

    def test_every_field_is_a_flag(self, tmp_path):
        main(["rmt-compare", "--j", "4", "--steps", "3", "--ic_grid", "1",
              "--eps_list", "0.001,0.01", "--out", str(tmp_path)])
        text = (tmp_path / "rmt_compare_manifest.txt").read_text()
        cfg = config_from_manifest_text(text)
        assert (cfg.ic_grid, cfg.eps_list) == (1, (0.001, 0.01))


# small values of keys each subcommand reads, given before a case's flags
BASE_FLAGS = {
    "evolve": ["--j", "4", "--steps", "3"],
    "portrait": ["--portrait_grid", "2", "--portrait_iters", "3"],
    "husimi": ["--j", "4", "--steps", "3", "--n_theta", "3", "--n_phi", "4"],
    "deltaneff": ["--j", "4", "--steps", "3"],
    "rmt-compare": ["--j", "4", "--steps", "3", "--ic_grid", "1"],
    "stats": ["--j", "4", "--steps", "3"],
}

# (subcommand and flags, the start of its error message after "config error: ")
REJECTED_INPUTS = [
    (["stats", "--snapshots=-3"], "snapshots must lie in [0, steps = 3]"),
    (["husimi", "--snapshots=-3"], "snapshots must lie in [0, steps = 3]"),
    (["husimi", "--snapshots", "0,-1"], "snapshots must lie in [0, steps = 3]"),
    (["husimi", "--steps", "3", "--snapshots", "10"], "snapshots must lie in [0, steps = 3]"),
    (["stats", "--snapshots", "0,4"], "snapshots must lie in [0, steps = 3]"),
    (["stats", "--snapshots", ","], "snapshots must not be empty"),
    (["rmt-compare", "--eps_list", ","], "eps_list must not be empty"),
    (["rmt-compare", "--ic_grid", "0"], "ic_grid must be at least 1"),
    (["portrait", "--portrait_grid", "0"], "portrait_grid must be at least 1"),
    (["portrait", "--portrait_grid=-2"], "portrait_grid must be at least 1"),
    (["portrait", "--portrait_iters", "0"], "portrait_iters must be at least 1"),
    (["husimi", "--n_theta", "0"], "n_theta must be at least 1"),
    (["husimi", "--n_phi", "0"], "n_phi must be at least 1"),
    (["evolve", "--steps", "0"], "steps must be at least 1"),
    (["evolve", "--stride", "0"], "stride must be at least 1"),
    (["evolve", "--j=-1"], "j must be nonnegative"),
    (["evolve", "--theta0", "4"], "theta0 must lie in [0, pi]"),
    (["evolve", "--theta0=-0.1"], "theta0 must lie in [0, pi]"),
    (["evolve", "--theta0_2", "3.2"], "theta0_2 must lie in [0, pi]"),
    (["evolve", "--theta0", "nan"], "theta0 must be finite"),
    (["evolve", "--phi0", "inf"], "phi0 must be finite"),
    (["evolve", "--phi0_2", "nan"], "phi0_2 must be finite"),
    (["evolve", "--eps", "nan"], "eps must be finite"),
    (["evolve", "--k", "inf"], "k must be finite"),
    (["evolve", "--k1", "nan"], "k1 must be finite"),
    (["evolve", "--k2=-inf"], "k2 must be finite"),
    (["rmt-compare", "--eps_list", "0.01,nan"], "eps_list[1] must be finite"),
    (["rmt-compare", "--ic_grid", "1", "--eps_list", "1e-3,1.0000001e-3"],  # one file name
     "eps_list (0.001, 0.0010000001) writes rmt_compare_eps0.001.tsv more than once"),
    # a key the run would not read: eps beside eps_list, pool without rdm
    (["rmt-compare", "--eps", "0.5", "--eps_list", "1e-3"], "rmt-compare does not read ['eps']"),
    (["stats", "--pool", "top"], "stats does not read ['pool']"),
    (["stats", "--stats_mode", "state", "--pool", "all"], "stats does not read ['pool']"),
    # a state-mode stats run evolves the first top alone, and k1 replaces k
    (["stats", "--eps", "0.5", "--k1", "2"], "stats does not read ['eps', 'k1']"),
    (["evolve", "--k", "3", "--k1", "2", "--k2", "2"], "evolve does not read ['k']"),
]


@pytest.mark.parametrize("argv, reason", [pytest.param(*case, id=" ".join(case[0]))
                                          for case in REJECTED_INPUTS])
def test_rejected_input_is_config_error(tmp_path, capsys, argv, reason):
    # argparse keeps the last value, so the case's flags win over the base
    kind, *flags = argv
    assert main([kind, *BASE_FLAGS[kind], *flags, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {reason}")
    assert list(tmp_path.iterdir()) == []


def test_unread_key_is_rejected(tmp_path, capsys):
    # a key the subcommand does not read is no flag of it, and a config file
    # or manifest that sets it is a config error: exit 1, and nothing written
    out = tmp_path / "out"
    assert main(["evolve", "--j", "4", "--steps", "2", "--eps_list", "0.5",
                 "--out", str(out)]) == 1
    assert "unrecognized arguments: --eps_list 0.5" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("j = 4\nsteps = 2\neps_list = 0.5\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: evolve does not read ['eps_list']")
    assert not out.exists()
    with pytest.raises(ConfigError, match=r"evolve does not read \['eps_list'\]"):
        config_from_manifest_text("kind = evolve\neps_list = 0.5\n")


def test_kind_line_naming_another_subcommand_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("kind = portrait\nj = 4\nsteps = 2\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: kind = portrait names another subcommand than evolve")
    assert not out.exists()
    cfg.write_text("kind = evolve\nj = 4\nsteps = 2\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("out", ["o#1", "o\nsteps = 9", "o\r", "o\n"])
def test_out_that_would_cut_its_manifest_line_is_rejected(out):
    # the manifest line `out = o#1` would read back as out = "o", and a line
    # break would end the line or add one
    with pytest.raises(ConfigError, match="out must not contain '#' or a line break"):
        RunConfig(kind="deltaneff", j=4, steps=2, out=out)


def test_each_subcommand_offers_only_the_keys_it_reads(capsys):
    for kind, (_, keys) in SUBCOMMANDS.items():
        for key in set(RunConfig.__dataclass_fields__) - {"kind", *keys}:
            assert main([kind, f"--{key}", "1"]) == 1
            assert f"unrecognized arguments: --{key} 1" in capsys.readouterr().err


class RecordingConfig(RunConfig):
    """A RunConfig that notes the name of each field read into `reads`."""

    reads = set()

    def __getattribute__(self, name):
        if name in RunConfig.__dataclass_fields__:
            RecordingConfig.reads.add(name)
        return super().__getattribute__(name)


def test_subcommand_table_names_the_keys_each_run_reads(tmp_path, monkeypatch):
    # the union of the fields each experiment reads over the golden cases, and
    # over runs without snapshots and without eps_list, is its row of the table
    echo = config_lines

    def unrecorded_echo(cfg):  # the manifest echoes keys; it does not use them
        before = set(RecordingConfig.reads)
        lines = echo(cfg)
        RecordingConfig.reads.intersection_update(before)
        return lines

    monkeypatch.setattr("ktops.cli.config_lines", unrecorded_echo)
    cases = [(kind, parse_config_text("".join(f"{k} = {v}\n" for k, v in keys.items())))
             for kind, keys in GOLDEN_CASES.values()]
    cases += [("husimi", dict(j=10, steps=20, n_theta=10, n_phi=20)),
              ("stats", dict(j=10, steps=20)),
              ("rmt-compare", dict(j=10, steps=20, ic_grid=2))]
    reads = {kind: set() for kind in SUBCOMMANDS}
    for i, (kind, mapping) in enumerate(cases):
        cfg = RecordingConfig(kind=kind, out=str(tmp_path / str(i)), **mapping)
        RecordingConfig.reads.clear()
        run(cfg)
        reads[kind] |= RecordingConfig.reads - {"kind"}
    assert reads == {kind: set(keys) for kind, (_, keys) in SUBCOMMANDS.items()}


def test_scripts_set_only_keys_their_subcommand_reads():
    # the scripts build RunConfig directly, past config_from_mapping's check
    scripts = set()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RunConfig":
                values = {kw.arg: kw.value for kw in node.keywords}
                kind = ast.literal_eval(values.pop("kind"))
                settings = {key: val.value if isinstance(val, ast.Constant) else val
                            for key, val in values.items()}
                assert set(values) <= set(_keys_read(kind, settings)), (path.name, kind)
                scripts.add(path.name)
    assert scripts == {path.name for path in (ROOT / "scripts").glob("*.py")}


class TestRunEvolve:
    def test_columns_and_finiteness(self, tmp_path):
        cfg = RunConfig(kind="evolve", j=8, k=6.0, eps=1e-2, steps=20, out=str(tmp_path))
        run(cfg)
        header, data = read_table(tmp_path / "evolve_entropy.tsv")
        assert header == ["n", "S_V", "S_R", "delta_n_eff", "gamma"]
        assert data.shape == (20, 5)
        assert np.isfinite(data).all()
        assert np.array_equal(data[:, 0], np.arange(1, 21))

    def test_zero_coupling_columns_vanish(self, tmp_path):
        cfg = RunConfig(kind="evolve", j=10, k=6.0, eps=0.0, steps=50, out=str(tmp_path))
        run(cfg)
        _, data = read_table(tmp_path / "evolve_entropy.tsv")
        assert np.abs(data[:, 1]).max() < 1e-10  # S_V
        assert np.abs(data[:, 2]).max() < 1e-10  # S_R

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = RunConfig(kind="evolve", j=6, steps=10, out=str(tmp_path / "a"))
        cfg2 = RunConfig(kind="evolve", j=6, steps=10, out=str(tmp_path / "b"))
        run(cfg1)
        run(cfg2)
        assert (tmp_path / "a" / "evolve_entropy.tsv").read_bytes() == (
            tmp_path / "b" / "evolve_entropy.tsv"
        ).read_bytes()

    def test_stride(self, tmp_path):
        cfg = RunConfig(kind="evolve", j=6, steps=20, stride=5, out=str(tmp_path))
        run(cfg)
        _, data = read_table(tmp_path / "evolve_entropy.tsv")
        assert list(data[:, 0]) == [5.0, 10.0, 15.0, 20.0]


class TestRunPortrait:
    def test_file_shape(self, tmp_path):
        cfg = RunConfig(
            kind="portrait", k=6.0, portrait_grid=3, portrait_iters=10, out=str(tmp_path)
        )
        run(cfg)
        header, data = read_table(tmp_path / "portrait_points.tsv")
        assert header == ["phi", "cos_theta"]
        assert data.shape == (9 * 11, 2)
        assert np.abs(data[:, 1]).max() <= 1.0
        assert np.abs(data[:, 0]).max() <= math.pi + 1e-9


class TestRunHusimi:
    def test_snapshot_files(self, tmp_path):
        cfg = RunConfig(
            kind="husimi", j=8, k=6.0, eps=1e-2, steps=4, snapshots=(0, 4),
            n_theta=30, n_phi=60, out=str(tmp_path),
        )
        run(cfg)
        for name in ("husimi_n00000.tsv", "husimi_n00004.tsv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert "n_theta=30" in lines[0] and "n_phi=60" in lines[0]
            assert len(lines) == 31
            grid = np.array([[float(t) for t in line.split("\t")] for line in lines[1:]])
            assert grid.shape == (30, 60)
            assert np.isfinite(grid).all() and grid.min() >= 0.0

    def test_each_field_is_written_before_the_next_is_computed(self, tmp_path, monkeypatch):
        # run() writes each table as the experiment yields it, so one field
        # at a time is held
        calls = []

        def recorded(label, fn):
            def wrapper(*args, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr("ktops.cli.husimi_field", recorded("field", husimi_field))
        monkeypatch.setattr("ktops.cli._write_table", recorded("write", _write_table))
        cfg = RunConfig(kind="husimi", j=4, steps=3, snapshots=(0, 2, 3), n_theta=3,
                        n_phi=4, out=str(tmp_path))
        assert sorted(run(cfg).files) == [f"husimi_n0000{n}.tsv" for n in (0, 2, 3)]
        assert calls == ["field", "write"] * 3

    def test_initial_snapshot_is_localized_blob(self, tmp_path):
        cfg = RunConfig(
            kind="husimi", j=20, k=6.0, eps=1e-2, steps=2, snapshots=(0,),
            n_theta=50, n_phi=100, out=str(tmp_path),
        )
        run(cfg)
        lines = (tmp_path / "husimi_n00000.tsv").read_text().splitlines()
        grid = np.array([[float(t) for t in line.split("\t")] for line in lines[1:]])
        it, ip = np.unravel_index(np.argmax(grid), grid.shape)
        theta = (it + 0.5) * math.pi / 50
        phi = -math.pi + (ip + 0.5) * 2 * math.pi / 100
        assert abs(theta - 0.89) < 0.1 and abs(phi - 0.63) < 0.1


class TestRunRmtCompare:
    def test_columns(self, tmp_path):
        cfg = RunConfig(
            kind="rmt-compare", j=8, eps=1e-2, steps=12, ic_grid=2, out=str(tmp_path)
        )
        run(cfg)
        header, data = read_table(tmp_path / "rmt_compare_eps0.01.tsv")
        assert header == ["n", "sr_measured", "sr_exact_sum", "sr_closed_form"]
        assert data.shape == (12, 4)
        assert np.isfinite(data).all()

    def test_zero_coupling_all_columns_zero(self, tmp_path):
        cfg = RunConfig(
            kind="rmt-compare", j=6, eps=0.0, steps=8, ic_grid=2, out=str(tmp_path)
        )
        run(cfg)
        _, data = read_table(tmp_path / "rmt_compare_eps0.tsv")
        assert np.abs(data[:, 1:]).max() < 1e-10

    def test_eps_list_writes_one_file_each(self, tmp_path):
        cfg = RunConfig(
            kind="rmt-compare", j=6, eps_list=(1e-3, 1e-2), steps=5, ic_grid=2,
            out=str(tmp_path),
        )
        manifest = run(cfg)
        assert set(manifest.files) == {
            "rmt_compare_eps0.001.tsv", "rmt_compare_eps0.01.tsv"
        }


class TestRunStats:
    def test_state_mode(self, tmp_path):
        cfg = RunConfig(
            kind="stats", j=10, k=6.0, snapshots=(40,), out=str(tmp_path)
        )
        run(cfg)
        header, data = read_table(tmp_path / "stats_components.tsv")
        assert header == ["re", "im", "n_abs2"]
        assert data.shape == (21, 3)  # one snapshot of the N = 21 state
        header, summary = read_table(tmp_path / "stats_summary.tsv")
        assert header[:4] == ["mean_re", "var_re", "mean_im", "var_im"]
        assert summary.shape == (1, 6)
        assert 0.0 <= summary[0, 4] <= 1.0

    def test_initial_coherent_state_fails_exponential(self, tmp_path):
        cfg = RunConfig(kind="stats", j=40, k=6.0, snapshots=(0,), out=str(tmp_path))
        run(cfg)
        _, summary = read_table(tmp_path / "stats_summary.tsv")
        assert summary[0, 4] > 0.5  # KS near 1 for a localized vector

    def test_rdm_mode_pools_eigenvectors(self, tmp_path):
        cfg = RunConfig(
            kind="stats", j=6, k=6.0, eps=1e-2, snapshots=(5,), stats_mode="rdm",
            pool="all", out=str(tmp_path),
        )
        run(cfg)
        _, data = read_table(tmp_path / "stats_components.tsv")
        assert data.shape == (169, 3)  # 13 eigenvectors x 13 components

    def test_rdm_mode_top_pool(self, tmp_path):
        cfg = RunConfig(
            kind="stats", j=6, k=6.0, eps=1e-2, snapshots=(5,), stats_mode="rdm",
            pool="top", out=str(tmp_path),
        )
        run(cfg)
        _, data = read_table(tmp_path / "stats_components.tsv")
        assert data.shape == (78, 3)  # top half: 6 of 13 eigenvectors
