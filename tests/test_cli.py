import importlib.util
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ktops
from ktops import cli
from ktops.cli import (
    SUBCOMMANDS,
    ConfigError,
    RunConfig,
    _build_parser,
    _write_table,
    config_from_mapping,
    config_lines,
    main,
    parse_config_text,
    resolve_config,
    run,
)
from ktops.husimi import husimi_field
from ktops.spincore import coherent_amplitude_block
from test_golden import CASES as GOLDEN_CASES

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[0][2:].split("\t")
    data = np.array([[float(tok) for tok in line.split("\t")] for line in lines[1:]])
    return header, data


def src_env(**overrides) -> dict:
    """This process's environment with these variables set and src first on
    PYTHONPATH, for running ktops in a subprocess."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def overflow(*args):
    """A kernel stand-in that fails naming its process; module-level, so
    that a pool sends it to a worker by reference."""
    raise FloatingPointError(f"in process {os.getpid()}")


def exhausted(*args):
    """As overflow, for an allocation that fails."""
    raise MemoryError(f"in process {os.getpid()}")


TEST_PID = os.getpid()


def killed(*args):
    """As overflow, for a worker that the kernel kills: it sends itself
    SIGKILL, but only in a process other than the test's own."""
    if os.getpid() == TEST_PID:
        raise AssertionError("the killing stand-in ran in the test's own process")
    os.kill(os.getpid(), signal.SIGKILL)


def test_import_leaves_scipy_linalg_unloaded():
    # ktops imports no scipy module (scipy.linalg alone would add 0.10-0.13 s
    # to every CLI start-up; Si and Ci are computed in rmt with math alone);
    # the process pool's modules are imported by a pooled run alone
    code = (
        "import sys, ktops.cli\n"
        "for name in ('scipy', 'multiprocessing', 'concurrent.futures'):\n"
        "    assert name not in sys.modules, name"
    )
    subprocess.run([sys.executable, "-c", code], env=src_env(), check=True)


@pytest.mark.parametrize("threads", ["1", None], ids=["pooled", "in-process"])
def test_rmt_compare_runs_without_scipy(tmp_path, threads):
    # scipy is no dependency: with every scipy import failing, rmt-compare
    # runs pooled (1 BLAS thread, so 2 workers on 2 CPUs) and in one
    # process, and writes each table and its manifest
    env = src_env()
    for var in BLAS_THREAD_VARS:
        env.pop(var, None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from ktops.cli import main\n"
        "sys.exit(main(['rmt-compare', '--j', '6', '--steps', '5', '--ic_grid', '2', "
        f"'--eps_list', '1e-3,1e-2', '--out', {str(tmp_path)!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "rmt_compare_eps0.001.tsv", "rmt_compare_eps0.01.tsv", "rmt_compare_manifest.txt"]
    for name in ("rmt_compare_eps0.001.tsv", "rmt_compare_eps0.01.tsv"):
        assert read_table(tmp_path / name)[1].shape == (5, 4)


# a child that replaces ctypes.CDLL, before ktops is imported, by a library
# whose mallopt records each call and then makes it, or that has no mallopt
HEAP_PAD_SPY = """
import ctypes, sys
calls = []
class Spy(ctypes.CDLL):
    def __getattr__(self, name):
        if name != "mallopt":
            return super().__getattr__(name)
        if sys.argv[1] == "without":
            raise AttributeError(name)
        real = super().__getattr__(name)
        def mallopt(param, value):
            calls.append((param, value))
            return real(param, value)
        return mallopt
ctypes.CDLL = Spy
import ktops, ktops.cli
assert calls == [], calls
assert ktops.cli.main(sys.argv[2:]) == 0
print(calls)
"""


def test_main_pads_the_heap_once(tmp_path):
    # a library import changes no process setting; main sets glibc's
    # M_TOP_PAD (-2) to 16 MiB once, and without mallopt it runs as before
    for argv in (["rmt-compare", "--j", "10", "--steps", "20", "--eps_list", "1e-3,1e-2"],
                 ["evolve", "--j", "10", "--steps", "20"]):
        tables = {}
        for libc in ("with", "without"):
            out = tmp_path / argv[0] / libc
            proc = subprocess.run(
                [sys.executable, "-c", HEAP_PAD_SPY, libc, *argv, "--out", str(out)],
                env=src_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == {"with": "[(-2, 16777216)]",
                                                    "without": "[]"}[libc]
            tables[libc] = {path.name: path.read_bytes() for path in out.glob("*.tsv")}
        assert tables["with"] and tables["with"] == tables["without"], argv[0]


def test_evolve_bytes_repeat_at_one_blas_thread_count(tmp_path):
    # identical configs give identical bytes on one BLAS build at one thread
    # count; at j = 80 the BLAS splits its products by thread count, so the
    # two counts may differ in the last digits, which is printed, not asserted
    tables = {}
    for threads in ("1", "2"):
        runs = []
        for rep in range(2):
            out = tmp_path / f"threads{threads}_run{rep}"
            subprocess.run([sys.executable, "-m", "ktops.cli", "evolve", "--j", "80",
                            "--steps", "30", "--out", str(out)],
                           env=src_env(OPENBLAS_NUM_THREADS=threads), check=True,
                           capture_output=True)
            runs.append(out / "evolve_entropy.tsv")
        assert runs[0].read_bytes() == runs[1].read_bytes(), f"{threads} BLAS thread(s)"
        tables[threads] = read_table(runs[0])[1]
    diff = np.abs(tables["1"] - tables["2"])
    rel = diff / np.maximum(np.abs(tables["1"]), np.finfo(float).tiny)
    print(f"1 vs 2 BLAS threads: {int((diff.max(axis=1) > 0).sum())} of {len(diff)} rows "
          f"differ, by up to {diff.max():.1e} absolute and {rel.max():.1e} relative")


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
# unset); k is unread beside k1
ROUND_TRIPS = [
    ("evolve", dict(COUPLED, k1=2.0, stride=2), ("k",)),
    ("portrait", dict(k=2.5, portrait_grid=2, portrait_iters=3), ()),
    ("husimi", dict(COUPLED, k=2.5, snapshots=(1, 3), n_theta=3, n_phi=4), ("k1",)),
    ("deltaneff", dict(FIRST_TOP, stride=2), ()),
    ("rmt-compare", dict(j=4, k1=2.0, k2=3.0, eps_list=(1e-3,), steps=3, ic_grid=1), ("k",)),
    ("rmt-compare", dict(j=4, k=2.5, k2=3.0, eps_list=(1e-3, 1e-2), steps=3, ic_grid=1),
     ("k1",)),
    ("stats", dict(FIRST_TOP, snapshots=(2,)), ()),
    ("stats-rdm", dict(COUPLED, k1=2.0, snapshots=(2,)), ("k",)),
]


class TestManifest:
    def test_round_trip(self, tmp_path):
        # the manifest is a config file of kind and exactly the keys the run
        # reads, and rebuilds the config; its comments then give the version,
        # the duration to the ms, and the data rows of each file, sorted, as
        # run returns them
        for i, (kind, values, unset) in enumerate(ROUND_TRIPS):
            default = RunConfig(kind=kind)
            assert all(val != getattr(default, key) for key, val in values.items())
            out = tmp_path / str(i)
            cfg = RunConfig(kind=kind, out=str(out), **values)
            rows = run(cfg)
            text = (out / f"{kind.replace('-', '_')}_manifest.txt").read_text()
            keys = [line.split(" = ")[0] for line in text.splitlines() if not line.startswith("#")]
            read = [key for key in SUBCOMMANDS[kind][1] if key not in unset]
            assert keys == ["kind", *read]
            assert set(read) == set(values) | {"out"}
            cfg2 = config_from_mapping(kind, parse_config_text(text))
            assert cfg2 == cfg
            assert config_lines(cfg2) == config_lines(cfg)
            lines, n = text.splitlines(), len(keys) + 1
            assert lines[:n] == ["# run manifest", *config_lines(cfg)]
            assert lines[n] == f"# artifact_version = {ktops.__version__}"
            assert re.fullmatch(r"# duration_seconds = \d+\.\d{3}", lines[n + 1])
            assert sorted(rows) == sorted(path.name for path in out.glob("*.tsv"))
            assert lines[n + 2:] == [f"# output_rows.{name} = {rows[name]}" for name in sorted(rows)]

    def test_manifest_counts_rows(self, tmp_path):
        cfg = RunConfig(kind="deltaneff", j=4, k=6.0, steps=7, out=str(tmp_path))
        rows = run(cfg)
        header, data = read_table(tmp_path / "deltaneff_single.tsv")
        assert len(data) == rows["deltaneff_single.tsv"] == 7


class TestWriteTable:
    @staticmethod
    def joined(header, rows):
        # the oracle: one str(n) or f"{x:.12e}" per value, joined per row
        lines = [header] + ["\t".join(str(v) if isinstance(v, int) else f"{v:.12e}"
                                      for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    def test_floats_match_per_value_format(self, tmp_path):
        values = np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0,
                           12345678901245.0,  # a tie in the 14th digit, rounded to even
                           9.9999999999995e5, -9.99999999999997e5,  # round up a decade
                           9.999999999999347e279,  # log10 rounds up to 280.0
                           math.nan, math.inf, -math.inf,
                           # exponents of width 2 and 3, each side of |e| = 280
                           1.5e99, -1.5e-99, -2.5e100, 2.5e-100,
                           3.5e280, -3.5e-280, -4.5e281, 4.5e-281])
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

    @settings(max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.one_of(
        st.integers(0, 2**63 - 1),  # any magnitude
        st.integers(0x7FF0000000000000, 2**63 - 1),  # inf and NaN payloads
        st.integers(1, 2**52 - 1),  # subnormals
        st.integers(0x3000000000000000, 0x5000000000000000),  # |e| up to 77
    ), st.booleans()), min_size=1, max_size=300))
    def test_random_bit_doubles_match_per_value_format(self, tmp_path, draws):
        bits = np.array([b | sign << 63 for b, sign in draws], dtype=np.uint64)
        values = bits.view(np.float64)
        path = tmp_path / "bits.tsv"
        assert _write_table(path, "# x", values) == len(values)
        assert path.read_bytes() == self.joined("# x", values[:, None].tolist()).encode()

    def test_table_taller_than_the_row_block(self, tmp_path):
        n_rows = 2 * (cli._BLOCK_VALUES // 3) + 3  # three values a row
        n = np.arange(n_rows) * 7919
        rng = np.random.default_rng(5)
        xy = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-30, 30, (n_rows, 2))
        path = tmp_path / "tall.tsv"
        assert _write_table(path, "# n\tx\ty", n, xy) == n_rows
        rows = [(i, *r) for i, r in zip(n.tolist(), xy.tolist())]
        assert path.read_bytes() == self.joined("# n\tx\ty", rows).encode()

    def test_table_wider_than_the_block(self, tmp_path):
        # each row is more values than one block holds, so a block is one row
        n = np.array([3, -1, 10**9])
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, cli._BLOCK_VALUES + 5)) * 10.0 ** rng.integers(-30, 30)
        path = tmp_path / "wide.tsv"
        assert _write_table(path, "# wide", n, x) == 3
        rows = [(i, *r) for i, r in zip(n.tolist(), x.tolist())]
        assert path.read_bytes() == self.joined("# wide", rows).encode()

    def test_signed_zeros_among_values_wider_than_the_block(self, tmp_path):
        # mostly +0.0 and -0.0, as in a Husimi field clipped at zero, with
        # ordinary values between them; each row is more values than one block holds
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, cli._BLOCK_VALUES + 5)) * 10.0 ** rng.integers(-30, 30)
        x[rng.random(x.shape) < 0.8] = 0.0
        x[rng.random(x.shape) < 0.4] *= -1.0
        path = tmp_path / "zeros.tsv"
        assert _write_table(path, "# zeros", x) == 3
        assert np.signbit(x[x == 0.0]).any() and not np.signbit(x[x == 0.0]).all()
        assert path.read_bytes() == self.joined("# zeros", x.tolist()).encode()

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

    @pytest.mark.parametrize("argv", [
        ["deltaneff", "--j", "320", "--steps", "1"],  # m2_pure overflows at j = 320
        ["evolve", "--j", "261", "--steps", "3"],  # m2_rdm overflows at step 3 from j = 261
    ], ids=" ".join)
    def test_numeric_range_error(self, tmp_path, capsys, argv):
        # exit 1 with one message, and no output
        rc = main([*argv, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--portrait_grid", "1", "--portrait_iters", "100000000000000"],  # 1.42 PiB of orbit
        ["--portrait_grid", "6000000", "--portrait_iters", "1"],  # a 262 TiB meshgrid
    ], ids=" ".join)
    def test_failed_allocation_is_one_line(self, tmp_path, capsys, argv):
        # each array is past the 128 TiB of a 64-bit user address space, so
        # it is refused at once, before any of it is touched
        rc = main(["portrait", *argv, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1 and err.startswith("out of memory")
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
        ["evolve", "--phi0=-1e308"],
        ["evolve", "--phi0_2=1e308"],
        ["stats-rdm", "--phi0=1e308"],
        ["stats-rdm", "--phi0_2=-1e308"],
        ["husimi", "--phi0=-1e308"],
        ["husimi", "--phi0_2=1e308"],
        ["stats", "--phi0=1e308"],
        ["stats", "--phi0=-1e308"],
        ["deltaneff", "--phi0=1e308"],
    ], ids=" ".join)
    def test_phase_overflow_is_numeric_range_error(self, tmp_path, capsys, argv):
        # finite but huge kick, coupling or coherent-state phi: non-finite
        # phases, no NaN row, and no file from an eps computed before the
        # failing one; an eps whose closed-form bracket leaves the float
        # range (1e200, 1e307) fails the same way
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
        cfg = config_from_mapping("rmt-compare", parse_config_text(text))
        assert (cfg.ic_grid, cfg.eps_list) == (1, (0.001, 0.01))


# small values of keys each subcommand reads, given before a case's flags
BASE_FLAGS = {
    "evolve": ["--j", "4", "--steps", "3"],
    "portrait": ["--portrait_grid", "2", "--portrait_iters", "3"],
    "husimi": ["--j", "4", "--steps", "3", "--n_theta", "3", "--n_phi", "4"],
    "deltaneff": ["--j", "4", "--steps", "3"],
    "rmt-compare": ["--j", "4", "--steps", "3", "--ic_grid", "1"],
    "stats": ["--j", "4", "--steps", "3"],
    "stats-rdm": ["--j", "4", "--steps", "3"],
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
    (["stats-rdm", "--snapshots", "0,4"], "snapshots must lie in [0, steps = 3]"),
    # k1 replaces k, so the run would not read k
    (["evolve", "--k", "3", "--k1", "2", "--k2", "2"], "evolve does not read ['k']"),
    (["stats-rdm", "--k", "3", "--k1", "2"], "stats-rdm does not read ['k']"),
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
        config_from_mapping("evolve", parse_config_text("kind = evolve\neps_list = 0.5\n"))


# (subcommand, config file lines, the start of its error message after
# "config error: "); rmt-compare reads eps_list alone, stats evolves the first
# top alone, and stats_mode and pool are no keys
REJECTED_CONFIGS = [
    ("rmt-compare", ["eps = 0.5", "eps_list = 1e-3"], "rmt-compare does not read ['eps']"),
    ("stats", ["eps = 0.5", "k1 = 2"], "stats does not read ['eps', 'k1']"),
    ("stats", ["pool = top"], "line 1: unknown key 'pool'"),
    ("stats", ["stats_mode = state", "pool = all"], "line 1: unknown key 'stats_mode'"),
    ("evolve", ["j = 10", "steps = 3", "j = 20"], "lines 1 and 3 both set 'j'"),
]


@pytest.mark.parametrize("kind, lines, reason", [
    pytest.param(*case, id=f"{case[0]} {'; '.join(case[1])}") for case in REJECTED_CONFIGS])
def test_rejected_config_file_is_config_error(tmp_path, capsys, kind, lines, reason):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{line}\n" for line in lines))
    out = tmp_path / "out"
    assert main([kind, *BASE_FLAGS[kind], "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {reason}")
    assert not out.exists()


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


@pytest.mark.parametrize("out", ["o#1", "o\nsteps = 9", "o\r", "o\n", " o", "o ", "o\t"])
def test_out_that_would_cut_its_manifest_line_is_rejected(out):
    # the manifest line `out = o#1` would read back as out = "o", a line
    # break would end the line or add one, and outer whitespace is stripped
    with pytest.raises(ConfigError, match="out must not contain '#' or a line break"):
        RunConfig(kind="deltaneff", j=4, steps=2, out=out)


def test_each_subcommand_offers_only_the_keys_it_reads(capsys):
    # and no prefix of a flag, which argparse would take for the flag:
    # rmt-compare --eps would mean --eps_list
    for kind, (_, keys) in SUBCOMMANDS.items():
        prefixes = {flag[:-1] for flag in ("config", *keys) if len(flag) > 2}
        for key in set(RunConfig.__dataclass_fields__) - {"kind", *keys} | prefixes:
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
              ("stats-rdm", dict(j=10, steps=20)),
              ("rmt-compare", dict(j=10, steps=20, ic_grid=2))]
    reads = {kind: set() for kind in SUBCOMMANDS}
    for i, (kind, mapping) in enumerate(cases):
        cfg = RecordingConfig(kind=kind, out=str(tmp_path / str(i)), **mapping)
        RecordingConfig.reads.clear()
        run(cfg)
        reads[kind] |= RecordingConfig.reads - {"kind"}
    assert reads == {kind: set(keys) for kind, (_, keys) in SUBCOMMANDS.items()}


def load_figures():
    spec = importlib.util.spec_from_file_location("figures", ROOT / "scripts" / "figures.py")
    figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(figures)
    return figures


def test_figure_lines_resolve_and_write_apart():
    # resolved as main resolves them, without running: the parser offers
    # only the keys a subcommand reads, and the config checks every value
    outs = {}
    for line in {line for lines in load_figures().FIGURES.values() for line in lines}:
        cfg = resolve_config(_build_parser().parse_args(line.split()))
        assert outs.setdefault(cfg.out, line) == line, f"{line!r} and {outs[cfg.out]!r}"


def test_figures_run_each_distinct_line_once(monkeypatch, capsys):
    figures = load_figures()
    runs = []
    monkeypatch.setattr(cli, "main", lambda argv: runs.append(argv) or 0)
    assert figures.main(["occupancy", "entropy"]) == 0
    shared = set(map(tuple, (line.split() for line in figures.FIGURES["entropy"])))
    assert len(runs) == len(set(map(tuple, runs))) == 4 + len(shared)
    assert shared < set(map(tuple, runs))
    runs.clear()
    assert figures.main([]) == 0
    assert len(runs) == len({line for lines in figures.FIGURES.values() for line in lines})


def test_figures_stop_at_the_first_failed_run(monkeypatch, capsys):
    figures = load_figures()
    runs = []
    monkeypatch.setattr(cli, "main", lambda argv: runs.append(argv) or (2 if len(runs) == 2 else 0))
    assert figures.main(["portraits"]) == 2 and len(runs) == 2
    runs.clear()
    assert figures.main(["portraits", "nope"]) == 1 and runs == []
    assert "nope" in capsys.readouterr().err


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
        monkeypatch.setattr("ktops.husimi.coherent_amplitude_block",
                            recorded("amplitudes", coherent_amplitude_block))
        cfg = RunConfig(kind="husimi", j=4, steps=3, snapshots=(0, 2, 3), n_theta=3,
                        n_phi=4, out=str(tmp_path))
        assert sorted(run(cfg)) == [f"husimi_n0000{n}.tsv" for n in (0, 2, 3)]
        # the grid builds its amplitudes in the first field and keeps them
        assert calls == ["field", "amplitudes", "write"] + ["field", "write"] * 2

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
            kind="rmt-compare", j=8, eps_list=(1e-2,), steps=12, ic_grid=2, out=str(tmp_path)
        )
        run(cfg)
        header, data = read_table(tmp_path / "rmt_compare_eps0.01.tsv")
        assert header == ["n", "sr_measured", "sr_exact_sum", "sr_closed_form"]
        assert data.shape == (12, 4)
        assert np.isfinite(data).all()

    def test_zero_coupling_all_columns_zero(self, tmp_path):
        cfg = RunConfig(
            kind="rmt-compare", j=6, eps_list=(0.0,), steps=8, ic_grid=2, out=str(tmp_path)
        )
        run(cfg)
        _, data = read_table(tmp_path / "rmt_compare_eps0.tsv")
        assert np.abs(data[:, 1:]).max() < 1e-10

    def test_eps_list_writes_one_file_each(self, tmp_path):
        cfg = RunConfig(
            kind="rmt-compare", j=6, eps_list=(1e-3, 1e-2), steps=5, ic_grid=2,
            out=str(tmp_path),
        )
        assert set(run(cfg)) == {
            "rmt_compare_eps0.001.tsv", "rmt_compare_eps0.01.tsv"
        }


def cli_bytes(outdir: Path, argv: list, pin_cpu=None) -> dict:
    """The TSVs of one ktops subprocess running argv at 1 BLAS thread,
    pinned to the CPU pin_cpu if given: file name -> bytes."""
    pin = None if pin_cpu is None else (lambda: os.sched_setaffinity(0, {pin_cpu}))
    subprocess.run([sys.executable, "-m", "ktops.cli", *argv, "--out", str(outdir)],
                   env=src_env(OPENBLAS_NUM_THREADS="1"), preexec_fn=pin, check=True,
                   capture_output=True)
    return {path.name: path.read_bytes() for path in sorted(outdir.glob("*.tsv"))}


class TestRmtComparePool:
    def test_bytes_do_not_depend_on_the_worker_count(self, tmp_path):
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2:
            pytest.skip("one CPU: every run has one worker")
        # evolve: 7 rows, the last (n = 20) off the stride, so 2 parts of 4 and 3
        for argv, n_files in [
            (["rmt-compare", "--j", "20", "--steps", "15", "--ic_grid", "3",
              "--eps_list", "1e-3,1e-2"], 2),
            (["evolve", "--j", "20", "--steps", "20", "--stride", "3"], 1),
        ]:
            pinned = cli_bytes(tmp_path / argv[0] / "pinned", argv, pin_cpu=min(cpus))
            assert len(pinned) == n_files, argv[0]
            assert cli_bytes(tmp_path / argv[0] / "all", argv) == pinned, argv[0]

    @pytest.mark.parametrize("env, cpus, tasks, workers", [
        ({}, 8, 48, 1),  # OpenBLAS's default: a thread per CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 48, 8),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, 48, 4),
        ({"OPENBLAS_NUM_THREADS": "3"}, 2, 48, 1),
        ({"OPENBLAS_NUM_THREADS": "4", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
         8, 48, 2),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 48, 4),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 8, 48, 4),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 8, 48, 8),
    ])
    def test_worker_count(self, monkeypatch, env, cpus, tasks, workers):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert cli._worker_count(tasks) == workers

    def test_default_environment_runs_in_process(self, tmp_path):
        # with no BLAS thread variable each BLAS pool spans every CPU, so
        # rmt-compare and evolve run here and import no pool, nor, since
        # they import no scipy module, concurrent.futures
        env = src_env()
        for var in BLAS_THREAD_VARS:
            env.pop(var, None)
        code = (
            "import sys, ktops.cli\n"
            "for kind in ('evolve', 'rmt-compare'):\n"
            f"    assert ktops.cli.main([kind, '--j', '4', '--steps', '3', "
            f"'--out', {str(tmp_path)!r}]) == 0\n"
            "    for name in ('multiprocessing', 'concurrent.futures'):\n"
            "        assert name not in sys.modules, (kind, name)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv, where, stand_in", [
        pytest.param(["rmt-compare", "--eps_list", "1e-3,1e-2"], None, None, id="1e-3,1e-2-None"),
        pytest.param(["rmt-compare", "--eps_list", "1e-2,1e200"], "parent", None,
                     id="1e-2,1e200-parent"),
        pytest.param(["rmt-compare", "--eps_list", "1e-2,1e307"], "parent", None,
                     id="1e-2,1e307-parent"),
        pytest.param(["rmt-compare", "--eps_list", "1e-3,1e-2"], "worker", overflow,
                     id="1e-3,1e-2-worker"),
        pytest.param(["evolve", "--phi0=1e308"], "parent", None, id="evolve-parent"),
        pytest.param(["evolve"], "worker", overflow, id="evolve-worker"),
        pytest.param(["evolve"], "worker", exhausted, id="evolve-worker-memory"),
        pytest.param(["evolve"], "worker", killed, id="evolve-worker-killed"),
        pytest.param(["rmt-compare", "--eps_list", "1e-3,1e-2"], "worker", killed,
                     id="1e-3,1e-2-worker-killed"),
    ])
    def test_no_child_outlives_main(self, tmp_path, capsys, monkeypatch, argv, where, stand_in):
        # a numeric range error, a failed allocation or a killed worker, in
        # this process or in a worker, exits 1 with one line and no file, as
        # in one process; a fork child inherits the patched kernel, which
        # only the workers call, so the worker's error names its own pid
        monkeypatch.setattr(cli, "_worker_count", lambda n_tasks: 2)
        if where == "worker":
            kernel = {"rmt-compare": "linear_entropy", "evolve": "m2_rdm"}[argv[0]]
            monkeypatch.setattr(cli, kernel, stand_in)
        rc = main(argv + ["--j", "4", "--steps", "3", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert multiprocessing.active_children() == []
        if where is None:
            assert rc == 0 and len(list(tmp_path.glob("*.tsv"))) == 2
            return
        assert rc == 1 and err.count("\n") == 1
        prefix = {exhausted: "out of memory", killed: "worker lost"}.get(stand_in,
                                                                        "numeric range error")
        assert err.startswith(prefix)
        assert list(tmp_path.iterdir()) == []
        if stand_in in (overflow, exhausted):
            assert "in process" in err and f"in process {os.getpid()}" not in err


def test_epsilons_are_the_couplings_the_run_reads():
    assert RunConfig(kind="evolve", eps=0.5).epsilons() == (0.5,)
    assert RunConfig(kind="husimi", eps=0.5).epsilons() == (0.5,)
    assert RunConfig(kind="stats-rdm", eps=0.5).epsilons() == (0.5,)
    assert RunConfig(kind="rmt-compare", eps=0.5, eps_list=(1e-3, 1e-2)).epsilons() == (1e-3, 1e-2)
    for kind in ("portrait", "deltaneff", "stats"):
        assert RunConfig(kind=kind, eps=0.5).epsilons() == ()


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
        # rho_1's support: all 13 eigenvectors at step 5, and at step 0 the
        # one of the pure product state, with no basis of its null space
        for step, vectors in ((5, 13), (0, 1)):
            cfg = RunConfig(
                kind="stats-rdm", j=6, k=6.0, eps=1e-2, snapshots=(step,),
                out=str(tmp_path / str(step)),
            )
            run(cfg)
            _, data = read_table(tmp_path / str(step) / "stats_components.tsv")
            assert data.shape == (vectors * 13, 3), step  # 13 components each
