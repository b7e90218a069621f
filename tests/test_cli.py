"""End-to-end command-line checks: determinism, exit codes, formats."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from vreslab import betti, cli, cox, vres
from vreslab.betti import (
    betti_numbers,
    betti_window,
    intersected_presentation,
    point_presentation,
)
from vreslab.cli import derive_seed, main
from vreslab.diffcalc import alternating_betti_from_hilbert
from vreslab.points import hilbert_matrix, hilbert_window, random_points
from vreslab.vres import predicted_pair_shape

from oracles import predicted_intersect_column_0, predicted_intersect_off_column_0


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


class TestDeterminism:
    def test_points_replay_identical(self, capsys):
        rc1, out1 = run(capsys, ["points", "--N", "4", "--seed", "11"])
        rc2, out2 = run(capsys, ["points", "--N", "4", "--seed", "11"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        rc1, out1 = run(capsys, ["betti", "--N", "3", "--seed", "5"])
        target = tmp_path / "bt.json"
        rc2, _ = run(capsys, ["betti", "--N", "3", "--seed", "5",
                              "--out", str(target)])
        assert rc1 == rc2 == 0
        assert target.read_text() == out1

    def test_out_file_is_replaced_and_kept_on_usage_error(self, capsys, tmp_path):
        # a second run rewrites the file, and a run that ends in a usage
        # error after the file was opened leaves it as it was
        target = tmp_path / "pts.json"
        argv = ["points", "--N", "3", "--seed", "5", "--out", str(target)]
        assert run(capsys, argv)[0] == run(capsys, argv)[0] == 0
        first = target.read_text()
        assert first.count("\n") == 1
        with pytest.raises(SystemExit) as exc:
            main(["points", "--N", "10", "--seed", "1", "--prime", "11", "--out", str(target)])
        assert exc.value.code == 2 and target.read_text() == first

    def test_seed_splitting_is_stable_and_spread(self):
        a = derive_seed(7, 12, 0)
        assert a == derive_seed(7, 12, 0)
        assert len({derive_seed(7, N, t) for N in range(2, 10)
                    for t in range(10)}) == 80


class TestPayloads:
    def test_hilbert_csv_matches_library(self, capsys):
        rc, out = run(capsys, ["hilbert", "--N", "4", "--seed", "11"])
        ps = random_points(1, 2, 4, seed=11, require_generic=True)
        want = cli._csv(hilbert_matrix(ps, hilbert_window(4, 1, 2)))
        assert rc == 0 and out.rstrip("\n") == want

    def test_dh_csv_matches_library(self, capsys):
        rc, out = run(capsys, ["dh", "--N", "4", "--seed", "11"])
        ps = random_points(1, 2, 4, seed=11, require_generic=True)
        h = hilbert_matrix(ps, hilbert_window(4, 1, 2))
        want = cli._csv(alternating_betti_from_hilbert(h, 1, 2))
        assert rc == 0 and out.rstrip("\n") == want

    def test_betti_json_matches_library(self, capsys):
        rc, out = run(capsys, ["betti", "--N", "3", "--seed", "5"])
        ps = random_points(1, 2, 3, seed=5, require_generic=True)
        bt = betti_numbers(point_presentation(ps, betti_window(3, 1, 2)))
        assert rc == 0 and out.strip() == bt.to_json()

    def test_pair_shape_matches_closed_form(self, capsys):
        rc, out = run(capsys, ["vres-pair", "--N", "6", "--d", "5,0",
                               "--seed", "106"])
        assert rc == 0
        assert out.strip() == predicted_pair_shape(6).to_json()

    def test_intersect_reports_length(self, capsys):
        rc, out = run(capsys, ["vres-intersect", "--N", "5", "--t", "4",
                               "--seed", "2"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["length"] == 3
        assert payload["table"]["boundary_clean"] is True

    def test_betti_window_missing_box_is_not_clean(self, capsys):
        # the Betti box of these six points is (6, 4): on (3, 5) the outer
        # strip holds no entry, yet 4 of the 14 entries lie in row 6
        rc, out = run(capsys, ["betti", "--N", "6", "--seed", "11", "--window", "3,5"])
        small = json.loads(out)
        rc_full, out = run(capsys, ["betti", "--N", "6", "--seed", "11"])
        full = json.loads(out)
        assert rc == rc_full == 0
        assert small["boundary_clean"] is False and full["boundary_clean"] is True
        inside = [e for e in full["entries"] if e["i"] <= 3 and e["j"] <= 5]
        assert small["entries"] == inside and len(inside) == 10 < len(full["entries"]) == 14

    def test_prime_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("VRES_PRIME", "101")
        rc, out = run(capsys, ["points", "--N", "2", "--seed", "3"])
        assert rc == 0 and json.loads(out)["p"] == 101
        rc, out = run(capsys, ["points", "--N", "2", "--seed", "3",
                               "--prime", "32003"])
        assert rc == 0 and json.loads(out)["p"] == 32003


class TestTrialsAndRegression:
    def test_mrc_small_range(self, capsys):
        rc, out = run(capsys, ["mrc", "--nmin", "2", "--nmax", "4",
                               "--trials", "3", "--seed", "7"])
        assert rc == 0
        summary = json.loads(out)
        assert summary["total"] == summary["passed"] == 9
        assert summary["failed"] == []

    def test_mrc_jobs_do_not_change_output(self, capsys):
        argv = ["mrc", "--nmin", "2", "--nmax", "3", "--trials", "2",
                "--seed", "7"]
        rc1, out1 = run(capsys, argv)
        rc2, out2 = run(capsys, argv + ["--jobs", "2"])
        assert rc1 == rc2 == 0 and out1 == out2

    def test_mrc_failure_reports_every_mismatch_value(self, capsys, monkeypatch):
        bad = {"cell": (2, 1), "dh": -3, "predicted": 3, "beta1": 2}
        monkeypatch.setattr(cli, "mrc_check", lambda ps: betti.MrcReport(
            (3, 2), True, False, {(2, 1): 3}, {(2, 1): 2}, [bad]))
        rc, out = run(capsys, ["mrc", "--nmin", "2", "--nmax", "2", "--trials", "1",
                               "--seed", "7"])
        assert rc == 1
        assert json.loads(out)["failures"]["failed"][0]["mismatches"] == [
            {"cell": [2, 1], "dh": -3, "predicted": 3, "beta1": 2}]

    def test_regress_appendix(self, capsys):
        rc, out = run(capsys, ["regress", "appendix", "--seed", "0"])
        assert rc == 0
        assert json.loads(out)["mismatches"] == []

    def test_regress_final(self, capsys):
        rc, out = run(capsys, ["regress", "final", "--seed", "0"])
        assert rc == 0
        assert json.loads(out)["checks"] == 1

    def test_log_records_have_metadata(self, capsys, tmp_path):
        log = tmp_path / "exp.jsonl"
        run(capsys, ["points", "--N", "3", "--seed", "5", "--log", str(log)])
        run(capsys, ["points", "--N", "3", "--seed", "5", "--log", str(log)])
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["command"] == "points"
        assert "timestamp" in rec and "runtime_ms" in rec
        assert rec["verdicts"] == {"generated": True}

    def test_failed_run_logs_the_failed_check(self, capsys, tmp_path):
        log = tmp_path / "exp.jsonl"
        rc, _ = run(capsys, ["vres-pair", "--N", "5", "--d", "0,0",
                             "--seed", "2", "--log", str(log)])
        assert rc == 1
        lines = log.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["command"] == "vres-pair" and rec["d"] == [0, 0]
        assert rec["verdicts"] == {"in_regularity": False}

    def test_failed_intersect_logs_the_failed_check(self, capsys, monkeypatch,
                                                    tmp_path):
        def fake(ps, t, window=None):
            raise AssertionError("length 4 != 3 with t = 4 certified")

        monkeypatch.setattr(cli, "intersect_vres", fake)
        log = tmp_path / "exp.jsonl"
        rc, out = run(capsys, ["vres-intersect", "--N", "5", "--t", "4",
                               "--seed", "2", "--log", str(log)])
        assert rc == 1
        assert json.loads(out)["failures"][0]["error"] == "AssertionError"
        rec = json.loads(log.read_text())
        assert rec["verdicts"] == {"length_ok": False} and rec["t"] == 4

    def test_mrc_jobs_capped_by_trials_and_cpus(self, capsys, monkeypatch):
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        rc, out = run(capsys, ["mrc", "--jobs", "4096", "--nmin", "2",
                               "--nmax", "3", "--trials", "1", "--seed", "7"])
        assert rc == 0 and json.loads(out)["total"] == 2
        assert seen == [2]


def test_importing_the_cli_loads_no_process_pool():
    # the pool is imported by the mrc command only when --jobs asks for one,
    # so every other start skips loading multiprocessing
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, vreslab.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"


# Sets the 2 GB address-space limit, then forks and execs the command
# given after the fd; writes the command's peak RSS to that fd and exits
# with its code.  A child forked from a large process carries that
# process's resident memory into its own high-water mark across execve, so
# the command is forked from this small interpreter, not from pytest.
LAUNCHER = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))
fd, argv = int(sys.argv[1]), sys.argv[2:]
pid = os.fork()
if pid == 0:
    os.execv(argv[0], argv)
_, status, usage = os.wait4(pid, 0)
os.write(fd, str(usage.ru_maxrss).encode())
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_limited(argv: str) -> tuple[int, str, str, int]:
    """Run the CLI under a 2 GB address-space limit, through ``LAUNCHER``;
    return its exit code, stdout, stderr and peak RSS in KiB (Linux units),
    read from its own rusage."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "vreslab.cli", *argv.split()]
    r, w = os.pipe()
    with os.fdopen(r) as peak:
        try:
            proc = subprocess.run([sys.executable, "-c", LAUNCHER, str(w), *command], env=env,
                                  pass_fds=(w,), capture_output=True, text=True)
        finally:
            os.close(w)
        return proc.returncode, proc.stdout, proc.stderr, int(peak.read())


@pytest.mark.skipif(sys.platform == "win32", reason="needs setrlimit")
@pytest.mark.parametrize("argv", [
    "hilbert --N 6 --seed 1 --window 100000000000,3",
    "dh --N 6 --seed 1 --window 100000000000,3",
])
def test_window_past_memory_is_usage_error(argv):
    # hilbert and dh print a table of the window's size (745 GiB for 10^11
    # rows), which does not fit in a 2 GB address space: a usage error that
    # names the window, with no traceback.  The CI step runs 10^8 rows
    rc, out, err, _ = run_limited(argv)
    assert rc == 2 and out == ""
    assert "Traceback" not in err
    assert "window (" in err and "100000000" in err


@pytest.mark.skipif(sys.platform == "win32", reason="needs setrlimit")
@pytest.mark.parametrize("argv, small", [
    ("vres-intersect --N 4 --t 100000000000 --seed 1", None),
    # t past int64: the rows are clamped to r_x in Python ints
    ("vres-intersect --N 4 --t 100000000000000000000000 --seed 1", None),
    ("vres-intersect --n 2 --m 1 --N 5 --t 100000000000000000000000 --seed 1", None),
    ("betti --N 6 --seed 1 --window 3,100000000000", "betti --N 6 --seed 1 --window 3,20"),
    ("vres-pair --N 6 --seed 1 --d 100000000000,0", "vres-pair --N 6 --seed 1 --d 5,0"),
])
def test_huge_windows_run_in_little_memory(capsys, argv, small):
    # every array but the printed table of hilbert and dh is cut at the
    # regularity or Betti box, so a 10^11-row window or t costs what the
    # box does: each command exits 0 under 2 GB, in well under 100 MB
    rc, out, err, peak_kib = run_limited(argv)
    assert rc == 0 and "Traceback" not in err
    if sys.platform.startswith("linux"):
        assert peak_kib < 100 * 1024
    if small is None:
        # N generic points of P^1 x P^2 (or P^2 x P^1) at t > r_x = N - 1
        opts = dict(zip(argv.split()[1::2], map(int, argv.split()[2::2])))
        n, m, N, t = opts.get("--n", 1), opts.get("--m", 2), opts["--N"], opts["--t"]
        payload = json.loads(out)
        got = {(e["k"], e["i"], e["j"]): e["beta"] for e in payload["table"]["entries"]}
        assert payload["length"] == n + m
        assert got == {**predicted_intersect_off_column_0(N, n, m, t),
                       **predicted_intersect_column_0(N, n, t)}
    elif argv.startswith("betti"):
        # the same table as on a window past the box's column 4, the window aside
        assert json.loads(out)["entries"] == json.loads(run(capsys, small.split())[1])["entries"]
    else:
        # the trim keeps d + (n, m), cut at the Betti box (6, 4) both times
        assert out == run(capsys, small.split())[1]


@pytest.mark.skipif(sys.platform == "win32", reason="needs setrlimit")
def test_stalled_kernel_columns_build_nothing():
    # on P^1 x P^1 at N = 150, t = 20, row 20 of the sweep saturates at
    # column 7, so the kernel of x1 under it is all of V(20, .) from there
    # to column 150, and y0 maps each column onto the next: those strands
    # are exact and build no kernel, function block or map (about 180 MB
    # when they did); the output is pinned in PINNED_OUTPUTS
    rc, out, err, peak_kib = run_limited("vres-intersect --n 1 --m 1 --N 150 --t 20 --seed 1")
    assert rc == 0 and "Traceback" not in err
    if sys.platform.startswith("linux"):
        assert peak_kib < 100 * 1024


@pytest.mark.parametrize("argv, window", [
    ("hilbert --N 3 --seed 1", True),
    ("dh --N 3 --seed 1 --window 4,4", True),
    ("betti --N 3 --seed 1 --window 4,4", False),
    ("vres-intersect --N 3 --t 2 --seed 1", False),
    ("vres-pair --N 3 --d 2,0 --seed 1", False),
])
def test_memory_error_names_the_window_only_where_it_is_allocated(capsys, monkeypatch,
                                                                  argv, window):
    # only hilbert and dh allocate by their window; any other command that
    # runs out of memory does so in the Koszul strands, not in the window
    def exhausted(*args, **kwargs):
        raise MemoryError

    for module in (cli, vres):
        monkeypatch.setattr(module, "betti_numbers", exhausted)
    monkeypatch.setattr(cli, "hilbert_matrix", exhausted)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert ("window (" in captured.err) == window
    assert window or "out of memory" in captured.err


# SHA-256 of the primary output of each command.  Outputs are byte-stable
# across versions, so a digest here is never regenerated to match new code.
PINNED_OUTPUTS = [
    ("hilbert --n 1 --m 2 --N 6 --seed 11",
     "5087d2d76af2e5220b2b7851676741aab7cd0a5c808bae423c00a68919c1b4d9"),
    ("dh --n 1 --m 2 --N 6 --seed 11",
     "88dd2ed118cba4bae97c941c2b9599be0bd3c973883d2b9df82399f464f9640a"),
    ("hilbert --n 2 --m 2 --N 4 --seed 5 --window 6,5",
     "30a0f64c04d0f18562c44b7bb0ba934e7a7342ef93cc21542a342e7f26f0ceb0"),
    ("dh --n 2 --m 1 --N 5 --seed 3",
     "6e184dda39e210bf3fde446abe981f059345fb4e716c8101993ca805897484b9"),
    ("betti --n 1 --m 2 --N 6 --seed 11",
     "a49c432728565c5664228926bffddade5231bbb1d47828aaff4befd16ca2161e"),
    ("betti --n 2 --m 1 --N 5 --seed 3",
     "7f0a3b1ef2ad6285594b841706d2e21a126e5f73fa2a8f4354f86f341de4ea26"),
    ("betti --n 2 --m 2 --N 4 --seed 5",
     "d6f76621733205c84ec6e4915644555cbb0472690fe314995b45139af9b6cfd7"),
    ("vres-intersect --n 1 --m 1 --N 5 --t 4 --seed 2",
     "e6f5936990abaf32e06092b7a0fe00dc283dcfe86a2acd3117e8c8c8c0953d90"),
    ("vres-intersect --n 2 --m 2 --N 4 --t 3 --seed 5",
     "b5566e54cbff4bab9e246c377e7ec583ad77b5390558b5c49611bdb84ea04349"),
    ("vres-intersect --N 6 --t 2 --seed 1 --window 30,30",
     "d47de7e26cd0b4d29c8ecb86167e2b213ea12d196184cb414e4fe4c955cfc56c"),
    ("vres-intersect --n 2 --m 1 --N 5 --t 1 --seed 3",
     "c6e1c77edcee76072a7863c7e3882dd74f932460f16c36e81c77f77f1821ee07"),
    ("vres-intersect --n 1 --m 3 --N 4 --t 2 --seed 4",
     "a4669c79b0b78f9183b10887d97d017a59a270919671a95af5f122c097da56a9"),
    ("vres-intersect --n 3 --m 1 --N 4 --t 1 --seed 4",
     "a2b0ba1eeb7e3f1a8bb6c4de2c4ff5acdcc58a6de16a71357f42fbfee10ef208"),
    ("vres-pair --n 1 --m 2 --N 6 --d 5,0 --seed 11",
     "2b1b9b6d4b88f0f32bd0ff07b41dca034f55c2c539886dbd90d570211c1ef641"),
    # tables with nonzero entries in the column-1..3 tails of S/I_X mod x0:
    # beta_{2,(12,1)} = 3, beta_{3,(12,2)} = 3 and beta_{4,(12,3)} = 1
    ("betti --N 12 --seed 1",
     "fd0fc7c8453ee21c75ce6b0266a6cf3f9d07fcc03e489413c3b1ba9f9d4fa533"),
    ("vres-pair --N 25 --d 24,0 --seed 1",
     "1af7f9492105b7fcce9a9ff08cdec852c0ed3eca52521950af8c1b8f2a3b2753"),
    # a large-N table: column 0 and row 0 reach N = 400 far from the origin
    ("hilbert --N 400 --seed 1",
     "97918e8e500995b75ccb30462d68ed487beb5436c1fc5074cc7c2884e25af388"),
    ("mrc --nmin 2 --nmax 8 --trials 2 --seed 7",
     "3834b8dc94f6f623a13984d80483bc33f60d74b7905a23f053ba409909875875"),
    # P^1 x P^m tables whose rows i >= 1 hold long runs with no drop in
    # dimension between rows, on m = 1, 2 and 3
    ("betti --N 40 --seed 1",
     "cd2a6e1d37af34418b97cb47b7d3b157d12daabf1ffd262e59aa3de10b0db169"),
    ("betti --n 1 --m 3 --N 20 --seed 2",
     "4cde0ad41e357b9f784bdf5162c69d7712fe0c71240a811192d04fec0dded0fd"),
    ("betti --n 1 --m 1 --N 15 --seed 3",
     "fa9c306f84ea484b727b0b7928dabee8356967e376b689a266ee6a556c848a83"),
    # beta_1 at large N, rows i >= 1 from the kernels of x1 where it drops
    ("mrc --nmin 250 --nmax 250 --trials 1 --seed 1",
     "3b4bde851bcd2f43cd347e47c59dde90099ab373968133b6dc1cf29051ea65ca"),
    # P^1 flags at the largest prime, where the products that build them
    # come nearest 2**52
    ("hilbert --n 1 --m 1 --N 30 --seed 2 --prime 67108859",
     "2857cbedd6278f9ce76958e63781caa5142b7c15f86d0e937dad77470efea9ff"),
    ("betti --n 2 --m 1 --N 6 --seed 4 --prime 67108859",
     "458f3d972dc47fb049cc7babce261957a3d69a8be413738e851201ca72ed546e"),
    ("betti --n 1 --m 1 --N 12 --seed 9 --prime 67108859",
     "24f3759dba6308b2b5728af1b728ba5d0c351e7523896e15e8dd1f613a968ee4"),
    ("regress all --seed 1",
     "9f6c35cc77c9d223285d9ee4db47138baacd50ebf8c66e491a2e355bd227e95b"),
    # n_y = 4: rows 4 and 6 are C(4, j) times their column-0 entry, as
    # beta_{2,(4,1)} = 12 = 4 * beta_{1,(4,0)} and beta_{4,(6,2)} = 6 * 2
    ("betti --n 2 --m 3 --N 12 --seed 1",
     "3e2156dd054282fc83524c843bc3590ef4c85c4cc8082d0bb4abf0bd4cf08f79"),
    # row 0 read off the row flag modulo y0: a Newton flag on m = 1, a
    # stepped flag on m = 3, and row 0 beside the full strands of n = 2
    ("betti --n 1 --m 1 --N 12 --seed 1",
     "24f3759dba6308b2b5728af1b728ba5d0c351e7523896e15e8dd1f613a968ee4"),
    ("betti --n 1 --m 3 --N 15 --seed 1",
     "16643a36d48308ed0d62879f8106358474d8206e8eb3ebe45cce6d1ff2082266"),
    ("betti --n 2 --m 1 --N 20 --seed 1",
     "4208d8d26220c5e672c850f4405ab6225860683c9c9ebff28447e32838ceab93"),
    ("mrc --nmin 80 --nmax 80 --trials 1 --seed 1",
     "8c95c03d9c3fe5299f5213493bd96d8f68700d76dbcefd6979a334e80d7605a1"),
    # intersected tables at t >= r_x on P^3 x P^1, where column 0 reaches
    # row t + 3 and k[x]_(t-1) has over a thousand monomials
    ("vres-intersect --n 3 --m 1 --N 20 --t 19 --seed 1",
     "05956159712e6b2ac3f4200e0dd7a58720c8da2317bcd4d0284230d0d77803fb"),
    ("vres-intersect --n 3 --m 1 --N 6 --t 20 --seed 1",
     "b00a289ff1716d4221b43089bede7293f739cf7d7720695a0a4dd5b174842e95"),
    # column 0 at t > r_x on P^3 x P^1, a closed form, where k[x]_40 is
    # 12341 monomials and no map reads them; and 10^5 rows below t on
    # P^1 x P^2, which the presentation holds as zeros
    ("vres-intersect --n 3 --m 1 --N 40 --t 41 --seed 1",
     "cd55abe2bec5c090a4fc2101769fca32940a68db006035406eb09d7fcf24195f"),
    ("vres-intersect --N 4 --t 100000 --seed 1",
     "e9c057d6c392b88416dfdf432eebc7f98f2e631ff71994f946c58db2f5eaafb9"),
    # intersected tables at 1 <= t < r_x, from the truncated strands: P^2 x
    # P^1 and P^3 x P^1 with column 0 ranked on the crossing into row t,
    # P^1 x P^2 far below r_x = 29, and P^2 x P^2
    ("vres-intersect --n 2 --m 1 --N 30 --t 3 --seed 1",
     "2b28896f61c41b902dd3cca79f1c7239639e36b3054ebbe0cdf8f9b65cf6ad2a"),
    ("vres-intersect --n 3 --m 1 --N 30 --t 2 --seed 1",
     "1d9ae457df033b438ee431be05fb5d129835ed91533839adf6ca65cedcaebdb6"),
    ("vres-intersect --N 30 --t 10 --seed 1",
     "4da9b5073fbb7e84d79da424406902fcacea50589b4bc8cda08cf6ab784b6ed5"),
    ("vres-intersect --n 2 --m 2 --N 20 --t 2 --seed 1",
     "14cdec003d2111eb8d3e7a6b8a18eac74985dfb6529442b493b063f7ac9e40bc"),
    # P^1 tables at 1 <= t < r_x: row t off the row quotient, rows above
    # it off the kernels of x1 modulo x0, on m = 2 and m = 3
    ("vres-intersect --N 80 --t 1 --seed 1",
     "efb9457e960e6b5c107677e84ce208519718e6807d2fcc58f7112002e70d1685"),
    ("vres-intersect --n 1 --m 3 --N 40 --t 3 --seed 1",
     "995f709b13b0144ad03e850d97a735ac9d48454cd197fb859ebca6d5be9c833f"),
    # P^1 tables below r_x whose kernels of x1 stall: past saturation in
    # row t, Z_(t+1) is all of V(t, .), and y0 maps each column onto the next
    ("vres-intersect --n 1 --m 1 --N 150 --t 20 --seed 1",
     "18301c102c759e9a05a5adbb0c2da7711eb1ba0392dd9887528aed34d9bf7964"),
    ("vres-intersect --N 80 --t 20 --seed 1",
     "e0eadaceeb07af5e8a95194d07759004b83948e98ef125b061491986aed25472"),
    ("vres-intersect --N 200 --t 1 --seed 1",
     "278b5cadd7ae6ef1f1c881f44cf6c764d885d4efe915c18cac57f871ba80479c"),
    # elimination of dense blocks of many rows, and sums of three residue
    # products at the largest prime
    ("hilbert --n 2 --m 1 --N 60 --seed 1 --prime 67108859",
     "6f15efb6986c649e9020585aa15724ffb7ef7d04764c2da0d18883f5e93341a6"),
    ("betti --n 2 --m 2 --N 30 --seed 1",
     "90dcd12868169ccdd2b60783437d6f3772d370cc36069ba6d34b90c0458d6ca6"),
    ("betti --n 2 --m 1 --N 40 --seed 2 --prime 67108859",
     "ecc996094041aef78ac8e735da6a0bc651714bc72861bf902c125b52576f903d"),
    # the widest rank strands per second of run time: seven and six ring
    # variables, strands of several hundred rows
    ("betti --n 3 --m 3 --N 30 --seed 1",
     "dc754463e25d30cffa12d38e6760b934ce7339240979d6d17540ebc47c6d5b53"),
    ("betti --n 4 --m 2 --N 20 --seed 1",
     "c097b63da3fe6a175e2b8b0ce3c4d929d01f978905f83590673eda3f07cc8d45"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS)
def test_output_matches_pinned_digest(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("VRES_PRIME", raising=False)
    rc, out = run(capsys, argv.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_large_intersect_window_stays_small(capsys):
    # the presentation holds no piece below row t, and pieces of at most N
    # dimensions from row t on (711.6 MB traced when each variable map was
    # a dense matrix over all of S)
    cox.monomials.cache_clear()
    tracemalloc.start()
    try:
        rc = main(["vres-intersect", "--N", "6", "--t", "2", "--seed", "1",
                   "--window", "40,40"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 50 * 2 ** 20


def test_large_intersect_window_reads_rows_from_t(monkeypatch):
    # the strands read only the pieces of <x>^t M (rows >= t), so no piece
    # of R below row t enters a map or a rank: 2,452 rank entries on the
    # (40,40) reproducer, whose strands all lie in the Betti box (6, 4)
    t = 2
    ps = random_points(1, 2, 6, seed=1, require_generic=True)
    pres = intersected_presentation(ps, t, (40, 40))
    entries, rank = [], betti.rank

    def counted(mat, p):
        entries.append(mat.size)
        return rank(mat, p)

    with monkeypatch.context() as mp:
        mp.setattr(betti, "rank", counted)
        bt = betti_numbers(pres)
    assert pres._maps
    assert all(d[0] >= t for _, d in pres._maps)
    assert sum(entries) < 4_000
    assert bt.boundary_clean


def test_free_rows_build_only_dense_column_0_x_maps():
    # below row t the presentation builds only the crossing from (t - 1, 0)
    # by an x-variable, and every map is a dense block
    t, n = 2, 1
    ps = random_points(1, 2, 6, seed=1, require_generic=True)
    pres = intersected_presentation(ps, t, (40, 40))
    betti_numbers(pres)
    assert pres._maps and all(block.ndim == 2 for block in pres._maps.values())
    for var, d in [(n + 2, (0, 1)), (0, (1, 1)), (n + 2, (1, 0)), (0, (0, 0))]:
        with pytest.raises(ValueError):
            pres.map(var, d)


def test_huge_betti_window_ranks_only_inside_the_box(capsys, monkeypatch):
    # six generic points in P^1 x P^2: r_x = 5 and r_y = 2, so no Betti
    # number lies past (6, 4) and no strand outside it is built; the strands
    # are row 0's, those of C/y0C over y1, y2, and those over y0, y1, y2 of
    # the kernels Z_i of x1 that give rows i >= 1
    cells, rows = [], []
    betti_cell, kernel_presentation = betti._betti_cell, betti._kernel_presentation

    def counted(pres, d, kmax, onto=True):
        cells.append((pres.variables, d))
        return betti_cell(pres, d, kmax, onto)

    def counted_kernel(pres, i):
        rows.append(i)
        return kernel_presentation(pres, i)

    monkeypatch.setattr(betti, "_betti_cell", counted)
    monkeypatch.setattr(betti, "_kernel_presentation", counted_kernel)
    rc, out = run(capsys, ["betti", "--N", "6", "--seed", "1", "--window", "400,400"])
    assert rc == 0 and json.loads(out)["boundary_clean"] is True
    assert cells and all(i <= 6 and j <= 4 for _, (i, j) in cells)
    assert rows and max(rows) <= 6
    assert {variables for variables, _ in cells} == {(3, 4), (2, 3, 4)}
    ps = random_points(1, 2, 6, seed=1, require_generic=True)
    want = betti_numbers(point_presentation(ps, betti_window(6, 1, 2)))
    assert {tuple(e[k] for k in "kij"): e["beta"]
            for e in json.loads(out)["entries"]} == want.entries


class TestExitCodes:
    def test_uncertified_degree_fails_with_report(self, capsys):
        rc, out = run(capsys, ["vres-pair", "--N", "5", "--d", "0,0",
                               "--seed", "2"])
        assert rc == 1
        assert json.loads(out)["failures"][0]["error"] == "NotInRegularity"

    def test_missing_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["points", "--N", "3"])
        assert exc.value.code == 2

    def test_malformed_bidegree_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["vres-pair", "--N", "5", "--d", "nope", "--seed", "1"])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["points", "--N", "0", "--seed", "1"],
        ["points", "--N", "5", "--seed", "1", "--prime", "3"],  # N >= p
        ["mrc", "--nmin", "0", "--nmax", "2", "--seed", "1"],
        ["mrc", "--nmin", "2", "--nmax", "3", "--seed", "1", "--prime", "3"],
        ["vres-intersect", "--N", "3", "--t", "0", "--seed", "1"],
        ["vres-pair", "--N", "3", "--d=-1,0", "--seed", "1"],
        ["betti", "--N", "3", "--window=-1,2", "--seed", "1"],
        # vres-pair takes no --window: it resolves exactly d + (n, m)
        ["vres-pair", "--N", "3", "--d", "2,0", "--window", "1,1", "--seed", "1"],
        # a window that misses the Betti box: one ending below row t, and
        # one whose table reads length 3 with no entry on its outer strip
        # although t = 2 < r_x = 5 gives length 4
        ["vres-intersect", "--N", "3", "--t", "2", "--window=1,5", "--seed", "1"],
        ["vres-intersect", "--N", "6", "--t", "2", "--seed", "11", "--window", "2,2"],
        # P^1 x P^0: no column degree covers three points, so no default window
        ["vres-intersect", "--n", "1", "--m", "0", "--N", "3", "--t", "2", "--seed", "1"],
        ["points", "--n", "-1", "--N", "3", "--seed", "1"],
        # mrc over an empty range or with no workers
        ["mrc", "--seed", "1", "--trials", "-3"],
        ["mrc", "--seed", "1", "--nmin", "9", "--nmax", "3"],
        ["mrc", "--seed", "1", "--nmax", "3", "--jobs", "-4"],
        # GF(11) gives no generic 10-point set within the draw cap
        ["points", "--N", "10", "--seed", "1", "--prime", "11"],
        # a negative seed on a command that samples one set
        ["points", "--N", "3", "--seed", "-1"],
        ["vres-pair", "--N", "4", "--d", "3,0", "--seed", "-5"],
        # a prime too small for the largest set of the suite (31 and 11 points)
        ["regress", "final", "--seed", "1", "--prime", "31"],
        ["regress", "appendix", "--seed", "1", "--prime", "7"],
        # an output or log path that cannot be opened, found before sampling
        ["points", "--N", "3", "--seed", "1", "--out", "/nonexistent/x.json"],
        ["points", "--N", "3", "--seed", "1", "--log", "/nonexistent/x.jsonl"],
    ])
    def test_out_of_range_input_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("VRES_PRIME", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag, env", [
        ("32004", None),     # composite
        ("0", None),
        ("2", None),         # even
        ("67108879", None),  # the first prime >= 2**26
        (None, "abc"),       # VRES_PRIME not an integer
        (None, "32004"),
    ])
    def test_invalid_prime_is_usage_error(self, capsys, monkeypatch, flag, env):
        if env is None:
            monkeypatch.delenv("VRES_PRIME", raising=False)
        else:
            monkeypatch.setenv("VRES_PRIME", env)
        argv = ["points", "--N", "3", "--seed", "1"]
        if flag is not None:
            argv += ["--prime", flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
