"""End-to-end command-line checks: determinism, exit codes, formats."""

import hashlib
import json
import tracemalloc

import pytest

from vreslab import cli, cox
from vreslab.betti import DirtyBoundary, betti_numbers, betti_window, point_presentation
from vreslab.cli import derive_seed, main
from vreslab.diffcalc import alternating_betti_from_hilbert
from vreslab.points import hilbert_matrix, hilbert_window, random_points
from vreslab.vres import intersect_window, predicted_pair_shape


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

    def test_intersect_retry_doubles_default_window(self, capsys, monkeypatch):
        windows = []

        class Table:
            def to_json(self):
                return "{}"

        def fake(ps, t, window=None):
            windows.append(window)
            if len(windows) == 1:
                raise DirtyBoundary("entries touch the window boundary")
            return Table(), 3

        monkeypatch.setattr(cli, "intersect_vres", fake)
        rc, _ = run(capsys, ["vres-intersect", "--N", "29", "--t", "28",
                             "--seed", "1"])
        assert rc == 0 and len(windows) == 2
        wi, wj = intersect_window(29, 28, 1, 2)
        assert windows[1][0] >= 2 * wi and windows[1][1] >= 2 * wj

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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        rc, out = run(capsys, ["mrc", "--jobs", "4096", "--nmin", "2",
                               "--nmax", "3", "--trials", "1", "--seed", "7"])
        assert rc == 0 and json.loads(out)["total"] == 2
        assert seen == [2]


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
    ("vres-pair --n 1 --m 2 --N 6 --d 5,0 --seed 11",
     "2b1b9b6d4b88f0f32bd0ff07b41dca034f55c2c539886dbd90d570211c1ef641"),
    ("mrc --nmin 2 --nmax 8 --trials 2 --seed 7",
     "3834b8dc94f6f623a13984d80483bc33f60d74b7905a23f053ba409909875875"),
    ("regress all --seed 1",
     "9f6c35cc77c9d223285d9ee4db47138baacd50ebf8c66e491a2e355bd227e95b"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS)
def test_output_matches_pinned_digest(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("VRES_PRIME", raising=False)
    rc, out = run(capsys, argv.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_large_intersect_window_stays_small(capsys):
    # the free rows below t hold index maps of R's pieces, so memory grows
    # with the piece dimensions, not with their squares (711.6 MB traced
    # when each variable map was a dense matrix over all of S)
    cox.monomials.cache_clear()
    cox.mult_map.cache_clear()
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
        # every piece below row t is free
        ["vres-intersect", "--N", "3", "--t", "2", "--window=1,5", "--seed", "1"],
        # P^1 x P^0: no column degree covers three points, so no default window
        ["vres-intersect", "--n", "1", "--m", "0", "--N", "3", "--t", "2", "--seed", "1"],
        ["points", "--n", "-1", "--N", "3", "--seed", "1"],
        # mrc over an empty range or with no workers
        ["mrc", "--seed", "1", "--trials", "-3"],
        ["mrc", "--seed", "1", "--nmin", "9", "--nmax", "3"],
        ["mrc", "--seed", "1", "--nmax", "3", "--jobs", "-4"],
        # GF(11) gives no generic 10-point set within the draw cap
        ["points", "--N", "10", "--seed", "1", "--prime", "11"],
    ])
    def test_out_of_range_input_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("VRES_PRIME", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

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
